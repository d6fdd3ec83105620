"""Read-only third-party auditing.

An auditor holds a grant naming the epoch range it may inspect and the
comparison mode. Auditing compares each granted epoch's committed
manifest against the blocks the cloud currently serves, with the same
classification the client's comparison uses, and drops the EXTRA
divergences: blocks at addresses the epoch did not hold are not its
concern. It reads the live manifest once and walks the granted epochs
from newest to oldest, keeping the difference between the epoch's
records and the live ones current step by step. Consecutive restore
points differ in one operation, so each step hashes one server's
records, and an audit of E epochs over n records costs O(n) comparisons
in C plus O(E x one server + divergences) hashing and Python work,
instead of two n-record sets per epoch. The interface
is metadata-only by construction: verdicts carry records (weights and
checksums), never payload bytes, and nothing here can mutate cluster or
ledger state. A grant is a NamedTuple.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .cluster import ClusterState, read_manifest
from .errors import EmptyGrant
from .ledger import Ledger
from .protocol import DivergenceKind, Mode, Verdict, _classify, _differing, _on_servers


class AuditGrant(NamedTuple):
    """Delegated read access: an inclusive epoch range plus the mode."""

    first_epoch: int
    last_epoch: int
    mode: Mode


def granted_epochs(ledger: Ledger, grant: AuditGrant) -> list[int]:
    committed = range(len(ledger.points))
    return [e for e in committed if grant.first_epoch <= e <= grant.last_epoch]


def audit(ledger: Ledger, cluster: ClusterState, grant: AuditGrant) -> list[Verdict]:
    """Verify every granted committed epoch against live cloud state.

    Each verdict is verify_equality's for the epoch's committed manifest
    against the live manifest stamped with the audited epoch, less its
    EXTRA divergences: blocks at addresses the epoch did not hold
    (appended later) are not the old epoch's concern. That equals
    restricting the live manifest to the epoch's addresses first: a live
    record at an address the epoch holds either equals the epoch's record
    or is paired with it, so it is never EXTRA, and every live record at
    an address the epoch lacks is EXTRA (a committed manifest lists no
    unavailable server, and dead servers contribute no live records).
    Blocks legitimately updated or deleted at later epochs still diverge
    from an old epoch's manifest: an audit answers "does the cloud
    currently serve what epoch e committed", so the newest epoch is the
    live integrity check.

    The live records are read once and diffed against the newest granted
    epoch; the walk then steps down one epoch at a time, diffing point e
    against point e + 1 (usually one server's slice) and updating the two
    sides of the difference: a record leaving the epoch that only the
    epoch held is dropped, any other becomes live-only; a record entering
    the epoch that only the live side held is dropped, any other becomes
    epoch-only. Returns one verdict per granted epoch, oldest first.
    """
    epochs = granted_epochs(ledger, grant)
    if not epochs:
        raise EmptyGrant(
            f"grant {grant.first_epoch}..{grant.last_epoch} covers none of the"
            f" {len(ledger.points)} committed epochs"
        )
    live = read_manifest(cluster)
    newest = ledger.points[epochs[-1]].manifest
    epoch_only, live_only = _differing(newest.records, live.records)
    verdicts = []
    for epoch in reversed(epochs):
        manifest = ledger.points[epoch].manifest
        if epoch < epochs[-1]:
            leaving, entering = _differing(ledger.points[epoch + 1].manifest.records, manifest.records)
            live_only |= leaving - epoch_only
            epoch_only -= leaving
            epoch_only |= entering - live_only
            live_only -= entering
        unavailable = manifest.unavailable_servers | live.unavailable_servers
        verdict = _classify(
            chain(epoch_only, _on_servers(manifest.records, unavailable)),
            chain(live_only, _on_servers(live.records, unavailable)),
            unavailable, grant.mode, epoch,
        )
        kept = tuple(d for d in verdict.divergences if d.kind is not DivergenceKind.EXTRA)
        verdicts.append(verdict._replace(z=not kept, divergences=kept))
    verdicts.reverse()
    return verdicts
