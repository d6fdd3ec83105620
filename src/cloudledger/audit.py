"""Read-only third-party auditing.

An auditor holds a grant naming the epoch range it may inspect and the
comparison mode. Auditing compares each granted epoch's committed
manifest against the blocks the cloud currently serves, using the same
pure comparison the client uses, and drops the EXTRA divergences: blocks
at addresses the epoch did not hold are not its concern. The interface
is metadata-only by construction: verdicts carry records (weights and
checksums), never payload bytes, and nothing here can mutate cluster or
ledger state. A grant is a NamedTuple.
"""

from __future__ import annotations

from typing import NamedTuple

from .cluster import ClusterState, read_manifest
from .errors import EmptyGrant
from .ledger import Ledger
from .protocol import DivergenceKind, Mode, Verdict, verify_equality


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

    For each epoch, the live manifest is stamped with the audited epoch
    and compared whole; the EXTRA divergences are then dropped, because
    blocks at addresses the epoch did not hold (appended later) are not
    the old epoch's concern. That equals restricting the live manifest to
    the epoch's addresses first: a live record at an address the epoch
    holds either equals the epoch's record or is paired with it, so it is
    never EXTRA, and every live record at an address the epoch lacks is
    EXTRA (a committed manifest lists no unavailable server, and dead
    servers contribute no live records). Blocks legitimately updated or
    deleted at later epochs still diverge from an old epoch's manifest:
    an audit answers "does the cloud currently serve what epoch e
    committed", so the newest epoch is the live integrity check. Returns
    one verdict per granted epoch, oldest first.
    """
    epochs = granted_epochs(ledger, grant)
    if not epochs:
        raise EmptyGrant(
            f"grant {grant.first_epoch}..{grant.last_epoch} covers none of the"
            f" {len(ledger.points)} committed epochs"
        )
    live = read_manifest(cluster)
    verdicts = []
    for epoch in epochs:
        verdict = verify_equality(ledger.points[epoch].manifest, live._replace(epoch=epoch), grant.mode)
        kept = tuple(d for d in verdict.divergences if d.kind is not DivergenceKind.EXTRA)
        verdicts.append(verdict._replace(z=not kept, divergences=kept))
    return verdicts
