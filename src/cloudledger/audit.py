"""Read-only third-party auditing.

An auditor holds a grant naming the epoch range it may inspect and the
comparison mode. Auditing asks, for each granted epoch, whether the
cloud still serves what that epoch committed: it keeps one set, the
records the epoch committed that the live manifest lacks, and classifies
each against the live record at the same address, with the same
classification the client's comparison uses. Blocks at addresses the
epoch did not hold are not its concern, so none is ever compared. It
reads the live manifest once and walks the granted epochs from newest to
oldest, keeping the set current step by step. Consecutive restore points
differ at the one address the newer one's operation line names, so each
step costs two bisects and at most two set updates, and Python work per
reported divergence; only the start, the newest granted epoch against
the live records, compares whole manifests, and not even that when they
are equal. The interface is metadata-only by construction:
verdicts carry records (weights and checksums), never payload bytes, and
nothing here can mutate cluster or ledger state. A grant is a NamedTuple.
"""

from __future__ import annotations

from typing import NamedTuple

from .cluster import ClusterState, read_manifest
from .errors import NoSuchTarget
from .ledger import Ledger, operation_address
from .manifest import _record_at
from .protocol import Mode, Verdict, _classify, _differing


class AuditGrant(NamedTuple):
    """Delegated read access: an inclusive epoch range plus the mode."""

    first_epoch: int
    last_epoch: int
    mode: Mode


def granted_epochs(ledger: Ledger, grant: AuditGrant) -> range:
    return range(max(grant.first_epoch, 0), min(grant.last_epoch + 1, len(ledger.points)))


def audit(ledger: Ledger, cluster: ClusterState, grant: AuditGrant) -> list[Verdict]:
    """Verify every granted committed epoch against live cloud state.

    Each verdict is verify_equality's for the epoch's committed manifest
    against the live records at the epoch's addresses, stamped with the
    audited epoch. Only the records the epoch committed that the live
    manifest lacks can diverge, and each is classified against the live
    record at its address: MISSING if there is none, a mismatch if its
    weight or checksum differs, SERVER_UNAVAILABLE on a dead server. A
    committed manifest lists no unavailable server and read_manifest
    serves no record of a dead server, so every record the epoch holds
    there is in the set. Blocks legitimately updated or deleted at later
    epochs still diverge from an old epoch's manifest: an audit answers
    "does the cloud currently serve what epoch e committed", so the
    newest epoch is the live integrity check.

    The set starts empty when the newest granted epoch's records equal
    the live ones (a dead server's records are missing from the live
    ones, so equality hides no crash), and as their difference otherwise.
    The walk then steps down one epoch at a time: point e + 1 differs from
    point e only at the address its operation line names, so the record
    point e + 1 holds there leaves the set and the one point e holds there
    joins it unless the live records hold it. That is a precondition:
    ops.apply commits only records equal to operation_records of the last
    point's at that address, and commit_restore_point refuses blocks that
    differ from the last point's elsewhere (_written_blocks); load_ledger
    builds each point by replaying its line's one write onto the point
    before.
    Returns one verdict per granted epoch, oldest first.
    """
    epochs = granted_epochs(ledger, grant)
    if not epochs:
        raise NoSuchTarget(
            f"grant {grant.first_epoch}..{grant.last_epoch} covers none of the"
            f" {len(ledger.points)} committed epochs"
        )
    live = read_manifest(cluster)
    newest = ledger.points[epochs[-1]].manifest.records
    epoch_only = set() if newest == live.records else _differing(newest, live.records)[0]
    verdicts = []
    for epoch in reversed(epochs):
        if epoch < epochs[-1]:
            key = operation_address(ledger.points[epoch + 1].op)
            leaving = _record_at(ledger.points[epoch + 1].manifest.records, key)
            entering = _record_at(ledger.points[epoch].manifest.records, key)
            epoch_only.discard(leaving)
            if entering is not None and _record_at(live.records, key) != entering:
                epoch_only.add(entering)
        held = (_record_at(live.records, r.key) for r in epoch_only)
        verdicts.append(_classify(epoch_only, filter(None, held), live.unavailable_servers, grant.mode, epoch))
    verdicts.reverse()
    return verdicts
