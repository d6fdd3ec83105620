"""Read-only third-party auditing.

An auditor holds a grant naming the epoch range it may inspect and the
comparison mode. Auditing compares each granted epoch's committed
manifest against the blocks the cloud currently serves for those
addresses, using the same pure comparison the client uses. The interface
is metadata-only by construction: verdicts carry records (weights and
checksums), never payload bytes, and nothing here can mutate cluster or
ledger state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cluster import ClusterState, read_manifest
from .errors import EmptyGrant
from .ledger import Ledger
from .protocol import Mode, Verdict, verify_equality


@dataclass(frozen=True)
class AuditGrant:
    """Delegated read access: an inclusive epoch range plus the mode."""

    first_epoch: int
    last_epoch: int
    mode: Mode


def granted_epochs(ledger: Ledger, grant: AuditGrant) -> list[int]:
    committed = range(len(ledger.points))
    return [e for e in committed if grant.first_epoch <= e <= grant.last_epoch]


def audit(ledger: Ledger, cluster: ClusterState, grant: AuditGrant) -> list[Verdict]:
    """Verify every granted committed epoch against live cloud state.

    For each epoch, the live manifest is restricted to the addresses that
    existed at that epoch (blocks appended later are not the old epoch's
    concern) and stamped with the audited epoch for comparison. Blocks
    legitimately updated or deleted at later epochs still diverge from an
    old epoch's manifest: an audit answers "does the cloud currently serve
    what epoch e committed", so the newest epoch is the live integrity
    check. Returns one verdict per granted epoch, oldest first.
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
        stored = ledger.points[epoch].manifest
        stored_keys = {r.key for r in stored.records}
        restricted = replace(live, epoch=epoch, records=tuple(r for r in live.records if r.key in stored_keys))
        verdicts.append(verify_equality(stored, restricted, grant.mode))
    return verdicts
