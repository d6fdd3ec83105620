"""Verified dynamic operations: append, delete, update.

Each operation is bracketed by two protocol runs. Before mutating, the
live cloud state must verify clean against the last committed restore
point (checksums included); afterwards, the client-side prediction of the
new manifest must match what the cloud actually serves. Only then is a
new restore point committed, advancing the epoch by exactly one. A failed
post-check rolls the cluster back to the last snapshot, so operations are
atomic. The byte accounting is exact: s_after = s_before + delta, with
delta the signed weight contribution of the operation.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .checksum import fnv1a64
from .cluster import ClusterState, make_block, read_manifest
from .errors import (
    NoSuchBlock,
    PostStateCorrupt,
    PreStateCorrupt,
    ServerDown,
    StaleEpoch,
    UnverifiedState,
)
from .ledger import Ledger, commit_restore_point, rewrite_cluster_from_point
from .manifest import BlockRecord, Level, Manifest
from .protocol import Mode, Verdict, verify_equality


class OperationKind(enum.Enum):
    APPEND = "APPEND"
    DELETE = "DELETE"
    UPDATE = "UPDATE"


@dataclass(frozen=True)
class OperationRequest:
    """A client's intent: what to do, where, with which bytes, at which epoch.

    DELETE carries no payload; APPEND carries no block_id (the server
    assigns the next one); epoch_expected pins the request to the state
    the client believes is current.
    """

    kind: OperationKind
    server_index: int
    block_id: Optional[int] = None
    payload: Optional[bytes] = None
    epoch_expected: int = 0


@dataclass(frozen=True)
class OperationResult:
    """Outcome of one committed operation, including both verdicts.

    delta is signed: positive for appends, negative for deletes, and the
    new-minus-old weight difference for updates; s_after = s_before + delta
    holds exactly.
    """

    kind: OperationKind
    server_index: int
    block_id: int
    new_epoch: int
    pre_verdict: Verdict
    post_verdict: Verdict
    s_before: int
    delta: int
    s_after: int


def _validate_request(request: OperationRequest) -> None:
    if request.kind is OperationKind.APPEND:
        if request.payload is None:
            raise ValueError("APPEND requires a payload")
        if request.block_id is not None:
            raise ValueError("APPEND assigns its own block_id")
    elif request.kind is OperationKind.DELETE:
        if request.payload is not None:
            raise ValueError("DELETE carries no payload")
        if request.block_id is None:
            raise ValueError("DELETE requires a block_id")
    elif request.kind is OperationKind.UPDATE:
        if request.payload is None:
            raise ValueError("UPDATE requires a payload")
        if request.block_id is None:
            raise ValueError("UPDATE requires a block_id")


def apply(
    cluster: ClusterState,
    ledger: Ledger,
    request: OperationRequest,
    post_mutation_hook: Optional[Callable[[ClusterState], None]] = None,
) -> OperationResult:
    """Run one verified operation end to end.

    Raises StaleEpoch for requests pinned to an old epoch, PreStateCorrupt
    (without mutating) when the live state no longer matches the last
    restore point, NoSuchBlock / ServerDown for bad targets, and
    PostStateCorrupt (after rolling back) when the mutation landed wrong;
    UnverifiedState (likewise) when the commit refuses what a stale read path hid.
    post_mutation_hook runs between the mutation and the post-check; fault
    scenarios use it to corrupt in-flight state.
    """
    _validate_request(request)
    last = ledger.last()
    if request.epoch_expected != cluster.epoch:
        raise StaleEpoch(f"request is for epoch {request.epoch_expected}, cluster is at {cluster.epoch}")

    pre_verdict = verify_equality(last.manifest, read_manifest(cluster), Mode.CHECKSUM)
    if not pre_verdict.z:
        raise PreStateCorrupt(
            f"cloud state diverged from restore point {last.epoch} before the operation",
            pre_verdict,
        )
    s_before = last.manifest.total_weight

    if not 0 <= request.server_index < cluster.server_count:
        raise NoSuchBlock(f"no server {request.server_index}")
    server = cluster.servers[request.server_index]
    if not server.alive:
        raise ServerDown(f"server {request.server_index} is not alive")

    if request.kind is OperationKind.APPEND:
        block_id, old_weight = max(server.blocks, default=-1) + 1, 0
    elif request.block_id in server.blocks:
        block_id, old_weight = request.block_id, server.blocks[request.block_id].weight
    else:
        raise NoSuchBlock(f"no block {request.block_id} on server {request.server_index}")
    # The expected manifest is the committed one with the changed address
    # spliced: its old record (if any) removed, the new one (if any) in place.
    records = list(last.manifest.records)
    key = (request.server_index, block_id)
    at = bisect_left(records, key)
    end = at + (at < len(records) and records[at].key == key)
    if request.kind is OperationKind.DELETE:
        server.drop(block_id)
        records[at:end] = []
        delta = -old_weight
    else:
        payload = bytes(request.payload or b"")
        server.put(make_block(block_id, payload))
        records[at:end] = [BlockRecord(request.server_index, block_id, len(payload), fnv1a64(payload))]
        delta = len(payload) - old_weight

    # The last point's records are now the previous epoch's, until a rollback.
    cluster.epoch += 1
    committed_before, cluster.previous_records = cluster.previous_records, last.manifest.records
    expected = Manifest(
        level=Level.USER,
        epoch=cluster.epoch,
        records=tuple(records),
        server_count=last.manifest.server_count,
    )

    if post_mutation_hook is not None:
        post_mutation_hook(cluster)

    post_verdict = verify_equality(expected, read_manifest(cluster), Mode.CHECKSUM)
    if not post_verdict.z:
        rewrite_cluster_from_point(ledger, cluster)
        cluster.previous_records = committed_before
        raise PostStateCorrupt(
            f"cloud state after the operation does not match the expected manifest;"
            f" rolled back to epoch {last.epoch}",
            post_verdict,
        )

    try:
        commit_restore_point(ledger, cluster, post_verdict)
    except UnverifiedState:
        rewrite_cluster_from_point(ledger, cluster)
        cluster.previous_records = committed_before
        raise
    return OperationResult(
        kind=request.kind,
        server_index=request.server_index,
        block_id=block_id,
        new_epoch=cluster.epoch,
        pre_verdict=pre_verdict,
        post_verdict=post_verdict,
        s_before=s_before,
        delta=delta,
        s_after=s_before + delta,
    )


def append(
    cluster: ClusterState,
    ledger: Ledger,
    server_index: int,
    payload: bytes,
    post_mutation_hook: Optional[Callable[[ClusterState], None]] = None,
) -> OperationResult:
    """Append a new block to a server; it gets the next free block_id."""
    request = OperationRequest(
        kind=OperationKind.APPEND,
        server_index=server_index,
        payload=payload,
        epoch_expected=cluster.epoch,
    )
    return apply(cluster, ledger, request, post_mutation_hook)


def delete(
    cluster: ClusterState,
    ledger: Ledger,
    server_index: int,
    block_id: int,
    post_mutation_hook: Optional[Callable[[ClusterState], None]] = None,
) -> OperationResult:
    """Delete one block; surviving blocks keep their ids (no renumbering)."""
    request = OperationRequest(
        kind=OperationKind.DELETE,
        server_index=server_index,
        block_id=block_id,
        epoch_expected=cluster.epoch,
    )
    return apply(cluster, ledger, request, post_mutation_hook)


def update(
    cluster: ClusterState,
    ledger: Ledger,
    server_index: int,
    block_id: int,
    payload: bytes,
    post_mutation_hook: Optional[Callable[[ClusterState], None]] = None,
) -> OperationResult:
    """Replace one block's payload in place; the new length may differ.

    An update to identical bytes still advances the epoch and commits a
    restore point (one point per update, no exception for no-ops).
    """
    request = OperationRequest(
        kind=OperationKind.UPDATE,
        server_index=server_index,
        block_id=block_id,
        payload=payload,
        epoch_expected=cluster.epoch,
    )
    return apply(cluster, ledger, request, post_mutation_hook)


def render_journal_line(result: OperationResult) -> str:
    """One deterministic journal line per committed operation."""
    return (
        f"{result.new_epoch} {result.kind.value}"
        f" server={result.server_index} block={result.block_id}"
        f" delta={result.delta:+d} s_after={result.s_after}"
        f" z_pre={'true' if result.pre_verdict.z else 'false'}"
        f" z_post={'true' if result.post_verdict.z else 'false'}"
    )
