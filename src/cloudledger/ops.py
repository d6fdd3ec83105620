"""Verified dynamic operations: append, delete, update.

Each operation is bracketed by two protocol runs. Before mutating, the
live cloud state must verify clean against the last committed restore
point (checksums included); afterwards, the client-side prediction of the
new manifest must match what the cloud actually serves. The prediction is
ledger.operation_records, the committed records with the operation's
address spliced, which load_ledger's replay of each persisted epoch leaves.
The spliced record takes its weight and checksum from the block the
operation stores, so make_block hashes the payload once; that hides no
fault, because a block is its content and every fault stores a new block.
Only then is a new restore point committed, advancing the epoch by
exactly one, with the operation line that names its kind and address. Any
failure after the mutation rolls the cluster back to the last snapshot
and is re-raised, so operations are atomic. The byte accounting is exact:
s_after = s_before + delta, with delta the signed weight contribution of
the operation against the last point's record at its address. No
manifest is summed for it: s_after is the committed cluster's stored
bytes, the sum of the weight totals its servers keep beside their
snapshot lines, and s_before = s_after - delta, which is the last point's
total because the commit requires the stored records to be the
prediction, the last point's records with one splice. Requests and
results are NamedTuples.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional

from .cluster import ClusterState, make_block, read_manifest
from .errors import (
    EpochMismatch,
    NoSuchTarget,
    PostStateCorrupt,
    PreStateCorrupt,
    ServerDown,
)
from .ledger import (
    Ledger,
    commit_restore_point,
    journal_line,
    operation_line,
    operation_records,
    previous_records,
    rewrite_cluster_from_point,
)
from .manifest import BlockRecord, Level, Manifest, _record_at
from .protocol import Mode, Verdict, verify_equality


class OperationKind(enum.Enum):
    APPEND = "APPEND"
    DELETE = "DELETE"
    UPDATE = "UPDATE"


class OperationRequest(NamedTuple):
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


class OperationResult(NamedTuple):
    """Outcome of one committed operation, including both verdicts.

    delta is signed: positive for appends, negative for deletes, and the
    new-minus-old weight difference for updates, the old weight being the
    one the last point records at the address (a stale read path can hide
    a live block of another weight); s_after = s_before + delta holds
    exactly, and s_before and s_after are the totals of the points before
    and after the operation.
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

    Raises EpochMismatch for requests pinned to an old epoch, PreStateCorrupt
    (without mutating) when the live state no longer matches the last
    restore point, NoSuchTarget / ServerDown for bad targets, and
    PostStateCorrupt when the mutation landed wrong. post_mutation_hook runs
    between the mutation and the post-check; fault scenarios use it to
    corrupt in-flight state. Any exception from the hook, the post-check or
    the commit (UnverifiedState when it refuses what a stale read path
    hid) rolls the cluster back to the last restore point and is re-raised.
    """
    _validate_request(request)
    last = ledger.last()
    if request.epoch_expected != cluster.epoch:
        raise EpochMismatch(f"request is for epoch {request.epoch_expected}, cluster is at {cluster.epoch}")

    pre_verdict = verify_equality(last.manifest, read_manifest(cluster), Mode.CHECKSUM)
    if not pre_verdict.z:
        raise PreStateCorrupt(
            f"cloud state diverged from restore point {last.epoch} before the operation",
            pre_verdict,
        )

    if not 0 <= request.server_index < cluster.server_count:
        raise NoSuchTarget(f"no server {request.server_index}")
    server = cluster.servers[request.server_index]
    if not server.alive:
        raise ServerDown(f"server {request.server_index} is not alive")

    if request.kind is OperationKind.APPEND:
        block_id = max(server.blocks, default=-1) + 1
    elif request.block_id in server.records:
        block_id = request.block_id
    else:
        raise NoSuchTarget(f"no block {request.block_id} on server {request.server_index}")
    key = (request.server_index, block_id)
    committed = _record_at(last.manifest.records, key)
    old_weight = 0 if committed is None else committed.weight
    if request.kind is OperationKind.DELETE:
        server.drop(block_id)
        record, delta = None, -old_weight
    else:
        block = make_block(request.payload)
        server.put(block_id, block)
        record = BlockRecord(request.server_index, block_id, len(block.payload), block.checksum)
        delta = len(block.payload) - old_weight

    cluster.epoch += 1
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    expected = Manifest(
        level=Level.USER,
        epoch=cluster.epoch,
        records=operation_records(last.manifest.records, key, record),
        server_count=last.manifest.server_count,
    )
    try:
        if post_mutation_hook is not None:
            post_mutation_hook(cluster)
        post_verdict = verify_equality(expected, read_manifest(cluster), Mode.CHECKSUM)
        if not post_verdict.z:
            raise PostStateCorrupt(
                f"cloud state after the operation does not match the expected manifest;"
                f" rolled back to epoch {last.epoch}",
                post_verdict,
            )
        commit_restore_point(ledger, cluster, post_verdict,
                             operation_line(request.kind.value, request.server_index, block_id))
    except BaseException:
        rewrite_cluster_from_point(ledger, cluster)
        raise
    s_after = cluster.total_stored_bytes()
    return OperationResult(
        kind=request.kind,
        server_index=request.server_index,
        block_id=block_id,
        new_epoch=cluster.epoch,
        pre_verdict=pre_verdict,
        post_verdict=post_verdict,
        s_before=s_after - delta,
        delta=delta,
        s_after=s_after,
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
    """One deterministic journal line per committed operation: the line
    history renders for its epoch from the ledger."""
    op = operation_line(result.kind.value, result.server_index, result.block_id)
    return journal_line(result.new_epoch, op, result.delta, result.s_after)
