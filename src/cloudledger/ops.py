"""Verified dynamic operations: append, delete, update.

Each operation is bracketed by two protocol runs. Before mutating, the
live cloud state must verify clean against the last committed restore
point (checksums included). The mutation is cluster.write_block, the one
write load_ledger's replay of each epoch makes too, so a live operation
and a replayed one are refused by one rule, in the same words, before
any write; the payload is hashed before that check, so a refused
operation hashes bytes it then drops. Afterwards, the client-side
prediction of the new manifest must match what the cloud actually
serves. The prediction is ledger.operation_records, the committed
records with the operation's address spliced, which load_ledger's replay
of each persisted epoch leaves. The spliced record takes its weight and
checksum from the block the operation stores, so make_block hashes the
payload once; that hides no fault, because a block is its content and
every fault stores a new block. Only then is a new restore point
committed, advancing the epoch by exactly one, with the operation line
that names its kind and address. Any failure after the mutation rolls
the cluster back to the last snapshot and is re-raised, so operations
are atomic. The byte accounting is exact: s_after = s_before + delta,
with delta the signed weight contribution of the operation against the
last point's record at its address. No manifest is summed for it:
s_after is the committed cluster's stored bytes, the sum of the weight
totals its servers keep beside their snapshot lines, and s_before =
s_after - delta, which is the last point's total because the commit
requires the stored records to be the prediction, the last point's
records with one splice. OperationKind is cluster's, re-exported here.
Requests and results are NamedTuples.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .cluster import ClusterState, OperationKind, make_block, read_manifest, write_block
from .errors import EpochMismatch, PostStateCorrupt, PreStateCorrupt
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


class OperationRequest(NamedTuple):
    """A client's intent: what to do, where, with which bytes, at which epoch.

    DELETE carries no payload, APPEND and UPDATE carry one. An APPEND's
    block_id may be None: the server assigns its next id, which a given
    block_id must be (write_block), so a request can name an append as its
    epoch file does. epoch_expected pins the request to the state the
    client believes is current.
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
    kind = request.kind.value
    if (request.payload is None) != (request.kind is OperationKind.DELETE):
        raise ValueError(f"{kind} requires a payload" if request.payload is None else f"{kind} carries no payload")
    if request.block_id is None and request.kind is not OperationKind.APPEND:
        raise ValueError(f"{kind} requires a block_id")


def apply(
    cluster: ClusterState,
    ledger: Ledger,
    request: OperationRequest,
    post_mutation_hook: Optional[Callable[[ClusterState], None]] = None,
) -> OperationResult:
    """Run one verified operation end to end.

    Raises EpochMismatch for requests pinned to an old epoch, PreStateCorrupt
    (without mutating) when the live state no longer matches the last
    restore point, NoSuchTarget / ServerDown (without mutating) for a
    target cluster.write_block refuses, and PostStateCorrupt when the
    mutation landed wrong. post_mutation_hook runs between the mutation
    and the post-check; fault scenarios use it to corrupt in-flight state.
    Any exception from the hook, the post-check or the commit
    (UnverifiedState when it refuses what a stale read path hid) rolls the
    cluster back to the last restore point and is re-raised.
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

    block = None if request.kind is OperationKind.DELETE else make_block(request.payload)
    block_id = write_block(cluster, request.kind, request.server_index, request.block_id, block)
    key = (request.server_index, block_id)
    committed = _record_at(last.manifest.records, key)
    record = None if block is None else BlockRecord(*key, len(block.payload), block.checksum)
    delta = (0 if record is None else record.weight) - (0 if committed is None else committed.weight)

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
