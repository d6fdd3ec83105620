"""Append-only restore-point ledger and crash recovery.

Every verified update commits one restore point: the cloud manifest and
the redo record that rebuilds it, the bytes of its epoch file. The
point's aggregate X (cloud total plus user total
summed over servers) is derived from that manifest: a verified commit
has S = T, so X is twice the manifest total, and is never stored. The
ledger keeps one block store, shared by all its points, holding each
distinct block once (on disk, in the epoch file of the commit that was
first to store it), so a commit stores only the blocks the store lacks:
for an operation, at most the one block it wrote, since its other blocks
must be the last point's.

Recovery declares the state intact when every server is up and the
live records equal the last committed manifest's, an identity test when
no write came after the commit and else one tuple comparison, which,
with no server unavailable, is the clean CHECKSUM verdict; equal
records imply equal weights, so the live aggregate Y equals X without
being computed. Otherwise the last point's snapshot, the one snapshot
text the ledger keeps, which names each record's block by content
digest, is loaded into the cluster, writing only the addresses whose
block differs, and only that restored state runs through
verify_equality.

Timestamps are logical clock ticks, not wall time, so ledgers are
byte-reproducible: epoch k commits at tick k + 1. Ledger is a plain
mutable class, RestorePoint and RecoveryReport NamedTuples.

This module owns the ledger directory, the CLI's files included, and
write_file is its one writer, replacing whole files only. Memory follows
the disk: a commit's blocks join the store and its point the ledger once
its epoch file's rename, the commit, is done. The committed epochs are
the files 0.snapshot to (E-1).snapshot, found by one listing of the
directory. Each is a redo record of the operation that committed it, the
upload's included: its operation line, from which history renders the
line the operation printed, then each block it wrote, stored as its
weight and payload or named by its digest, and last a chain line, which
hashes the file with the chain of the files before it. The chain covers
every entry's bytes, so no entry names its digest: the load computes it,
once, to key the block store. load_ledger checks every chain line, then
replays the upload onto an empty cluster and each later operation onto
the epoch before, so no ledger file stores manifest or snapshot text. The
CLI's live cluster, cluster.state, is the last point with the faults
injected since it replayed onto it (load_cluster).
"""

from __future__ import annotations

import enum
import hashlib
import os
import re
from bisect import bisect_left
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

from .cluster import (
    ClusterState,
    FaultKind,
    FaultSpec,
    inject_fault,
    load_snapshot,
    new_cluster,
    read_manifest,
    snapshot_cluster,
    stored_manifest,
)
from .errors import (
    EpochMismatch,
    ManifestFormatError,
    NoSuchTarget,
    NothingToRestore,
    SnapshotCorrupt,
    UnverifiedState,
)
from .manifest import BlockRecord, DataBlock, Manifest, _server_bounds, make_block
from .protocol import Mode, Verdict, verify_equality


class RestorePoint(NamedTuple):
    """One committed epoch: its manifest and its record, the bytes of its
    epoch file exactly as the commit wrote them or the load read them, so a
    loaded point equals the committed one field by field. The record holds
    no snapshot text: replaying it onto the epoch before rebuilds the
    point. The epoch is the manifest's, and the tick and X derive from the
    manifest.
    """

    manifest: Manifest
    record: bytes

    @property
    def op(self) -> str:
        """The record's first line: ``UPLOAD servers=<n>`` at epoch 0 and
        ``<KIND> server=<s> block=<b>`` after, without the LF."""
        return self.record.partition(b"\n")[0].decode("utf-8")

    @property
    def epoch(self) -> int:
        return self.manifest.epoch

    @property
    def timestamp(self) -> int:
        """The logical tick of the commit: one per epoch, starting at 1."""
        return self.epoch + 1

    @property
    def committed_x(self) -> int:
        """Aggregate X, the sum over servers of S_i + T_i: twice the total, as S_i = T_i."""
        return 2 * self.manifest.total_weight


class Ledger:
    """Append-only list of restore points; points[k].epoch == k.

    ``blocks`` is the block store (digest -> DataBlock) every record
    resolves in. ``last_snapshot`` is the last point's snapshot text, the
    one a restore loads, kept once here rather than on every point; None
    before the first commit. When bound to a directory, every commit
    replaces ``<epoch>.snapshot``, the rename that commits it. A ledger
    load_ledger made also holds, until load_cluster takes it, the cluster
    its replay ended in, at the last point.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.points: list[RestorePoint] = []
        self.directory = directory
        self.blocks: dict[str, DataBlock] = {}
        self.last_snapshot: Optional[str] = None
        self._replayed: Optional[ClusterState] = None

    @property
    def next_epoch(self) -> int:
        return len(self.points)

    def last(self) -> RestorePoint:
        if not self.points:
            raise NothingToRestore("ledger holds no restore points")
        return self.points[-1]


def previous_records(ledger: Ledger, epoch: int) -> Optional[tuple[BlockRecord, ...]]:
    """The records committed at epoch - 1, which a stale read path replays; None if there are none."""
    return ledger.points[epoch - 1].manifest.records if 0 < epoch <= len(ledger.points) else None


def operation_records(records: tuple[BlockRecord, ...], key: tuple[int, int],
                      record: Optional[BlockRecord]) -> tuple[BlockRecord, ...]:
    """Sorted ``records`` with the record at ``key`` replaced by ``record``,
    or removed when it is None: what one operation on the address ``key``
    does to the records. A pure splice, which applies no rules; ops.apply
    predicts with it, and load_ledger's replay of an epoch's put or drop
    leaves it."""
    at = bisect_left(records, key)
    end = at + (at < len(records) and records[at].key == key)
    return records[:at] + (() if record is None else (record,)) + records[end:]


class RecoveryAction(enum.Enum):
    RESTORED = "RESTORED"
    INTACT = "INTACT"


class RecoveryReport(NamedTuple):
    action: RecoveryAction
    epoch: int


def commit_restore_point(ledger: Ledger, cluster: ClusterState, verdict: Verdict,
                         op: Optional[str] = None) -> RestorePoint:
    """Append a restore point for the cluster's current (verified) state,
    committed by the operation whose line is ``op``, or by the upload.

    Refuses unverified or epoch-desynced commits, an operation line at
    epoch 0 or none at a later epoch, and stored blocks that a stale read
    path hid from the verdict; on success the stored blocks' manifest (and
    with it X) and the record are frozen and the logical clock ticks. The
    manifest shares every record the commit did not change with the
    previous point, whose records become the cluster's previous_records,
    the ones a stale read path replays. The record is the epoch file: the
    operation line, the upload's naming its server count, a block line per
    block the operation wrote, in record order (the entry of a block the
    ledger stores for the first time, a reference otherwise), and the
    chain line (_chain_line). An operation's blocks must be the previous
    point's but for the one its line names, which _written_blocks checks on
    every server's kept digest lines, so that block is the only one looked
    up in the store. A bound ledger writes the epoch file before the
    blocks join the store, the point joins ``points`` and its snapshot text
    becomes ``last_snapshot``. The cluster then lists only the crashes and
    stale read paths among its faults: the stored blocks verified as the
    point's, so no other fault is in effect, and these replay onto it as
    they did onto the point before.
    """
    if not verdict.z:
        raise UnverifiedState("refusing to snapshot a state that failed verification")
    if verdict.epoch != cluster.epoch:
        raise EpochMismatch(f"verdict is for epoch {verdict.epoch}, cluster is at {cluster.epoch}")
    if cluster.epoch != ledger.next_epoch:
        raise EpochMismatch(f"ledger expects epoch {ledger.next_epoch}, cluster is at {cluster.epoch}")
    if (op is None) != (cluster.epoch == 0):
        raise EpochMismatch(f"epoch {cluster.epoch} is committed {'with' if op else 'without'} an operation line;"
                            " the upload commits epoch 0, and one operation each later epoch")

    manifest, served = stored_manifest(cluster), read_manifest(cluster).records
    if manifest.records is not served and manifest.records != served:
        raise UnverifiedState("refusing to snapshot stored blocks that differ from the verified read path")
    if op is None:
        op = f"UPLOAD servers={cluster.server_count}"
        written = [block for server in cluster.servers for block in server.blocks.values()]
    else:
        written = _written_blocks(ledger.last(), ledger.last_snapshot, cluster, op)
    added = {block.digest: block for block in written if block.digest not in ledger.blocks}
    new = dict(added)  # an entry where a block first occurs, a reference after
    lines = [_entry(new.pop(block.digest)) if block.digest in new else f"{block.digest}\n".encode("ascii")
             for block in written]
    body = b"".join([f"{op}\n".encode("utf-8"), *lines])
    point = RestorePoint(manifest, body + _chain_line(ledger.points[-1].record if ledger.points else b"", body))
    if ledger.directory is not None:
        _persist_point(ledger.directory, point)
    ledger.blocks.update(added)
    ledger.last_snapshot = snapshot_cluster(cluster)
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    cluster.faults = [fault for fault in cluster.faults if fault.kind in _LIVE_STATUS]
    ledger.points.append(point)
    return point


def recover(ledger: Ledger, cluster: ClusterState) -> RecoveryReport:
    """Restore the cluster to the last committed point unless it is intact.

    Intact means: the cluster is at the committed epoch and server count,
    every server is alive, no stale read path is armed, and the live
    records equal the stored manifest's. That is an identity test when no
    put or drop came after the commit, since the live records are then the
    tuple the commit froze, and otherwise one tuple comparison in C; with
    every server up it is exactly a passing CHECKSUM
    comparison, so verify_equality is not run; it also implies the live
    aggregate Y equals the committed X. Weight equality alone is not
    trusted, because identical-weight substitutions leave Y unchanged;
    nor is a pass through a stale read path, which replays committed
    records whatever the servers store. An intact cluster's faults, such as
    two flips of one byte that cancel, are no longer listed. Otherwise the
    snapshot is loaded into the cluster, which writes only the addresses a
    fault changed, so the restored cluster shares the committed records;
    crashed servers are revived, the lying read path and the fault list are
    cleared, and the restored state is re-verified: the one verify_equality
    call a recover makes.
    """
    last = ledger.last()
    live = read_manifest(cluster)
    intact = (
        live.server_count == last.manifest.server_count
        and live.epoch == last.epoch
        and all(s.alive for s in cluster.servers)
        and not cluster.stale_armed
        and (live.records is last.manifest.records or live.records == last.manifest.records)
    )
    if intact:
        cluster.faults = []
        return RecoveryReport(RecoveryAction.INTACT, last.epoch)

    rewrite_cluster_from_point(ledger, cluster)
    return RecoveryReport(RecoveryAction.RESTORED, last.epoch)


def rewrite_cluster_from_point(ledger: Ledger, cluster: ClusterState) -> None:
    """Overwrite cluster storage with the ledger's last snapshot.

    load_snapshot loads the snapshot into the cluster itself, taking the
    blocks from the ledger's store (unhashed) and writing only the
    addresses whose block differs, so every unchanged address keeps the
    record object the committed point holds (a cluster of another server
    count gets new servers). Like every snapshot load, it revives every
    server and disarms a stale read path. Resets the epoch to the point's
    and the previous_records to those committed before it, and re-verifies
    the result against the stored manifest, a comparison that stops at
    identity for the shared records; failure to verify means the snapshot
    itself is corrupt. It is the one rollback, for recover and a failed
    ops.apply.
    """
    point = ledger.last()
    load_snapshot(ledger.last_snapshot, ledger.blocks, into=cluster)
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    check = verify_equality(point.manifest, read_manifest(cluster), Mode.CHECKSUM)
    if not check.z:
        raise SnapshotCorrupt(f"restored state fails its manifest check ({len(check.divergences)} divergences)")


def _written_blocks(last: RestorePoint, text: str, cluster: ClusterState, op: str) -> list[DataBlock]:
    """The blocks an operation wrote: the one it put at the address its
    line ``op`` names, none for a DELETE. First refuses to commit a cluster
    of another server count than the ``last`` point, or blocks that are not
    that point's with only this one put or dropped: its epoch file records
    this block alone, so load could not rebuild the point. Records equal to
    the prediction leave only a block of another's weight and FNV-1a
    checksum to differ so. Each server's kept digest lines are compared in
    C with its slice of the last point's snapshot ``text`` (_digests_at),
    into which the operation's line is spliced: put always makes a new
    record, so a server whose records are the point's holds the point's
    blocks, and comparing it too refuses nothing more. snapshot_cluster
    takes the same kept lines right after, so the check joins nothing the
    commit would not."""
    records = last.manifest.records
    if cluster.server_count != last.manifest.server_count:
        raise UnverifiedState(f"refusing to commit {cluster.server_count} servers after a point of"
                              f" {last.manifest.server_count}")
    kind, server_index, block_id = _OPERATION_LINE.fullmatch(op).groups()
    key = (int(server_index), int(block_id))
    written = None if kind == "DELETE" else cluster.servers[key[0]].blocks.get(key[1])
    start = _digests_at(text, len(records))
    bounds = _server_bounds(records, cluster.server_count)
    for server, first, end in zip(cluster.servers, bounds, bounds[1:]):
        lines = text[start + 65 * first : start + 65 * end]
        if server.server_index == key[0]:
            at = bisect_left(records, key) - first
            held = at < end - first and records[first + at].key == key
            lines = lines[: 65 * at] + ("" if written is None else f"{written.digest}\n") + lines[65 * (at + held) :]
        if server.snapshot_lines()[1] != lines:
            raise UnverifiedState(f"refusing to commit server {server.server_index}: it holds a block {op!r} did"
                                  " not write, which its epoch file cannot record")
    return [] if written is None else [written]


# --- persistence --------------------------------------------------------------
#
# Ledger format v11: write_file replaces every file whole, by way of
# ``<name>.tmp``, so a crash leaves the old file or the new. An epoch's only
# file is ``<epoch>.snapshot``, and its rename is the commit. Every epoch file,
# the upload's included, is a redo record of one grammar: its operation line,
# ``UPLOAD servers=<n>`` at epoch 0 and ``<KIND> server=<s> block=<b>`` after;
# one block line per block the operation wrote, in record order: an entry
# ``<weight>\n<payload>\n`` the first time the ledger stores that content, its
# weight a canonical decimal of at most 63 digits, otherwise a reference
# ``<sha256 hex>\n``, exactly 64 lowercase hex digits, so no weight line is a
# reference; and last its chain line ``CHAIN sha256=<hex>\n``: the SHA-256 of
# the chain hex of the file before (nothing for 0.snapshot) followed by this
# file's bytes before the line. The chain covers every entry's bytes, so an
# entry names no digest: the load computes it, to key the block store. The
# kind sets the number of block lines: any for an UPLOAD, one for an APPEND or
# UPDATE, none for a DELETE. So every block is stored once in the directory,
# epoch k names blocks of files 0..k, and no ledger file holds manifest or
# snapshot text. The CLI's live cluster, ``cluster.state``, is written empty
# while no fault since the last commit or restore is in effect, and otherwise
# holds ``HEAD <epoch>`` and then one line per fault the cluster lists, in
# order: ``<kind> server=<s> block=<b> seed=<seed>``, its FaultKind value, its
# server, its block (``-`` for a crash or a stale read path, which name none)
# and the seed of its byte stream, below 2**64, all decimals canonical and
# every line ending in LF. load_cluster replays the faults with inject_fault
# onto the last point when HEAD names its epoch: a tampered block is a
# function of the point and the fault, so the file stores the fault. A crash
# before a rename leaves at most a partial ``.tmp``, which no reader lists and
# a retry replaces.

CLUSTER_FILE = "cluster.state"
# A canonical decimal of at most 20 digits: every seed below 2**64, and few enough digits for int().
_NUMBER = "0|[1-9][0-9]{0,19}"
_HEAD_LINE = re.compile(f"HEAD ({_NUMBER})")
_FAULT_LINE = re.compile(f"({'|'.join(kind.value for kind in FaultKind)}) server=({_NUMBER}) block=({_NUMBER}|-)"
                         f" seed=({_NUMBER})")
# The faults that name no block, and the only ones a commit leaves in effect.
_LIVE_STATUS = (FaultKind.SERVER_CRASH, FaultKind.CSP_STALE_MANIFEST)
# An entry's first line, its weight: never 64 characters, the length of a reference.
_WEIGHT_LINE = rb"(?P<weight>0|[1-9][0-9]{0,62})\n"
# An epoch file's block line: a reference, or an entry's weight line.
_BLOCK_LINE = re.compile(rb"(?P<digest>[0-9a-f]{64})\n|" + _WEIGHT_LINE)
# A retired format's entry header, stepped past only to name that format: v2
# to v9 headed each entry with its digest, and v10's cluster.state held entries.
_PACK_ENTRY = re.compile(rb"([0-9a-f]{64} )?([0-9]+)\n")
_RETIRED_HEADERS = (["MANIFEST", "v1"], ["SNAPSHOT", "v2"], ["SNAPSHOT", "v3"], ["SNAPSHOT", "v4"], ["SNAPSHOT", "v5"],
                    ["SNAPSHOT", "v6"], ["SNAPSHOT", "v7"], ["SNAPSHOT", "v8"], ["SNAPSHOT", "v9"], ["SNAPSHOT", "v10"])
_CHAIN_SIZE = len("CHAIN sha256=\n") + 64  # the bytes of a chain line
# An operation line as operation_line renders it, its decimals _NUMBERs.
_OPERATION_LINE = re.compile(f"(APPEND|DELETE|UPDATE) server=({_NUMBER}) block=({_NUMBER})")
# The upload's line, as commit_restore_point renders it: a cluster has at least one server, a nonzero _NUMBER.
_UPLOAD_LINE = re.compile("UPLOAD servers=([1-9][0-9]{0,19})")


def operation_line(kind: str, server: int, block: int) -> str:
    """What an operation did, as its epoch file's first line holds it, without the LF."""
    return f"{kind} server={server} block={block}"


def journal_line(epoch: int, op: str, delta: int, s_after: int) -> str:
    """The line an operation prints and history renders from the ledger. Both
    verdicts are true: only an operation that verified before and after commits."""
    return f"{epoch} {op} delta={delta:+d} s_after={s_after} z_pre=true z_post=true"


def write_file(directory: Path, name: str, data: bytes) -> None:
    """The one writer of a ledger directory: replace ``name`` by way of
    ``<name>.tmp``, so a crash leaves the old file or the new."""
    directory.mkdir(parents=True, exist_ok=True)
    temporary = directory / f"{name}.tmp"
    temporary.write_bytes(data)
    os.replace(temporary, directory / name)


def _entry(block: DataBlock) -> bytes:
    """The entry that stores a block: ``<weight>\n<payload>\n``."""
    return b"%d\n%s\n" % (len(block.payload), block.payload)


def _read_blocks(name: str, data: bytes, position: int,
                 stored: Mapping[str, DataBlock]) -> tuple[dict[str, DataBlock], list[DataBlock], int]:
    """The block lines in ``name``'s ``data`` from ``position`` on: the
    blocks of its entries, digest -> block, the blocks of all its lines in
    order, and the position after them. An
    entry's payload is hashed once, by make_block, whose digest names the
    block, and a block that ``stored`` (the other files) or an earlier
    entry holds is refused. A reference must name a block one of them
    holds. No line carries an address: a block object is put at every
    address a line names it at."""
    blocks: dict[str, DataBlock] = {}
    written: list[DataBlock] = []
    while (match := _BLOCK_LINE.match(data, position)) is not None:
        if match["weight"] is not None:  # an entry, which stores the block
            end = match.end() + int(match["weight"])
            if data[end : end + 1] != b"\n":
                raise ManifestFormatError(f"{name} entry at byte {position} is cut short")
            block = make_block(data[match.end() : end])
            if block.digest in stored or block.digest in blocks:
                raise ManifestFormatError(f"{name} stores block {block.digest}, which the ledger already stores")
            blocks[block.digest] = block
            position = end + 1
        else:
            digest, position = match["digest"].decode("ascii"), match.end()
            block = blocks[digest] if digest in blocks else stored.get(digest)
            if block is None:
                raise SnapshotCorrupt(f"{name} names block {digest}, which the store lacks")
        written.append(block)
    return blocks, written, position


def _retired_version(data: bytes, position: int) -> Optional[list[str]]:
    """The retired format of ``data``, as the first two words of its header,
    when a retired header follows the retired entries (``[<sha256 hex> ]
    <weight>\n<payload>\n``, _PACK_ENTRY) from ``position``; else None."""
    while (entry := _PACK_ENTRY.match(data, position)) is not None:
        position = entry.end() + int(entry.group(2)) + 1
    version = data[position:].partition(b"\n")[0].decode("utf-8", "replace").split(" ")[:2]
    return version if version in _RETIRED_HEADERS else None


def _chain_line(previous: bytes, body: bytes) -> bytes:
    """The chain line that ends an epoch file whose bytes before it are
    ``body``: the SHA-256 of the chain hex that ends ``previous``, the epoch
    file before (empty for 0.snapshot), followed by ``body``."""
    return b"CHAIN sha256=%s\n" % hashlib.sha256(previous[-65:-1] + body).hexdigest().encode("ascii")


def _check_chain(name: str, data: bytes, previous: bytes) -> None:
    """Refuse ``name``'s ``data`` unless it ends in the chain line of its
    other bytes after ``previous``, the epoch file before (_chain_line). A
    file that ends in no chain line is named as a retired format when it
    is one: a v8 file ends in a snapshot line, and an older one holds a
    retired snapshot header after its entries (_retired_version)."""
    if data[-_CHAIN_SIZE:] == _chain_line(previous, data[:-_CHAIN_SIZE]):
        return
    if data[-_CHAIN_SIZE:].startswith(b"CHAIN sha256="):
        raise SnapshotCorrupt(f"{name} fails its chain line: it, or an epoch file before it, changed after its commit")
    last = data[data.rfind(b"\n", 0, len(data) - 1) + 1 :]
    version = ["SNAPSHOT", "v8"] if last.startswith(b"SNAPSHOT sha256=") else _retired_version(data, 0)
    if version is not None:
        raise SnapshotCorrupt(f"{name} is in ledger format {version[1]}, which is no longer supported")
    raise SnapshotCorrupt(f"{name} ends in {last.decode('utf-8', 'replace')!r}, where its chain line belongs")


def _read_record(name: str, epoch: int, data: bytes, stored: Mapping[str, DataBlock]
                 ) -> tuple[str, list[DataBlock], dict[str, DataBlock]]:
    """Epoch ``epoch``'s file, given by its bytes before its chain line:
    its operation line, an UPLOAD at epoch 0 and only there, the blocks its
    block lines name in order and the blocks of its entries (_read_blocks).
    The kind sets the number of block lines, which end the bytes; any other
    line is refused as the line it is, and a v9 entry, which the chain
    check passes, as its format."""
    head, lf, _ = data.partition(b"\n")
    op = head.decode("utf-8", "replace")
    if not lf or _OPERATION_LINE.fullmatch(op) is None and _UPLOAD_LINE.fullmatch(op) is None:
        raise SnapshotCorrupt(f"{name} starts with {op!r}{'' if lf else ' and no LF'}, which is no operation line")
    kind = op.split(" ")[0]
    if (kind == "UPLOAD") != (epoch == 0):
        raise SnapshotCorrupt(f"{name} holds {op!r}, but the upload commits epoch 0, and only epoch 0")
    blocks, written, position = _read_blocks(name, data, len(head) + 1, stored)
    if position != len(data):
        if (entry := _PACK_ENTRY.match(data, position)) and entry[1]:  # a v9 entry, headed by its digest
            raise SnapshotCorrupt(f"{name} is in ledger format v9, which is no longer supported")
        line, lf, _ = data[position:].partition(b"\n")
        raise SnapshotCorrupt(f"{name} at byte {position} holds {line.decode('utf-8', 'replace')!r}"
                              f"{'' if lf else ' and no LF'}, where a block line or the chain line belongs")
    count = {"APPEND": 1, "UPDATE": 1, "DELETE": 0}.get(kind, len(written))
    if len(written) != count:
        raise SnapshotCorrupt(f"{name} holds {len(written)} block line(s) for {op!r}, which writes {count}")
    return op, written, blocks


def _replay(cluster: Optional[ClusterState], name: str, epoch: int, op: str, written: list[DataBlock]) -> ClusterState:
    """Make the writes the operation line ``op`` names, with the blocks
    ``written``, and return the cluster, now at ``epoch``. The upload, at
    epoch 0, where there is no ``cluster`` yet, makes a new cluster of its
    servers and puts the i-th block at the i-th address, in record order,
    of the round-robin layout of that many blocks, as partition_upload
    places them. Any other operation makes one put or drop in ``cluster``,
    at epoch - 1, by the rules ops.apply runs by: the server exists, an
    UPDATE or a DELETE names a block the server holds and an APPEND the
    next id after the server's largest. So its records are operation_records
    of the epoch before's, by construction."""
    if cluster is None:  # the upload, as _read_record checked
        cluster, blocks = new_cluster(int(op.removeprefix("UPLOAD servers="))), iter(written)
        for server in cluster.servers:  # server s holds every n-th block from the s-th
            for block in range(len(range(server.server_index, len(written), cluster.server_count))):
                server.put(block, next(blocks))
    else:
        kind, server, block = _OPERATION_LINE.fullmatch(op).groups()
        server, block = int(server), int(block)
        held = cluster.servers[server].blocks if server < cluster.server_count else None
        if held is None:
            refusal = f"it has {cluster.server_count} servers"
        elif kind == "APPEND" and block != max(held, default=-1) + 1:
            refusal = f"server {server}'s next block id is {max(held, default=-1) + 1}"
        elif kind != "APPEND" and block not in held:
            refusal = f"server {server} holds no block {block}"
        else:
            refusal = None
        if refusal is not None:
            raise SnapshotCorrupt(f"{name} holds {op!r}, which epoch {epoch - 1} refuses: {refusal}")
        if kind == "DELETE":
            cluster.servers[server].drop(block)
        else:
            cluster.servers[server].put(block, written[0])
    cluster.epoch = epoch
    return cluster


def _read_faults(data: bytes) -> tuple[Optional[int], list[FaultSpec]]:
    """The epoch of cluster.state's HEAD line and its faults, as its bytes
    ``data``, which are not empty, hold them. Any line that is not one the
    grammar allows, its seed under 2**64 and a block for exactly the
    faults that name one, is refused as the line it is, and a file of a
    retired format, its entries included, by its format."""
    *lines, rest = data.decode("utf-8", "replace").split("\n")
    head = _HEAD_LINE.fullmatch(lines[0] if lines else rest)
    if head is None:
        if (version := _retired_version(data, 0)) is not None:
            raise SnapshotCorrupt(f"{CLUSTER_FILE} is in ledger format {version[1]}, which is no longer supported")
        raise SnapshotCorrupt(f"{CLUSTER_FILE} starts with {(lines or [rest])[0]!r}, which is no HEAD line")
    if rest:
        raise SnapshotCorrupt(f"{CLUSTER_FILE} ends in {rest!r}, a line with no LF")
    faults = []
    for line in lines[1:]:
        match = _FAULT_LINE.fullmatch(line)
        if match is None or int(match[4]) >> 64 or (match[3] == "-") != (FaultKind(match[1]) in _LIVE_STATUS):
            raise SnapshotCorrupt(f"{CLUSTER_FILE} holds {line!r}, which is no fault line")
        faults.append(FaultSpec(FaultKind(match[1]), int(match[2]), None if match[3] == "-" else int(match[3]),
                                int(match[4])))
    return int(head[1]), faults


def load_cluster(ledger: Ledger, rng_seed: int) -> ClusterState:
    """The live cluster in the ledger's directory, seeded with ``rng_seed``:
    the cluster load_ledger's replay ended in, which it hands out once, so
    a command parses no snapshot, with the faults cluster.state lists
    (_read_faults) replayed onto it by inject_fault. A ledger that holds no
    such cluster (one committed in this process, or whose cluster was
    handed out) raises ValueError. A HEAD line that names another epoch
    than the last point's leaves the cluster at that epoch, which every
    command but recover refuses, and its faults unreplayed; a fault that
    the point refuses, such as one naming a block it lacks, fails the
    load."""
    cluster, ledger._replayed = ledger._replayed, None
    if cluster is None:
        raise ValueError("load_cluster takes the cluster of a ledger load_ledger has just loaded")
    data = (ledger.directory / CLUSTER_FILE).read_bytes()
    epoch, faults = _read_faults(data) if data else (None, [])
    cluster.rng_seed = rng_seed
    if epoch is not None and epoch != cluster.epoch:
        cluster.epoch, faults = epoch, []
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    for fault in faults:
        try:
            inject_fault(cluster, fault._replace(seed=fault.seed ^ rng_seed))  # inject_fault xors rng_seed back
        except NoSuchTarget as exc:
            raise SnapshotCorrupt(f"{CLUSTER_FILE} holds a {fault.kind.value} fault that epoch {epoch} refuses:"
                                  f" {exc}") from exc
    return cluster


def save_cluster(ledger: Ledger, cluster: ClusterState) -> None:
    """Replace the live cluster: empty while the cluster lists no fault,
    and otherwise its HEAD line and one line per fault (_read_faults)."""
    lines = [f"{kind.value} server={server} block={'-' if block is None else block} seed={seed}\n"
             for kind, server, block, seed in cluster.faults]
    write_file(ledger.directory, CLUSTER_FILE, "".join([f"HEAD {cluster.epoch}\n", *lines] if lines else []).encode())


def _persist_point(directory: Path, point: RestorePoint) -> None:
    """Replace the point's epoch file with its record, the rename that commits it."""
    write_file(directory, f"{point.epoch}.snapshot", point.record)


def _digests_at(text: str, records: int) -> int:
    """Where the digest lines of a snapshot ``text`` of ``records``
    records start: one 65-character line per record, in record order,
    precedes its final END line."""
    return len(text) - len("END\n") - 65 * records


def _epoch_files(directory: Path) -> list[str]:
    """The names of the committed epochs' files, in epoch order, found by
    one listing of the directory (none if it does not exist): exactly
    0.snapshot to (E-1).snapshot. Any other set of ``*.snapshot`` names, a
    gap, an extra epoch or a number such as 01.snapshot, is refused. A
    ``.tmp`` file is no snapshot."""
    if not directory.is_dir():
        return []
    snapshots = {name for name in os.listdir(directory) if name.endswith(".snapshot")}
    expected = [f"{epoch}.snapshot" for epoch in range(len(snapshots))]
    if snapshots != set(expected):
        raise ManifestFormatError(f"{min(snapshots - set(expected))} is in the ledger, but the snapshots of"
                                  f" {len(snapshots)} epochs are 0.snapshot to {len(snapshots) - 1}.snapshot")
    return expected


def load_ledger(directory: Path) -> Ledger:
    """Load a persisted ledger by replay, revalidating every epoch: the one
    place that decides what an epoch committed.

    Every epoch file is read, as written, with no newline translation, and
    must end in its chain line (_check_chain) before any entry is hashed or
    any cluster is built, so an edit that leaves the chain inconsistent
    fails at its file, whatever the replay would make of it. Then each
    file is read as a redo record (_read_record): its entries join the
    block store, so epoch k resolves only in the blocks of files 0..k, and
    its operation line makes its writes (_replay): the upload places its
    blocks round-robin on a new cluster, and each later operation makes one
    put or drop in that same cluster, by the rules ops.apply runs by. So
    each epoch's records are what its operation leaves on the epoch
    before's, operation_records, by construction, and the points share
    every record an epoch did not change. Each point holds its file's
    bytes as its record. Each distinct block is hashed once, each file's
    bytes once more by the chain, no manifest text is parsed, and only the
    last point's snapshot text is rendered, so the cost is O(stored bytes
    + records + epochs). The cluster the replay ends in is kept for
    load_cluster.
    """
    directory = Path(directory)
    ledger = Ledger(directory=directory)
    names, records = _epoch_files(directory), []
    for epoch, name in enumerate(names):
        try:
            records.append((directory / name).read_bytes())
        except OSError as exc:
            raise SnapshotCorrupt(f"{name} does not load: {exc}") from exc
        _check_chain(name, records[-1], records[-2] if epoch else b"")
    cluster: Optional[ClusterState] = None  # every epoch replays into it, so points share records
    for epoch, (name, record) in enumerate(zip(names, records)):
        op, written, blocks = _read_record(name, epoch, record[:-_CHAIN_SIZE], ledger.blocks)
        ledger.blocks.update(blocks)
        cluster = _replay(cluster, name, epoch, op, written)
        ledger.points.append(RestorePoint(stored_manifest(cluster), record))
    ledger.last_snapshot = None if cluster is None else snapshot_cluster(cluster)
    ledger._replayed = cluster
    return ledger
