"""Append-only restore-point ledger and crash recovery.

Every verified update commits one restore point: a snapshot of the
cluster, which holds the cloud manifest and names each record's block by
content digest. The point's aggregate X (cloud total plus user total
summed over servers) is derived from that manifest: a verified commit
has S = T, so X is twice the manifest total, and is never stored. The
ledger keeps one block store, shared by all its points, holding each
distinct block once (on disk, in the epoch file of the commit that was
first to store it), so a commit stores only the blocks the store lacks.
It looks them up only on the servers holding a record object the last
point does not: put always makes a new record, so every other server
holds the very blocks the last commit found in the store.

Recovery declares the state intact when every server is up and the
live records equal the last committed manifest's, one tuple comparison
that, with no server unavailable, is the clean CHECKSUM verdict; equal
records imply equal weights, so the live aggregate Y equals X without
being computed. Otherwise the last snapshot is loaded into the cluster,
writing only the addresses whose block differs, and only that restored
state runs through verify_equality.

Timestamps are logical clock ticks, not wall time, so ledgers are
byte-reproducible: epoch k commits at tick k + 1. Ledger is a plain
mutable class, RestorePoint and RecoveryReport NamedTuples.

This module owns the ledger directory, the CLI's files included, and
write_file is its one writer, replacing whole files only. Memory follows
the disk: a commit's blocks join the store and its point the ledger once
its epoch file's rename, the commit, is done. The committed epochs are
the files 0.snapshot to (E-1).snapshot, found by one listing of the
directory. Each operation's epoch file starts with its operation line,
the one record of what the operation did, from which history renders the
line the operation printed, and holds the blocks the epoch was first to
store, before its snapshot.
"""

from __future__ import annotations

import enum
import os
import re
from bisect import bisect_left
from operator import is_, itemgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional

from .cluster import (
    _RETIRED_HEADERS,
    SNAPSHOT_HEADER,
    ClusterState,
    ServerState,
    load_snapshot,
    read_manifest,
    snapshot_cluster,
    stored_manifest,
)
from .errors import (
    EpochMismatch,
    ManifestFormatError,
    NothingToRestore,
    SnapshotCorrupt,
    UnverifiedState,
)
from .manifest import _DECIMAL, BlockRecord, DataBlock, Manifest, _record_at, _server_bounds, make_block
from .protocol import Mode, Verdict, verify_equality


class RestorePoint(NamedTuple):
    """One committed epoch: manifest, payload snapshot, operation line and added blocks.

    The snapshot holds the manifest and names each record's block by
    digest, resolved in the ledger's block store. ``op`` is the operation
    line, ``<KIND> server=<s> block=<b>``, of the operation that committed
    the epoch, None for the upload's epoch 0. ``added`` holds the blocks
    this commit was first to store, in address order, as its epoch file
    holds them before the snapshot, so a loaded point equals the committed
    one field by field. The epoch is the manifest's, and the tick and X
    derive from the manifest.
    """

    manifest: Manifest
    payload_snapshot: str
    op: Optional[str] = None
    added: tuple[DataBlock, ...] = ()

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

    ``blocks`` is the block store (digest -> DataBlock) every point's
    snapshot resolves in. When bound to a directory, every commit replaces
    ``<epoch>.snapshot``, its operation line and the blocks the store
    lacked first, the rename that commits it.
    """

    def __init__(self, directory: Optional[Path] = None, blocks: Optional[dict[str, DataBlock]] = None) -> None:
        self.points: list[RestorePoint] = []
        self.directory = directory
        self.blocks = {} if blocks is None else blocks

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
    predicts with it, and load_ledger checks every epoch with it."""
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
    with it X), a payload snapshot and the operation line are frozen and
    the logical clock ticks. The manifest shares every record the commit did
    not change with the previous point, whose records become the
    cluster's previous_records, the ones a stale read path replays. Only
    the servers that hold a record the previous point does not share
    (_rewritten_servers) are looked up in the store. A bound ledger writes
    the epoch file before the blocks join the store and the point joins
    ``points``.
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

    manifest = stored_manifest(cluster)
    if manifest.records != read_manifest(cluster).records:
        raise UnverifiedState("refusing to snapshot stored blocks that differ from the verified read path")
    added = _unstored_blocks(ledger.blocks, _rewritten_servers(ledger, cluster))
    point = RestorePoint(manifest, snapshot_cluster(cluster), op, tuple(added.values()))
    if ledger.directory is not None:
        _persist_point(ledger.directory, point)
    ledger.blocks.update(added)
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    ledger.points.append(point)
    return point


def recover(ledger: Ledger, cluster: ClusterState) -> RecoveryReport:
    """Restore the cluster to the last committed point unless it is intact.

    Intact means: the cluster is at the committed epoch and server count,
    every server is alive, no stale read path is armed, and the live
    records equal the stored manifest's. That is one tuple comparison in
    C, and with every server up it is exactly a passing CHECKSUM
    comparison, so verify_equality is not run; it also implies the live
    aggregate Y equals the committed X. Weight equality alone is not
    trusted, because identical-weight substitutions leave Y unchanged;
    nor is a pass through a stale read path, which replays committed
    records whatever the servers store. Otherwise the snapshot is loaded
    into the cluster, which writes only the addresses a fault changed, so
    the restored cluster shares the committed records; crashed servers
    are revived, the lying read path is cleared, and the restored state is
    re-verified: the one verify_equality call a recover makes.
    """
    last = ledger.last()
    live = read_manifest(cluster)
    intact = (
        live.server_count == last.manifest.server_count
        and live.epoch == last.epoch
        and all(s.alive for s in cluster.servers)
        and not cluster.stale_armed
        and live.records == last.manifest.records
    )
    if intact:
        return RecoveryReport(RecoveryAction.INTACT, last.epoch)

    rewrite_cluster_from_point(ledger, cluster)
    return RecoveryReport(RecoveryAction.RESTORED, last.epoch)


def rewrite_cluster_from_point(ledger: Ledger, cluster: ClusterState) -> None:
    """Overwrite cluster storage with the ledger's last payload snapshot.

    load_snapshot loads the snapshot into the cluster itself, taking the
    blocks from the ledger's store (unhashed) and writing only the
    addresses whose block differs, so every unchanged address keeps the
    record object the committed point holds (a cluster of another server
    count gets new servers). Revives every server, disarms a stale read
    path, resets the epoch to the point's and the previous_records to
    those committed before it, and re-verifies the result against the
    stored manifest, a comparison that stops at identity for the shared
    records; failure to verify means the snapshot itself is corrupt. It is
    the one rollback, for recover and a failed ops.apply.
    """
    point = ledger.last()
    load_snapshot(point.payload_snapshot, ledger.blocks, into=cluster)
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    # A committed snapshot may hold STALE or DOWN lines; a restore clears both.
    cluster.stale_armed = False
    for server in cluster.servers:
        server.alive = True
    check = verify_equality(point.manifest, read_manifest(cluster), Mode.CHECKSUM)
    if not check.z:
        raise SnapshotCorrupt(f"restored state fails its manifest check ({len(check.divergences)} divergences)")


def _rewritten_servers(ledger: Ledger, cluster: ClusterState) -> list[ServerState]:
    """The servers whose records are not, object for object, the last
    point's records on that server: every server if there is no last
    point or it has another server count. put always makes a new record,
    even for the same bytes or a block of the same weight and checksum,
    so any other server holds the very blocks the last commit stored or
    found in the store. Each comparison is one pass in C that stops at
    the first record the server rewrote."""
    if not ledger.points or ledger.last().manifest.server_count != cluster.server_count:
        return cluster.servers
    records = ledger.last().manifest.records
    bounds = _server_bounds(records, cluster.server_count)
    return [server for server, start, end in zip(cluster.servers, bounds, bounds[1:])
            if len(server.records) != end - start or not all(map(is_, server.records.values(), records[start:end]))]


def _unstored_blocks(store: Mapping[str, DataBlock], servers: Iterable[ServerState]) -> dict[str, DataBlock]:
    """The blocks on ``servers`` that ``store`` lacks, digest -> block, each once, in address order."""
    new: dict[str, DataBlock] = {}
    for server in servers:
        for block in server.blocks.values():
            if block.digest not in store:
                new.setdefault(block.digest, block)
    return new


# --- persistence --------------------------------------------------------------
#
# Ledger format v6: write_file replaces every file whole, by way of
# ``<name>.tmp``, so a crash leaves the old file or the new. An epoch's
# only file, ``<epoch>.snapshot``, holds in order its operation line,
# ``<KIND> server=<s> block=<b>`` (from epoch 1; the upload's 0.snapshot has
# none), one entry ``<sha256 hex> <weight>\n<payload>\n`` per block the
# epoch was first to store, in address order, and its snapshot text, the
# one copy of its manifest. Its rename is the commit. Every block is stored
# once in the directory, and epoch k's snapshot names blocks of files 0..k.
# The CLI's live cluster, ``cluster.state``, is written empty while it is the
# last point's snapshot, and otherwise holds entries for the live blocks no
# epoch file holds (a pending tamper's), then its snapshot text. A crash
# before a rename leaves at most a partial ``.tmp``, which no reader lists
# and a retry replaces.

CLUSTER_FILE = "cluster.state"
_PACK_ENTRY = re.compile(rb"([0-9a-f]{64}) ([0-9]+)\n")
# An operation line as operation_line renders it, decimals canonical as in a manifest.
_OPERATION_LINE = re.compile(f"(APPEND|DELETE|UPDATE) server=({_DECIMAL}) block=({_DECIMAL})")


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


def _ledger_file(head: str, blocks: Iterable[DataBlock], text: str) -> bytes:
    """A ledger file's bytes: ``head``, one entry per block, then the snapshot text."""
    chunks = [head.encode("utf-8")]
    for block in blocks:
        chunks += (f"{block.digest} {len(block.payload)}\n".encode("ascii"), block.payload, b"\n")
    chunks.append(text.encode("utf-8"))
    return b"".join(chunks)


def _read_entries(name: str, data: bytes, position: int,
                  stored: Mapping[str, DataBlock]) -> tuple[dict[str, DataBlock], str]:
    """The blocks of the entries in ``name``'s ``data`` from ``position`` on,
    read while _PACK_ENTRY matches, and the rest decoded as strict UTF-8:
    the snapshot text, which must be empty or start with a snapshot header,
    current or retired (load_snapshot names a retired one), so a malformed
    entry header is named as the line it is. Each payload is hashed once,
    by make_block, and must hash to its digest, and a block that ``stored``
    (the other files) or an earlier entry holds is refused. Neither an
    entry nor a DataBlock carries an address: load_snapshot puts each block
    object at the address of every manifest record whose digest line names
    it."""
    blocks: dict[str, DataBlock] = {}
    while (entry := _PACK_ENTRY.match(data, position)) is not None:
        digest, start = entry.group(1).decode("ascii"), entry.end()
        end = start + int(entry.group(2))
        if data[end : end + 1] != b"\n":
            raise ManifestFormatError(f"{name} entry at byte {position} is cut short")
        if digest in stored or digest in blocks:
            raise ManifestFormatError(f"{name} stores block {digest}, which the ledger already stores")
        block = make_block(data[start:end])
        if block.digest != digest:
            raise SnapshotCorrupt(f"{name} entry at byte {position} does not hash to its digest {digest}")
        blocks[digest] = block
        position = end + 1
    rest = data[position:]
    line = rest.partition(b"\n")[0].decode("utf-8", "replace")
    if rest and line.split(" ")[:2] not in (SNAPSHOT_HEADER.split(" "), *_RETIRED_HEADERS):
        raise SnapshotCorrupt(f"{name} at byte {position} holds {line!r}, which is neither a block entry nor a"
                              " snapshot header")
    try:
        return blocks, rest.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotCorrupt(f"{name} does not load: its snapshot, from byte {position}, is not UTF-8"
                              f" ({exc.reason} at byte {position + exc.start})") from exc


def load_cluster(ledger: Ledger, rng_seed: int) -> ClusterState:
    """The live cluster in the ledger's directory, an empty file being the
    last point. Its blocks resolve in the store and in the file's own
    entries, which stay out of the store."""
    data = (ledger.directory / CLUSTER_FILE).read_bytes()
    own, text = _read_entries(CLUSTER_FILE, data, 0, ledger.blocks)
    cluster = load_snapshot(text if data else ledger.last().payload_snapshot, ledger.blocks | own,
                            rng_seed=rng_seed)
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    return cluster


def save_cluster(ledger: Ledger, cluster: ClusterState) -> None:
    """Replace the live cluster, empty while it is the last point, and
    otherwise the live blocks no epoch file holds, then its snapshot."""
    text = snapshot_cluster(cluster)
    same = ledger.points and text == ledger.last().payload_snapshot
    data = b"" if same else _ledger_file("", _unstored_blocks(ledger.blocks, cluster.servers).values(), text)
    write_file(ledger.directory, CLUSTER_FILE, data)


def _persist_point(directory: Path, point: RestorePoint) -> None:
    """Replace the point's epoch file, the rename that commits it: its
    operation line (if any), its new blocks, then its snapshot."""
    head = "" if point.op is None else f"{point.op}\n"
    write_file(directory, f"{point.epoch}.snapshot", _ledger_file(head, point.added, point.payload_snapshot))


def _check_operation(ledger: Ledger, manifest: Manifest, op: Optional[str]) -> None:
    """Refuse a manifest for the ledger's next epoch that neither an upload
    (epoch 0) nor the operation its line ``op`` names, on the ledger's last
    point, leaves.

    An upload places its blocks round-robin, so server i holds ids 0, 1,
    ... for every n-th block from block i. An operation keeps the server
    count, and its records must be operation_records of the epoch before's,
    the splice ops.apply predicts with: the address its line names gets the
    record the manifest holds there, or none for a delete. An update or a
    delete names an address the epoch before holds, an append the next id
    after the server's largest. This catches an edited address or server
    count, which X, a sum of weights, does not cover, and an edited
    operation line.
    """
    epoch, count, servers = manifest.epoch, len(manifest.records), manifest.server_count
    if not ledger.points:
        layout = [(server, block) for server in range(servers) for block in range(len(range(server, count, servers)))]
        if list(map(itemgetter(0, 1), manifest.records)) != layout:
            raise SnapshotCorrupt(f"epoch {epoch} is not the round-robin upload of {count} blocks on {servers} servers")
        return
    previous = ledger.last().manifest
    if servers != previous.server_count:
        raise SnapshotCorrupt(f"epoch {epoch} has servers={servers}, epoch {previous.epoch}"
                              f" servers={previous.server_count}")
    kind, server, block = _OPERATION_LINE.fullmatch(op).groups()
    key, before = (int(server), int(block)), previous.records
    if kind == "APPEND":
        held = before[bisect_left(before, (key[0],)) : bisect_left(before, (key[0] + 1,))]
        allowed = key[1] == (held[-1].block_id + 1 if held else 0)
    else:
        allowed = _record_at(before, key) is not None
    record = None if kind == "DELETE" else _record_at(manifest.records, key)
    if (not allowed or (record is None and kind != "DELETE")
            or manifest.records != operation_records(before, key, record)):
        raise SnapshotCorrupt(f"epoch {epoch} is not what {op!r} leaves on epoch {previous.epoch}")


def _epoch_count(directory: Path) -> int:
    """The number of committed epochs, found by one listing of the
    directory (none if it does not exist): exactly 0.snapshot to
    (E-1).snapshot. Any other set of ``*.snapshot`` names, a gap, an extra
    epoch or a number such as 01.snapshot, is refused. A ``.tmp`` file is
    no snapshot."""
    if not directory.is_dir():
        return 0
    snapshots = {name for name in os.listdir(directory) if name.endswith(".snapshot")}
    expected = {f"{epoch}.snapshot" for epoch in range(len(snapshots))}
    if snapshots != expected:
        raise ManifestFormatError(f"{min(snapshots - expected)} is in the ledger, but the snapshots of"
                                  f" {len(snapshots)} epochs are 0.snapshot to {len(snapshots) - 1}.snapshot")
    return len(snapshots)


def load_ledger(directory: Path) -> Ledger:
    """Load a persisted ledger, revalidating every epoch: the one place that
    decides what an epoch committed.

    Reads each epoch file in turn: its operation line (from epoch 1), then
    its entries (_read_entries), whose blocks join the store, so epoch k
    resolves only in the blocks of files 0..k, then its snapshot. That is
    loaded (the epoch's one copy of the manifest, parsed once) and its
    blocks checked against its manifest, which must claim the epoch and be
    an upload's (epoch 0) or, from epoch 1, what the operation its line
    names leaves on the epoch before, by the splice ops.apply predicts with,
    operation_records (_check_operation). Every epoch loads into one
    cluster, which puts only the records the epoch changed or added, so
    the points share every other record object. Each distinct block is
    hashed once, so the cost is O(distinct stored bytes + epochs x
    records). Files are read as written, with no newline translation.
    """
    directory = Path(directory)
    ledger = Ledger(directory=directory)
    cluster: Optional[ClusterState] = None  # every epoch loads into it, so points share records
    for epoch in range(_epoch_count(directory)):
        name = f"{epoch}.snapshot"
        try:
            data = (directory / name).read_bytes()
        except OSError as exc:
            raise SnapshotCorrupt(f"{name} does not load: {exc}") from exc
        op, start = None, 0
        if epoch:
            line = data[: data.find(b"\n") + 1]  # empty if the file holds no LF
            op, start = line[:-1].decode("utf-8", "replace"), len(line)
            if _OPERATION_LINE.fullmatch(op) is None:
                raise SnapshotCorrupt(f"{name} starts with {op!r}, which is no operation line")
        blocks, text = _read_entries(name, data, start, ledger.blocks)
        ledger.blocks.update(blocks)
        cluster = load_snapshot(text, ledger.blocks, into=cluster)
        point = RestorePoint(stored_manifest(cluster), text, op, tuple(blocks.values()))
        if point.epoch != epoch:
            raise ManifestFormatError(f"{name} claims epoch {point.epoch}")
        _check_operation(ledger, point.manifest, op)
        ledger.points.append(point)
    return ledger
