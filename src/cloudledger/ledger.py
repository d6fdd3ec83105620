"""Append-only restore-point ledger and crash recovery.

Every verified update commits one restore point: a snapshot of the
cluster, which holds the cloud manifest and names each record's block by
content digest. The point's aggregate X (cloud total plus user total
summed over servers) is derived from that manifest: a verified commit
has S = T, so X is twice the manifest total, and is never stored. The
ledger keeps one block store, shared by all its points, holding each
distinct block once (on disk, an append-only pack), so a commit stores
only the blocks the store lacks.

Recovery declares the state intact when every server is up and the
live records equal the last committed manifest's, one tuple comparison
that, with no server unavailable, is the clean CHECKSUM verdict; equal
records imply equal weights, so the live aggregate Y equals X without
being computed. Otherwise the last snapshot is loaded into the cluster,
writing only the addresses whose block differs, and only that restored
state runs through verify_equality.

Timestamps are logical clock ticks, not wall time, so ledgers are
byte-reproducible: epoch k commits at tick k + 1. Ledger is a plain
mutable class, RestorePoint a plain immutable one, and RecoveryReport a
NamedTuple.

This module owns the ledger directory, the CLI's files included, and
write_file is its one writer. Memory follows the disk: a commit's blocks
join the store once the pack holds them, its point once its snapshot's
rename, the commit, is done. The committed epochs are the snapshots
0.snapshot to (E-1).snapshot, found by one listing of the directory.

A write that fails halfway through an append leaves a torn tail on the
pack or the journal, which committed nothing. The pack's whole part ends
after its last whole entry, the journal's after its last LF
(_whole_lines). One reader, _read_ledger_files, finds the pack's tail;
load_ledger refuses it, load_ledger_cutting_tails cuts it and the
journal's, and append_journal writes after the journal's whole lines.
"""

from __future__ import annotations

import enum
import os
import re
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .cluster import (
    ClusterState,
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
from .manifest import _DECIMAL, BlockRecord, DataBlock, Manifest, make_block
from .protocol import Mode, Verdict, _differing, _on_servers, verify_equality


class RestorePoint:
    """One committed epoch: manifest and payload snapshot. Immutable.

    The snapshot holds the manifest and names each record's block by
    digest, resolved in the ledger's block store. The epoch is the
    manifest's, and the tick and X derive from the manifest. ``added``
    holds the blocks this commit was first to store, which persisting the
    point appends to the pack (empty for points read back from disk); it
    takes no part in equality, so a point equals itself read back.
    """

    __slots__ = ("manifest", "payload_snapshot", "added")

    def __init__(self, manifest: Manifest, payload_snapshot: str, added: tuple[DataBlock, ...] = ()) -> None:
        for name, value in zip(self.__slots__, (manifest, payload_snapshot, added)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: a RestorePoint is immutable")

    def _compared(self) -> tuple[Manifest, str]:
        return (self.manifest, self.payload_snapshot)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

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
    snapshot resolves in. When bound to a directory, every commit appends
    the blocks the store lacked to ``blocks.pack``, then replaces
    ``<epoch>.snapshot``, the rename that commits it.
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


class RecoveryAction(enum.Enum):
    RESTORED = "RESTORED"
    INTACT = "INTACT"


class RecoveryReport(NamedTuple):
    action: RecoveryAction
    epoch: int


def commit_restore_point(ledger: Ledger, cluster: ClusterState, verdict: Verdict) -> RestorePoint:
    """Append a restore point for the cluster's current (verified) state.

    Refuses unverified or epoch-desynced commits, and stored blocks that a
    stale read path hid from the verdict; on success the stored blocks'
    manifest (and with it X) and a payload snapshot are frozen and the
    logical clock ticks. The manifest shares every record the commit did
    not change with the previous point, whose records become the
    cluster's previous_records, the ones a stale read path replays. A bound
    ledger writes the pack and the snapshot before the point joins
    ``points``.
    """
    if not verdict.z:
        raise UnverifiedState("refusing to snapshot a state that failed verification")
    if verdict.epoch != cluster.epoch:
        raise EpochMismatch(f"verdict is for epoch {verdict.epoch}, cluster is at {cluster.epoch}")
    if cluster.epoch != ledger.next_epoch:
        raise EpochMismatch(f"ledger expects epoch {ledger.next_epoch}, cluster is at {cluster.epoch}")

    manifest = stored_manifest(cluster)
    if manifest.records != read_manifest(cluster).records:
        raise UnverifiedState("refusing to snapshot stored blocks that differ from the verified read path")
    added = _save_blocks(ledger, cluster)
    point = RestorePoint(manifest, snapshot_cluster(cluster), added)
    if ledger.directory is not None:
        _write_point(ledger.directory, point)
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


def _save_blocks(ledger: Ledger, cluster: ClusterState) -> tuple[DataBlock, ...]:
    """Store the cluster's blocks that the ledger lacks and return them, each once, in address order.

    They go to a bound ledger's pack first, then into its store, so a retry
    after a later write fails does not pack them twice. The pack holds
    exactly the blocks of a store that holds any, so it is appended to;
    for an empty store it is written whole, which discards any pack an
    upload left without committing.
    """
    store = ledger.blocks
    new: dict[str, DataBlock] = {}
    for server in cluster.servers:
        for block in server.blocks.values():
            if block.digest not in store:
                new.setdefault(block.digest, block)
    added = tuple(new.values())
    if ledger.directory is not None:
        _write_pack(ledger.directory, added, append=bool(store))
    store.update(new)
    return added


# --- persistence --------------------------------------------------------------
#
# Ledger format v4: ``blocks.pack`` holds each distinct block once, as
# PACK_HEADER followed by entries ``<sha256 hex> <weight>\n<payload>\n``,
# written whole by the first write that stores a block, which replaces what
# an upload that never committed left, and appended to after that; only
# recover rewrites it, to cut a torn last entry. A commit appends its new
# blocks first, then replaces ``<epoch>.snapshot``, the epoch's only file and
# the one copy of its manifest, by way of ``<epoch>.snapshot.tmp``: the
# rename is the commit. A crash before it leaves only unread blocks, perhaps
# a torn pack entry, which recover cuts, and perhaps a partial ``.tmp``,
# which no reader lists and a retry replaces. The CLI's live cluster,
# ``cluster.state``, is written empty while it is the last point's snapshot.

PACK_FILE = "blocks.pack"
CLUSTER_FILE = "cluster.state"
JOURNAL_FILE = "journal"
PACK_HEADER = b"PACK v2\n"
_PACK_ENTRY = re.compile(rb"([0-9a-f]{64}) ([0-9]+)\n")
# What a torn append can leave of an entry header: a strict prefix of _PACK_ENTRY.
_PACK_ENTRY_HEAD = re.compile(rb"[0-9a-f]{0,64}|[0-9a-f]{64} [0-9]*")
# A journal line as journal_line renders it, decimals canonical as in a manifest.
_JOURNAL_LINE = re.compile(
    f"{_DECIMAL} (?:APPEND|DELETE|UPDATE) server={_DECIMAL} block={_DECIMAL} delta=(?:\\+{_DECIMAL}|-[1-9][0-9]*)"
    f" s_after={_DECIMAL} z_pre=(?:true|false) z_post=(?:true|false)"
)


def journal_line(epoch: int, kind: str, server: int, block: int, delta: int, s_after: int,
                 z_pre: bool, z_post: bool) -> str:
    """The journal line of one committed operation, without its LF: the form _JOURNAL_LINE checks."""
    return (f"{epoch} {kind} server={server} block={block} delta={delta:+d} s_after={s_after}"
            f" z_pre={'true' if z_pre else 'false'} z_post={'true' if z_post else 'false'}")


def append_journal(directory: Path, line: str) -> None:
    """Append a journal line after the journal's whole lines. A partial last
    line, which a crash while journaling an already committed epoch leaves,
    is cut as recover cuts it, in the same write (a replace), so the new
    line never joins the partial one."""
    journal = _read_optional(directory / JOURNAL_FILE) or b""
    whole = _whole_lines(journal)
    append = whole == journal
    write_file(directory, JOURNAL_FILE, (b"" if append else whole) + f"{line}\n".encode("utf-8"), append=append)


def _whole_lines(data: bytes) -> bytes:
    """The data through its last LF: what an appended file of lines keeps when its torn last line is cut."""
    return data[: data.rfind(b"\n") + 1]


def write_file(directory: Path, name: str, data: bytes, append: bool = False) -> None:
    """The one writer of a ledger directory: append ``data`` to ``name``, or
    replace ``name`` by way of ``<name>.tmp``, so a crash leaves the old file or the new."""
    directory.mkdir(parents=True, exist_ok=True)
    if append:
        with open(directory / name, "ab") as fh:
            fh.write(data)
        return
    temporary = directory / f"{name}.tmp"
    temporary.write_bytes(data)
    os.replace(temporary, directory / name)


def _read_text(path: Path) -> str:
    """A file's text as written: unlike read_text, this translates no CR or
    CRLF into LF, so the loaders see the line ends that are on disk."""
    return path.read_bytes().decode("utf-8")


def load_cluster(ledger: Ledger, rng_seed: int) -> ClusterState:
    """The live cluster in the ledger's directory (an empty file is the last point), its blocks from the store."""
    text = _read_text(ledger.directory / CLUSTER_FILE) or ledger.last().payload_snapshot
    cluster = load_snapshot(text, ledger.blocks, rng_seed=rng_seed)
    cluster.previous_records = previous_records(ledger, cluster.epoch)
    return cluster


def save_cluster(ledger: Ledger, cluster: ClusterState) -> None:
    """Store the blocks the bound ledger lacks, then the live cluster, left empty while it is the last point."""
    _save_blocks(ledger, cluster)
    text = snapshot_cluster(cluster)
    same = ledger.points and text == ledger.last().payload_snapshot
    write_file(ledger.directory, CLUSTER_FILE, b"" if same else text.encode("utf-8"))


def _write_pack(directory: Path, blocks: Sequence[DataBlock], append: bool) -> None:
    """Write one pack entry per block, in a single write: appended to the
    pack, or else as a whole new pack, header first, replacing any pack there."""
    if not blocks:
        return
    chunks = [] if append else [PACK_HEADER]
    for block in blocks:
        chunks += (f"{block.digest} {len(block.payload)}\n".encode("ascii"), block.payload, b"\n")
    write_file(directory, PACK_FILE, b"".join(chunks), append=append)


def _pack_entries(data: bytes) -> Iterator[tuple[int, str, int, int]]:
    """Walk a pack's entries after its header: (position, digest, start,
    end) for each whole one, its payload data[start:end]. A malformed entry
    raises ManifestFormatError. The walk stops early at a torn tail, a
    strict prefix of an entry (a header, payload or LF cut short), which is
    what an append that failed halfway leaves."""
    if not data.startswith(PACK_HEADER):
        raise ManifestFormatError(f"{PACK_FILE} does not start with {PACK_HEADER!r}")
    position = len(PACK_HEADER)
    while position < len(data):
        entry = _PACK_ENTRY.match(data, position)
        if entry is None:
            if _PACK_ENTRY_HEAD.fullmatch(data, position):
                return
            raise ManifestFormatError(f"bad {PACK_FILE} entry header at byte {position}")
        start, end = entry.end(), entry.end() + int(entry.group(2))
        if end >= len(data):
            return
        if data[end] != ord("\n"):
            raise ManifestFormatError(f"{PACK_FILE} entry at byte {position} is cut short")
        yield position, entry.group(1).decode("ascii"), start, end
        position = end + 1


def _write_point(directory: Path, point: RestorePoint) -> None:
    """Replace the point's snapshot: the rename that commits it."""
    write_file(directory, f"{point.epoch}.snapshot", point.payload_snapshot.encode("utf-8"))


def _persist_point(directory: Path, point: RestorePoint) -> None:
    """Write an in-memory point's files as a bound commit does: new blocks, then the snapshot."""
    _write_pack(directory, point.added, append=(directory / PACK_FILE).exists())
    _write_point(directory, point)


def _check_operation(ledger: Ledger, manifest: Manifest) -> None:
    """Refuse a manifest for the ledger's next epoch that neither an upload
    (epoch 0) nor one operation on the ledger's last point leaves.

    An upload places its blocks round-robin, so server i holds ids 0, 1,
    ... for every n-th block from block i. An operation keeps the server
    count and, compared by _differing, removes at most one record and adds
    at most one: an update keeps the address, an append takes the next id
    after the server's largest, a delete only removes, and an update to
    identical bytes changes nothing. This catches an edited address or
    server count, which X, a sum of weights, does not cover.
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
    removed, added = _differing(previous.records, manifest.records)
    if len(removed) > 1 or len(added) > 1:
        raise SnapshotCorrupt(f"epoch {epoch} differs from epoch {previous.epoch} in {len(removed)} removed and"
                              f" {len(added)} added records; one operation removes and adds at most one")
    if removed and added:
        (old,), (new,) = removed, added
        if old.key != new.key:
            raise SnapshotCorrupt(f"epoch {epoch} removes server={old.server_index} block={old.block_id} and adds"
                                  f" server={new.server_index} block={new.block_id}; an update keeps the address")
    elif added:
        (new,) = added
        held = tuple(_on_servers(previous.records, frozenset({new.server_index})))
        next_id = held[-1].block_id + 1 if held else 0
        if new.block_id != next_id:
            raise SnapshotCorrupt(f"epoch {epoch} appends server={new.server_index} block={new.block_id};"
                                  f" an append takes block {next_id}")


def _check_journal(lines: Iterable[str], epochs: int) -> None:
    """Refuse whole journal lines that the ledger's operations did not write.

    A line naming an epoch at or past ``epochs`` proves that a committed
    snapshot is gone: an operation journals only after its snapshot. Every
    other line must be one journal_line renders, for epochs strictly
    increasing from 1 (the upload journals nothing); an epoch may be
    missing, as a crash between a snapshot and its journal line leaves."""
    previous = 0
    for line in lines:
        epoch = line.partition(" ")[0]
        if epoch.isascii() and epoch.isdigit() and int(epoch) >= epochs:
            raise ManifestFormatError(f"{JOURNAL_FILE} names epoch {int(epoch)}, but {int(epoch)}.snapshot"
                                      " is missing; an operation journals only after its snapshot")
        if _JOURNAL_LINE.fullmatch(line) is None:
            raise ManifestFormatError(f"{JOURNAL_FILE} line {line!r} is no operation's journal line")
        if int(epoch) <= previous:
            raise ManifestFormatError(f"{JOURNAL_FILE} names epoch {int(epoch)}, not past epoch {previous};"
                                      " operations journal epochs from 1 up, each at most once")
        previous = int(epoch)


def _read_optional(path: Path) -> Optional[bytes]:
    return path.read_bytes() if path.exists() else None


def _read_ledger_files(directory: Path) -> Optional[tuple[int, dict[str, DataBlock], Optional[tuple[bytes, str]]]]:
    """List the snapshots and read the pack: the number of committed epochs,
    the blocks of the pack's whole entries, and, if the pack ends in a torn
    tail, its whole part and what recover says it cuts; None for a directory
    with no snapshot, whose pack is not read.

    The committed epochs are exactly 0.snapshot to (E-1).snapshot; any other
    set of ``*.snapshot`` names, a gap, an extra epoch or a number such as
    01.snapshot, is refused. A ``.tmp`` file is no snapshot. Each pack
    entry is hashed once, by make_block, and must hash to its digest.
    Neither a pack entry nor a DataBlock carries an address: load_snapshot
    puts each block object at the address of every manifest record whose
    digest line names it.
    """
    if not directory.is_dir():
        return None
    snapshots = {name for name in os.listdir(directory) if name.endswith(".snapshot")}
    if not snapshots:
        return None
    expected = {f"{epoch}.snapshot" for epoch in range(len(snapshots))}
    if snapshots != expected:
        raise ManifestFormatError(f"{min(snapshots - expected)} is in the ledger, but the snapshots of"
                                  f" {len(snapshots)} epochs are 0.snapshot to {len(snapshots) - 1}.snapshot")
    pack = _read_optional(directory / PACK_FILE)
    blocks: dict[str, DataBlock] = {}
    if pack is None:
        return len(snapshots), blocks, None
    whole = len(PACK_HEADER)
    for position, digest, start, end in _pack_entries(pack):
        if digest in blocks:
            raise ManifestFormatError(f"{PACK_FILE} holds block {digest} twice")
        block = make_block(pack[start:end])
        if block.digest != digest:
            raise SnapshotCorrupt(f"{PACK_FILE} entry at byte {position} does not hash to its digest {digest}")
        blocks[digest] = block
        whole = end + 1
    tail = (pack[:whole], f"{PACK_FILE} ends in a partial entry at byte {whole}") if whole < len(pack) else None
    return len(snapshots), blocks, tail


def load_ledger(directory: Path) -> Ledger:
    """Load a persisted ledger, revalidating every epoch.

    Checks the snapshot names and the pack's digests, then loads each
    epoch's snapshot (the epoch's one copy of the manifest, parsed once)
    and checks its blocks against its manifest, and that the manifest
    claims the epoch and is an upload's (epoch 0) or one operation on the
    epoch before (_check_operation). Every epoch loads into one cluster,
    which puts only the records the epoch changed or added, so the points
    share every other record object. Each distinct block is hashed once,
    so the cost is O(distinct stored bytes + epochs x records). Files are
    read as written, with no newline translation. A torn pack tail, which
    load_ledger_cutting_tails cuts, is refused before any epoch loads.
    """
    directory = Path(directory)
    files = _read_ledger_files(directory)
    if files is None:
        return Ledger(directory=directory)
    epochs, blocks, tail = files
    if tail is not None:
        raise ManifestFormatError(tail[1])
    return _load_ledger(directory, epochs, blocks)


def load_ledger_cutting_tails(directory: Path, rng_seed: int) -> tuple[Ledger, Optional[ClusterState], Optional[str]]:
    """Load a persisted ledger and its live cluster (None while the ledger
    holds no point) as recover does, cutting what a torn append left, and
    describe the pack's cut (None if there is none).

    Only a snapshot's rename commits an epoch, and a commit appends its
    blocks to the pack before it, so a pack that ends in a strict prefix of
    an entry committed nothing. The ledger and live cluster are loaded
    without the torn tail, from memory, and the journal's whole lines are
    checked against the loaded epochs: an operation journals after its
    snapshot, so a line naming a later epoch proves that a committed
    snapshot is gone, even where no snapshot is left, and each line must be
    an operation's, in epoch order (_check_journal). Only if every check
    passes are the pack and the
    journal cut to their whole parts through write_file's replace;
    otherwise nothing is written. A corrupt pack entry that merely looks
    torn (a weight raised past the end of the pack) would drop a committed
    block or the live cluster's, so it fails.
    """
    directory = Path(directory)
    files = _read_ledger_files(directory)
    journal = _read_optional(directory / JOURNAL_FILE) or b""
    whole_journal = _whole_lines(journal)
    lines = whole_journal.decode("utf-8", "replace").split("\n")[:-1]
    if files is None:
        _check_journal(lines, 0)
        return Ledger(directory=directory), None, None
    epochs, blocks, tail = files
    try:
        ledger = _load_ledger(directory, epochs, blocks)
        _check_journal(lines, len(ledger.points))
        cluster = load_cluster(ledger, rng_seed) if ledger.points else None
    except (ManifestFormatError, SnapshotCorrupt) as exc:
        if tail is None:
            raise
        raise exc.__class__(f"{tail[1]}, but recover cuts nothing: {exc}") from exc
    if tail is not None:
        write_file(directory, PACK_FILE, tail[0])
    if whole_journal != journal:
        write_file(directory, JOURNAL_FILE, whole_journal)
    return ledger, cluster, None if tail is None else tail[1]


def _load_ledger(directory: Path, epochs: int, blocks: dict[str, DataBlock]) -> Ledger:
    """Load the snapshots of ``epochs`` committed epochs in ``directory``,
    their blocks from ``blocks``: the one place that decides what an epoch
    committed."""
    ledger = Ledger(directory=directory, blocks=blocks)
    cluster: Optional[ClusterState] = None  # every epoch loads into it, so points share records
    for epoch in range(epochs):
        try:
            text = _read_text(directory / f"{epoch}.snapshot")
        except (OSError, ValueError) as exc:
            raise SnapshotCorrupt(f"{epoch}.snapshot does not load: {exc}") from exc
        cluster = load_snapshot(text, ledger.blocks, into=cluster)
        point = RestorePoint(stored_manifest(cluster), text)
        if point.epoch != epoch:
            raise ManifestFormatError(f"{epoch}.snapshot claims epoch {point.epoch}")
        _check_operation(ledger, point.manifest)
        ledger.points.append(point)
    return ledger
