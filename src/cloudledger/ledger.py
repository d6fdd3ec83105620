"""Append-only restore-point ledger and crash recovery.

Every verified update commits one restore point: a snapshot of the
cluster, which holds the cloud manifest and names each record's block by
content digest. The point's aggregate X (cloud total plus user total
summed over servers) is derived from that manifest: a verified commit
has S = T, so X is twice the manifest total. An index line must be the
line its epoch's snapshot commits, as _index_line renders it. The
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
join the store once the pack holds them, its point once the index does.
"""

from __future__ import annotations

import enum
import os
import re
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

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
from .manifest import BlockRecord, DataBlock, Manifest, make_block
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
    the blocks the store lacked to ``blocks.pack``, persists
    ``<epoch>.snapshot``, and appends one ``<epoch> <timestamp>
    <committed_x>`` line to ``index``.
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
    ledger writes the pack, the snapshot and the index line before the
    point joins ``points``.
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
# Ledger format v3: ``blocks.pack`` holds each distinct block once, as
# PACK_HEADER followed by entries ``<sha256 hex> <weight>\n<payload>\n``,
# written whole by the first write that stores a block, which replaces what
# an upload that never committed left, and appended to after that; only
# recover rewrites it, to cut a torn last entry. A commit appends its new
# blocks first, then replaces ``<epoch>.snapshot``, the epoch's only file and
# the one copy of its manifest; the ``index`` line comes last and, once its LF
# is written, is the commit (epoch 0's line is written as the whole index). A
# crash before it leaves only unread blocks, perhaps a torn pack entry, an
# unlisted snapshot, which a retry replaces, and perhaps a partial index line;
# recover cuts the torn entry and the partial line. The CLI's live cluster,
# ``cluster.state``, is written empty while it is the last point's snapshot.

INDEX_FILE = "index"
PACK_FILE = "blocks.pack"
CLUSTER_FILE = "cluster.state"
JOURNAL_FILE = "journal"
PACK_HEADER = b"PACK v2\n"
_PACK_ENTRY = re.compile(rb"([0-9a-f]{64}) ([0-9]+)\n")
# What a torn append can leave of an entry header: a strict prefix of _PACK_ENTRY.
_PACK_ENTRY_HEAD = re.compile(rb"[0-9a-f]{0,64}|[0-9a-f]{64} [0-9]*")


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


def _partial_pack_entry(position: int) -> str:
    return f"{PACK_FILE} ends in a partial entry at byte {position}"


def _whole_pack_length(data: bytes) -> int:
    """The length of the pack up to the end of its last whole entry."""
    whole = len(PACK_HEADER)
    for _, _, _, end in _pack_entries(data):
        whole = end + 1
    return whole


def _read_pack(data: Optional[bytes]) -> dict[str, DataBlock]:
    """Read the block pack's bytes (None for no pack), checking that each
    entry hashes to its digest.

    Each block is hashed once, by make_block. Neither a pack entry nor a
    DataBlock carries an address: load_snapshot puts each block object at
    the address of every manifest record whose digest line names it. A
    torn tail, which load_ledger_cutting_tails leaves out, is an error here.
    """
    if data is None:
        return {}
    blocks: dict[str, DataBlock] = {}
    whole = len(PACK_HEADER)
    for position, digest, start, end in _pack_entries(data):
        if digest in blocks:
            raise ManifestFormatError(f"{PACK_FILE} holds block {digest} twice")
        block = make_block(data[start:end])
        if block.digest != digest:
            raise SnapshotCorrupt(f"{PACK_FILE} entry at byte {position} does not hash to its digest {digest}")
        blocks[digest] = block
        whole = end + 1
    if whole < len(data):
        raise ManifestFormatError(_partial_pack_entry(whole))
    return blocks


def _write_point(directory: Path, point: RestorePoint) -> None:
    """Replace the point's snapshot, then write its index line: appended,
    or for epoch 0 as a whole new index, which discards any partial line
    an upload that never committed left."""
    write_file(directory, f"{point.epoch}.snapshot", point.payload_snapshot.encode("utf-8"))
    write_file(directory, INDEX_FILE, _index_line(point).encode(), append=point.epoch > 0)


def _index_line(point: RestorePoint) -> str:
    return f"{point.epoch} {point.timestamp} {point.committed_x}\n"


def _persist_point(directory: Path, point: RestorePoint) -> None:
    """Write an in-memory point's files as a bound commit does: new blocks, snapshot, index line."""
    _write_pack(directory, point.added, append=(directory / PACK_FILE).exists())
    _write_point(directory, point)


def _partial_index_line(epoch: int, partial: str) -> str:
    return f"index ends in a partial line at epoch {epoch}: {partial!r}"


def _check_operation(ledger: Ledger, manifest: Manifest) -> None:
    """Refuse a manifest for the ledger's next epoch that neither an upload
    (epoch 0) nor one operation on the ledger's last point leaves.

    An upload places its blocks round-robin, so server i holds ids 0, 1,
    ... for every n-th block from block i. An operation keeps the server
    count and, compared by _differing, removes at most one record and adds
    at most one: an update keeps the address, an append takes the next id
    after the server's largest, a delete only removes, and an update to
    identical bytes changes nothing. This catches an edited address or
    server count, which the index's X, a sum of weights, does not cover.
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


def _check_journal(journal: bytes, epochs: int) -> None:
    """Refuse a whole journal line naming an epoch at or past ``epochs``: an
    operation journals only after its index line, so the index lost a commit."""
    for line in journal.split(b"\n")[:-1]:
        epoch = line.partition(b" ")[0]
        if epoch.isdigit() and int(epoch) >= epochs:
            raise ManifestFormatError(f"{JOURNAL_FILE} names epoch {int(epoch)}, past the index's last;"
                                      " the index lost a commit")


def _read_optional(path: Path) -> Optional[bytes]:
    return path.read_bytes() if path.exists() else None


def load_ledger(directory: Path) -> Ledger:
    """Load a persisted ledger, revalidating every epoch.

    Checks the pack's digests, then for each index line loads its epoch's
    snapshot (the epoch's one copy of the manifest, parsed once) and
    checks its blocks against its manifest, that the manifest claims the
    epoch and is an upload's (epoch 0) or one operation on the epoch
    before (_check_operation), and that the line equals the line the
    snapshot commits, ``<epoch> <epoch + 1> <X>`` with the X the manifest
    derives. Every epoch loads into one cluster, which puts only the
    records the epoch changed or added, so the points share every other
    record object. Each distinct block is hashed once, so the cost is
    O(distinct stored bytes + epochs x records). Files are read as
    written, with no newline translation, and every line, the index's
    too, must end in LF; a partial last index line or pack entry, which
    load_ledger_cutting_tails leaves out, is an error here.
    """
    directory = Path(directory)
    index = _read_optional(directory / INDEX_FILE)
    if index is None:
        return Ledger(directory=directory)
    return _load_ledger(directory, index, _read_optional(directory / PACK_FILE))


def load_ledger_cutting_tails(directory: Path, rng_seed: int) -> tuple[Ledger, Optional[ClusterState], list[str]]:
    """Load a persisted ledger and its live cluster (None while the ledger
    holds no point) as recover does, cutting what a torn append left, and
    describe each cut.

    Only a whole index line commits an epoch, and a commit appends its
    blocks to the pack and writes its snapshot before its index line, so a
    pack that ends in a strict prefix of an entry committed nothing, nor
    did a partial last index line whose epoch's snapshot loads like a
    committed one and commits a line the partial one is a strict prefix
    of; any other partial line is refused. The ledger and live cluster are
    loaded without the torn tails, from memory, and the journal's whole
    lines are checked against the loaded epochs: an operation journals
    after its index line, so a line naming a later epoch proves that the
    index lost a commit. Only if every check passes are the files cut
    through write_file's replace, the journal's torn last line included;
    otherwise nothing is written. A corrupt pack entry that merely looks
    torn (a weight raised past the end of the pack) would drop a committed
    block or the live cluster's, so it fails.
    """
    directory = Path(directory)
    index = _read_optional(directory / INDEX_FILE)
    if index is None:
        return Ledger(directory=directory), None, []
    pack = _read_optional(directory / PACK_FILE)
    journal = _read_optional(directory / JOURNAL_FILE) or b""
    whole_index = index[: index.rfind(b"\n") + 1]
    whole_pack = None if pack is None else pack[: _whole_pack_length(pack)]
    whole_journal = journal[: journal.rfind(b"\n") + 1]
    cuts = []
    if whole_index != index:
        partial = index[len(whole_index) :].decode("utf-8", "replace")
        cuts.append(_partial_index_line(whole_index.count(b"\n"), partial))
    if whole_pack != pack:
        cuts.append(_partial_pack_entry(len(whole_pack)))
    try:
        ledger = _load_ledger(directory, index, whole_pack, torn=True)
        _check_journal(whole_journal, len(ledger.points))
        cluster = load_cluster(ledger, rng_seed) if ledger.points else None
    except (ManifestFormatError, SnapshotCorrupt) as exc:
        if not cuts:
            raise
        raise exc.__class__(f"{'; '.join(cuts)}, but recover cuts nothing: {exc}") from exc
    for name, whole, data in ((INDEX_FILE, whole_index, index), (PACK_FILE, whole_pack, pack),
                              (JOURNAL_FILE, whole_journal, journal)):
        if whole != data:
            write_file(directory, name, whole)
    return ledger, cluster, cuts


def _load_ledger(directory: Path, index: bytes, pack: Optional[bytes], torn: bool = False) -> Ledger:
    """Load a ledger from its index and pack bytes and the snapshots in
    ``directory``: the one place that decides what an epoch committed. The
    k-th index line must be a prefix of the line k.snapshot commits: a
    whole one, LF included, is that line; a partial last one, admitted
    only if ``torn``, is what a torn commit leaves and commits nothing."""
    *whole, partial = index.decode("utf-8", "replace").split("\n")
    lines = [line + "\n" for line in whole]
    if partial:
        if not torn:
            raise ManifestFormatError(_partial_index_line(len(lines), partial))
        lines.append(partial)
    ledger = Ledger(directory=directory, blocks=_read_pack(pack))
    cluster: Optional[ClusterState] = None  # every epoch loads into it, so points share records
    for epoch, line in enumerate(lines):
        try:
            text = _read_text(directory / f"{epoch}.snapshot")
        except (OSError, ValueError) as exc:
            raise SnapshotCorrupt(f"{epoch}.snapshot does not load: {exc}") from exc
        cluster = load_snapshot(text, ledger.blocks, into=cluster)
        point = RestorePoint(stored_manifest(cluster), text)
        if point.epoch != epoch:
            raise ManifestFormatError(f"{epoch}.snapshot claims epoch {point.epoch}")
        _check_operation(ledger, point.manifest)
        commits = _index_line(point)
        if not commits.startswith(line):
            relation = "is not" if line.endswith("\n") else "is no prefix of"
            raise ManifestFormatError(f"index line {line!r} {relation} {commits!r}, the line {epoch}.snapshot commits")
        if line == commits:
            ledger.points.append(point)
    return ledger
