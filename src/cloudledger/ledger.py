"""Append-only restore-point ledger and crash recovery.

Every verified update commits one restore point: a snapshot of the
cluster, which holds the cloud manifest and names each record's block by
content digest. The point's aggregate X (cloud total plus user total
summed over servers) is derived from that manifest: a verified commit
has S = T, so X is twice the manifest total. The index stores X beside
each epoch as a check, compared again whenever a ledger is loaded. The
ledger keeps one block store, shared by all its points, holding each
distinct block once (on disk, an append-only pack), so a commit stores
only the blocks the store lacks.

Recovery declares the state intact when every server is up and a
CHECKSUM comparison against the last committed manifest passes; equal
records imply equal weights, so the live aggregate Y equals X without
being computed. Otherwise the cluster is rewritten from the last
snapshot.

Timestamps are logical clock ticks, not wall time, so ledgers are
byte-reproducible.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

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
from .manifest import DataBlock, Manifest, make_block
from .protocol import Mode, Verdict, verify_equality


@dataclass(frozen=True)
class RestorePoint:
    """One committed epoch: manifest, payload snapshot, tick.

    The snapshot holds the manifest and names each record's block by
    digest, resolved in the ledger's block store. ``added`` holds the
    blocks this commit was first to store, which persisting the point
    appends to the pack (empty for points read back from disk); it takes
    no part in equality.
    """

    epoch: int
    manifest: Manifest
    payload_snapshot: str
    timestamp: int
    added: tuple[DataBlock, ...] = field(default=(), compare=False, repr=False)

    @property
    def committed_x(self) -> int:
        """Aggregate X, the sum over servers of S_i + T_i: twice the total, as S_i = T_i."""
        return 2 * self.manifest.total_weight


@dataclass
class Ledger:
    """Append-only list of restore points; points[k].epoch == k.

    ``blocks`` is the block store (digest -> DataBlock) every point's
    snapshot resolves in. When bound to a directory, every commit appends
    the blocks the store lacked to ``blocks.pack``, persists
    ``<epoch>.snapshot``, and appends one ``<epoch> <timestamp>
    <committed_x>`` line to ``index``.
    """

    points: list[RestorePoint] = field(default_factory=list)
    directory: Optional[Path] = None
    blocks: dict[str, DataBlock] = field(default_factory=dict)

    @property
    def next_epoch(self) -> int:
        return len(self.points)

    def last(self) -> RestorePoint:
        if not self.points:
            raise NothingToRestore("ledger holds no restore points")
        return self.points[-1]


class RecoveryAction(enum.Enum):
    RESTORED = "RESTORED"
    INTACT = "INTACT"


@dataclass(frozen=True)
class RecoveryReport:
    action: RecoveryAction
    epoch: int


def commit_restore_point(ledger: Ledger, cluster: ClusterState, verdict: Verdict) -> RestorePoint:
    """Append a restore point for the cluster's current (verified) state.

    Refuses unverified or epoch-desynced commits, and stored blocks that a
    stale read path hid from the verdict; on success the stored blocks'
    manifest (and with it X) and a payload snapshot are frozen and the
    logical clock ticks. The manifest shares every record the commit did
    not change with the previous point, whose records become the
    cluster's previous_records, the ones a stale read path replays.
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
    point = RestorePoint(
        epoch=cluster.epoch,
        manifest=manifest,
        payload_snapshot=snapshot_cluster(cluster),
        timestamp=ledger.points[-1].timestamp + 1 if ledger.points else 1,
        added=_add_blocks(ledger.blocks, cluster),
    )
    cluster.previous_records = ledger.points[-1].manifest.records if ledger.points else None
    ledger.points.append(point)
    if ledger.directory is not None:
        _persist_point(ledger.directory, point)
    return point


def recover(ledger: Ledger, cluster: ClusterState) -> RecoveryReport:
    """Restore the cluster to the last committed point unless it is intact.

    Intact means: the cluster is at the committed epoch and server count,
    every server is alive, a CHECKSUM comparison against the stored
    manifest passes, which also implies the live aggregate Y equals the
    committed X, and no stale read path is armed. Weight equality alone is
    not trusted, because identical-weight substitutions leave Y unchanged;
    nor is a pass through a stale read path, which replays committed
    records whatever the servers store. Otherwise the cluster is
    rewritten from the snapshot, crashed servers are revived, the lying
    read path is cleared, and the restored state is re-verified.
    """
    last = ledger.last()
    live = read_manifest(cluster)
    intact = (
        live.server_count == last.manifest.server_count
        and live.epoch == last.epoch
        and all(s.alive for s in cluster.servers)
        and verify_equality(last.manifest, live, Mode.CHECKSUM).z
        and not cluster.stale_armed
    )
    if intact:
        return RecoveryReport(RecoveryAction.INTACT, last.epoch)

    rewrite_cluster_from_point(ledger, cluster)
    return RecoveryReport(RecoveryAction.RESTORED, last.epoch)


def rewrite_cluster_from_point(ledger: Ledger, cluster: ClusterState) -> None:
    """Overwrite cluster storage with the ledger's last payload snapshot.

    The cluster's previous_records stay those committed before that
    point. The servers load_snapshot builds from the ledger's store
    (unhashed) replace the cluster's. Revives every server, disarms a
    stale read path, resets the epoch to the point's, and re-verifies the
    result against the stored manifest; failure to verify means the
    snapshot itself is corrupt.
    """
    point = ledger.last()
    restored = load_snapshot(point.payload_snapshot, ledger.blocks, rng_seed=cluster.rng_seed)
    cluster.servers = restored.servers
    cluster.epoch = restored.epoch
    cluster.stale_armed = False
    for server in cluster.servers:
        server.alive = True
    check = verify_equality(point.manifest, read_manifest(cluster), Mode.CHECKSUM)
    if not check.z:
        raise SnapshotCorrupt(f"restored state fails its manifest check ({len(check.divergences)} divergences)")


def store_blocks(ledger: Ledger, cluster: ClusterState) -> None:
    """Store the cluster's blocks that the ledger's store lacks.

    Afterwards a snapshot of the cluster (such as the CLI's cluster.state)
    resolves against the ledger. A directory-bound ledger appends the new
    blocks to its pack.
    """
    added = _add_blocks(ledger.blocks, cluster)
    if ledger.directory is not None:
        _append_pack(ledger.directory, added)


def _add_blocks(store: dict[str, DataBlock], cluster: ClusterState) -> tuple[DataBlock, ...]:
    """Put the cluster's blocks that ``store`` lacks into it; return them in address order."""
    added = []
    for server in cluster.servers:
        for block in server.blocks.values():
            if block.digest not in store:
                store[block.digest] = block
                added.append(block)
    return tuple(added)


# --- persistence --------------------------------------------------------------
#
# Ledger format v3: ``blocks.pack`` holds each distinct block once, as
# PACK_HEADER followed by entries ``<sha256 hex> <weight>\n<payload>\n``,
# appended to, never rewritten. A commit appends its new blocks first, then
# writes ``<epoch>.snapshot``, the epoch's only file and the one copy of its
# manifest; the ``index`` line comes last.

INDEX_FILE = "index"
PACK_FILE = "blocks.pack"
PACK_HEADER = b"PACK v2\n"
_PACK_ENTRY = re.compile(rb"([0-9a-f]{64}) ([0-9]+)\n")


def _snapshot_path(directory: Path, epoch: int) -> Path:
    return directory / f"{epoch}.snapshot"


def _append_pack(directory: Path, blocks: Sequence[DataBlock]) -> None:
    """Append one pack entry per block, in a single write."""
    if not blocks:
        return
    with open(directory / PACK_FILE, "ab") as pack:
        chunks = [] if pack.tell() else [PACK_HEADER]
        for block in blocks:
            chunks += (f"{block.digest} {block.weight}\n".encode("ascii"), block.payload, b"\n")
        pack.write(b"".join(chunks))


def _read_pack(directory: Path) -> dict[str, DataBlock]:
    """Read the block pack, checking that each entry hashes to its digest.

    Each block is hashed once, by make_block. Pack entries carry no
    address, so they are built at block 0; load_snapshot moves
    each to the address of the manifest record its digest line pairs with.
    """
    path = directory / PACK_FILE
    if not path.exists():
        return {}
    data = path.read_bytes()
    if not data.startswith(PACK_HEADER):
        raise ManifestFormatError(f"{PACK_FILE} does not start with {PACK_HEADER!r}")
    blocks: dict[str, DataBlock] = {}
    position = len(PACK_HEADER)
    while position < len(data):
        entry = _PACK_ENTRY.match(data, position)
        if entry is None:
            raise ManifestFormatError(f"bad {PACK_FILE} entry header at byte {position}")
        digest = entry.group(1).decode("ascii")
        start, end = entry.end(), entry.end() + int(entry.group(2))
        if data[end : end + 1] != b"\n":
            raise ManifestFormatError(f"{PACK_FILE} entry at byte {position} is cut short")
        if digest in blocks:
            raise ManifestFormatError(f"{PACK_FILE} holds block {digest} twice")
        block = make_block(0, data[start:end])
        if block.digest != digest:
            raise SnapshotCorrupt(f"{PACK_FILE} entry at byte {position} does not hash to its digest {digest}")
        blocks[digest] = block
        position = end + 1
    return blocks


def _persist_point(directory: Path, point: RestorePoint) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    _append_pack(directory, point.added)
    _snapshot_path(directory, point.epoch).write_text(
        point.payload_snapshot, encoding="utf-8", newline="\n"
    )
    with open(directory / INDEX_FILE, "a", encoding="utf-8", newline="\n") as index:
        index.write(f"{point.epoch} {point.timestamp} {point.committed_x}\n")


def load_ledger(directory: Path) -> Ledger:
    """Load a persisted ledger, revalidating every epoch.

    Checks the pack's digests, index sequence and clocks, each snapshot's
    blocks against its manifest (the epoch's one copy, parsed once), and
    the index's X against the X that manifest derives. Each distinct block is hashed once, so the cost is
    O(distinct stored bytes + epochs x records).
    """
    directory = Path(directory)
    index_path = directory / INDEX_FILE
    if not index_path.exists():
        return Ledger(directory=directory)

    index_text = index_path.read_text(encoding="utf-8")
    lines = index_text.splitlines()
    if index_text and not index_text.endswith("\n"):
        raise ManifestFormatError(f"index ends in a partial line at epoch {len(lines) - 1}: {lines[-1]!r}")
    ledger = Ledger(directory=directory, blocks=_read_pack(directory))
    previous_tick = 0
    for position, line in enumerate(lines):
        parts = line.split(" ")
        if len(parts) != 3:
            raise ManifestFormatError(f"bad index line: {line!r}")
        epoch, timestamp, committed_x = (int(p) for p in parts)
        if epoch != position:
            raise ManifestFormatError(f"index epoch {epoch} out of sequence at line {position}")
        if timestamp <= previous_tick:
            raise ManifestFormatError(f"index timestamps not strictly increasing at epoch {epoch}")
        previous_tick = timestamp

        snapshot_text = _snapshot_path(directory, epoch).read_text(encoding="utf-8")
        manifest = stored_manifest(load_snapshot(snapshot_text, ledger.blocks))
        if manifest.epoch != epoch:
            raise ManifestFormatError(f"snapshot for epoch {epoch} claims epoch {manifest.epoch}")
        point = RestorePoint(epoch=epoch, manifest=manifest, payload_snapshot=snapshot_text, timestamp=timestamp)
        if committed_x != point.committed_x:
            raise ManifestFormatError(f"index X for epoch {epoch} does not match its manifest")
        ledger.points.append(point)
    return ledger
