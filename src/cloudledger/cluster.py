"""Simulated multi-server storage cluster.

Uploads are split into fixed-size blocks placed round-robin across R
servers. Every write, faults and snapshot loads included, goes through
ServerState.put and drop, which keep each block's record (the weight and
checksum make_block stored with it, never client metadata) beside it. A
cloud-level manifest joins those records, so a read hashes and builds
nothing, yet sees any corruption of stored bytes. Fault injection covers
byte corruption, truncation, same-weight substitution, block drops,
server crashes (which erase that server's data), and a lying read path
that replays the previous epoch's records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Optional

from .checksum import fnv1a64
from .errors import (
    ManifestFormatError,
    NoSuchTarget,
    PreexistingData,
    ServerDown,
    SnapshotCorrupt,
)
from .manifest import (
    BlockRecord,
    DataBlock,
    Level,
    Manifest,
    make_block,
    parse_manifest,
    serialize_manifest,
)
from .rng import XorShift64Star


class FaultKind(enum.Enum):
    FLIP_BYTE = "flip-byte"
    TRUNCATE = "truncate"
    SAME_WEIGHT_SUBSTITUTE = "same-weight"
    DROP_BLOCK = "drop-block"
    SERVER_CRASH = "crash"
    CSP_STALE_MANIFEST = "stale-manifest"


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: what to do, where, and the byte-stream seed."""

    kind: FaultKind
    target_server: int
    target_block: Optional[int] = None
    seed: int = 0


@dataclass(frozen=True)
class FaultReport:
    """What a fault actually did, as metadata (before/after records)."""

    kind: FaultKind
    target_server: int
    target_block: Optional[int]
    before: Optional[BlockRecord]
    after: Optional[BlockRecord]
    note: str


@dataclass
class ServerState:
    """One server partition: blocks and their records keyed by block_id,
    plus a liveness flag.

    put and drop are the only writers of both dicts, so records[i] is the
    record of blocks[i]. Both stay in block-id order (appends take the next
    id, updates replace in place), which is the manifest order.
    """

    server_index: int
    blocks: dict[int, DataBlock] = field(default_factory=dict)
    records: dict[int, BlockRecord] = field(default_factory=dict)
    alive: bool = True

    def put(self, block: DataBlock) -> None:
        """Store a block at its block_id, replacing any block there."""
        self.blocks[block.block_id] = block
        self.records[block.block_id] = BlockRecord(self.server_index, block.block_id, block.weight, block.checksum)

    def drop(self, block_id: int) -> None:
        """Remove the block at block_id and its record."""
        del self.blocks[block_id]
        del self.records[block_id]


@dataclass
class ClusterState:
    """The simulated CSP: R servers, the current epoch, and read-path state.

    previous_records are the records committed at epoch - 1 (None before
    there are any); the stale-manifest fault replays them through
    read_manifest (stamped with the current epoch, as a hiding CSP would)
    until a restore clears it. Mutation is serialized through a single
    driver; reads are side-effect free.
    """

    servers: list[ServerState]
    epoch: int = 0
    rng_seed: int = 0
    stale_armed: bool = False
    previous_records: Optional[tuple[BlockRecord, ...]] = None

    @property
    def server_count(self) -> int:
        return len(self.servers)

    def total_stored_bytes(self) -> int:
        return sum(b.weight for s in self.servers for b in s.blocks.values())

    def has_data(self) -> bool:
        return any(s.blocks for s in self.servers)


def new_cluster(server_count: int, rng_seed: int = 0) -> ClusterState:
    if server_count < 1:
        raise ValueError(f"server_count must be >= 1, got {server_count}")
    return ClusterState(
        servers=[ServerState(server_index=i) for i in range(server_count)],
        rng_seed=rng_seed,
    )


def partition_upload(payload: bytes, server_count: int, block_size: int) -> list[list[DataBlock]]:
    """Split a payload into blocks and place them round-robin.

    Global block k (payload[k*B : (k+1)*B], last one ragged) goes to
    server k mod n with within-server block ids 0, 1, 2, ...; reading the
    blocks back in global order reconstructs the payload exactly.
    """
    if server_count < 1:
        raise ValueError(f"server_count must be >= 1, got {server_count}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    per_server: list[list[DataBlock]] = [[] for _ in range(server_count)]
    for k in range(0, len(payload), block_size):
        server_index = (k // block_size) % server_count
        per_server[server_index].append(
            make_block(len(per_server[server_index]), payload[k : k + block_size])
        )
    return per_server


def upload(cluster: ClusterState, payload: bytes, block_size: int) -> Manifest:
    """Store a payload across all servers and return the cloud manifest.

    The manifest is read back from what was stored. Refuses to run
    against a cluster that already holds data (initial-upload contract) or
    has a dead server; in both cases the cluster is left untouched.
    """
    dead = [s.server_index for s in cluster.servers if not s.alive]
    if dead:
        raise ServerDown(f"servers not alive: {dead}")
    if cluster.has_data():
        raise PreexistingData("cluster already holds data; initial upload requires empty storage")
    for server, blocks in zip(cluster.servers, partition_upload(payload, cluster.server_count, block_size)):
        for block in blocks:
            server.put(block)
    return read_manifest(cluster)


def stored_manifest(cluster: ClusterState, unavailable_servers: frozenset[int] = frozenset()) -> Manifest:
    """The cloud manifest of the blocks on every server not listed as
    unavailable, whatever the read path serves: the servers' records
    joined in server order, so already sorted, and shared, not rebuilt."""
    records = chain.from_iterable(s.records.values() for s in cluster.servers
                                  if s.server_index not in unavailable_servers)
    return Manifest(Level.CLOUD, cluster.epoch, tuple(records), cluster.server_count, unavailable_servers)


def read_manifest(cluster: ClusterState) -> Manifest:
    """The cloud-level manifest the read path serves: the stored manifest
    of the alive servers, whose records carry the weight and checksum
    make_block computed when each block was stored. Dead servers are
    listed in unavailable_servers. While the stale-manifest fault is
    armed, the previous epoch's committed records are served instead,
    stamped with the current epoch (the lying CSP claims they are current).
    """
    if cluster.stale_armed:
        if cluster.previous_records is None:
            raise NoSuchTarget("stale manifest armed but no previous-epoch manifest exists")
        return Manifest(
            level=Level.CLOUD,
            epoch=cluster.epoch,
            records=cluster.previous_records,
            server_count=cluster.server_count,
        )
    return stored_manifest(cluster, frozenset(s.server_index for s in cluster.servers if not s.alive))


def inject_fault(cluster: ClusterState, fault: FaultSpec) -> FaultReport:
    """Apply one fault to the cluster, deterministically from (state, seed)."""
    if not 0 <= fault.target_server < cluster.server_count:
        raise NoSuchTarget(f"no server {fault.target_server}")
    server = cluster.servers[fault.target_server]
    stream = XorShift64Star(cluster.rng_seed ^ fault.seed)

    if fault.kind is FaultKind.SERVER_CRASH:
        erased = sum(b.weight for b in server.blocks.values())
        server.alive = False
        for block_id in list(server.blocks):
            server.drop(block_id)
        return FaultReport(
            fault.kind, fault.target_server, None, None, None,
            f"server {fault.target_server} crashed, {erased} bytes erased",
        )

    if fault.kind is FaultKind.CSP_STALE_MANIFEST:
        if cluster.previous_records is None:
            raise NoSuchTarget("no previous-epoch manifest to serve as stale")
        cluster.stale_armed = True
        return FaultReport(
            fault.kind, fault.target_server, None, None, None,
            f"read path now serves the epoch-{cluster.epoch - 1} manifest",
        )

    if fault.target_block is None:
        raise NoSuchTarget("fault kind requires a target block")
    block = server.blocks.get(fault.target_block)
    if block is None:
        raise NoSuchTarget(f"no block {fault.target_block} on server {server.server_index}")
    before = server.records[block.block_id]

    if fault.kind is FaultKind.DROP_BLOCK:
        server.drop(block.block_id)
        return FaultReport(fault.kind, fault.target_server, block.block_id, before, None, "block dropped")

    if block.weight < 1:
        raise NoSuchTarget(f"{fault.kind.value} needs a non-empty block")

    if fault.kind is FaultKind.FLIP_BYTE:
        position = stream.randrange(block.weight)
        xor_value = 1 + stream.randrange(255)
        corrupted = bytearray(block.payload)
        corrupted[position] ^= xor_value
        payload = bytes(corrupted)
        note = f"byte {position} xored with 0x{xor_value:02x}"
    elif fault.kind is FaultKind.TRUNCATE:
        cut = 1 + stream.randrange(block.weight)
        payload = block.payload[: block.weight - cut]
        note = f"{cut} trailing bytes removed"
    elif fault.kind is FaultKind.SAME_WEIGHT_SUBSTITUTE:
        payload = stream.bytes(block.weight)
        while payload == block.payload or fnv1a64(payload) == block.checksum:
            payload = stream.bytes(block.weight)
        note = "payload substituted, same weight"
    else:
        raise NoSuchTarget(f"unknown fault kind {fault.kind!r}")

    server.put(make_block(block.block_id, payload))
    return FaultReport(
        fault.kind, fault.target_server, block.block_id,
        before, server.records[block.block_id], note,
    )


# --- cluster snapshots -------------------------------------------------------
#
# A snapshot names each block by its content digest instead of carrying its
# bytes (ledger format v3): the marker line SNAPSHOT_HEADER, the canonical
# manifest text, one digest line per manifest record in record order, then
# optional status lines (`DOWN <server>`, `STALE`) and a final END. Status
# lines only appear when the condition is present, and at most once each; a
# DOWN server holds no records (a crash erases them), and STALE never appears
# at epoch 0, which has no previous epoch to replay. The bytes live once in
# a block store, a mapping from digest to DataBlock (on disk, the ledger's
# block pack).

SNAPSHOT_HEADER = "SNAPSHOT v3"
_RETIRED_HEADERS = (["MANIFEST", "v1"], ["SNAPSHOT", "v2"])


def snapshot_cluster(cluster: ClusterState) -> str:
    lines = [SNAPSHOT_HEADER, serialize_manifest(stored_manifest(cluster)).rstrip("\n")]
    lines += [block.digest for server in cluster.servers for block in server.blocks.values()]
    for server in cluster.servers:
        if not server.alive:
            lines.append(f"DOWN {server.server_index}")
    if cluster.stale_armed:
        lines.append("STALE")
    lines.append("END")
    return "\n".join(lines) + "\n"


def load_snapshot(text: str, blocks: Mapping[str, DataBlock], rng_seed: int = 0) -> ClusterState:
    """Rebuild a cluster from snapshot text, taking the block each digest
    line names from ``blocks`` (digest -> DataBlock) and placing it at the
    address of the manifest record in the same position. Nothing is decoded
    or hashed: each block must match its record by the weight and checksum
    make_block stored with it. Any inconsistency raises SnapshotCorrupt."""
    lines = text.splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        head = lines[0].split(" ")[:2] if lines else []
        if head in _RETIRED_HEADERS:
            raise SnapshotCorrupt(f"snapshot is in ledger format {head[1]}, which is no longer supported;"
                                  f" expected format v3 ({SNAPSHOT_HEADER!r})")
        raise SnapshotCorrupt(f"snapshot does not start with {SNAPSHOT_HEADER!r}")
    if "END" not in lines:
        raise SnapshotCorrupt("snapshot missing manifest terminator")
    split = lines.index("END")
    try:
        manifest = parse_manifest("\n".join(lines[1 : split + 1]) + "\n")
    except ManifestFormatError as exc:
        raise SnapshotCorrupt(f"snapshot manifest unreadable: {exc}") from exc

    if lines[-1] != "END":
        raise SnapshotCorrupt("snapshot not terminated by END")
    count = len(manifest.records)
    body = lines[split + 1 : -1]
    digests, status = body[:count], body[count:]
    if len(digests) != count:
        raise SnapshotCorrupt(f"snapshot has {len(digests)} digest lines for {count} manifest records")
    down: set[int] = set()
    stale = False
    for line in status:
        if line == "STALE" and not stale:
            stale = True
        elif line.startswith("DOWN ") and line[5:].isdecimal() and int(line[5:]) not in down:
            down.add(int(line[5:]))
        else:
            raise SnapshotCorrupt(f"bad or repeated snapshot line: {line!r}")
    if stale and manifest.epoch == 0:
        raise SnapshotCorrupt("STALE line at epoch 0, which has no previous epoch to replay")

    cluster = new_cluster(manifest.server_count, rng_seed=rng_seed)
    cluster.epoch = manifest.epoch
    cluster.stale_armed = stale
    for record, digest in zip(manifest.records, digests):
        block = blocks.get(digest)
        if block is None:
            raise SnapshotCorrupt(f"server={record.server_index} block={record.block_id} references"
                                  f" block {digest}, which the store lacks")
        if (block.weight, block.checksum) != (record.weight, record.checksum):
            raise SnapshotCorrupt(f"block referenced by server={record.server_index} block={record.block_id}"
                                  " fails its manifest record")
        if block.block_id != record.block_id:
            block = block._replace(block_id=record.block_id)
        cluster.servers[record.server_index].put(block)
    for server_index in down:
        if not 0 <= server_index < cluster.server_count:
            raise SnapshotCorrupt(f"DOWN line names unknown server {server_index}")
        if cluster.servers[server_index].blocks:
            raise SnapshotCorrupt(f"DOWN line names server {server_index}, which holds records")
        cluster.servers[server_index].alive = False
    return cluster
