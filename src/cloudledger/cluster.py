"""Simulated multi-server storage cluster.

Uploads are split into fixed-size blocks placed round-robin across R
servers. Every write, faults and snapshot loads included, goes through
ServerState.put and drop, which keep each block's record (its address,
its length and the checksum make_block stored with it, never client
metadata) beside it. A cloud-level manifest joins those records, so a
read hashes nothing, yet sees any corruption of stored bytes. Each
server keeps its records as one tuple, and the cluster their join, until
the next put or drop, so the reads between two writes share one record
tuple, which is the one a commit freezes: the first read after a write
joins the records again, and any other costs O(servers).
put renders each record's manifest line as it writes the record, and
each server keeps its joined snapshot lines and weight total until its
next put or drop, so a commit renders one line per put and sums the
weights of only the servers written since their last snapshot.
Fault injection covers byte corruption, truncation, same-weight
substitution, block drops, server crashes (which erase that server's
data), and a lying read path that replays the previous epoch's records.
The cluster lists the faults injected since its last snapshot load, each
with the seed of its byte stream, so replaying them onto that snapshot
rebuilds it. FaultSpec and FaultReport are NamedTuples; ServerState and
ClusterState are plain mutable classes.
"""

from __future__ import annotations

import enum
from itertools import chain, compress
from operator import is_, itemgetter, ne
from typing import Mapping, NamedTuple, Optional

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
    _RECORD_FORMAT,
    _server_bounds,
    make_block,
    new_record,
    parse_manifest,
    serialize_manifest,
)
from .rng import _MASK64, XorShift64Star


class FaultKind(enum.Enum):
    FLIP_BYTE = "flip-byte"
    TRUNCATE = "truncate"
    SAME_WEIGHT_SUBSTITUTE = "same-weight"
    DROP_BLOCK = "drop-block"
    SERVER_CRASH = "crash"
    CSP_STALE_MANIFEST = "stale-manifest"


class FaultSpec(NamedTuple):
    """One deterministic fault: what to do, where, and the byte-stream seed."""

    kind: FaultKind
    target_server: int
    target_block: Optional[int] = None
    seed: int = 0


class FaultReport(NamedTuple):
    """What a fault actually did, as metadata (before/after records)."""

    kind: FaultKind
    target_server: int
    target_block: Optional[int]
    before: Optional[BlockRecord]
    after: Optional[BlockRecord]
    note: str


class ServerState:
    """One server partition: blocks and their records keyed by block_id,
    plus a liveness flag.

    A server starts empty; put and drop are the only writers of both dicts,
    so records[i] is the record of blocks[i]. The keys are the only place a
    block's address lives. Both dicts stay in block-id order (appends take
    the next id, updates replace in place), which is the manifest order.
    A record object outlives the writes at other addresses, so a commit's
    manifest shares it, and a snapshot loaded into a server that holds its
    block ids (a recover or a rollback) puts only the blocks that differ; a
    server that holds other ids is replaced by a new one instead. put
    renders each record's manifest line into record_lines, the third dict
    that put and drop alone write, so a record line is rendered once, when
    its record is written.
    snapshot_lines joins those lines, renders the digest lines and sums
    the weights on first use, and keeps all three until the next put or
    drop, so the snapshot of a commit joins and sums again only the
    servers written since their last snapshot. record_tuple keeps the
    records as a tuple the same way, for stored_manifest to join.
    """

    def __init__(self, server_index: int) -> None:
        self.server_index = server_index
        self.blocks: dict[int, DataBlock] = {}
        self.records: dict[int, BlockRecord] = {}
        self.record_lines: dict[int, str] = {}
        self.alive = True
        self._snapshot_lines: Optional[tuple[str, str, int]] = None
        self._record_tuple: Optional[tuple[BlockRecord, ...]] = None

    def put(self, block_id: int, block: DataBlock) -> None:
        """Store a block at block_id, replacing any block there, and record
        it there with its length as weight and its stored checksum. The
        record is always a new object, and its manifest line is rendered."""
        self.blocks[block_id] = block
        record = self.records[block_id] = new_record((self.server_index, block_id, len(block.payload), block.checksum))
        self.record_lines[block_id] = _RECORD_FORMAT % record
        self._snapshot_lines = self._record_tuple = None

    def drop(self, block_id: int) -> None:
        """Remove the block at block_id, its record and its record line."""
        del self.blocks[block_id]
        del self.records[block_id]
        del self.record_lines[block_id]
        self._snapshot_lines = self._record_tuple = None

    def snapshot_lines(self) -> tuple[str, str, int]:
        """The server's part of a snapshot: its manifest record lines, its
        digest lines and the total weight of its records, made on the
        first call after a put or drop and kept until the next one."""
        if self._snapshot_lines is None:
            digests = "\n".join([*map(itemgetter(2), self.blocks.values()), ""])  # each line ends in LF
            total = sum(map(itemgetter(2), self.records.values()))
            self._snapshot_lines = ("".join(self.record_lines.values()), digests, total)
        return self._snapshot_lines

    def record_tuple(self) -> tuple[BlockRecord, ...]:
        """The server's records in block-id order, made on the first call
        after a put or drop and kept, the same object, until the next one."""
        if self._record_tuple is None:
            self._record_tuple = tuple(self.records.values())
        return self._record_tuple


class ClusterState:
    """The simulated CSP: R servers, the current epoch, and read-path state.

    previous_records, the records committed at epoch - 1 (None before
    there are any), come only from ledger.previous_records; the
    stale-manifest fault replays them through
    read_manifest (stamped with the current epoch, as a hiding CSP would)
    until a restore clears it. faults lists the faults injected since the
    last snapshot load or intact recover, each with the seed of its byte
    stream (rng_seed xor its own), so they replay onto that state under
    any rng_seed; a commit keeps only the ones still in effect. Mutation is
    serialized through a single driver; a read changes nothing but the
    record tuple stored_manifest keeps, which is a function of the
    servers' own.
    """

    def __init__(self, servers: list[ServerState], rng_seed: int = 0) -> None:
        self.servers = servers
        self.epoch = 0
        self.rng_seed = rng_seed
        self.stale_armed = False
        self.previous_records: Optional[tuple[BlockRecord, ...]] = None
        self.faults: list[FaultSpec] = []
        self._joined: tuple[tuple[tuple[BlockRecord, ...], ...], tuple[BlockRecord, ...]] = ((), ())

    @property
    def server_count(self) -> int:
        return len(self.servers)

    def total_stored_bytes(self) -> int:
        """The bytes stored on all servers: the sum of the weight totals
        the servers keep beside their snapshot lines."""
        return sum(server.snapshot_lines()[2] for server in self.servers)

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
    server k mod n; a block's position in its server's list is its block
    id (0, 1, 2, ...). Reading the blocks back in global order
    reconstructs the payload exactly.
    """
    if server_count < 1:
        raise ValueError(f"server_count must be >= 1, got {server_count}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    per_server: list[list[DataBlock]] = [[] for _ in range(server_count)]
    for k in range(0, len(payload), block_size):
        per_server[(k // block_size) % server_count].append(make_block(payload[k : k + block_size]))
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
        for block_id, block in enumerate(blocks):
            server.put(block_id, block)
    return read_manifest(cluster)


def stored_manifest(cluster: ClusterState, unavailable_servers: frozenset[int] = frozenset()) -> Manifest:
    """The cloud manifest of the blocks on every server not listed as
    unavailable, whatever the read path serves: the servers' record tuples
    joined in server order, so already sorted, and shared, not rebuilt.
    The cluster keeps the join with the tuples it was made from and makes
    it again only when one of them is another object: after a put or a
    drop, on a server a snapshot load replaced, or for another list of
    servers or set of unavailable ones. Equal parts make an equal join, so
    the reads between two writes return one tuple, O(servers) each."""
    parts = tuple([s.record_tuple() for s in cluster.servers if s.server_index not in unavailable_servers])
    joined, records = cluster._joined
    if len(joined) != len(parts) or not all(map(is_, joined, parts)):
        records = tuple(chain.from_iterable(parts))
        cluster._joined = (parts, records)
    return Manifest(Level.CLOUD, cluster.epoch, records, cluster.server_count, unavailable_servers)


def read_manifest(cluster: ClusterState) -> Manifest:
    """The cloud-level manifest the read path serves: the stored manifest
    of the alive servers, whose records carry the weight and checksum
    make_block computed when each block was stored. Dead servers are
    listed in unavailable_servers. Reads with no put, drop or change of
    liveness between them return one record tuple, the one a commit
    between them freezes. While the stale-manifest fault is
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
    """Apply one fault to the cluster, deterministically from (state, seed),
    and list it in cluster.faults: its kind and server, the block its
    report names (none for a crash or a stale read path, which name none)
    and the seed of its byte stream, rng_seed xor its own, as 64 bits."""
    report = _apply_fault(cluster, fault)
    cluster.faults.append(FaultSpec(fault.kind, fault.target_server, report.target_block,
                                    (cluster.rng_seed ^ fault.seed) & _MASK64))
    return report


def _apply_fault(cluster: ClusterState, fault: FaultSpec) -> FaultReport:
    """What inject_fault does to the cluster, and its report."""
    if not 0 <= fault.target_server < cluster.server_count:
        raise NoSuchTarget(f"no server {fault.target_server}")
    server = cluster.servers[fault.target_server]
    stream = XorShift64Star(cluster.rng_seed ^ fault.seed)

    if fault.kind is FaultKind.SERVER_CRASH:
        erased = sum(r.weight for r in server.records.values())
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
    block_id = fault.target_block
    if block_id not in server.blocks:
        raise NoSuchTarget(f"no block {block_id} on server {server.server_index}")
    block, before = server.blocks[block_id], server.records[block_id]

    if fault.kind is FaultKind.DROP_BLOCK:
        server.drop(block_id)
        return FaultReport(fault.kind, fault.target_server, block_id, before, None, "block dropped")

    if before.weight < 1:
        raise NoSuchTarget(f"{fault.kind.value} needs a non-empty block")

    if fault.kind is FaultKind.FLIP_BYTE:
        position = stream.randrange(before.weight)
        xor_value = 1 + stream.randrange(255)
        corrupted = bytearray(block.payload)
        corrupted[position] ^= xor_value
        substitute = make_block(bytes(corrupted))
        note = f"byte {position} xored with 0x{xor_value:02x}"
    elif fault.kind is FaultKind.TRUNCATE:
        cut = 1 + stream.randrange(before.weight)
        substitute = make_block(block.payload[: before.weight - cut])
        note = f"{cut} trailing bytes removed"
    elif fault.kind is FaultKind.SAME_WEIGHT_SUBSTITUTE:
        substitute = make_block(stream.bytes(before.weight))
        while substitute.checksum == block.checksum:  # the same bytes included
            substitute = make_block(stream.bytes(before.weight))
        note = "payload substituted, same weight"
    else:
        raise NoSuchTarget(f"unknown fault kind {fault.kind!r}")

    server.put(block_id, substitute)
    return FaultReport(fault.kind, fault.target_server, block_id, before, server.records[block_id], note)


# --- cluster snapshots -------------------------------------------------------
#
# A snapshot names each block by its content digest instead of carrying its
# bytes: the marker line SNAPSHOT_HEADER, the canonical manifest text, one
# digest line per manifest record in record order, and a final END. It holds
# what a restore point restores, and no live status or fault: a loaded
# snapshot has every server up, no stale read path and no fault listed. The
# bytes live once in a block store, a mapping from digest to DataBlock (on
# disk, the entries of the ledger's epoch files). No file stores snapshot
# text: an epoch file stores the operation that rebuilds it, the ledger's
# cluster.state the faults since the last point, and the ledger keeps the
# last point's text in memory, the one a restore loads.

SNAPSHOT_HEADER = "SNAPSHOT v11"


def snapshot_cluster(cluster: ClusterState) -> str:
    """The cluster's snapshot text. Each server's record lines, digest
    lines and weight total are the ones it kept since its last put or
    drop, so a commit joins and sums only the servers written since their
    last snapshot; serialize_manifest wraps the record lines in the
    manifest's header, whose total is the sum of the servers' totals, and
    END. No manifest of the records is built: the one passed names only
    the header's level, epoch and server count."""
    lines = [server.snapshot_lines() for server in cluster.servers]
    header = Manifest(Level.CLOUD, cluster.epoch, (), cluster.server_count)
    manifest = serialize_manifest(header, "".join(map(itemgetter(0), lines)), sum(map(itemgetter(2), lines)))
    return "".join((SNAPSHOT_HEADER, "\n", manifest, *map(itemgetter(1), lines), "END\n"))


def load_snapshot(text: str, blocks: Mapping[str, DataBlock], rng_seed: int = 0,
                  into: Optional[ClusterState] = None) -> ClusterState:
    """Load snapshot text into a cluster, taking the block each digest line
    names from ``blocks`` (digest -> DataBlock) and putting that very
    object at the address of the manifest record in the same position.
    Nothing is decoded or hashed: each block must match its record by its
    length and the checksum make_block stored with it. Lines end in LF
    only, the last one included. Any inconsistency, a manifest of no
    servers or of the user level included, raises SnapshotCorrupt.

    The cluster is a new one seeded with ``rng_seed``, or ``into``, which
    gets new servers if it has another server count than the snapshot.
    Every check runs before the first write, so a snapshot that fails one
    leaves ``into`` as it was. The text is cut at LFs by str methods, the
    blocks are looked up in one pass, and their weights and checksums are
    compared with the records' column by column in C; only a failed check
    walks the records, to name the first bad one.

    Writes go only where a server's blocks differ from the snapshot's, so
    an unchanged address keeps its record object, which the committed
    points share. A server that holds the snapshot's block ids gets one
    put per differing block, found by one C pass over its blocks. Any
    other server is replaced by a new one, filled by put in block-id
    order. The epoch is then set from the snapshot, every server is alive,
    the stale read path is disarmed and no fault is listed: a snapshot
    holds no live status.
    """
    head = text.partition("\n")[0]
    if head != SNAPSHOT_HEADER:
        raise SnapshotCorrupt(f"snapshot does not start with {SNAPSHOT_HEADER!r}")
    split = text.find("\nEND\n", len(head))
    if split < 0:
        raise SnapshotCorrupt("snapshot missing manifest terminator")
    try:
        manifest = parse_manifest(text[len(head) + 1 : split + len("\nEND\n")])
    except ManifestFormatError as exc:
        raise SnapshotCorrupt(f"snapshot manifest unreadable: {exc}") from exc
    server_count = manifest.server_count
    if server_count < 1:
        raise SnapshotCorrupt(f"snapshot manifest has servers={server_count}; a cluster needs one")
    if manifest.level is not Level.CLOUD:
        raise SnapshotCorrupt(f"snapshot manifest has level={manifest.level.value}; a snapshot holds the cloud's")

    digests = text[split + len("\nEND\n") :].split("\n")
    if digests[-2:] != ["END", ""]:
        raise SnapshotCorrupt("snapshot not terminated by END")
    del digests[-2:]
    records = manifest.records
    if len(digests) != len(records):
        raise SnapshotCorrupt(f"snapshot has {len(digests)} digest lines for {len(records)} manifest records")

    try:
        found = list(map(blocks.__getitem__, digests))
    except KeyError:
        raise _first_bad_record(records, digests, blocks) from None
    if (list(map(itemgetter(2), records)) != list(map(len, map(itemgetter(0), found)))
            or list(map(itemgetter(3), records)) != list(map(itemgetter(1), found))):
        raise _first_bad_record(records, digests, blocks)
    bounds = _server_bounds(records, server_count)
    if into is None:
        cluster = new_cluster(server_count, rng_seed=rng_seed)
    else:
        cluster = into
        if cluster.server_count != server_count:
            cluster.servers = [ServerState(i) for i in range(server_count)]

    ids = list(map(itemgetter(1), records))
    for server, start, end in zip(cluster.servers, bounds, bounds[1:]):
        target_ids, target_blocks = ids[start:end], found[start:end]
        targets = zip(target_ids, target_blocks)
        if list(server.blocks) == target_ids:
            targets = compress(targets, map(ne, server.blocks.values(), target_blocks))
        else:  # put in block-id order: an id put back before a kept one must not land at the end
            server = cluster.servers[server.server_index] = ServerState(server.server_index)
        for block_id, block in targets:
            server.put(block_id, block)
    cluster.epoch = manifest.epoch
    cluster.stale_armed = False
    cluster.faults = []
    for server in cluster.servers:
        server.alive = True
    return cluster


def _first_bad_record(records: tuple[BlockRecord, ...], digests: list[str],
                      blocks: Mapping[str, DataBlock]) -> SnapshotCorrupt:
    """The error for the first record whose digest names no block in
    ``blocks``, or a block that fails the record's weight or checksum."""
    for record, digest in zip(records, digests):
        block = blocks.get(digest)
        if block is None:
            return SnapshotCorrupt(f"server={record.server_index} block={record.block_id} references"
                                   f" block {digest}, which the store lacks")
        if (len(block.payload), block.checksum) != (record.weight, record.checksum):
            return SnapshotCorrupt(f"block referenced by server={record.server_index} block={record.block_id}"
                                   " fails its manifest record")
    return SnapshotCorrupt("snapshot blocks fail their manifest records")
