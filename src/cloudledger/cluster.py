"""Simulated multi-server storage cluster.

Uploads are split into fixed-size blocks placed round-robin across R
servers. Every write, faults and snapshot loads included, goes through
ServerState.put and drop, which keep each block's record (its address,
its length and the checksum make_block stored with it, never client
metadata) beside it. A cloud-level manifest joins those records, so a
read hashes nothing, yet sees any corruption of stored bytes. An
operation's write, made live by ops.apply or replayed by load_ledger, is
write_block's: before it puts or drops, it checks that the server exists
and is up, and that the operation names the server's next id (APPEND)
or a block the server holds (UPDATE, DELETE). Each server keeps its
records as one tuple, and the cluster their join, until the next put or
drop, so the reads between two writes share one record tuple, which is
the one a commit freezes: the first read after a write joins the records
again, and any other costs O(servers).
put renders each record's manifest line as it writes the record, and
each server keeps its joined snapshot lines and weight total until its
next put or drop, so a commit renders one line per put and sums the
weights of only the servers written since their last snapshot.
Fault injection covers byte corruption, truncation, same-weight
substitution, block drops, server crashes (which erase that server's
data), and a lying read path that replays the previous epoch's records.
The cluster lists the faults injected since its last snapshot load, each
with the seed of its byte stream, so replaying them onto that snapshot
rebuilds it. That list is also the cluster's live status, kept nowhere
else: a server is down while a listed crash names it, and the read path
is stale while a stale-manifest fault is listed. OperationKind and
FaultKind are enums, FaultSpec and FaultReport NamedTuples; ServerState
and ClusterState are plain mutable classes.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import chain, compress
from operator import is_, itemgetter, ne
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import (
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
    _render_header,
    make_block,
    make_blocks,
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


# The faults that name no block, and the only ones still in effect once the
# stored blocks verify: a crashed server and a stale read path.
_LIVE_STATUS = (FaultKind.SERVER_CRASH, FaultKind.CSP_STALE_MANIFEST)


class OperationKind(enum.Enum):
    APPEND = "APPEND"
    DELETE = "DELETE"
    UPDATE = "UPDATE"


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
    """One server partition: blocks and their records keyed by block_id.
    It keeps no liveness flag: whether it is up is the cluster's fault
    list's to say.

    A server starts empty; put and drop are the only writers of both dicts,
    so records[i] is the record of blocks[i]. The keys are the only place a
    block's address lives. Both dicts stay in block-id order (appends take
    the next id, updates replace in place), which is the manifest order.
    A record object outlives the writes at other addresses, so a commit's
    manifest shares it, and a snapshot loaded into a server (a recover or a
    rollback) leaves it alone when it renders its section byte for byte,
    and else, when it holds its section's block ids, puts only the blocks
    that differ; a server that holds other ids is replaced by a new one
    instead. put
    renders each record's manifest line into record_lines, the third dict
    that put and drop alone write, so a record line is rendered once, when
    its record is written.
    snapshot_lines joins those lines, renders the digest lines and sums
    the weights on first use, and keeps all three until the next put or
    drop, so the snapshot of a commit joins and sums again only the
    servers written since their last snapshot, and a load compares a
    section with them in place. record_tuple keeps the
    records as a tuple the same way, for stored_manifest to join.
    """

    def __init__(self, server_index: int) -> None:
        self.server_index = server_index
        self.blocks: dict[int, DataBlock] = {}
        self.records: dict[int, BlockRecord] = {}
        self.record_lines: dict[int, str] = {}
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
    """The simulated CSP: R servers, the current epoch, and its faults.

    previous_records, the records committed at epoch - 1 (None before
    there are any), come only from ledger.previous_records; while a
    stale-manifest fault is listed, read_manifest replays them (stamped
    with the current epoch, as a hiding CSP would). faults lists the
    faults injected since the last snapshot load or intact recover, each
    with the seed of its byte stream (rng_seed xor its own), so they replay
    onto that state under any rng_seed; a commit keeps only the ones still
    in effect (_LIVE_STATUS). The list is the one record of the live
    status: no flag beside it says which servers are down or whether the
    read path is stale (_named). Mutation is
    serialized through a single driver; a read changes nothing but the
    record tuple stored_manifest keeps, which is a function of the
    servers' own.
    """

    def __init__(self, servers: list[ServerState], rng_seed: int = 0) -> None:
        self.servers = servers
        self.epoch = 0
        self.rng_seed = rng_seed
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


def _named(cluster: ClusterState, kind: FaultKind) -> frozenset[int]:
    """The servers the listed faults of ``kind`` name: for SERVER_CRASH the
    servers that are down, and for CSP_STALE_MANIFEST a set that is empty
    exactly while the read path is not stale."""
    if not cluster.faults:  # no fault since the last commit or restore: every read's case in a clean run
        return frozenset()
    return frozenset([fault.target_server for fault in cluster.faults if fault.kind is kind])


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
    reconstructs the payload exactly. Every block is made in one
    make_blocks call, so their FNV passes run together.
    """
    if server_count < 1:
        raise ValueError(f"server_count must be >= 1, got {server_count}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    blocks = make_blocks([payload[k : k + block_size] for k in range(0, len(payload), block_size)])
    return [blocks[server::server_count] for server in range(server_count)]


def upload(cluster: ClusterState, blocks: Sequence[Sequence[DataBlock]]) -> Manifest:
    """Store per-server block lists, as partition_upload makes them, and
    return the cloud manifest: the k-th block of list i goes to server i
    as block k, and is put as it is, so nothing is hashed again.

    The manifest is read back from what was stored. Refuses, before any
    put, a list of lists that is not one per server (ValueError), a
    cluster that already holds data (initial-upload contract) or has a
    down server; in each case the cluster is left untouched.
    """
    if len(blocks) != cluster.server_count:
        raise ValueError(f"cluster has {cluster.server_count} servers, upload has blocks for {len(blocks)}")
    dead = sorted(_named(cluster, FaultKind.SERVER_CRASH))
    if dead:
        raise ServerDown(f"servers not alive: {dead}")
    if cluster.has_data():
        raise PreexistingData("cluster already holds data; initial upload requires empty storage")
    for server, server_blocks in zip(cluster.servers, blocks):
        for block_id, block in enumerate(server_blocks):
            server.put(block_id, block)
    return read_manifest(cluster)


def write_block(cluster: ClusterState, kind: OperationKind, server_index: int, block_id: Optional[int],
                block: Optional[DataBlock]) -> int:
    """Make the one write an operation of ``kind`` names and return the id
    of the block it wrote: the rule of where an operation may write, for
    ops.apply and load_ledger's replay alike. Before any write, the server
    must exist (NoSuchTarget) and be up (ServerDown); an APPEND takes the
    next id after the server's largest, which ``block_id``, if given, must
    be, and an UPDATE or a DELETE must name a block the server holds
    (NoSuchTarget). Then ``block`` is put at the address, or the block there
    dropped when ``block`` is None."""
    if not 0 <= server_index < cluster.server_count:
        raise NoSuchTarget(f"no server {server_index}")
    if server_index in _named(cluster, FaultKind.SERVER_CRASH):
        raise ServerDown(f"server {server_index} is not alive")
    server = cluster.servers[server_index]
    if kind is OperationKind.APPEND:
        next_id = max(server.blocks, default=-1) + 1
        if block_id not in (None, next_id):
            raise NoSuchTarget(f"server {server_index}'s next block id is {next_id}")
        block_id = next_id
    elif block_id not in server.blocks:
        raise NoSuchTarget(f"no block {block_id} on server {server_index}")
    if block is None:
        server.drop(block_id)
    else:
        server.put(block_id, block)
    return block_id


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
    of the servers that are up, whose records carry the weight and checksum
    make_block computed when each block was stored. The servers a listed
    crash names are listed in unavailable_servers. Reads with no put, drop
    or new crash between them return one record tuple, the one a commit
    between them freezes. While a stale-manifest fault is listed, the
    previous epoch's committed records are served instead, stamped with
    the current epoch (the lying CSP claims they are current).
    """
    if _named(cluster, FaultKind.CSP_STALE_MANIFEST):
        if cluster.previous_records is None:
            raise NoSuchTarget("stale manifest armed but no previous-epoch manifest exists")
        return Manifest(
            level=Level.CLOUD,
            epoch=cluster.epoch,
            records=cluster.previous_records,
            server_count=cluster.server_count,
        )
    return stored_manifest(cluster, _named(cluster, FaultKind.SERVER_CRASH))


def inject_fault(cluster: ClusterState, fault: FaultSpec) -> FaultReport:
    """Apply one fault to the cluster, deterministically from (state, seed),
    and list it in cluster.faults: its kind and server, the block its
    report names (none for a crash or a stale read path, which name none)
    and the seed of its byte stream, rng_seed xor its own, as 64 bits. A
    crash or a stale read path is in effect from then on only because it
    is listed."""
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
        for block_id in list(server.blocks):
            server.drop(block_id)
        return FaultReport(
            fault.kind, fault.target_server, None, None, None,
            f"server {fault.target_server} crashed, {erased} bytes erased",
        )

    if fault.kind is FaultKind.CSP_STALE_MANIFEST:
        if cluster.previous_records is None:
            raise NoSuchTarget("no previous-epoch manifest to serve as stale")
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
# bytes: the marker line SNAPSHOT_HEADER, then one section per server, in
# server order. A section is that server's canonical manifest text (its
# header names the snapshot's epoch and server count and the server's own
# total, then its record lines and END), then one digest line per record, in
# record order, and END. So a section stands alone: it is all a restore of
# its server reads, and a server that renders its section byte for byte
# needs no restore. A snapshot holds what a restore point restores, and no
# live status or fault: a loaded snapshot has no fault listed, so every
# server is up and the read path is not stale. The bytes live once in a
# block store, a mapping from digest to DataBlock (on disk, the entries of
# the ledger's epoch files). No file stores snapshot text: an epoch file stores the operation
# that rebuilds it, the ledger's cluster.state the faults since the last
# point, and the ledger keeps the last point's text in memory, the one a
# restore loads.

SNAPSHOT_HEADER = "SNAPSHOT v12"


def snapshot_cluster(cluster: ClusterState) -> str:
    """The cluster's snapshot text. Each server's record lines, digest
    lines and weight total are the ones it kept since its last put or
    drop, so a commit joins and sums only the servers written since their
    last snapshot; serialize_manifest wraps each server's record lines in
    its section's manifest header and END, so a commit renders one header
    line per server. No manifest of the records is built: the one passed
    names only the header's level, epoch and server count."""
    header = Manifest(Level.CLOUD, cluster.epoch, (), cluster.server_count)
    parts = [SNAPSHOT_HEADER, "\n"]
    for records, digests, total in map(ServerState.snapshot_lines, cluster.servers):
        parts += (serialize_manifest(header, records, total), digests, "END\n")
    return "".join(parts)


def _section_end(text: str, position: int, epoch: int, server_count: int, server: ServerState) -> int:
    """Where the section at ``position`` of a snapshot ``text`` ends, if it
    is byte for byte the section ``server`` renders in a snapshot of
    ``epoch`` and ``server_count`` servers, else -1. The text is compared
    in place, part by part, with the lines the server keeps, so nothing is
    copied or searched."""
    records, digests, total = server.snapshot_lines()
    for part in (_render_header(Level.CLOUD, epoch, server_count, total), "\n", records, "END\n", digests, "END\n"):
        if not text.startswith(part, position):
            return -1
        position += len(part)
    return position


def _spliced_section_end(text: str, position: int, server: ServerState, records: tuple[BlockRecord, ...],
                         key: tuple[int, int], digest: Optional[str]) -> int:
    """Where the section at ``position`` of a snapshot ``text`` ends, if it
    is the one of ``records``, sorted, that ``server`` holds after one
    write at ``key``: its kept record lines are the section's with the
    line of ``key`` replaced by the server's own, inserted, or removed when
    the server holds none, and its kept digest lines the section's with
    ``digest``'s line likewise at the record's place, or none when
    ``digest`` is None; else -1. Only that line is searched for, in this
    section: the line of the record at ``key``, or of the next one, or the
    section's END line, whose place the lengths give. The header is not
    compared: its total is the records', which are compared."""
    record_lines, digest_lines, _ = server.snapshot_lines()
    line = server.record_lines.get(key[1], "")
    at = bisect_left(records, key)
    replaced = at < len(records) and records[at][:2] == key
    start = text.find("\n", position) + 1  # the section's record lines, after its header
    split = (text.find("\n%d %d " % records[at][:2], position) + 1 if at < len(records)
             else start + len(record_lines) - len(line))
    after = text.find("\n", split) + 1 if replaced else split
    stop = after + len(record_lines) - len(line) - (split - start)  # the section's END line
    digests = stop + len("END\n")
    cut, end = digests + 65 * at, digests + 65 * len(records)
    if not (text.startswith("END\n", stop) and record_lines == text[start:split] + line + text[after:stop]
            and digest_lines == "".join((text[digests:cut], "" if digest is None else f"{digest}\n",
                                         text[cut + 65 * replaced : end]))
            and text.startswith("END\n", end)):
        return -1
    return end + len("END\n")


def load_snapshot(text: str, blocks: Mapping[str, DataBlock], rng_seed: int = 0,
                  into: Optional[ClusterState] = None) -> ClusterState:
    """Load snapshot text into a cluster, taking the block each digest line
    names from ``blocks`` (digest -> DataBlock) and putting that very
    object at the address of the manifest record in the same position of
    its section. Nothing is decoded or hashed: each block must match its
    record by its length and the checksum make_block stored with it. Lines
    end in LF only, the last one included. Any inconsistency raises
    SnapshotCorrupt: among others a section of no servers or of the user
    level, a section whose records name another server than its own, and
    sections that disagree on the epoch or the server count, or that number
    other than that count.

    The cluster is a new one seeded with ``rng_seed``, or ``into``, which
    gets new servers if it has another server count than the snapshot.
    A section that is byte for byte the one the ``into`` server of its
    index renders now (_section_end) is left alone: it would write nothing,
    and its text is that server's own rendering, so it is neither parsed
    nor looked up. So a restore after a fault reads only the sections of
    the servers the fault changed, and a new cluster, or an ``into`` of
    another server count or epoch, reads them all. Each other section is
    read by _read_section: parsed by parse_manifest, its blocks looked up
    in one pass and their weights and checksums compared with its records
    column by column in C; only a failed check walks the records, to name
    the first bad one. Every check runs before the first write, so a
    snapshot that fails one leaves ``into`` as it was.

    Writes go only where a server's blocks differ from its section's, so
    an unchanged address keeps its record object, which the committed
    points share. A server that holds its section's block ids gets one put
    per differing block, found by one C pass over its blocks. Any other
    server is replaced by a new one, filled by put in block-id order. The
    epoch is then set from the snapshot and no fault is listed: a snapshot
    holds no live status.
    """
    if not text.startswith(f"{SNAPSHOT_HEADER}\n"):
        raise SnapshotCorrupt(f"snapshot does not start with {SNAPSHOT_HEADER!r}")
    kept = [] if into is None else into.servers
    position, index, shape, loads = len(SNAPSHOT_HEADER) + 1, 0, None, []
    while position < len(text):
        end = -1 if index >= len(kept) else _section_end(text, position, into.epoch, into.server_count, kept[index])
        if end >= 0:
            section_shape = (into.epoch, into.server_count)
        else:
            end, section_shape, ids, found = _read_section(text, position, index, blocks)
            loads.append((index, ids, found))
        shape = shape or section_shape
        if section_shape != shape:
            raise SnapshotCorrupt(f"snapshot section {index} has epoch={section_shape[0]} servers={section_shape[1]},"
                                  f" section 0 epoch={shape[0]} servers={shape[1]}")
        position, index = end, index + 1
    if shape is None:
        raise SnapshotCorrupt("snapshot holds no server section; a cluster needs one")
    epoch, server_count = shape
    if index != server_count:
        raise SnapshotCorrupt(f"snapshot has {index} server sections for servers={server_count}")

    if into is None:
        cluster = new_cluster(server_count, rng_seed=rng_seed)
    else:
        cluster = into
        if cluster.server_count != server_count:
            cluster.servers = [ServerState(i) for i in range(server_count)]
    for index, target_ids, target_blocks in loads:
        server = cluster.servers[index]
        targets = zip(target_ids, target_blocks)
        if list(server.blocks) == target_ids:
            targets = compress(targets, map(ne, server.blocks.values(), target_blocks))
        else:  # put in block-id order: an id put back before a kept one must not land at the end
            server = cluster.servers[index] = ServerState(index)
        for block_id, block in targets:
            server.put(block_id, block)
    cluster.epoch, cluster.faults = epoch, []
    return cluster


def _read_section(text: str, position: int, index: int, blocks: Mapping[str, DataBlock]
                  ) -> tuple[int, tuple[int, int], list[int], list[DataBlock]]:
    """Parse and check the section of server ``index`` that starts at
    ``position`` of a snapshot ``text``, cut at its two END lines, which
    searches its bytes only: where it ends, its (epoch, server count), and
    its block ids and the blocks its digest lines name, in record order.
    Refuses a manifest of no servers or of the user level, a record of
    another server, a digest line count other than the record count, and
    a block the store lacks or that fails its record (_first_bad_record)."""
    cut = text.find("\nEND\n", position) + len("\nEND\n")
    if cut < len("\nEND\n"):
        raise SnapshotCorrupt(f"snapshot section {index} missing manifest terminator")
    manifest = parse_manifest(text[position:cut])
    if manifest.server_count < 1:
        raise SnapshotCorrupt(f"snapshot manifest has servers={manifest.server_count}; a cluster needs one")
    if manifest.level is not Level.CLOUD:
        raise SnapshotCorrupt(f"snapshot manifest has level={manifest.level.value}; a snapshot holds the cloud's")
    end = text.find("\nEND\n", cut - 1) + len("\nEND\n")
    if end < len("\nEND\n"):
        raise SnapshotCorrupt(f"snapshot section {index} not terminated by END")
    records, digests = manifest.records, text[cut : end - len("END\n")].split("\n")
    digests.pop()  # after the LF ending the last digest line, or nothing
    other = {records[0][0], records[-1][0]} - {index} if records else ()  # in order: the ends suffice
    if other:
        raise SnapshotCorrupt(f"snapshot section {index} holds a record of server {min(other)}")
    if len(digests) != len(records):
        raise SnapshotCorrupt(f"snapshot section {index} has {len(digests)} digest lines for {len(records)}"
                              " manifest records")
    try:
        found = list(map(blocks.__getitem__, digests))
    except KeyError:
        raise _first_bad_record(records, digests, blocks) from None
    if (list(map(itemgetter(2), records)) != list(map(len, map(itemgetter(0), found)))
            or list(map(itemgetter(3), records)) != list(map(itemgetter(1), found))):
        raise _first_bad_record(records, digests, blocks)
    return end, (manifest.epoch, manifest.server_count), list(map(itemgetter(1), records)), found


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
