"""Block and manifest data model.

A DataBlock is the payload-bearing unit stored on a server, and nothing
but its content: the payload, its checksum and its content digest, the
two hashes computed once, by make_blocks (or make_block for one
payload), when the bytes are stored. Its weight is len(payload). Every
cloud-side reader uses those stored digests, and the ledger's block
store is keyed by the content digest. A block does not know its address: the server's dict key is its
block id, and its server is the one holding it. BlockRecord is its
metadata projection at that address (no payload). A Manifest is the
ordered list of records for one side of the reading protocol (user level
before upload, cloud level after), with totals derived from the records.
Manifests are the values the verification protocol compares, so
everything here is immutable and the serialization is canonical: same
records in, same bytes out. All three are NamedTuples, which compare (and
hash) as plain tuples of their fields.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from functools import partial
from hashlib import sha256
from itertools import chain, repeat
from operator import itemgetter, lt
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .checksum import fnv1a64_many
from .errors import SnapshotCorrupt


class Level(enum.Enum):
    """Which side of the reading protocol produced a manifest."""

    USER = "USER"
    CLOUD = "CLOUD"


class DataBlock(NamedTuple):
    """One stored unit of payload, content only.

    checksum is the payload's FNV-1a 64 digest and digest its SHA-256 in
    lowercase hex, the name the content-addressed block store files it
    under (collision resistant, unlike FNV, so two payloads never share a
    name); its weight is len(payload). make_blocks is the only constructor,
    so readers can trust both hashes without rehashing the payload. A block
    carries no address, so one block object can sit at any number of
    addresses. A NamedTuple because simulations create these by the
    hundred thousand.
    """

    payload: bytes
    checksum: int
    digest: str


class BlockRecord(NamedTuple):
    """Pure metadata for one block: its address plus (weight, checksum).

    Field order doubles as the manifest sort order.
    """

    server_index: int
    block_id: int
    weight: int
    checksum: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.server_index, self.block_id)


# A BlockRecord from a (server_index, block_id, weight, checksum) tuple. The
# NamedTuple's own __new__ is Python code; tuple.__new__ runs in C.
new_record = partial(tuple.__new__, BlockRecord)


class Manifest(NamedTuple):
    """Ordered per-server, per-block record list; totals derive from it.

    unavailable_servers is read-side state only: servers that could not be
    read when the manifest was built. It never appears in the canonical
    serialization (committed manifests come from verified clusters, which
    have no unavailable servers); the verdict layer uses it to distinguish
    a crashed server from silently missing blocks.
    """

    level: Level
    epoch: int
    records: tuple[BlockRecord, ...]
    server_count: int
    unavailable_servers: frozenset[int] = frozenset()

    @property
    def total_weight(self) -> int:
        return sum(map(itemgetter(2), self.records))


def make_blocks(payloads: Iterable[bytes]) -> list[DataBlock]:
    """Build the DataBlock of each payload: one FNV-1a pass (the passes
    of all the payloads run together, in checksum.fnv1a64_many) and one
    SHA-256 pass over each. This is the one DataBlock constructor. An
    upload's user manifest and its stored blocks share the blocks
    partition_upload makes here in one call, a load hashes an epoch
    file's entries in one call, and an operation's predicted record
    shares the block it stores, so each written byte passes here once."""
    payloads = list(map(bytes, payloads))
    return [DataBlock(payload, checksum, sha256(payload).hexdigest())
            for payload, checksum in zip(payloads, fnv1a64_many(payloads))]


def make_block(payload: bytes) -> DataBlock:
    """The DataBlock of one payload, make_blocks((payload,))[0]: an
    operation or a fault hashes its one payload with the scalar fnv1a64."""
    return make_blocks((payload,))[0]


def build_manifest(level: Level, epoch: int, blocks: Sequence[Iterable[DataBlock]]) -> Manifest:
    """Build a manifest from per-server block sequences.

    Addresses are positions: the k-th block of server i gets the record
    (i, k, len(payload), checksum), so the records come out sorted and no
    address can repeat.
    """
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    records = tuple(
        new_record((server_index, block_id, len(block.payload), block.checksum))
        for server_index, server_blocks in enumerate(blocks)
        for block_id, block in enumerate(server_blocks)
    )
    return Manifest(level=level, epoch=epoch, records=records, server_count=len(blocks))


def _server_bounds(records: Sequence[BlockRecord], server_count: int) -> list[int]:
    """Where each server's records start in ``records``, sorted as a
    manifest's are, then their end: server i's are records[bounds[i] : bounds[i + 1]]."""
    return [bisect_left(records, (server,)) for server in range(server_count)] + [len(records)]


def _record_at(records: Sequence[BlockRecord], key: tuple[int, int]) -> Optional[BlockRecord]:
    """The record at address ``key`` in ``records``, sorted as a manifest's are, or None."""
    at = bisect_left(records, key)
    return records[at] if at < len(records) and records[at][:2] == key else None


# One record line: server, block id and weight in decimal, checksum as 16 lowercase hex digits.
_RECORD_FORMAT = "%d %d %d %016x\n"


def _render_records(records: Collection[BlockRecord]) -> str:
    """The manifest record lines of ``records``, one %-format over the flattened records."""
    return (_RECORD_FORMAT * len(records)) % tuple(chain.from_iterable(records))


def serialize_manifest(manifest: Manifest, lines: Optional[str] = None, total: Optional[int] = None) -> str:
    """Canonical line-oriented form: header, one line per record, END.

    LF endings, no trailing whitespace, checksums as 16 lowercase hex
    digits. Byte-identical for equal manifests; any differing record
    tuple changes the output. ``lines`` are the record lines, in
    _RECORD_FORMAT, and ``total`` their weight total, if the caller
    already has them (snapshot_cluster passes the lines and the total
    each server keeps, one section per server, so a commit renders one
    line per put);
    else they are rendered and summed from the manifest's records here.
    """
    if lines is None:
        lines = _render_records(manifest.records)
    if total is None:
        total = manifest.total_weight
    header = _render_header(manifest.level, manifest.epoch, manifest.server_count, total)
    return f"{header}\n{lines}END\n"


def _render_header(level: Level, epoch: int, server_count: int, total: int) -> str:
    return f"MANIFEST v1 level={level.value} epoch={epoch} servers={server_count} total={total}"


def _parse_header(line: str) -> dict[str, str]:
    parts = line.split(" ")
    if parts[:2] != ["MANIFEST", "v1"]:
        raise SnapshotCorrupt(f"bad manifest header: {line!r}")
    fields = {}
    for part in parts[2:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise SnapshotCorrupt(f"bad manifest header field: {part!r}")
        fields[key] = value
    return fields


# A record line as serialize_manifest writes it: three canonical decimals
# (no sign, no leading zero, no "_", ASCII digits only) and 16 lowercase hex.
_DECIMAL = "(?:0|[1-9][0-9]*)"
_RECORD_LINES = re.compile(f"(?:{_DECIMAL} {_DECIMAL} {_DECIMAL} [0-9a-f]{{16}}\n)*")


def _bad_record(line: str) -> SnapshotCorrupt:
    """The error for the first record line _RECORD_LINES rejects."""
    for name, field in zip(("server", "block", "weight"), line.split(" ")):
        if field.startswith("-"):
            return SnapshotCorrupt(f"record {name} {field} is negative")
    return SnapshotCorrupt(f"record line is not canonical: {line!r}")


def parse_manifest(text: str) -> Manifest:
    """Parse serialize_manifest output, revalidating every invariant.

    The header and every record line must equal their canonical rendering,
    every line must end in LF (a CR, a form feed or U+2028 is no line end)
    and the last one must be END. The record section is checked by one
    pattern and then decoded by column in C: the fields are the section's
    whitespace-split words once the pattern has matched, the order and
    total checks run over whole columns, and each record is built by the
    C tuple constructor.
    """
    if not text:
        raise SnapshotCorrupt("empty manifest text")
    first, _, section = text.partition("\n")
    header = _parse_header(first)
    try:
        level = Level(header["level"])
        epoch = int(header["epoch"])
        server_count = int(header["servers"])
        total = int(header["total"])
    except (KeyError, ValueError) as exc:
        raise SnapshotCorrupt(f"bad manifest header: {first!r}") from exc
    if epoch < 0:
        raise SnapshotCorrupt(f"manifest epoch {epoch} is negative")
    if first != _render_header(level, epoch, server_count, total):
        raise SnapshotCorrupt(f"manifest header is not canonical: {first!r}")

    if not section.endswith("END\n"):
        raise SnapshotCorrupt("manifest not terminated by END")
    canonical = _RECORD_LINES.match(section).end()
    if canonical != len(section) - len("END\n"):
        raise _bad_record(section[canonical:].partition("\n")[0])
    fields = section.split()
    fields.pop()  # END
    servers = list(map(int, fields[0::4]))
    ids = list(map(int, fields[1::4]))
    keys = list(zip(servers, ids))
    if not all(map(lt, keys, keys[1:])):
        raise SnapshotCorrupt("records out of order")
    if servers and servers[-1] >= server_count:  # in order, so the last server is the largest
        raise SnapshotCorrupt(f"record server {servers[-1]} outside servers={server_count}")
    weights = list(map(int, fields[2::4]))
    if sum(weights) != total:
        raise SnapshotCorrupt("header total does not match record weights")
    checksums = map(int, fields[3::4], repeat(16))
    records = tuple(map(new_record, zip(servers, ids, weights, checksums)))
    return Manifest(level=level, epoch=epoch, records=records, server_count=server_count)
