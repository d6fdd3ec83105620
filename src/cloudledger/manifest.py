"""Block and manifest data model.

A DataBlock is the payload-bearing unit stored on a server. Its weight,
checksum and content digest are computed once, by make_block(block_id,
payload), when the bytes are stored; every cloud-side reader uses those
stored digests, and the ledger's block store is keyed by the content
digest. A block does not know its server: ownership lives in the cluster
structure and in BlockRecord, its metadata projection (no payload). A
Manifest is the ordered list of records for one side of the reading
protocol (user level before upload, cloud level after), with totals
derived from the records. Manifests are the values the verification
protocol compares, so everything here is immutable and the serialization
is canonical: same records in, same bytes out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Iterable, NamedTuple, Sequence

from .checksum import checksum_hex, fnv1a64
from .errors import DuplicateBlock, ManifestFormatError


class Level(enum.Enum):
    """Which side of the reading protocol produced a manifest."""

    USER = "USER"
    CLOUD = "CLOUD"


class DataBlock(NamedTuple):
    """One stored unit of payload.

    weight is always the exact byte length of payload, checksum its
    FNV-1a 64 digest and digest its SHA-256 in lowercase hex, the name
    the content-addressed block store files it under (collision resistant,
    unlike FNV, so two payloads never share a name). make_block is the only
    constructor, so readers can trust all three without rehashing the
    payload; moving a stored block to another block_id (``_replace``)
    carries them over unchanged. block_id is the block's ordinal within its
    owning server. A NamedTuple because simulations create these by the
    hundred thousand.
    """

    block_id: int
    payload: bytes
    weight: int
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


@dataclass(frozen=True)
class Manifest:
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
    unavailable_servers: frozenset[int] = field(default=frozenset())

    @property
    def total_weight(self) -> int:
        return sum(r.weight for r in self.records)


def make_block(block_id: int, payload: bytes) -> DataBlock:
    """Build the DataBlock of ``payload`` at ``block_id``, hashing it once."""
    if block_id < 0:
        raise ValueError(f"block_id must be >= 0, got {block_id}")
    payload = bytes(payload)
    return DataBlock(block_id, payload, len(payload), fnv1a64(payload), sha256(payload).hexdigest())


def build_manifest(level: Level, epoch: int, blocks: Sequence[Iterable[DataBlock]]) -> Manifest:
    """Build a manifest from per-server block collections.

    Records carry each block's stored (weight, checksum) and are sorted by
    (server_index, block_id), so the result depends only on the block
    set, not on insertion order. Raises DuplicateBlock if an address
    repeats.
    """
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    records = sorted(
        BlockRecord(server_index, block.block_id, block.weight, block.checksum)
        for server_index, server_blocks in enumerate(blocks)
        for block in server_blocks
    )
    for prev, cur in zip(records, records[1:]):
        if prev.block_id == cur.block_id and prev.server_index == cur.server_index:
            raise DuplicateBlock(f"duplicate block at server={cur.server_index} block={cur.block_id}")
    return Manifest(
        level=level,
        epoch=epoch,
        records=tuple(records),
        server_count=len(blocks),
    )


def serialize_manifest(manifest: Manifest) -> str:
    """Canonical line-oriented form: header, one line per record, END.

    LF endings, no trailing whitespace, checksums as 16 lowercase hex
    digits. Byte-identical for equal manifests; any differing record
    tuple changes the output.
    """
    lines = [
        f"MANIFEST v1 level={manifest.level.value} epoch={manifest.epoch}"
        f" servers={manifest.server_count} total={manifest.total_weight}"
    ]
    for r in manifest.records:
        lines.append(f"{r.server_index} {r.block_id} {r.weight} {checksum_hex(r.checksum)}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> dict[str, str]:
    parts = line.split(" ")
    if parts[:2] != ["MANIFEST", "v1"]:
        raise ManifestFormatError(f"bad manifest header: {line!r}")
    fields = {}
    for part in parts[2:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ManifestFormatError(f"bad manifest header field: {part!r}")
        fields[key] = value
    return fields


def parse_manifest(text: str) -> Manifest:
    """Parse serialize_manifest output, revalidating every invariant."""
    lines = text.splitlines()
    if not lines:
        raise ManifestFormatError("empty manifest text")
    header = _parse_header(lines[0])
    try:
        level = Level(header["level"])
        epoch = int(header["epoch"])
        server_count = int(header["servers"])
        total = int(header["total"])
    except (KeyError, ValueError) as exc:
        raise ManifestFormatError(f"bad manifest header: {lines[0]!r}") from exc
    if epoch < 0:
        raise ManifestFormatError(f"manifest epoch {epoch} is negative")

    if not lines[-1] == "END":
        raise ManifestFormatError("manifest not terminated by END")
    records = []
    for line in lines[1:-1]:
        parts = line.split(" ")
        if len(parts) != 4:
            raise ManifestFormatError(f"bad record line: {line!r}")
        try:
            record = BlockRecord(
                server_index=int(parts[0]),
                block_id=int(parts[1]),
                weight=int(parts[2]),
                checksum=int(parts[3], 16),
            )
        except ValueError as exc:
            raise ManifestFormatError(f"bad record line: {line!r}") from exc
        if len(parts[3]) != 16 or parts[3] != checksum_hex(record.checksum):
            raise ManifestFormatError(f"bad checksum field: {parts[3]!r}")
        if not 0 <= record.server_index < server_count:
            raise ManifestFormatError(f"record server {record.server_index} outside servers={server_count}")
        if record.block_id < 0:
            raise ManifestFormatError(f"record block {record.block_id} is negative")
        records.append(record)

    for prev, cur in zip(records, records[1:]):
        if prev.key >= cur.key:
            raise ManifestFormatError("records out of order")
    manifest = Manifest(level=level, epoch=epoch, records=tuple(records), server_count=server_count)
    if manifest.total_weight != total:
        raise ManifestFormatError("header total does not match record weights")
    return manifest
