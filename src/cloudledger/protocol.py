"""Two-sided data reading protocol.

The user computes a manifest of the payload before it leaves the client;
the cloud builds one from the digests it stored with the bytes; the verdict
is the record-by-record comparison of the two. CHECKSUM mode compares
(weight, checksum) per block; WEIGHT_ONLY restricts the comparison to
weights, which reproduces pure size accounting and its blind spot:
substituting different content of identical length goes undetected.
A clean check, with every server available, is an identity test when
both sides hold one record tuple, as the live records and the point
committed since the last write do, and otherwise one tuple comparison in
C, which hashes nothing and passes over a record shared by both sides by
identity. Otherwise the two record tuples are split at server boundaries
by bisect, each server's two slices are compared in C the same way, and
only the servers whose slices differ are hashed into sets, so a check
after one operation or one fault hashes one server's records. Python
work is spent only on the records that differ plus those on unavailable
servers. Records must be sorted by (server, block), as every manifest
this package builds or parses is.
Divergence and Verdict are NamedTuples, which compare as tuples.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .checksum import checksum_hex
from .cluster import ClusterState, partition_upload, read_manifest, upload
from .errors import EpochMismatch
from .manifest import BlockRecord, Level, Manifest, _server_bounds, build_manifest


class Mode(enum.Enum):
    WEIGHT_ONLY = "weight-only"
    CHECKSUM = "checksum"


class DivergenceKind(enum.Enum):
    MISSING = "MISSING"
    EXTRA = "EXTRA"
    WEIGHT_MISMATCH = "WEIGHT_MISMATCH"
    CHECKSUM_MISMATCH = "CHECKSUM_MISMATCH"
    SERVER_UNAVAILABLE = "SERVER_UNAVAILABLE"


class Divergence(NamedTuple):
    """One record-level disagreement between two manifests."""

    server_index: int
    block_id: int
    kind: DivergenceKind
    expected: Optional[BlockRecord]
    actual: Optional[BlockRecord]


class Verdict(NamedTuple):
    """Outcome of a manifest comparison: z is true iff nothing diverged."""

    z: bool
    mode: Mode
    divergences: tuple[Divergence, ...]
    epoch: int


def user_level_manifest(payload: bytes, server_count: int, block_size: int, epoch: int) -> Manifest:
    """Client-side manifest of a payload, computed before any upload.

    Uses the identical partitioning rule the cluster applies, so a clean
    round trip yields record-identical USER and CLOUD manifests.
    """
    return build_manifest(Level.USER, epoch, partition_upload(payload, server_count, block_size))


def verify_equality(user: Manifest, cloud: Manifest, mode: Mode) -> Verdict:
    """Compare two same-epoch manifests record by record.

    Classification is positional: a record present only in the first
    manifest is MISSING, only in the second EXTRA. Records on a server
    either side reports unavailable become SERVER_UNAVAILABLE, even when
    both sides hold them unchanged. In WEIGHT_ONLY mode checksums are
    ignored entirely. Divergences come in (server, block) order.

    Both record tuples must be sorted by (server, block), with unique
    addresses, as build_manifest, the servers' record dicts and
    parse_manifest guarantee.

    When no server is unavailable on either side and the record tuples
    are equal, the verdict is clean at once. Both sides holding one tuple
    object, as the live manifest and the point committed since the last
    write do, is tested first and compares no record; otherwise the
    comparison runs in C, hashes no record, and stops at identity for a
    record object both manifests share, as a live manifest shares its
    unchanged records with the committed one.

    Otherwise _differing hashes only the servers whose slices differ; a
    record both sides hold unchanged on an available server cannot
    diverge. Only the records that differ, plus the records on
    unavailable servers (taken as bisected slices), are paired by address
    and classified, so the Python work grows with those records, not with
    the manifest size.
    """
    if user.epoch != cloud.epoch:
        raise EpochMismatch(f"cannot compare epoch {user.epoch} with epoch {cloud.epoch}")
    unavailable = user.unavailable_servers | cloud.unavailable_servers
    if not unavailable and (user.records is cloud.records or user.records == cloud.records):
        return Verdict(z=True, mode=mode, divergences=(), epoch=user.epoch)
    user_only, cloud_only = _differing(user.records, cloud.records)
    return _classify(
        chain(user_only, _on_servers(user.records, unavailable)),
        chain(cloud_only, _on_servers(cloud.records, unavailable)),
        unavailable, mode, user.epoch,
    )


def _differing(a: Sequence[BlockRecord], b: Sequence[BlockRecord]) -> tuple[set[BlockRecord], set[BlockRecord]]:
    """(a_only, b_only): the records of sorted ``a`` that ``b`` lacks and
    those of sorted ``b`` that ``a`` lacks, by value.

    Both are split at server boundaries by bisect and each server's two
    slices are compared in C, which stops at identity for a record both
    share; only the servers whose slices differ are hashed into sets. A
    record names its server, so the per-server differences are the whole
    ones: the result equals set(a) - set(b) and set(b) - set(a).
    """
    servers = 1 + max(a[-1].server_index if a else -1, b[-1].server_index if b else -1)
    a_bounds, b_bounds = _server_bounds(a, servers), _server_bounds(b, servers)
    a_only: set[BlockRecord] = set()
    b_only: set[BlockRecord] = set()
    for server in range(servers):
        a_slice = a[a_bounds[server] : a_bounds[server + 1]]
        b_slice = b[b_bounds[server] : b_bounds[server + 1]]
        if a_slice != b_slice:
            a_set, b_set = set(a_slice), set(b_slice)
            a_only |= a_set - b_set
            b_only |= b_set - a_set
    return a_only, b_only


def _on_servers(records: Sequence[BlockRecord], servers: frozenset[int]) -> Iterable[BlockRecord]:
    """The records of sorted ``records`` on ``servers``, as bisected slices."""
    return chain.from_iterable(
        records[bisect_left(records, (server,)) : bisect_left(records, (server + 1,))] for server in sorted(servers)
    )


def _classify(expected_records: Iterable[BlockRecord], actual_records: Iterable[BlockRecord],
              unavailable: frozenset[int], mode: Mode, epoch: int) -> Verdict:
    """The verdict on the records that differ: each side's records, paired
    by address (a record listed twice counts once). An address only the
    expected side holds is MISSING, only the actual side EXTRA; any
    address on an unavailable server is SERVER_UNAVAILABLE."""
    user_map = {r.key: r for r in expected_records}
    cloud_map = {r.key: r for r in actual_records}
    divergences = []
    for key in sorted(user_map.keys() | cloud_map.keys()):
        expected = user_map.get(key)
        actual = cloud_map.get(key)
        if key[0] in unavailable:
            kind = DivergenceKind.SERVER_UNAVAILABLE
        elif expected is None:
            kind = DivergenceKind.EXTRA
        elif actual is None:
            kind = DivergenceKind.MISSING
        elif expected.weight != actual.weight:
            kind = DivergenceKind.WEIGHT_MISMATCH
        elif mode is Mode.CHECKSUM and expected.checksum != actual.checksum:
            kind = DivergenceKind.CHECKSUM_MISMATCH
        else:
            continue
        divergences.append(Divergence(key[0], key[1], kind, expected, actual))
    return Verdict(z=not divergences, mode=mode, divergences=tuple(divergences), epoch=epoch)


def round_trip_verify(
    cluster: ClusterState,
    payload: bytes,
    server_count: int,
    block_size: int,
    mode: Mode,
    post_upload_hook: Optional[Callable[[ClusterState], None]] = None,
) -> Verdict:
    """Full before/after protocol run for an initial upload.

    Partitions the payload once, builds the user manifest from those
    blocks before anything is stored, uploads the same blocks (which
    raises ValueError if server_count is not the cluster's), re-reads the
    cloud manifest, and returns the comparison; so make_block hashes each
    payload byte once. Sharing the blocks hides no fault: a block is its
    content, and a fault stores a new block of its new bytes.
    post_upload_hook runs between the write and the read-back; fault
    scenarios use it to corrupt in-flight state. On a true verdict the
    caller may commit a restore point.
    """
    blocks = partition_upload(payload, server_count, block_size)
    user = build_manifest(Level.USER, cluster.epoch, blocks)
    upload(cluster, blocks)
    if post_upload_hook is not None:
        post_upload_hook(cluster)
    cloud = read_manifest(cluster)
    return verify_equality(user, cloud, mode)


def _render_side(record: Optional[BlockRecord]) -> str:
    if record is None:
        return "-:-"
    return f"{record.weight}:{checksum_hex(record.checksum)}"


def render_verdict_report(verdict: Verdict) -> str:
    """Line-oriented verdict report: header plus one line per divergence."""
    lines = [
        f"VERDICT z={'true' if verdict.z else 'false'} mode={verdict.mode.value}"
        f" epoch={verdict.epoch} divergences={len(verdict.divergences)}"
    ]
    for d in verdict.divergences:
        lines.append(
            f"{d.kind.value} server={d.server_index} block={d.block_id}"
            f" expected={_render_side(d.expected)} actual={_render_side(d.actual)}"
        )
    return "\n".join(lines) + "\n"
