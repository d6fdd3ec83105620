"""Two-sided data reading protocol.

The user computes a manifest of the payload before it leaves the client;
the cloud builds one from the digests it stored with the bytes; the verdict
is the record-by-record comparison of the two. CHECKSUM mode compares
(weight, checksum) per block; WEIGHT_ONLY restricts the comparison to
weights, which reproduces pure size accounting and its blind spot:
substituting different content of identical length goes undetected.
A clean check, with every server available, is one tuple comparison in
C, which hashes nothing and passes over a record shared by both sides by
identity. Otherwise whole records are compared as sets, hashed in C, and
Python work is spent only on the records that differ plus those on
unavailable servers.
Divergence and Verdict are NamedTuples, which compare as tuples.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional

from .checksum import checksum_hex
from .cluster import ClusterState, partition_upload, read_manifest, upload
from .errors import EpochMismatch
from .manifest import BlockRecord, Level, Manifest, build_manifest


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

    When no server is unavailable on either side and the record tuples
    are equal, the verdict is clean at once. That comparison runs in C,
    hashes no record, and stops at identity for a record object both
    manifests share, as a live manifest shares its unchanged records with
    the committed one.

    Otherwise whole records are compared as sets, hashed in C; a record
    both sides hold unchanged on an available server cannot diverge. Only
    the records in the sets' symmetric difference, plus the records on
    unavailable servers, are paired by address and classified, so the
    Python work grows with those records, not with the manifest size
    (picking out the records on unavailable servers, when there are any,
    takes one more pass over both manifests). Addresses must be unique
    within each manifest, as build_manifest, the servers' record dicts and
    parse_manifest guarantee.
    """
    if user.epoch != cloud.epoch:
        raise EpochMismatch(f"cannot compare epoch {user.epoch} with epoch {cloud.epoch}")
    unavailable = user.unavailable_servers | cloud.unavailable_servers
    if not unavailable and user.records == cloud.records:
        return Verdict(z=True, mode=mode, divergences=(), epoch=user.epoch)
    user_set, cloud_set = set(user.records), set(cloud.records)
    user_only, cloud_only = user_set - cloud_set, cloud_set - user_set
    if unavailable:
        user_only.update(r for r in user.records if r.server_index in unavailable)
        cloud_only.update(r for r in cloud.records if r.server_index in unavailable)
    user_map = {r.key: r for r in user_only}
    cloud_map = {r.key: r for r in cloud_only}
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
    return Verdict(
        z=not divergences,
        mode=mode,
        divergences=tuple(divergences),
        epoch=user.epoch,
    )


def round_trip_verify(
    cluster: ClusterState,
    payload: bytes,
    server_count: int,
    block_size: int,
    mode: Mode,
    post_upload_hook: Optional[Callable[[ClusterState], None]] = None,
) -> Verdict:
    """Full before/after protocol run for an initial upload.

    Computes the user manifest, uploads, re-reads the cloud manifest, and
    returns the comparison. post_upload_hook runs between the write and
    the read-back; fault scenarios use it to corrupt in-flight state. On a
    true verdict the caller may commit a restore point.
    """
    if server_count != cluster.server_count:
        raise ValueError(
            f"cluster has {cluster.server_count} servers, protocol run asked for {server_count}"
        )
    user = user_level_manifest(payload, server_count, block_size, cluster.epoch)
    upload(cluster, payload, block_size)
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
