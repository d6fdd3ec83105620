"""Shared builders for test scenarios."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Optional

from cloudledger import (
    ClusterState,
    Ledger,
    Mode,
    commit_restore_point,
    new_cluster,
    round_trip_verify,
    snapshot_cluster,
)


def make_committed_state(
    payload: bytes,
    server_count: int,
    block_size: int,
    seed: int = 0,
    directory: Optional[Path] = None,
) -> tuple[ClusterState, Ledger]:
    """Upload a payload, verify it, and commit restore point 0."""
    cluster = new_cluster(server_count, rng_seed=seed)
    verdict = round_trip_verify(cluster, payload, server_count, block_size, Mode.CHECKSUM)
    assert verdict.z, verdict
    ledger = Ledger(directory=directory)
    commit_restore_point(ledger, cluster, verdict)
    return cluster, ledger


def state_fingerprint(cluster: ClusterState, ledger: Optional[Ledger] = None) -> str:
    """Hash of the serialized cluster, its live status (and the ledger) for before/after comparisons."""
    digest = hashlib.sha256(snapshot_cluster(cluster).encode())
    digest.update(repr(cluster.faults).encode())
    if ledger is not None:
        digest.update(str(ledger.last_snapshot).encode())
        for point in ledger.points:
            digest.update(point.record)
            digest.update(f"{point.epoch} {point.timestamp} {point.committed_x}".encode())
    return digest.hexdigest()


CHAIN_LINE = re.compile(rb"CHAIN sha256=([0-9a-f]{64})\n")
# The error of a ledger whose 0.snapshot lacks the format marker: every retired format's.
RETIRED = "0.snapshot is in ledger format v11 or earlier, which is no longer supported"


def rechain(directory: Path, epoch: int = 0) -> None:
    """Recompute the chain line of every epoch file from ``epoch`` on, as a
    consistent rewrite would: each file keeps its bytes before its chain
    line (all of them, if it ends in none) and ends in the SHA-256 of the
    chain hex of the file before (nothing for 0.snapshot) followed by those
    bytes. Computed here from the format's definition, not by the ledger's
    own code."""
    previous = b""
    if epoch:
        previous = CHAIN_LINE.fullmatch((directory / f"{epoch - 1}.snapshot").read_bytes()[-78:]).group(1)
    while (path := directory / f"{epoch}.snapshot").exists():
        data = path.read_bytes()
        body = data[:-78] if CHAIN_LINE.fullmatch(data[-78:]) else data
        previous = hashlib.sha256(previous + body).hexdigest().encode()
        path.write_bytes(body + b"CHAIN sha256=" + previous + b"\n")
        epoch += 1
