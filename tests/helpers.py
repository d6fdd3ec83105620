"""Shared builders for test scenarios."""

from __future__ import annotations

import hashlib
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
    digest.update(f"{[server.alive for server in cluster.servers]} {cluster.stale_armed}".encode())
    if ledger is not None:
        for point in ledger.points:
            digest.update(point.payload_snapshot.encode())
            digest.update(f"{point.epoch} {point.timestamp} {point.committed_x}".encode())
    return digest.hexdigest()
