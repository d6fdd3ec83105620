"""Restore-point ledger: the aggregate X, commits, recovery, persistence."""

import dataclasses

import pytest

from cloudledger import (
    EpochMismatch,
    FaultKind,
    FaultSpec,
    Ledger,
    ManifestFormatError,
    Mode,
    NothingToRestore,
    RecoveryAction,
    SnapshotCorrupt,
    UnverifiedState,
    append,
    commit_restore_point,
    inject_fault,
    load_ledger,
    make_block,
    new_cluster,
    read_manifest,
    recover,
    round_trip_verify,
    snapshot_cluster,
    update,
    user_level_manifest,
    verify_equality,
)
from cloudledger.ledger import _persist_point
from helpers import make_committed_state


def test_compute_x_empty():
    _, ledger = make_committed_state(b"", 2, 4)
    assert ledger.points[0].committed_x == 0


def test_compute_x_direct_sum():
    # X sums S_i + T_i over servers: 10 bytes in 2-byte blocks put 6 on server 0, 4 on server 1.
    cluster, ledger = make_committed_state(bytes(10), 2, 2)
    user = user_level_manifest(bytes(10), 2, 2, 0)
    per_server = [
        (sum(b.weight for b in s.blocks.values()), sum(r.weight for r in user.records if r.server_index == i))
        for i, s in enumerate(cluster.servers)
    ]
    assert per_server == [(6, 6), (4, 4)]
    assert ledger.points[0].committed_x == sum(s + t for s, t in per_server) == 20


def test_compute_x_after_fifty_unit_commit():
    # Verified 50-unit payload over 5 servers doubles into X = 100.
    cluster, ledger = make_committed_state(bytes(range(50)), 5, 1)
    assert ledger.points[0].committed_x == 100


def test_first_commit_is_epoch_zero():
    _, ledger = make_committed_state(bytes(range(40)), 4, 4)
    assert len(ledger.points) == 1
    assert ledger.points[0].epoch == 0
    assert ledger.points[0].timestamp == 1


def test_commit_sequence_epochs_and_timestamps_increase():
    cluster, ledger = make_committed_state(bytes(range(40)), 4, 4)
    for i in range(3):
        append(cluster, ledger, server_index=i, payload=bytes([i] * 4))
    assert [p.epoch for p in ledger.points] == [0, 1, 2, 3]
    ticks = [p.timestamp for p in ledger.points]
    assert all(a < b for a, b in zip(ticks, ticks[1:]))


def test_commit_refuses_failed_verdict():
    cluster = new_cluster(2)
    verdict = round_trip_verify(
        cluster, bytes(range(16)), 2, 4, Mode.CHECKSUM,
        post_upload_hook=lambda c: inject_fault(c, FaultSpec(FaultKind.DROP_BLOCK, 0, 0)),
    )
    assert not verdict.z
    ledger = Ledger()
    with pytest.raises(UnverifiedState):
        commit_restore_point(ledger, cluster, verdict)
    assert ledger.points == []


def test_commit_refuses_epoch_desync():
    cluster = new_cluster(2)
    verdict = round_trip_verify(cluster, bytes(range(16)), 2, 4, Mode.CHECKSUM)
    cluster.epoch = 5
    stale = dataclasses.replace(verdict, epoch=5)
    with pytest.raises(EpochMismatch):
        commit_restore_point(Ledger(), cluster, stale)


def test_x_consistency_for_every_commit():
    cluster, ledger = make_committed_state(bytes(range(60)), 3, 5)
    append(cluster, ledger, 0, b"12345")
    append(cluster, ledger, 2, b"")
    for point in ledger.points:
        assert point.committed_x == 2 * point.manifest.total_weight


def test_recover_after_crash_restores_last_epoch():
    cluster, ledger = make_committed_state(bytes(range(90)), 3, 10)
    append(cluster, ledger, 1, b"extra bytes")
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 2))
    report = recover(ledger, cluster)
    assert report.action is RecoveryAction.RESTORED
    assert report.epoch == 1
    check = verify_equality(ledger.points[-1].manifest, read_manifest(cluster), Mode.CHECKSUM)
    assert check.z
    assert all(s.alive for s in cluster.servers)


def test_recover_clean_state_is_intact():
    cluster, ledger = make_committed_state(bytes(range(30)), 3, 5)
    report = recover(ledger, cluster)
    assert report.action is RecoveryAction.INTACT
    assert report.epoch == 0


def test_recover_is_idempotent():
    cluster, ledger = make_committed_state(bytes(range(30)), 3, 5)
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 0))
    assert recover(ledger, cluster).action is RecoveryAction.RESTORED
    assert recover(ledger, cluster).action is RecoveryAction.INTACT


def test_recover_catches_same_weight_substitution():
    """Y equals X after an equal-size substitution; only checksums force the restore."""
    cluster, ledger = make_committed_state(bytes(range(64)), 2, 8)
    inject_fault(cluster, FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, 0, 1, seed=3))
    live_totals = sum(r.weight for r in read_manifest(cluster).records)
    assert 2 * live_totals == ledger.points[-1].committed_x  # weight aggregate is blind
    report = recover(ledger, cluster)
    assert report.action is RecoveryAction.RESTORED
    assert verify_equality(ledger.points[-1].manifest, read_manifest(cluster), Mode.CHECKSUM).z


def test_recover_revives_crashed_empty_server():
    # Nothing was stored on server 2, but a dead server is not intact.
    cluster, ledger = make_committed_state(b"ab", 3, 1)
    assert not cluster.servers[2].blocks
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 2))
    report = recover(ledger, cluster)
    assert report.action is RecoveryAction.RESTORED
    assert all(s.alive for s in cluster.servers)


def test_recover_clears_stale_read_path():
    # After an identical update the replayed previous epoch equals the
    # commit, so the pre-recover verdict passes; the path is still armed.
    for identical in (False, True):
        cluster, ledger = make_committed_state(bytes(range(20)), 2, 5)
        if identical:
            update(cluster, ledger, 0, 0, cluster.servers[0].blocks[0].payload)
        else:
            append(cluster, ledger, 0, b"fresh")
        inject_fault(cluster, FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0))
        assert verify_equality(ledger.points[-1].manifest, read_manifest(cluster), Mode.CHECKSUM).z is identical
        report = recover(ledger, cluster)
        assert report.action is RecoveryAction.RESTORED
        assert not cluster.stale_armed
        assert verify_equality(ledger.points[-1].manifest, read_manifest(cluster), Mode.CHECKSUM).z


def test_recover_requires_a_point():
    with pytest.raises(NothingToRestore):
        recover(Ledger(), new_cluster(2))


def digest_of(payload):
    return make_block(0, payload).digest


def swap_reference(snapshot):
    """Point the reference to block "ab" at the stored block "cd" (same weight)."""
    swapped = snapshot.replace(digest_of(b"ab"), digest_of(b"cd"), 1)
    assert swapped != snapshot
    return swapped


def test_recover_detects_corrupt_snapshot():
    cluster, ledger = make_committed_state(b"abcdef", 2, 2)
    point = ledger.points[0]
    broken = dataclasses.replace(point, payload_snapshot=swap_reference(point.payload_snapshot))
    ledger.points[0] = broken
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 0))
    with pytest.raises(SnapshotCorrupt, match="fails its manifest record"):
        recover(ledger, cluster)


def test_ledger_never_rewrites_committed_points():
    cluster, ledger = make_committed_state(bytes(range(24)), 2, 4)
    first = ledger.points[0]
    append(cluster, ledger, 0, b"xyz")
    assert ledger.points[0] is first


def test_persistence_round_trip(tmp_path):
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(48)), 3, 6, directory=directory)
    append(cluster, ledger, 1, b"more")
    assert (directory / "index").read_text().splitlines() == [
        f"{p.epoch} {p.timestamp} {p.committed_x}" for p in ledger.points
    ]
    loaded = load_ledger(directory)
    assert loaded.points == ledger.points


def test_persisting_in_memory_points_stores_each_block_once(tmp_path):
    def session(directory):
        cluster, ledger = make_committed_state(bytes(range(48)), 3, 6, directory=directory)
        append(cluster, ledger, 1, b"more")
        append(cluster, ledger, 2, bytes(range(6)))  # the same bytes as server 0, block 0
        return cluster, ledger

    bound = tmp_path / "bound"
    session(bound)
    cluster, ledger = session(None)
    later = tmp_path / "later"
    for point in ledger.points:
        _persist_point(later, point)
    files = sorted(p.name for p in bound.iterdir())
    assert files == sorted(p.name for p in later.iterdir())
    assert all((bound / name).read_bytes() == (later / name).read_bytes() for name in files)
    assert sum(len(s.blocks) for s in cluster.servers) == 10
    assert len(load_ledger(later).blocks) == 9


def test_load_ledger_empty_directory(tmp_path):
    assert load_ledger(tmp_path).points == []


def test_load_ledger_rejects_tampered_index(tmp_path):
    directory = tmp_path / "ledger"
    make_committed_state(bytes(range(10)), 2, 5, directory=directory)
    index = directory / "index"
    epoch, tick, x = index.read_text().split()
    index.write_text(f"{epoch} {tick} {int(x) + 2}\n")
    with pytest.raises(ManifestFormatError):
        load_ledger(directory)


def test_load_ledger_rejects_tampered_snapshot(tmp_path):
    directory = tmp_path / "ledger"
    make_committed_state(b"abcdef", 2, 2, directory=directory)
    snapshot = directory / "0.snapshot"
    snapshot.write_text(swap_reference(snapshot.read_text()))
    with pytest.raises(SnapshotCorrupt, match="fails its manifest record"):
        load_ledger(directory)


def test_load_ledger_rejects_reference_missing_from_pack(tmp_path):
    directory = tmp_path / "ledger"
    make_committed_state(b"abcdef", 2, 2, directory=directory)
    snapshot = directory / "0.snapshot"
    snapshot.write_text(snapshot.read_text().replace(digest_of(b"ab"), "0" * 64, 1))
    with pytest.raises(SnapshotCorrupt, match="which the store lacks"):
        load_ledger(directory)


def test_load_ledger_rejects_flipped_pack_byte(tmp_path):
    directory = tmp_path / "ledger"
    make_committed_state(b"abcdef", 2, 2, directory=directory)
    pack = directory / "blocks.pack"
    data = bytearray(pack.read_bytes())
    data[data.index(b" 2\nab\n") + 3] ^= 0x01
    pack.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorrupt, match="does not hash to its digest"):
        load_ledger(directory)


def test_recovered_cluster_round_trips_through_snapshots():
    cluster, ledger = make_committed_state(bytes(range(77)), 4, 9)
    inject_fault(cluster, FaultSpec(FaultKind.TRUNCATE, 1, 0, seed=8))
    recover(ledger, cluster)
    assert snapshot_cluster(cluster) == ledger.points[-1].payload_snapshot
