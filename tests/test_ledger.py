"""Restore-point ledger: the aggregate X, commits, recovery, persistence."""

import re

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
    RestorePoint,
    SnapshotCorrupt,
    UnverifiedState,
    append,
    commit_restore_point,
    delete,
    inject_fault,
    load_ledger,
    load_snapshot,
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
from cloudledger import ledger as ledger_module
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
        (sum(len(b.payload) for b in s.blocks.values()), sum(r.weight for r in user.records if r.server_index == i))
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
    stale = verdict._replace(epoch=5)
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


@pytest.mark.parametrize("fault, calls", [(FaultSpec(FaultKind.FLIP_BYTE, 1, 0, seed=3), 1), (None, 0)],
                         ids=["flip-byte", "intact"])
def test_recover_compares_records_without_verify_equality(monkeypatch, fault, calls):
    """The intact check is one tuple comparison; verify_equality runs only on the restored state."""
    cluster, ledger = make_committed_state(bytes(range(90)), 3, 10)
    append(cluster, ledger, 1, b"extra bytes")
    if fault is not None:
        inject_fault(cluster, fault)
    seen = []

    def counting(user, cloud, mode):
        seen.append(mode)
        return verify_equality(user, cloud, mode)

    monkeypatch.setattr(ledger_module, "verify_equality", counting)
    action = RecoveryAction.RESTORED if fault else RecoveryAction.INTACT
    assert recover(ledger, cluster).action is action
    assert seen == [Mode.CHECKSUM] * calls


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


@pytest.mark.parametrize("loaded_epoch", [0, 1])
def test_recover_after_an_epoch_drift_takes_the_previous_records_from_the_ledger(loaded_epoch):
    cluster, ledger = make_committed_state(b"abcdefgh", 2, 2)
    update(cluster, ledger, 0, 0, b"zz")
    update(cluster, ledger, 1, 0, b"yy")
    drifted = load_snapshot(ledger.points[loaded_epoch].payload_snapshot, ledger.blocks)  # an older epoch's state
    assert drifted.previous_records is None
    assert recover(ledger, drifted).action is RecoveryAction.RESTORED
    assert drifted.epoch == 2
    assert drifted.previous_records == ledger.points[drifted.epoch - 1].manifest.records


def digest_of(payload):
    return make_block(payload).digest


def swap_reference(snapshot):
    """Point the reference to block "ab" at the stored block "cd" (same weight)."""
    swapped = snapshot.replace(digest_of(b"ab"), digest_of(b"cd"), 1)
    assert swapped != snapshot
    return swapped


def test_recover_detects_corrupt_snapshot():
    cluster, ledger = make_committed_state(b"abcdef", 2, 2)
    point = ledger.points[0]
    broken = RestorePoint(point.manifest, swap_reference(point.payload_snapshot))
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


def test_a_commit_whose_index_write_fails_stays_out_of_the_ledger(tmp_path, monkeypatch):
    """The point joins ledger.points only once its index line is on disk, so
    the rollback reaches the last point on disk and a retry commits."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(b"abcdefgh", 2, 2, directory=directory)
    real_write_file = ledger_module.write_file

    def write_file(directory, name, data, append=False):
        if name == "index":
            raise OSError("injected failure at the index write")
        real_write_file(directory, name, data, append)

    monkeypatch.setattr(ledger_module, "write_file", write_file)
    with pytest.raises(OSError):
        update(cluster, ledger, 0, 0, b"zz")
    assert len(ledger.points) == 1
    assert snapshot_cluster(cluster) == ledger.points[0].payload_snapshot
    monkeypatch.undo()
    assert update(cluster, ledger, 0, 0, b"zz").new_epoch == 1
    assert load_ledger(directory).points == ledger.points


def test_a_block_joins_the_store_only_after_the_pack_write(tmp_path, monkeypatch):
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(b"abcdefgh", 2, 2, directory=directory)

    def failing_write_pack(directory, blocks, append):
        raise OSError("injected failure at the pack write")

    monkeypatch.setattr(ledger_module, "_write_pack", failing_write_pack)
    with pytest.raises(OSError):
        append(cluster, ledger, 0, b"new!")
    assert digest_of(b"new!") not in ledger.blocks
    monkeypatch.undo()
    append(cluster, ledger, 0, b"new!")
    assert load_ledger(directory).points == ledger.points


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


def not_committed(epoch, found=""):
    """The message for an index line, starting ``found``, other than the line epoch's snapshot commits."""
    return rf"index line '{found}.*' is not '{epoch} {epoch + 1} \d+\\n', the line {epoch}\.snapshot commits"


def rewrite_index_line(directory, epoch, render):
    """Replace the index line of ``epoch`` by render(epoch, tick, x)."""
    index = directory / "index"
    lines = index.read_text(encoding="utf-8").splitlines()
    lines[epoch] = render(*(int(field) for field in lines[epoch].split(" ")))
    index.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.mark.parametrize(
    "render",
    [
        lambda e, t, x: f"+{e} \u0662 {x}",  # "+1 2 X" with an Arabic-Indic 2
        lambda e, t, x: f"0{e} {t} {x}",
        lambda e, t, x: f"{e} {t} {x // 10}_{x % 10}",
    ],
    ids=["signed-epoch-and-non-ascii-tick", "leading-zero", "underscore"],
)
def test_load_ledger_rejects_a_non_canonical_index_line(tmp_path, render):
    directory = tmp_path / "ledger"
    cluster, _ = make_committed_state(bytes(range(10)), 2, 5, directory=directory)
    append(cluster, load_ledger(directory), 0, b"more")
    rewrite_index_line(directory, 1, render)
    with pytest.raises(ManifestFormatError, match=not_committed(1)):
        load_ledger(directory)


@pytest.mark.parametrize("tick", [1, 3])
def test_load_ledger_rejects_a_tick_other_than_epoch_plus_one(tmp_path, tick):
    directory = tmp_path / "ledger"
    cluster, _ = make_committed_state(bytes(range(10)), 2, 5, directory=directory)
    append(cluster, load_ledger(directory), 0, b"more")
    rewrite_index_line(directory, 1, lambda e, t, x: f"{e} {tick} {x}")
    with pytest.raises(ManifestFormatError, match=not_committed(1, found=f"1 {tick} ")):
        load_ledger(directory)


def test_load_ledger_rejects_index_lines_out_of_sequence(tmp_path):
    directory = tmp_path / "ledger"
    cluster, _ = make_committed_state(bytes(range(10)), 2, 5, directory=directory)
    append(cluster, load_ledger(directory), 0, b"more")
    index = directory / "index"
    first, second = index.read_bytes().splitlines(keepends=True)
    index.write_bytes(second + first)
    with pytest.raises(ManifestFormatError, match=not_committed(0, found="1 2 ")):
        load_ledger(directory)


@pytest.mark.parametrize("edit, claimed", [
    (lambda directory, text: (directory / "0.snapshot").read_text(), 0),
    (lambda directory, text: text.replace(" epoch=1 ", " epoch=2 ", 1), 2),
], ids=["epoch-0-copied", "header-edited"])
def test_load_ledger_rejects_a_snapshot_that_claims_another_epoch(tmp_path, edit, claimed):
    directory = tmp_path / "ledger"
    cluster, _ = make_committed_state(bytes(range(10)), 2, 5, directory=directory)
    append(cluster, load_ledger(directory), 0, b"more")
    snapshot = directory / "1.snapshot"
    text = snapshot.read_text()
    edited = edit(directory, text)
    assert edited != text
    snapshot.write_text(edited)
    with pytest.raises(ManifestFormatError, match=f"1.snapshot claims epoch {claimed}$"):
        load_ledger(directory)


def test_loaded_servers_hold_the_stored_block_objects(tmp_path):
    """A block carries no address, so loading puts the block store's own
    object at every address that names it, repeated content included."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(24) + bytes(range(24)), 3, 6, directory=directory)
    append(cluster, ledger, 1, b"more")
    loaded = load_ledger(directory)
    clusters = [load_snapshot(point.payload_snapshot, loaded.blocks) for point in loaded.points]
    held = [block for restored in clusters for server in restored.servers for block in server.blocks.values()]
    assert len(held) == 8 + 9 and len(loaded.blocks) == 6
    assert all(block is loaded.blocks[block.digest] for block in held)


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


def test_loaded_points_share_every_record_an_epoch_did_not_change(tmp_path):
    """Every epoch loads into one cluster, so an update adds one record
    object to the loaded points instead of a whole manifest's worth."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(200)), 4, 10, directory=directory)
    n = len(ledger.last().manifest.records)
    for k in range(6):
        update(cluster, ledger, k % 4, k % 5, bytes([k]) * 10)
    points = load_ledger(directory).points
    assert points == ledger.points
    distinct = {id(record) for point in points for record in point.manifest.records}
    assert len(distinct) == n + 6 < len(points) * n


def test_loaded_points_share_every_record_an_append_did_not_change(tmp_path):
    """An append adds one id past the server's last, so loading its epoch
    puts one record and keeps the server's others."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(64)), 8, 1, directory=directory)
    for server in range(8):
        append(cluster, ledger, server, bytes([100 + server]))
    points = load_ledger(directory).points
    assert points == ledger.points

    def distinct(points):
        return len({id(record) for point in points for record in point.manifest.records})

    assert distinct(points) == distinct(ledger.points) == 64 + 8


def test_every_operation_kind_loads(tmp_path):
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(50)), 3, 4, directory=directory)
    append(cluster, ledger, 2, b"new")
    update(cluster, ledger, 0, 1, b"longer bytes")
    update(cluster, ledger, 1, 0, cluster.servers[1].blocks[0].payload)  # identical bytes change no record
    delete(cluster, ledger, 1, 2)
    delete(cluster, ledger, 0, max(cluster.servers[0].blocks))
    append(cluster, ledger, 0, b"reused id")  # takes the id the delete freed
    append(cluster, ledger, 1, b"")
    assert load_ledger(directory).points == ledger.points


def edit_snapshot(directory, epoch, pattern, replacement):
    path = directory / f"{epoch}.snapshot"
    text, count = re.subn(pattern, replacement, path.read_text(encoding="utf-8"), count=1, flags=re.MULTILINE)
    assert count == 1
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("epoch, pattern, replacement, error", [
    (0, "servers=3", "servers=4", "epoch 0 is not the round-robin upload of 7 blocks on 4 servers"),
    (0, "^1 1 32 ", "1 2 32 ", "epoch 0 is not the round-robin upload"),
    (1, "servers=3", "servers=9", "epoch 1 has servers=9, epoch 0 servers=3"),
    (1, "^0 2 8 ", "0 9 8 ", "epoch 1 differs from epoch 0 in 1 removed and 2 added records"),
    (1, "^1 2 8 ", "1 3 8 ", "epoch 1 appends server=1 block=3; an append takes block 2"),
    (2, "^2 1 8 ", "2 2 8 ", "epoch 2 removes server=2 block=1 and adds server=2 block=2"),
], ids=["upload-servers", "upload-id", "servers", "other-address", "append-id", "update-address"])
def test_load_ledger_rejects_an_epoch_no_single_operation_leaves(tmp_path, epoch, pattern, replacement, error):
    """The index's X covers weights only; an edited block id or server
    count must still make the epoch fail to load."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(200)), 3, 32, directory=directory)
    append(cluster, ledger, 1, bytes(8))
    update(cluster, ledger, 2, 1, bytes(range(8)))
    assert load_ledger(directory).points == ledger.points
    edit_snapshot(directory, epoch, pattern, replacement)
    with pytest.raises(SnapshotCorrupt, match=re.escape(error)):
        load_ledger(directory)
