"""Restore-point ledger: the aggregate X, commits, recovery, persistence."""

import re
import sys

import pytest

from cloudledger import (
    EpochMismatch,
    FaultKind,
    FaultSpec,
    Ledger,
    Mode,
    NoSuchTarget,
    NothingToRestore,
    OperationKind,
    OperationRequest,
    RecoveryAction,
    SnapshotCorrupt,
    UnverifiedState,
    append,
    apply,
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
from cloudledger import cli
from cloudledger import ledger as ledger_module
from cloudledger.ledger import _persist_point, load_cluster
from helpers import RETIRED, make_committed_state, rechain, state_fingerprint


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


def test_commit_refuses_an_operation_line_that_does_not_match_its_epoch(tmp_path):
    """The upload commits epoch 0 with its line, or none, which stands for
    the line naming the cluster's server count alone, and each operation a
    later epoch with its operation line; a commit that mixes them up, or
    whose upload line names another server count, would write a ledger no
    command loads, so it is refused and writes nothing."""
    directory = tmp_path / "ledger"
    cluster = new_cluster(2)
    verdict = round_trip_verify(cluster, bytes(range(16)), 2, 4, Mode.CHECKSUM)
    ledger = Ledger(directory=directory)
    for line in ("APPEND server=0 block=2", "UPLOAD v12 servers=3", "UPLOAD v12 servers=3 block_size=4 mode=checksum"
                 " seed=0"):
        with pytest.raises(EpochMismatch, match=f"epoch 0 is committed with '{line}'; the upload of the cluster's 2"):
            commit_restore_point(ledger, cluster, verdict, line)
    assert ledger.points == [] and not directory.exists()
    commit_restore_point(ledger, cluster, verdict)
    points, files = list(ledger.points), {path.name: path.read_bytes() for path in directory.iterdir()}
    cluster.servers[0].put(2, make_block(b"more"))
    cluster.epoch = 1
    for line in (None, "UPLOAD v12 servers=2"):
        with pytest.raises(EpochMismatch, match=f"epoch 1 is committed with {line!r}; "):
            commit_restore_point(ledger, cluster, verdict._replace(epoch=1), line)
    assert ledger.points == points
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == files


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
    assert cluster.faults == [] and read_manifest(cluster).unavailable_servers == frozenset()


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
    assert cluster.faults == [] and read_manifest(cluster).unavailable_servers == frozenset()


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
        assert not any(fault.kind is FaultKind.CSP_STALE_MANIFEST for fault in cluster.faults)
        assert verify_equality(ledger.points[-1].manifest, read_manifest(cluster), Mode.CHECKSUM).z


def test_recover_requires_a_point():
    with pytest.raises(NothingToRestore):
        recover(Ledger(), new_cluster(2))


@pytest.mark.parametrize("loaded_epoch", [0, 1])
def test_recover_after_an_epoch_drift_takes_the_previous_records_from_the_ledger(loaded_epoch):
    cluster, ledger = make_committed_state(b"abcdefgh", 2, 2)
    texts = [ledger.last_snapshot]
    update(cluster, ledger, 0, 0, b"zz")
    texts.append(ledger.last_snapshot)
    update(cluster, ledger, 1, 0, b"yy")
    drifted = load_snapshot(texts[loaded_epoch], ledger.blocks)  # an older epoch's state
    assert drifted.previous_records is None
    assert recover(ledger, drifted).action is RecoveryAction.RESTORED
    assert drifted.epoch == 2
    assert drifted.previous_records == ledger.points[drifted.epoch - 1].manifest.records


def digest_of(payload):
    return make_block(payload).digest


def replace_digest_line(path, digest, replacement):
    """Replace the last line ``digest`` of the ledger file ``path``: a
    reference, after the entry that stores its block."""
    head, found, tail = path.read_bytes().rpartition(f"{digest}\n".encode())
    assert found
    path.write_bytes(head + f"{replacement}\n".encode() + tail)


def swap_reference(snapshot):
    """Point the reference to block "ab" at the stored block "cd" (same weight)."""
    swapped = snapshot.replace(digest_of(b"ab"), digest_of(b"cd"), 1)
    assert swapped != snapshot
    return swapped


def test_recover_detects_corrupt_snapshot():
    cluster, ledger = make_committed_state(b"abcdef", 2, 2)
    ledger.last_snapshot = swap_reference(ledger.last_snapshot)
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
    assert sorted(p.name for p in directory.iterdir()) == ["0.snapshot", "1.snapshot"]
    loaded = load_ledger(directory)
    assert loaded.points == ledger.points


def test_a_commit_whose_snapshot_write_fails_stays_out_of_the_ledger(tmp_path, monkeypatch):
    """The point joins ledger.points only once its snapshot is on disk, so
    the rollback reaches the last point on disk and a retry commits."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(b"abcdefgh", 2, 2, directory=directory)
    real_write_file = ledger_module.write_file

    def write_file(directory, name, data):
        if name == "1.snapshot":
            raise OSError("injected failure at the snapshot write")
        real_write_file(directory, name, data)

    monkeypatch.setattr(ledger_module, "write_file", write_file)
    with pytest.raises(OSError):
        update(cluster, ledger, 0, 0, b"zz")
    assert len(ledger.points) == 1 and load_ledger(directory).points == ledger.points
    assert snapshot_cluster(cluster) == ledger.last_snapshot
    monkeypatch.undo()
    assert update(cluster, ledger, 0, 0, b"zz").new_epoch == 1
    assert load_ledger(directory).points == ledger.points


def test_a_block_joins_the_store_only_after_the_pack_write(tmp_path, monkeypatch):
    """The blocks a commit was first to store are written in its epoch
    file, and join the store only once that file is in place."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(b"abcdefgh", 2, 2, directory=directory)

    def failing_write_file(directory, name, data):
        raise OSError("injected failure at the epoch file write")

    monkeypatch.setattr(ledger_module, "write_file", failing_write_file)
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


@pytest.mark.parametrize("epoch, line, error", [
    (1, b"UPLOAD v12 servers=2", "1.snapshot holds 'UPLOAD v12 servers=2', but the upload commits epoch 0, and only"
     " epoch 0"),
    (0, b"UPDATE server=0 block=0", RETIRED),
], ids=["epoch-0-copied", "header-edited"])
def test_load_ledger_rejects_a_snapshot_that_claims_another_epoch(tmp_path, epoch, line, error):
    """The upload commits epoch 0, and only epoch 0: 0.snapshot copied as
    1.snapshot fails by name, its chain lines recomputed, and its UPLOAD
    line edited into an operation line lacks the format marker, so it
    fails as a retired format."""
    directory = tmp_path / "ledger"
    cluster, _ = make_committed_state(bytes(range(5)), 2, 5, directory=directory)
    update(cluster, load_ledger(directory), 0, 0, bytes(range(5)))  # the same bytes: epoch 1 names epoch 0's block
    data = (directory / "0.snapshot").read_bytes()
    (directory / f"{epoch}.snapshot").write_bytes(line + data[data.index(b"\n") :])
    rechain(directory, epoch)
    with pytest.raises(SnapshotCorrupt, match=f"^{re.escape(error)}$"):
        load_ledger(directory)


def test_loaded_servers_hold_the_stored_block_objects(tmp_path):
    """A block carries no address, so loading puts the block store's own
    object at every address that names it, repeated content included: in
    the cluster the replay ends in and in one its last snapshot loads."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(24) + bytes(range(24)), 3, 6, directory=directory)
    append(cluster, ledger, 1, b"more")
    loaded = load_ledger(directory)
    clusters = [loaded._replayed, load_snapshot(loaded.last_snapshot, loaded.blocks)]
    held = [block for restored in clusters for server in restored.servers for block in server.blocks.values()]
    assert len(held) == 9 + 9 and len(loaded.blocks) == 6
    assert all(block is loaded.blocks[block.digest] for block in held)


def test_load_ledger_rejects_tampered_snapshot(tmp_path):
    """0.snapshot's reference to "ab", at server 1's block 0, swapped for
    another stored block: an upload that loads, so only its chain line
    catches the edit."""
    directory = tmp_path / "ledger"
    make_committed_state(b"ababcd", 2, 2, directory=directory)
    replace_digest_line(directory / "0.snapshot", digest_of(b"ab"), digest_of(b"cd"))
    with pytest.raises(SnapshotCorrupt, match="^0.snapshot fails its chain line"):
        load_ledger(directory)


def test_load_ledger_rejects_reference_missing_from_pack(tmp_path):
    directory = tmp_path / "ledger"
    make_committed_state(b"ababcd", 2, 2, directory=directory)
    replace_digest_line(directory / "0.snapshot", digest_of(b"ab"), "0" * 64)
    rechain(directory)
    with pytest.raises(SnapshotCorrupt, match="which the store lacks"):
        load_ledger(directory)


def test_load_ledger_rejects_flipped_pack_byte(tmp_path):
    """A payload byte flipped in an epoch file fails its chain line, which
    covers every entry's bytes. With the chain recomputed too, a consistent
    rewrite, the file loads as the other content, as no entry names its
    digest."""
    directory = tmp_path / "ledger"
    make_committed_state(b"abcdef", 2, 2, directory=directory)
    snapshot = directory / "0.snapshot"
    data = bytearray(snapshot.read_bytes())
    data[data.index(b"\n2\nab\n") + 3] ^= 0x01
    snapshot.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorrupt, match="0.snapshot fails its chain line"):
        load_ledger(directory)
    rechain(directory)
    assert digest_of(b"`b") in load_ledger(directory).blocks


def test_recovered_cluster_round_trips_through_snapshots():
    cluster, ledger = make_committed_state(bytes(range(77)), 4, 9)
    inject_fault(cluster, FaultSpec(FaultKind.TRUNCATE, 1, 0, seed=8))
    recover(ledger, cluster)
    assert snapshot_cluster(cluster) == ledger.last_snapshot


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


def edit_snapshot(directory, epoch, pattern, replacement, into=None):
    """Replace the first match of ``pattern`` in epoch ``epoch``'s file and
    write the result back, or as epoch ``into``'s file."""
    data, count = re.subn(pattern.encode(), replacement.encode(), (directory / f"{epoch}.snapshot").read_bytes(),
                          count=1, flags=re.MULTILINE)
    assert count == 1
    (directory / f"{epoch if into is None else into}.snapshot").write_bytes(data)


# An edit of an epoch file (an epoch given as (source, target) is the source
# epoch's file, edited, written as the target's) and the error that refuses
# it once every chain line from the edited file on is recomputed: the replay
# rule or parse check it breaks. None marks a consistent rewrite, which loads
# as another history once rechained, so only its chain line catches it.
EPOCH_EDITS = {
    "upload-servers": (0, "^UPLOAD v12 servers=3$", "UPLOAD v12 servers=4", None),
    # Server 0's blocks 0 and 1 swapped: the upload's first two entries, each 32 bytes.
    "upload-id": (0, "(?s)^(32\n.{32}\n)(32\n.{32}\n)", r"\2\1", None),
    # Epoch 3's reference, to server 0's block 1, swapped for another stored block of its weight.
    "reference-swapped": (3, "^[0-9a-f]{64}$", digest_of(bytes(range(32))), None),
    "servers": (1, "^APPEND server=1 ", "APPEND server=9 ", "1.snapshot holds 'APPEND server=9 block=2', which epoch 0"
                " refuses: no server 9"),
    "other-address": (1, "^APPEND server=1 ", "APPEND server=0 ", "1.snapshot holds 'APPEND server=0 block=2', which"
                      " epoch 0 refuses: server 0's next block id is 3"),
    "append-id": (1, "^APPEND server=1 block=2", "APPEND server=1 block=3",
                  "which epoch 0 refuses: server 1's next block id is 2"),
    "update-address": (2, "^UPDATE server=2 block=1", "UPDATE server=2 block=2", "2.snapshot holds 'UPDATE server=2"
                       " block=2', which epoch 1 refuses: no block 2 on server 2"),
    # The entry is no malformed line: a DELETE writes no block, so its file holds no block line.
    "op-kind-swapped": (1, "^APPEND", "DELETE", "1.snapshot holds 1 block line(s) for 'DELETE server=1 block=2',"
                        " which writes 0"),
    "op-address-moved": (2, "^UPDATE server=2 block=1", "UPDATE server=1 block=3",
                         "epoch 1 refuses: no block 3 on server 1"),
    "op-server-01": (1, "^APPEND server=1 ", "APPEND server=01 ",
                     "1.snapshot starts with 'APPEND server=01 block=2', which is no"),
    # Without its operation line, epoch 1's file starts with the entry of the block it appended.
    "op-line-missing": (1, "^APPEND server=1 block=2\n", "", "1.snapshot starts with '8', which is no"),
    # An entry's weight line is a canonical decimal, so a leading zero or a sign is no block line.
    "weight-leading-zero": (1, "^8$", "08", "1.snapshot at byte 24 holds '08', where a block line or the chain"
                            " line belongs"),
    "weight-signed": (1, "^8$", "+8", "1.snapshot at byte 24 holds '+8', where a block line or the chain line"
                      " belongs"),
    # A line of 64 decimal digits is a reference, never a weight (at most 63 digits): to a block none stores.
    "reference-of-digits": (1, "(?s)^8\n.{8}\n", "0123456789" * 6 + "0123\n", "1.snapshot names block"
                            f" {'0123456789' * 6}0123, which the store lacks"),
    # Only the upload commits epoch 0: a 0.snapshot that does not start with its format marker is a retired one's.
    "op-line-at-epoch-0": (0, "^", "APPEND server=1 block=2\n", RETIRED),
    # Epoch 3, an update of server 0's block 1 to identical bytes, as epoch 5, after epoch 4 deleted that block,
    # and as an append, of an id below the server's largest, 2.
    "update-freed-id": ((3, 5), "^", "", "5.snapshot holds 'UPDATE server=0 block=1', which epoch 4"
                        " refuses: no block 1 on server 0"),
    "append-freed-id": ((3, 5), "^UPDATE", "APPEND", "5.snapshot holds 'APPEND server=0 block=1', which epoch 4"
                        " refuses: server 0's next block id is 3"),
    # Epoch 4, the delete, again as epoch 5: the address it names is already gone.
    "delete-unheld": ((4, 5), "^", "", "5.snapshot holds 'DELETE server=0 block=1', which epoch 4"
                      " refuses: no block 1 on server 0"),
}


def five_epochs(directory):
    """A bound ledger of an upload, an append, two updates (the second to
    identical bytes) and a delete, whose cluster.state is the last point:
    the ledger every EPOCH_EDITS case edits. Returns its points."""
    cluster, ledger = make_committed_state(bytes(range(200)), 3, 32, directory=directory)
    append(cluster, ledger, 1, bytes(8))
    update(cluster, ledger, 2, 1, bytes(range(8)))
    update(cluster, ledger, 0, 1, cluster.servers[0].blocks[1].payload)
    delete(cluster, ledger, 0, 1)
    (directory / "cluster.state").write_bytes(b"")  # the live cluster is the last point
    assert load_ledger(directory).points == ledger.points
    assert cli.run(["--ledger-dir", str(directory), "recover"]) == 0
    return ledger.points


def edit_epoch(directory, epoch, pattern, replacement):
    """Make the EPOCH_EDITS edit; return the epoch whose file it wrote."""
    source, target = epoch if isinstance(epoch, tuple) else (epoch, None)
    edit_snapshot(directory, source, pattern, replacement, into=target)
    return source if target is None else target


def assert_every_load_refuses(directory, capsys, error):
    """verify, history and recover exit 2 naming ``error``, and write nothing."""
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    capsys.readouterr()
    for command in ("verify", "history", "recover"):
        assert cli.run(["--ledger-dir", str(directory), command]) == 2, command
        assert error in capsys.readouterr().err, command
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before


def assert_apply_refuses(directory, cut, epoch, reason):
    """ops.apply, run on the ledger ``directory`` cut after epoch - 1 (a
    copy of its files 0 to epoch - 1 in ``cut``), refuses the operation
    epoch ``epoch``'s file names with NoSuchTarget(``reason``), and leaves
    the cluster, the ledger and every file of the copy as they were."""
    cut.mkdir()
    for earlier in range(epoch):
        (cut / f"{earlier}.snapshot").write_bytes((directory / f"{earlier}.snapshot").read_bytes())
    (cut / "cluster.state").write_bytes(b"")
    ledger = load_ledger(cut)
    cluster = load_cluster(ledger, 0)
    op = (directory / f"{epoch}.snapshot").read_bytes().partition(b"\n")[0].decode()
    kind, server, block = re.fullmatch(r"(\w+) server=(\d+) block=(\d+)", op).groups()
    request = OperationRequest(OperationKind(kind), int(server), int(block),
                               None if kind == "DELETE" else bytes(8), cluster.epoch)
    before = state_fingerprint(cluster, ledger), {path.name: path.read_bytes() for path in cut.iterdir()}
    with pytest.raises(NoSuchTarget, match=f"^{re.escape(reason)}$"):
        apply(cluster, ledger, request)
    assert (state_fingerprint(cluster, ledger), {path.name: path.read_bytes() for path in cut.iterdir()}) == before


@pytest.mark.parametrize("epoch, pattern, replacement, error", EPOCH_EDITS.values(), ids=EPOCH_EDITS)
def test_load_ledger_rejects_an_epoch_no_single_operation_leaves(tmp_path, capsys, epoch, pattern, replacement,
                                                                  error):
    """An epoch file from 1 is its operation, replayed on the epoch
    before, so an operation line that names no operation that epoch allows
    (an update or a delete of an address it does not hold, an append of
    another id than the server's next, a server it does not have), or a
    file that is no redo record, must make the epoch fail to load even with
    every chain line from it on recomputed: every command that loads the
    ledger exits 2, and recover writes nothing. The load refuses such an
    operation by the rule ops.apply runs by, in its words: ops.apply, given
    the same operation on the epoch before, raises NoSuchTarget with the
    reason the load gives after "refuses: ", before any write. An edit of
    the upload's block order or server count or of a reference, which X, a
    sum of weights, does not cover, is a consistent rewrite once
    rechained; left as it is, its chain line refuses it."""
    directory = tmp_path / "ledger"
    five_epochs(directory)
    edited = edit_epoch(directory, epoch, pattern, replacement)
    if error is None:
        error = f"{edited}.snapshot fails its chain line"
    else:
        rechain(directory, edited)
    with pytest.raises(SnapshotCorrupt, match=re.escape(error)):
        load_ledger(directory)
    assert_every_load_refuses(directory, capsys, error)
    if "refuses: " in error:
        assert_apply_refuses(directory, tmp_path / "cut", edited, error.partition("refuses: ")[2])


@pytest.mark.parametrize("epoch, pattern, replacement, error", EPOCH_EDITS.values(), ids=EPOCH_EDITS)
def test_an_epoch_edit_left_unchained_fails_on_its_chain_line(tmp_path, capsys, monkeypatch, epoch, pattern,
                                                              replacement, error):
    """Every EPOCH_EDITS edit, its chain line not recomputed, fails on the
    chain line of the file it wrote, before any block is hashed or any
    cluster built; one that takes 0.snapshot's format marker away fails on
    the marker, before any chain line is checked."""
    directory = tmp_path / "ledger"
    five_epochs(directory)
    edited = edit_epoch(directory, epoch, pattern, replacement)
    if error != RETIRED:
        error = f"{edited}.snapshot fails its chain line: it, or an epoch file before it, changed after its commit"
    for name in ("make_blocks", "new_cluster"):
        monkeypatch.setattr(ledger_module, name, None)  # calling either raises TypeError
    with pytest.raises(SnapshotCorrupt, match=f"^{re.escape(error)}$"):
        load_ledger(directory)
    monkeypatch.undo()
    assert_every_load_refuses(directory, capsys, error)


# Payloads that look like other lines of an epoch file. An entry's weight
# line says where its payload ends, so none of them is read as a line.
EDGE_PAYLOADS = {
    "empty": b"",
    "lf": b"\n",
    "weight-line": b"5\n",
    "reference-line": b"ab" * 32,
    "reference-lines": b"\n" + b"ab" * 32 + b"\n" + b"0" * 64 + b"\n",
    "chain-line": b"CHAIN sha256=" + b"0" * 64 + b"\n",
}


@pytest.mark.parametrize("payload", EDGE_PAYLOADS.values(), ids=EDGE_PAYLOADS)
def test_an_entry_is_its_weight_line_and_payload_whatever_the_payload_holds(tmp_path, capsys, payload):
    """An appended block's entry is ``<weight>\\n<payload>\\n``, a 0-byte one
    included, and the ledger loads it as the block it was, by load_ledger
    and by the CLI's recover, which finds the live cluster intact."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(50)), 3, 4, directory=directory)
    append(cluster, ledger, 2, payload)
    assert ledger.points[1].record[:-78] == b"APPEND server=2 block=4\n%d\n%s\n" % (len(payload), payload)
    loaded = load_ledger(directory)
    assert loaded.points == ledger.points and make_block(payload).digest in loaded.blocks
    (directory / "cluster.state").write_bytes(b"")  # the live cluster is the last point
    capsys.readouterr()
    assert cli.run(["--ledger-dir", str(directory), "recover"]) == 0
    assert capsys.readouterr().out == "INTACT epoch=1\n"


def test_an_edited_server_count_builds_no_cluster_before_the_chain_refuses_it(tmp_path, capsys, monkeypatch):
    """The chain is checked before any cluster is built, so 0.snapshot's
    UPLOAD line edited to 100000 servers, its chain line left as it was,
    makes verify, history and recover exit 2 without ever making a
    cluster of that many servers."""
    directory = tmp_path / "ledger"
    flags = ["--servers", "3", "--block-size", "16", "--ledger-dir", str(directory)]
    assert cli.run([*flags, "upload", "--gen-bytes", "100"]) == 0
    edit_snapshot(directory, 0, "^UPLOAD v12 servers=3 ", "UPLOAD v12 servers=100000 ")
    made = []

    def counting_new_cluster(server_count, rng_seed=0):
        made.append(server_count)
        return new_cluster(server_count, rng_seed)

    for module in (cli, ledger_module, sys.modules["cloudledger.cluster"]):
        monkeypatch.setattr(module, "new_cluster", counting_new_cluster)
    assert_every_load_refuses(directory, capsys, "0.snapshot fails its chain line")
    assert 100000 not in made


@pytest.mark.parametrize("line, reason", [("UPDATE server=1 block=2", "no block 2 on server 1"),
                                          ("APPEND server=1 block=1", "server 1's next block id is 2")],
                         ids=["unheld", "append"])
def test_an_epoch_that_changes_no_record_is_an_update_of_a_held_block(tmp_path, line, reason):
    """An update to identical bytes changes no record, so only its line
    names the block: an update of a block the epoch before holds."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(50)), 3, 8, directory=directory)
    update(cluster, ledger, 1, 1, cluster.servers[1].blocks[1].payload)
    assert ledger.points[1].op == "UPDATE server=1 block=1"
    assert load_ledger(directory).points == ledger.points
    edit_snapshot(directory, 1, "^UPDATE server=1 block=1$", line)
    rechain(directory, 1)
    with pytest.raises(SnapshotCorrupt, match=f"^1.snapshot holds '{line}', which epoch 0 refuses: {reason}$"):
        load_ledger(directory)
