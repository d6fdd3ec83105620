"""Dynamic operations: accounting identity, gates, rollback, epoch linearity."""

import random

import pytest

from cloudledger import (
    EpochMismatch,
    FaultKind,
    FaultSpec,
    Mode,
    NoSuchTarget,
    OperationKind,
    OperationRequest,
    PostStateCorrupt,
    PreStateCorrupt,
    RecoveryAction,
    ServerDown,
    UnverifiedState,
    append,
    apply,
    delete,
    fnv1a64,
    inject_fault,
    read_manifest,
    recover,
    render_journal_line,
    snapshot_cluster,
    update,
    verify_equality,
)
from cloudledger import cli, load_ledger
from helpers import make_committed_state


def test_append_to_empty_server_gets_block_zero():
    cluster, ledger = make_committed_state(b"", 2, 4)
    result = append(cluster, ledger, 1, b"hello")
    assert result.block_id == 0
    assert result.delta == 5
    assert result.s_before == 0 and result.s_after == 5


def test_two_appends_advance_ids_and_epochs():
    cluster, ledger = make_committed_state(b"", 1, 4)
    first = append(cluster, ledger, 0, b"aa")
    second = append(cluster, ledger, 0, b"bbb")
    assert (first.block_id, second.block_id) == (0, 1)
    assert (first.new_epoch, second.new_epoch) == (1, 2)
    assert second.s_after == 5


def test_append_arithmetic():
    cluster, ledger = make_committed_state(bytes(100), 4, 25)
    result = append(cluster, ledger, 0, bytes(20))
    assert result.s_before == 100
    assert result.delta == 20
    assert result.s_after == 120


def test_append_with_corrupted_pre_state_mutates_nothing():
    cluster, ledger = make_committed_state(bytes(range(40)), 2, 5)
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 0, 1, seed=4))
    before = snapshot_cluster(cluster)
    with pytest.raises(PreStateCorrupt) as exc_info:
        append(cluster, ledger, 1, b"new")
    assert snapshot_cluster(cluster) == before
    assert len(ledger.points) == 1
    assert not exc_info.value.verdict.z


@pytest.mark.parametrize(
    "fault_kind",
    [FaultKind.FLIP_BYTE, FaultKind.TRUNCATE, FaultKind.DROP_BLOCK, FaultKind.SAME_WEIGHT_SUBSTITUTE],
)
def test_pre_verification_gate_catches_every_fault_kind(fault_kind):
    cluster, ledger = make_committed_state(bytes(range(60)), 3, 5, seed=17)
    inject_fault(cluster, FaultSpec(fault_kind, 1, 0, seed=6))
    before = snapshot_cluster(cluster)
    with pytest.raises(PreStateCorrupt):
        update(cluster, ledger, 0, 0, b"xxxxx")
    assert snapshot_cluster(cluster) == before


def test_delete_sole_block_leaves_alive_empty_server():
    cluster, ledger = make_committed_state(b"sixbyt", 1, 8)
    result = delete(cluster, ledger, 0, 0)
    assert result.delta == -6
    assert result.s_after == 0
    manifest = read_manifest(cluster)
    assert manifest.records == ()
    assert cluster.servers[0].blocks == {}
    assert manifest.unavailable_servers == frozenset() and cluster.faults == []


def test_delete_middle_block_keeps_ids():
    cluster, ledger = make_committed_state(bytes(range(30)), 1, 10)
    result = delete(cluster, ledger, 0, 1)
    assert result.delta == -10
    remaining = list(cluster.servers[0].blocks)
    assert remaining == [0, 2]
    manifest = read_manifest(cluster)
    assert {r.key for r in manifest.records} == {(0, 0), (0, 2)}


def test_delete_missing_block():
    cluster, ledger = make_committed_state(b"abc", 2, 4)
    with pytest.raises(NoSuchTarget):
        delete(cluster, ledger, 0, 99)
    with pytest.raises(NoSuchTarget):
        delete(cluster, ledger, 7, 0)


def test_update_identity_payload_still_advances_epoch():
    cluster, ledger = make_committed_state(b"stable", 1, 6)
    result = update(cluster, ledger, 0, 0, b"stable")
    assert result.delta == 0
    assert result.new_epoch == 1
    assert len(ledger.points) == 2
    assert cluster.servers[0].blocks[0].checksum == fnv1a64(b"stable")


def test_update_one_byte_change_keeps_weight():
    cluster, ledger = make_committed_state(b"stable", 1, 6)
    old_checksum = cluster.servers[0].blocks[0].checksum
    result = update(cluster, ledger, 0, 0, b"stablE")
    assert result.delta == 0
    assert cluster.servers[0].blocks[0].checksum != old_checksum


def test_update_shrinking_block():
    cluster, ledger = make_committed_state(bytes(range(10)), 1, 10)
    result = update(cluster, ledger, 0, 0, b"abcd")
    assert result.delta == -6
    assert result.s_after == 4
    manifest = read_manifest(cluster)
    assert manifest.records[0].key == (0, 0)
    assert manifest.records[0].checksum == fnv1a64(b"abcd")


def test_update_growing_block():
    cluster, ledger = make_committed_state(b"ab", 1, 4)
    result = update(cluster, ledger, 0, 0, b"abcdef")
    assert result.delta == 4


def test_stale_request_rejected():
    cluster, ledger = make_committed_state(b"abcd", 2, 2)
    request = OperationRequest(
        kind=OperationKind.APPEND, server_index=0, payload=b"x", epoch_expected=5
    )
    with pytest.raises(EpochMismatch):
        apply(cluster, ledger, request)
    assert cluster.epoch == 0


def test_append_to_dead_empty_server():
    cluster, ledger = make_committed_state(b"ab", 3, 1)
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 2))  # server 2 held nothing
    with pytest.raises(ServerDown):
        append(cluster, ledger, 2, b"x")


def test_post_state_corruption_rolls_back_exactly():
    cluster, ledger = make_committed_state(bytes(range(40)), 2, 5)
    committed = snapshot_cluster(cluster)

    def sabotage(c):
        inject_fault(c, FaultSpec(FaultKind.FLIP_BYTE, 0, 0, seed=2))

    with pytest.raises(PostStateCorrupt):
        append(cluster, ledger, 1, b"doomed", post_mutation_hook=sabotage)
    assert snapshot_cluster(cluster) == committed
    assert cluster.epoch == 0
    assert len(ledger.points) == 1


def test_corruption_hidden_by_a_stale_read_path_is_not_committed():
    cluster, ledger = make_committed_state(bytes(range(40)), 2, 5)
    same = cluster.servers[0].blocks[0].payload
    update(cluster, ledger, 0, 0, same)
    committed = snapshot_cluster(cluster)
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 1, 0, seed=2))
    inject_fault(cluster, FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0))
    with pytest.raises(UnverifiedState):
        update(cluster, ledger, 0, 0, same)  # the replayed epoch 0 matches the prediction
    assert snapshot_cluster(cluster) == committed
    assert cluster.epoch == 1
    assert len(ledger.points) == 2


def test_an_update_over_a_truncation_a_stale_read_path_hides_journals_the_committed_change(tmp_path, capsys):
    """The stale read path replays epoch 0, which epoch 1 equals, so the
    update's checks pass and its commit, which rewrites the truncated block
    with its committed bytes, changes no record. delta is taken from the
    record the last point holds, not from the truncated live one, so the
    printed totals are the points' and history renders the same line."""
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(64)), 2, 16, directory=directory)
    same = cluster.servers[0].blocks[1].payload
    update(cluster, ledger, 0, 1, same)
    inject_fault(cluster, FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0))
    inject_fault(cluster, FaultSpec(FaultKind.TRUNCATE, 0, 1, seed=3))
    assert cluster.servers[0].records[1].weight < len(same)
    result = update(cluster, ledger, 0, 1, same)
    assert (result.s_before, result.delta, result.s_after) == (64, 0, 64)
    assert ledger.last().manifest.records == ledger.points[0].manifest.records
    capsys.readouterr()
    assert cli.run(["--ledger-dir", str(directory), "history"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == render_journal_line(result)


def test_a_raising_hook_rolls_back_and_a_later_stale_read_path_is_caught():
    cluster, ledger = make_committed_state(b"abcdefgh", 2, 2)
    update(cluster, ledger, 0, 0, b"zz")

    def crash(c):
        raise RuntimeError("writer died between the mutation and the post-check")

    with pytest.raises(RuntimeError):
        append(cluster, ledger, 1, b"q", post_mutation_hook=crash)
    assert snapshot_cluster(cluster) == ledger.last_snapshot
    assert len(ledger.points) == 2
    assert recover(ledger, cluster).action is RecoveryAction.INTACT
    inject_fault(cluster, FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0))  # replays epoch 0: block 0 is "ab"
    assert not verify_equality(ledger.last().manifest, read_manifest(cluster), Mode.CHECKSUM).z


def test_request_shape_validation():
    """A request of the wrong shape is a ValueError; an APPEND may name a
    block id, which must be the server's next, as its epoch file names it."""
    cluster, ledger = make_committed_state(b"ab", 1, 2)
    bad_requests = [
        OperationRequest(kind=OperationKind.APPEND, server_index=0, payload=None, epoch_expected=0),
        OperationRequest(kind=OperationKind.DELETE, server_index=0, block_id=0, payload=b"x", epoch_expected=0),
        OperationRequest(kind=OperationKind.DELETE, server_index=0, epoch_expected=0),
        OperationRequest(kind=OperationKind.UPDATE, server_index=0, block_id=0, epoch_expected=0),
    ]
    for request in bad_requests:
        with pytest.raises(ValueError):
            apply(cluster, ledger, request)
    request = OperationRequest(kind=OperationKind.APPEND, server_index=0, block_id=0, payload=b"x", epoch_expected=0)
    with pytest.raises(NoSuchTarget, match="^server 0's next block id is 1$"):
        apply(cluster, ledger, request)
    assert apply(cluster, ledger, request._replace(block_id=1)).block_id == 1


def test_journal_line_format():
    cluster, ledger = make_committed_state(bytes(100), 4, 25)
    line = render_journal_line(append(cluster, ledger, 2, bytes(20)))
    assert line == "1 APPEND server=2 block=1 delta=+20 s_after=120 z_pre=true z_post=true"
    line = render_journal_line(delete(cluster, ledger, 2, 1))
    assert line == "2 DELETE server=2 block=1 delta=-20 s_after=100 z_pre=true z_post=true"


def test_the_journal_check_accepts_every_line_an_operation_journals(tmp_path, capsys):
    """A seeded sequence of every kind, with signed and zero deltas, deletes
    and updates to identical bytes (the one step a manifest diff cannot
    name): loading accepts the operation line each epoch file starts with,
    and history renders from the reloaded ledger the lines the operations
    printed."""
    rng = random.Random(2311)
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(bytes(range(200)), 4, 25, directory=directory)
    kinds = ["append", "delete", "update", "same"] * 4
    rng.shuffle(kinds)
    lines = []
    for kind in kinds:
        server = rng.choice([s for s in cluster.servers if s.blocks or kind == "append"])
        if kind == "append":
            result = append(cluster, ledger, server.server_index, rng.randbytes(rng.randrange(40)))
        else:
            block = rng.choice(list(server.blocks))
            if kind == "delete":
                result = delete(cluster, ledger, server.server_index, block)
            else:
                payload = server.blocks[block].payload if kind == "same" else rng.randbytes(rng.randrange(40))
                result = update(cluster, ledger, server.server_index, block, payload)
        lines.append(render_journal_line(result))
    assert sum(" UPDATE " in line and " delta=+0 " in line for line in lines) >= 4
    assert sum(" DELETE " in line and " delta=-" in line for line in lines) == 4
    assert [point.op for point in ledger.points[1:]] == [" ".join(line.split(" ")[1:4]) for line in lines]
    assert load_ledger(directory).points == ledger.points
    capsys.readouterr()
    assert cli.run(["--ledger-dir", str(directory), "history"]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


def test_accounting_identity_over_random_sequences():
    """Sum of block weights always equals initial total plus signed deltas."""
    rng = random.Random(404)
    for case in range(10):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(20, 200)))
        server_count = rng.randrange(1, 4)
        cluster, ledger = make_committed_state(payload, server_count, 8, seed=case)
        initial_total = ledger.points[0].manifest.total_weight
        deltas = []
        for _ in range(20):
            server_index = rng.randrange(server_count)
            blocks = cluster.servers[server_index].blocks
            choice = rng.randrange(3)
            if choice == 0 or not blocks:
                result = append(
                    cluster, ledger, server_index,
                    bytes(rng.randrange(256) for _ in range(rng.randrange(0, 30))),
                )
            elif choice == 1:
                result = delete(cluster, ledger, server_index, rng.choice(list(blocks)))
            else:
                result = update(
                    cluster, ledger, server_index, rng.choice(list(blocks)),
                    bytes(rng.randrange(256) for _ in range(rng.randrange(0, 30))),
                )
            deltas.append(result.delta)
            assert result.s_after == result.s_before + result.delta
        stored_total = sum(len(b.payload) for s in cluster.servers for b in s.blocks.values())
        assert stored_total == initial_total + sum(deltas)
        assert cluster.epoch == len(deltas)
        assert len(ledger.points) == len(deltas) + 1
