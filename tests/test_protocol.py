"""Reading-protocol verdicts: soundness, blind spot, symmetry, reports."""

import random

import pytest

from cloudledger import (
    DivergenceKind,
    EpochMismatch,
    FaultKind,
    FaultSpec,
    Level,
    Mode,
    PreexistingData,
    build_manifest,
    inject_fault,
    make_block,
    new_cluster,
    read_manifest,
    render_verdict_report,
    round_trip_verify,
    serialize_manifest,
    upload,
    user_level_manifest,
    verify_equality,
)

BLOCK_FAULTS = [
    FaultKind.FLIP_BYTE,
    FaultKind.TRUNCATE,
    FaultKind.DROP_BLOCK,
    FaultKind.SAME_WEIGHT_SUBSTITUTE,
]


def test_user_manifest_empty_payload():
    manifest = user_level_manifest(b"", 3, 8, 0)
    assert manifest.records == ()
    assert manifest.level is Level.USER


def test_user_manifest_fifty_units():
    manifest = user_level_manifest(bytes(range(50)), 5, 1, 0)
    assert len(manifest.records) == 50
    assert manifest.total_weight == 50


def test_user_manifest_deterministic():
    payload = bytes(range(123))
    first = serialize_manifest(user_level_manifest(payload, 4, 16, 2))
    second = serialize_manifest(user_level_manifest(payload, 4, 16, 2))
    assert first == second


def test_manifest_equals_itself():
    manifest = user_level_manifest(bytes(range(30)), 2, 4, 0)
    verdict = verify_equality(manifest, manifest, Mode.CHECKSUM)
    assert verdict.z
    assert verdict.divergences == ()


def test_epoch_mismatch_is_an_error_not_a_false_verdict():
    a = user_level_manifest(b"abc", 1, 1, 0)
    b = user_level_manifest(b"abc", 1, 1, 1)
    with pytest.raises(EpochMismatch):
        verify_equality(a, b, Mode.CHECKSUM)


def test_flip_byte_yields_single_checksum_mismatch():
    cluster = new_cluster(3)
    payload = bytes(range(90))
    user = user_level_manifest(payload, 3, 10, 0)
    upload(cluster, payload, 10)
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 1, 1, seed=3))
    verdict = verify_equality(user, read_manifest(cluster), Mode.CHECKSUM)
    assert not verdict.z
    assert len(verdict.divergences) == 1
    d = verdict.divergences[0]
    assert d.kind is DivergenceKind.CHECKSUM_MISMATCH
    assert (d.server_index, d.block_id) == (1, 1)
    assert d.expected.weight == d.actual.weight


def test_same_weight_substitution_blind_spot():
    """Weight-only reading misses an equal-size substitution; checksums catch it."""
    cluster = new_cluster(2)
    payload = bytes(range(64))
    user = user_level_manifest(payload, 2, 8, 0)
    upload(cluster, payload, 8)
    inject_fault(cluster, FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, 0, 2, seed=9))
    cloud = read_manifest(cluster)
    assert verify_equality(user, cloud, Mode.WEIGHT_ONLY).z
    checked = verify_equality(user, cloud, Mode.CHECKSUM)
    assert not checked.z
    assert checked.divergences[0].kind is DivergenceKind.CHECKSUM_MISMATCH


def test_missing_extra_symmetry():
    small = build_manifest(Level.USER, 0, [[make_block(0, b"aa")]])
    large = build_manifest(Level.CLOUD, 0, [[make_block(0, b"aa"), make_block(1, b"bb")]])
    forward = verify_equality(small, large, Mode.CHECKSUM)
    backward = verify_equality(large, small, Mode.CHECKSUM)
    assert [d.kind for d in forward.divergences] == [DivergenceKind.EXTRA]
    assert [d.kind for d in backward.divergences] == [DivergenceKind.MISSING]


def test_server_unavailable_reported_per_user_record():
    cluster = new_cluster(3)
    payload = bytes(range(90))
    user = user_level_manifest(payload, 3, 10, 0)
    upload(cluster, payload, 10)
    expected_lost = sum(1 for r in user.records if r.server_index == 2)
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 2))
    verdict = verify_equality(user, read_manifest(cluster), Mode.CHECKSUM)
    unavailable = [d for d in verdict.divergences if d.kind is DivergenceKind.SERVER_UNAVAILABLE]
    assert len(unavailable) == expected_lost > 0
    assert all(d.server_index == 2 for d in unavailable)
    assert not verdict.z


def test_checksum_mode_catches_every_single_mutation():
    """Property: any single-record mutation flips z to false."""
    rng = random.Random(2024)
    for case in range(40):
        server_count = rng.randrange(1, 5)
        block_size = rng.choice([1, 3, 16])
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
        cluster = new_cluster(server_count, rng_seed=case)
        user = user_level_manifest(payload, server_count, block_size, 0)
        upload(cluster, payload, block_size)
        target = rng.choice([r for r in user.records])
        kind = rng.choice(BLOCK_FAULTS)
        inject_fault(cluster, FaultSpec(kind, target.server_index, target.block_id, seed=case))
        verdict = verify_equality(user, read_manifest(cluster), Mode.CHECKSUM)
        assert not verdict.z, (case, kind)
        assert len(verdict.divergences) == 1
        d = verdict.divergences[0]
        assert (d.server_index, d.block_id) == target.key


def test_weight_only_detects_weight_changes_and_only_those():
    rng = random.Random(55)
    for case in range(25):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(4, 120)))
        cluster = new_cluster(2, rng_seed=case)
        user = user_level_manifest(payload, 2, 4, 0)
        upload(cluster, payload, 4)
        target = rng.choice(user.records)
        if case % 2 == 0:
            inject_fault(
                cluster, FaultSpec(FaultKind.TRUNCATE, target.server_index, target.block_id, seed=case)
            )
            assert not verify_equality(user, read_manifest(cluster), Mode.WEIGHT_ONLY).z
        else:
            inject_fault(
                cluster,
                FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, target.server_index, target.block_id, seed=case),
            )
            assert verify_equality(user, read_manifest(cluster), Mode.WEIGHT_ONLY).z


def test_verdict_is_pure():
    user = user_level_manifest(bytes(range(24)), 2, 4, 0)
    cloud = user_level_manifest(bytes(range(24)), 2, 4, 0)
    assert verify_equality(user, cloud, Mode.CHECKSUM) == verify_equality(user, cloud, Mode.CHECKSUM)


def test_round_trip_clean_upload():
    cluster = new_cluster(4)
    verdict = round_trip_verify(cluster, bytes(range(100)), 4, 8, Mode.CHECKSUM)
    assert verdict.z


def test_round_trip_fault_between_write_and_read():
    cluster = new_cluster(2)
    verdict = round_trip_verify(
        cluster,
        bytes(range(32)),
        2,
        4,
        Mode.CHECKSUM,
        post_upload_hook=lambda c: inject_fault(c, FaultSpec(FaultKind.FLIP_BYTE, 0, 0, seed=1)),
    )
    assert not verdict.z


def test_round_trip_requires_empty_cluster():
    cluster = new_cluster(2)
    upload(cluster, b"already here", 4)
    with pytest.raises(PreexistingData):
        round_trip_verify(cluster, b"new data", 2, 4, Mode.CHECKSUM)


def test_round_trip_validates_server_count():
    with pytest.raises(ValueError):
        round_trip_verify(new_cluster(3), b"x", 2, 4, Mode.CHECKSUM)


def test_report_rendering():
    cluster = new_cluster(2)
    payload = bytes(range(20))
    user = user_level_manifest(payload, 2, 10, 0)
    upload(cluster, payload, 10)
    inject_fault(cluster, FaultSpec(FaultKind.DROP_BLOCK, 1, 0))
    verdict = verify_equality(user, read_manifest(cluster), Mode.CHECKSUM)
    report = render_verdict_report(verdict)
    lines = report.splitlines()
    assert lines[0] == "VERDICT z=false mode=checksum epoch=0 divergences=1"
    assert lines[1].startswith("MISSING server=1 block=0 expected=10:")
    assert lines[1].endswith("actual=-:-")
    clean = render_verdict_report(verify_equality(user, user, Mode.WEIGHT_ONLY))
    assert clean == "VERDICT z=true mode=weight-only epoch=0 divergences=0\n"
