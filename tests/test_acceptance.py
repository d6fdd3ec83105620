"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is seeded; the whole module is deterministic and sized
to finish in well under a minute of pure Python.

Criteria:
  1. round-trip integrity over randomized (payload, n, B) cases
  2. single-fault detection with exact localization (checksum mode)
  3. weight-only blind spot: same-size substitution missed, truncation caught
  4. crash recovery restores the committed epoch, record for record
  5. committed X is twice the committed total at every restore point
  6. exact byte accounting over random operation sequences
  7. auditor non-interference and client agreement
  8. byte-identical ledgers from two runs of the full demo script, equal
     to pinned digests
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cloudledger import (
    AuditGrant,
    FaultKind,
    FaultSpec,
    Ledger,
    Mode,
    NoSuchBlock,
    RecoveryAction,
    append,
    audit,
    delete,
    inject_fault,
    new_cluster,
    read_manifest,
    recover,
    round_trip_verify,
    update,
    user_level_manifest,
    verify_equality,
)
from helpers import make_committed_state, state_fingerprint

REPO_ROOT = Path(__file__).resolve().parent.parent
KIB = 1024

# Ledgers committed by the scenario criteria, re-checked by criterion 5.
COMMITTED_LEDGERS: list[Ledger] = []


def random_payload(rng: random.Random, size: int) -> bytes:
    return rng.getrandbits(8 * size).to_bytes(size, "big") if size else b""


def random_committed_state(rng: random.Random, max_size=2048, block_sizes=(1, 7, 16, 64)):
    server_count = rng.randint(1, 8)
    block_size = rng.choice(block_sizes)
    payload = random_payload(rng, rng.randint(32, max_size))
    cluster, ledger = make_committed_state(payload, server_count, block_size, seed=rng.randrange(2**32))
    return cluster, ledger, payload, server_count, block_size


def test_criterion_1_round_trip_integrity():
    """200 randomized uploads verify clean: z=true, zero divergences, always."""
    rng = random.Random(0xAC01)
    cases = [(0, b) for b in (1, 7, 4096)] + [(256 * KIB, b) for b in (1, 7, 4096)]
    while len(cases) < 200:
        # log-distributed sizes cover every magnitude of the 0..256 KiB range
        cases.append((int(2 ** rng.uniform(0, 17)), rng.choice((1, 7, 4096))))
    passed = 0
    for case_index, (size, block_size) in enumerate(cases):
        server_count = rng.randint(1, 8)
        payload = random_payload(rng, size)
        cluster = new_cluster(server_count, rng_seed=case_index)
        verdict = round_trip_verify(cluster, payload, server_count, block_size, Mode.CHECKSUM)
        assert verdict.z and verdict.divergences == (), (case_index, size, block_size, server_count)
        passed += 1
    assert passed == 200
    print("ACCEPTANCE 1 round-trip integrity (200/200 clean): PASS")


def test_criterion_2_tamper_detection_and_localization():
    """200 single faults: z=false with exactly one divergence at the fault."""
    rng = random.Random(0xAC02)
    kinds = [
        FaultKind.FLIP_BYTE,
        FaultKind.TRUNCATE,
        FaultKind.DROP_BLOCK,
        FaultKind.SAME_WEIGHT_SUBSTITUTE,
    ]
    detected = 0
    for case_index in range(200):
        cluster, ledger, payload, server_count, block_size = random_committed_state(rng)
        user = user_level_manifest(payload, server_count, block_size, 0)
        target = rng.choice(user.records)
        kind = kinds[case_index % len(kinds)]
        inject_fault(cluster, FaultSpec(kind, target.server_index, target.block_id, seed=case_index))
        verdict = verify_equality(user, read_manifest(cluster), Mode.CHECKSUM)
        assert not verdict.z, (case_index, kind)
        assert len(verdict.divergences) == 1, (case_index, kind, verdict.divergences)
        divergence = verdict.divergences[0]
        assert (divergence.server_index, divergence.block_id) == target.key
        COMMITTED_LEDGERS.append(ledger)
        detected += 1
    assert detected == 200
    print("ACCEPTANCE 2 tamper detection, exact localization (200/200): PASS")


def test_criterion_3_weight_only_blind_spot():
    """Weight-only mode: same-size substitution invisible, truncation visible."""
    rng = random.Random(0xAC03)
    missed_substitutions = 0
    caught_truncations = 0
    for case_index in range(50):
        seed = rng.randrange(2**32)
        size = rng.randint(64, 1024)
        payload = random_payload(rng, size)
        server_count = rng.randint(1, 6)
        block_size = rng.choice((7, 16, 64))
        user = user_level_manifest(payload, server_count, block_size, 0)
        target = rng.choice(user.records)

        substituted = new_cluster(server_count, rng_seed=seed)
        round_trip_verify(substituted, payload, server_count, block_size, Mode.WEIGHT_ONLY)
        inject_fault(
            substituted,
            FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, target.server_index, target.block_id, seed=case_index),
        )
        blind = verify_equality(user, read_manifest(substituted), Mode.WEIGHT_ONLY)
        missed_substitutions += blind.z
        # the identical fault is visible the moment checksums are compared
        assert not verify_equality(user, read_manifest(substituted), Mode.CHECKSUM).z

        truncated = new_cluster(server_count, rng_seed=seed)
        round_trip_verify(truncated, payload, server_count, block_size, Mode.WEIGHT_ONLY)
        inject_fault(
            truncated,
            FaultSpec(FaultKind.TRUNCATE, target.server_index, target.block_id, seed=case_index),
        )
        caught_truncations += not verify_equality(user, read_manifest(truncated), Mode.WEIGHT_ONLY).z

    assert missed_substitutions == 50, f"substitutions detected in weight-only mode: {50 - missed_substitutions}"
    assert caught_truncations == 50
    print("ACCEPTANCE 3 weight-only blind spot (50/50 missed, 50/50 truncations caught): PASS")


def test_criterion_4_restore_correctness():
    """Crash of every server k after epoch e: RESTORED at e, records identical."""
    rng = random.Random(0xAC04)
    for scenario in range(20):
        server_count = rng.randint(2, 6)
        block_size = rng.choice((4, 16))
        payload = random_payload(rng, rng.randint(server_count * block_size, 1500))
        cluster, ledger = make_committed_state(payload, server_count, block_size, seed=scenario)
        for _ in range(rng.randint(0, 3)):
            append(cluster, ledger, rng.randrange(server_count), random_payload(rng, rng.randint(1, 40)))
        committed_epoch = cluster.epoch
        stored = ledger.points[-1].manifest
        for k in range(server_count):
            inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, k))
            report = recover(ledger, cluster)
            assert report.action is RecoveryAction.RESTORED, (scenario, k)
            assert report.epoch == committed_epoch
            live = read_manifest(cluster)
            assert live.records == stored.records, (scenario, k)
            assert verify_equality(stored, live, Mode.CHECKSUM).z
        COMMITTED_LEDGERS.append(ledger)
    print("ACCEPTANCE 4 restore correctness (20 scenarios, every server): PASS")


def test_criterion_5_x_y_identities():
    """Every committed point's X is twice its total (S_i = T_i); Y is never computed."""
    rng = random.Random(0xAC05)
    ledgers = list(COMMITTED_LEDGERS)
    if not ledgers:  # keep the criterion self-contained when run alone
        cluster, ledger = make_committed_state(random_payload(rng, 600), 3, 16)
        append(cluster, ledger, 0, b"delta")
        ledgers = [ledger]
    points_checked = 0
    for ledger in ledgers:
        for point in ledger.points:
            assert point.committed_x == 2 * point.manifest.total_weight
            points_checked += 1
    assert points_checked > 0
    print(f"ACCEPTANCE 5 X identity ({points_checked} committed points): PASS")


def test_criterion_6_accounting_identity():
    """100 sequences of 50 mixed operations: exact totals, linear epochs."""
    rng = random.Random(0xAC06)
    for sequence in range(100):
        server_count = rng.randint(1, 4)
        payload = random_payload(rng, rng.randint(24, 400))
        cluster, ledger = make_committed_state(payload, server_count, 16, seed=sequence)
        initial_total = ledger.points[0].manifest.total_weight
        delta_sum = 0
        successes = 0
        for step in range(50):
            server_index = rng.randrange(server_count)
            blocks = cluster.servers[server_index].blocks
            action = rng.randrange(10)
            try:
                if action == 0:
                    # a sprinkling of invalid requests; they must not commit
                    result = delete(cluster, ledger, server_index, 10_000 + step)
                elif action <= 4 or not blocks:
                    result = append(cluster, ledger, server_index, random_payload(rng, rng.randint(0, 24)))
                elif action <= 7:
                    result = update(
                        cluster, ledger, server_index,
                        rng.choice(list(blocks)), random_payload(rng, rng.randint(0, 24)),
                    )
                else:
                    result = delete(cluster, ledger, server_index, rng.choice(list(blocks)))
            except NoSuchBlock:
                continue
            assert result.s_after == result.s_before + result.delta
            delta_sum += result.delta
            successes += 1
        stored_total = sum(len(b.payload) for s in cluster.servers for b in s.blocks.values())
        assert stored_total == initial_total + delta_sum, sequence
        assert cluster.epoch == successes
        assert len(ledger.points) == successes + 1
        COMMITTED_LEDGERS.append(ledger)
    print("ACCEPTANCE 6 accounting identity (100 sequences x 50 ops): PASS")


def test_criterion_7_tpa_non_interference_and_agreement():
    """Audits never change state and match the client's own comparison."""
    rng = random.Random(0xAC07)
    for case_index in range(50):
        cluster, ledger, payload, server_count, block_size = random_committed_state(rng, max_size=600)
        for _ in range(rng.randint(0, 2)):
            append(cluster, ledger, rng.randrange(server_count), random_payload(rng, rng.randint(1, 30)))
        if case_index % 3 == 0:
            records = ledger.points[-1].manifest.records
            target = rng.choice(records)
            inject_fault(
                cluster,
                FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, target.server_index, target.block_id, seed=case_index),
            )
        mode = rng.choice([Mode.CHECKSUM, Mode.WEIGHT_ONLY])
        latest = len(ledger.points) - 1

        before = state_fingerprint(cluster, ledger)
        full_range = audit(ledger, cluster, AuditGrant(0, latest, mode))
        tpa_latest = audit(ledger, cluster, AuditGrant(latest, latest, mode))[0]
        assert state_fingerprint(cluster, ledger) == before, case_index

        client = verify_equality(ledger.points[latest].manifest, read_manifest(cluster), mode)
        assert tpa_latest == client, case_index
        assert full_range[-1] == client
    print("ACCEPTANCE 7 TPA non-interference and agreement (50 states): PASS")


# SHA-256 of every ledger file the demo writes at seed 42. A change of
# ledger format updates these pins and says so.
DEMO_LEDGER_SHA256 = {
    "0.snapshot": "8cc4ea82a562d1432add48d3a39ce054ce260dccf34b83db8e59c48edb403bd6",
    "1.snapshot": "55124c5df388a9e29b57c612df05a431def52740bcf761817f174ad1a67c78e4",
    "2.snapshot": "d8f1547d99d830187b06816567fe6c10cada987b45477e1f9b84492038adceba",
    "3.snapshot": "1c550f211da15787079027f9b7e2bc97dfc81bb0bad13cc1a408bd56dcba14fa",
    "cluster.state": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  # empty: the last point
    "config": "a07f9fbb9806c1bf1db68156c74d1cb624c2b40b9ea5b2e5164201295c000bb3",
}


@pytest.mark.parametrize("seed", ["42"])
def test_criterion_8_full_demo_determinism(tmp_path, seed):
    """Two runs of the demo script produce byte-identical ledger directories,
    whose files match the pinned digests. The script's ``python3`` is the
    interpreter running the tests, put first on its PATH."""
    script = REPO_ROOT / "demos" / "full_demo.sh"
    env = {**os.environ, "PATH": os.pathsep.join([os.path.dirname(sys.executable), os.environ.get("PATH", "")])}

    def run_demo(workdir: Path) -> dict[str, bytes]:
        result = subprocess.run(
            ["sh", str(script), str(workdir), seed],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        ledger_dir = workdir / "ledger"
        return {
            str(p.relative_to(ledger_dir)): p.read_bytes()
            for p in sorted(ledger_dir.rglob("*"))
            if p.is_file()
        }

    first = run_demo(tmp_path / "run1")
    second = run_demo(tmp_path / "run2")
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"ledger file {name} differs between runs"
    assert set(first) == set(DEMO_LEDGER_SHA256)
    for name, data in first.items():
        assert hashlib.sha256(data).hexdigest() == DEMO_LEDGER_SHA256[name], f"ledger file {name} changed"
    print("ACCEPTANCE 8 demo determinism (byte-identical ledgers, pinned digests): PASS")
