"""Third-party audit: coverage, limited authority, non-interference, privacy."""

import pytest

from cloudledger import (
    AuditGrant,
    BlockRecord,
    FaultKind,
    FaultSpec,
    Mode,
    NoSuchTarget,
    append,
    audit,
    inject_fault,
    read_manifest,
    verify_equality,
)
from helpers import make_committed_state, state_fingerprint


def test_audit_after_commit_all_true():
    cluster, ledger = make_committed_state(bytes(range(40)), 2, 5)
    verdicts = audit(ledger, cluster, AuditGrant(0, 0, Mode.CHECKSUM))
    assert [v.z for v in verdicts] == [True]
    assert verdicts[0].epoch == 0


def test_audit_localizes_corruption_to_later_epoch():
    """A flip on a block appended at epoch 1 fails that epoch's audit only."""
    cluster, ledger = make_committed_state(bytes(range(40)), 2, 5)
    result = append(cluster, ledger, 0, b"appended block")
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 0, result.block_id, seed=1))
    verdicts = audit(ledger, cluster, AuditGrant(0, 1, Mode.CHECKSUM))
    assert [v.z for v in verdicts] == [True, False]
    assert [v.epoch for v in verdicts] == [0, 1]


def test_grant_excluding_corrupted_epoch_sees_nothing():
    cluster, ledger = make_committed_state(bytes(range(40)), 2, 5)
    result = append(cluster, ledger, 0, b"appended block")
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 0, result.block_id, seed=1))
    verdicts = audit(ledger, cluster, AuditGrant(0, 0, Mode.CHECKSUM))
    assert [v.z for v in verdicts] == [True]


def test_blocks_appended_later_are_not_extra():
    cluster, ledger = make_committed_state(bytes(range(20)), 2, 5)
    append(cluster, ledger, 1, b"later data")
    verdicts = audit(ledger, cluster, AuditGrant(0, 1, Mode.CHECKSUM))
    assert [v.z for v in verdicts] == [True, True]


def test_empty_grant_rejected():
    cluster, ledger = make_committed_state(bytes(range(20)), 2, 5)
    with pytest.raises(NoSuchTarget):
        audit(ledger, cluster, AuditGrant(5, 9, Mode.CHECKSUM))


def test_audit_does_not_touch_state():
    cluster, ledger = make_committed_state(bytes(range(60)), 3, 5)
    append(cluster, ledger, 0, b"tail")
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 1, 0, seed=2))
    before = state_fingerprint(cluster, ledger)
    audit(ledger, cluster, AuditGrant(0, 1, Mode.CHECKSUM))
    audit(ledger, cluster, AuditGrant(0, 1, Mode.WEIGHT_ONLY))
    assert state_fingerprint(cluster, ledger) == before


def test_audit_agrees_with_client_comparison():
    cluster, ledger = make_committed_state(bytes(range(60)), 3, 5)
    inject_fault(cluster, FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, 0, 0, seed=3))
    for mode in Mode:
        tpa = audit(ledger, cluster, AuditGrant(0, 0, mode))[0]
        client = verify_equality(ledger.points[0].manifest, read_manifest(cluster), mode)
        assert tpa == client


def test_audit_respects_mode_blind_spot():
    cluster, ledger = make_committed_state(bytes(range(60)), 3, 5)
    inject_fault(cluster, FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, 0, 0, seed=3))
    assert audit(ledger, cluster, AuditGrant(0, 0, Mode.WEIGHT_ONLY))[0].z
    assert not audit(ledger, cluster, AuditGrant(0, 0, Mode.CHECKSUM))[0].z


def _walk(value):
    """The value and everything inside it; verdicts, divergences and records are NamedTuples."""
    yield value
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _walk(item)


def test_audit_output_is_metadata_only():
    """No payload bytes anywhere in the returned verdict graph."""
    cluster, ledger = make_committed_state(bytes(range(60)), 3, 5)
    inject_fault(cluster, FaultSpec(FaultKind.TRUNCATE, 1, 0, seed=4))
    verdicts = audit(ledger, cluster, AuditGrant(0, 0, Mode.CHECKSUM))
    nodes = list(_walk(verdicts))
    assert any(isinstance(node, BlockRecord) for node in nodes)  # the walk reaches the records
    for node in nodes:
        assert not isinstance(node, (bytes, bytearray, memoryview))
