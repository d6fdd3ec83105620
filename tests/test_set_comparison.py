"""Set-based manifest comparison against the address-keyed versions it replaced.

verify_equality returns a clean verdict for equal record tuples with every
server available, else compares the two manifests server by server and
hashes only the servers whose records differ, pairing by address only the
records that differ; audit walks the granted epochs from newest to
oldest, keeping the records each epoch committed that the live records
lack, and classifies them against the live records at their addresses
instead of restricting the live manifest to each epoch's addresses.
Audits run on seeded histories whose operations may cross a fault and its
restore, on the ledger as committed and as load_ledger loads it back from
its directory. The reference functions below are the earlier
implementations, kept as the oracle: on seeded random inputs both must
give equal results. Run as a script, it checks a larger seeded set:

    PYTHONPATH=src python -X dev -W error tests/test_set_comparison.py
"""

import random
import sys
import tempfile
from pathlib import Path

import pytest

from cloudledger import (
    AuditGrant,
    Ledger,
    RestorePoint,
    BlockRecord,
    Divergence,
    DivergenceKind,
    FaultKind,
    FaultSpec,
    Level,
    Manifest,
    Mode,
    NoSuchTarget,
    RecoveryAction,
    Verdict,
    append,
    audit,
    delete,
    inject_fault,
    load_ledger,
    read_manifest,
    recover,
    update,
    verify_equality,
)
from cloudledger.audit import granted_epochs
from cloudledger.protocol import _differing
from helpers import make_committed_state


def reference_verify_equality(user: Manifest, cloud: Manifest, mode: Mode) -> Verdict:
    """Pair every address either side holds, in sorted order."""
    unavailable = user.unavailable_servers | cloud.unavailable_servers
    user_map = {r.key: r for r in user.records}
    cloud_map = {r.key: r for r in cloud.records}
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
    return Verdict(z=not divergences, mode=mode, divergences=tuple(divergences), epoch=user.epoch)


def reference_audit(ledger, cluster, grant: AuditGrant) -> list[Verdict]:
    """Compare each granted epoch with the live manifest restricted to that epoch's addresses."""
    epochs = granted_epochs(ledger, grant)
    if not epochs:
        raise NoSuchTarget("no granted epochs")
    live = read_manifest(cluster)
    verdicts = []
    for epoch in epochs:
        stored = ledger.points[epoch].manifest
        stored_keys = {r.key for r in stored.records}
        restricted = live._replace(epoch=epoch, records=tuple(r for r in live.records if r.key in stored_keys))
        verdicts.append(reference_verify_equality(stored, restricted, grant.mode))
    return verdicts


def random_manifest_pair(rng: random.Random) -> tuple[Manifest, Manifest]:
    """Two same-epoch manifests with unique addresses and every kind of difference.

    Small weight and checksum ranges make chance equalities common. The
    cloud side may shift one server's block ids from some record on, and
    may count one server more or less than the user side.
    """
    servers = rng.randint(1, 4)
    every_address = [(s, b) for s in range(servers) for b in range(6)]
    addresses = sorted(rng.sample(every_address, rng.randint(0, len(every_address))))
    user_records, cloud_records = [], []
    for server, block in addresses:
        record = BlockRecord(server, block, rng.randrange(3), rng.randrange(3))
        change = rng.randrange(7)
        if change != 1:
            user_records.append(record)
        if change == 2:
            record = record._replace(weight=record.weight + 1)
        elif change == 3:
            record = record._replace(checksum=record.checksum + 1)
        elif change == 4:
            record = record._replace(weight=rng.randrange(3), checksum=rng.randrange(3))
        if change != 0:
            cloud_records.append(record)
    if rng.random() < 0.25:
        server, cut, shift = rng.randrange(servers), rng.randrange(6), rng.randint(1, 3)
        cloud_records = [r._replace(block_id=r.block_id + shift) if r.server_index == server and r.block_id >= cut
                         else r for r in cloud_records]
    cloud_servers = max(1, servers + rng.choice((-1, 0, 0, 1)))
    cloud_records = [r for r in cloud_records if r.server_index < cloud_servers]
    cloud_records += [BlockRecord(servers, b, rng.randrange(3), rng.randrange(3))
                      for b in range(rng.randrange(3))] if cloud_servers > servers else []

    def unavailable(count):
        return frozenset(s for s in range(count) if rng.random() < 0.2)

    epoch = rng.randrange(3)
    return (
        Manifest(Level.USER, epoch, tuple(user_records), servers, unavailable(servers)),
        Manifest(Level.CLOUD, epoch, tuple(cloud_records), cloud_servers, unavailable(cloud_servers)),
    )


def check_verdicts(mode: Mode, pairs: int) -> None:
    rng = random.Random(0x5E7 + len(mode.value))
    kinds_seen = set()
    unchanged_on_unavailable = 0
    for _ in range(pairs):
        user, cloud = random_manifest_pair(rng)
        verdict = verify_equality(user, cloud, mode)
        assert verdict == reference_verify_equality(user, cloud, mode), (user, cloud)
        assert _differing(user.records, cloud.records) == (
            set(user.records) - set(cloud.records), set(cloud.records) - set(user.records))
        kinds_seen.update(d.kind for d in verdict.divergences)
        unavailable = user.unavailable_servers | cloud.unavailable_servers
        unchanged_on_unavailable += any(r.server_index in unavailable for r in set(user.records) & set(cloud.records))
    expected_kinds = set(DivergenceKind)
    if mode is Mode.WEIGHT_ONLY:
        expected_kinds.discard(DivergenceKind.CHECKSUM_MISMATCH)
    assert kinds_seen == expected_kinds
    assert unchanged_on_unavailable > 0


@pytest.mark.parametrize("mode", list(Mode))
def test_verdicts_equal_the_address_keyed_reference(mode):
    check_verdicts(mode, 3000)


def copy_record(record: BlockRecord, cls=BlockRecord) -> BlockRecord:
    """An equal-valued record that shares no int above 256 with ``record``."""
    return cls(*(int(str(field)) for field in record))


def clean_path_cases(rng: random.Random):
    """Manifest pairs around the clean path, by name: the same record tuple,
    equal-valued copies, one record changed, added or removed, and equal
    records with a server unavailable on either side. Block ids lie above
    256, where CPython caches no int, so a copy compares by value."""
    servers = rng.randint(1, 4)
    records = tuple(
        BlockRecord(server, block, rng.randrange(3), rng.randrange(3))
        for server in range(servers)
        for block in sorted(rng.sample(range(257, 600), rng.randint(0, 4)))
    )
    copies = tuple(map(copy_record, records))
    assert all(a.block_id is not b.block_id for a, b in zip(records, copies))
    cases = {"same": records, "copies": copies}
    if records:
        at = rng.randrange(len(records))
        changed = records[at]._replace(**{rng.choice(("weight", "checksum")): 3})
        cases["changed"] = records[:at] + (changed,) + records[at + 1 :]
        cases["removed"] = records[:at] + records[at + 1 :]
    server = rng.randrange(servers)
    added = BlockRecord(server, 600, rng.randrange(3), rng.randrange(3))
    cases["added"] = tuple(sorted(records + (added,)))
    epoch = rng.randrange(3)
    user = Manifest(Level.USER, epoch, records, servers)
    for name, cloud_records in cases.items():
        yield name, user, Manifest(Level.CLOUD, epoch, cloud_records, servers)
    down = frozenset({server})
    yield "unavailable-user", user._replace(unavailable_servers=down), user._replace(level=Level.CLOUD)
    yield "unavailable-cloud", user, user._replace(level=Level.CLOUD, records=copies, unavailable_servers=down)


@pytest.mark.parametrize("mode", list(Mode))
def test_clean_path_verdicts_equal_the_address_keyed_reference(mode):
    rng = random.Random(0xC1EA + len(mode.value))
    seen = set()
    for _ in range(500):
        for name, user, cloud in clean_path_cases(rng):
            verdict = verify_equality(user, cloud, mode)
            assert verdict == reference_verify_equality(user, cloud, mode), (name, user, cloud)
            if name in ("same", "copies"):
                assert verdict.z, name
            elif name.startswith("unavailable"):
                down = user.unavailable_servers | cloud.unavailable_servers
                on_down = [r for r in user.records if r.server_index in down]
                assert [d.kind for d in verdict.divergences] == [DivergenceKind.SERVER_UNAVAILABLE] * len(on_down)
            elif name != "changed" or mode is Mode.CHECKSUM:
                assert not verdict.z, name
            seen.add((name, verdict.z))
    assert {("same", True), ("copies", True), ("changed", False), ("added", False), ("removed", False),
            ("unavailable-user", False), ("unavailable-cloud", False)} <= seen


class UnhashableRecord(BlockRecord):
    """A record that fails the test if the comparison hashes it."""

    __slots__ = ()

    def __hash__(self):
        raise AssertionError("verify_equality hashed a record")


@pytest.mark.parametrize("mode", list(Mode))
def test_a_clean_check_hashes_no_record(mode):
    records = tuple(UnhashableRecord(s, b, b % 7, b * 31) for s in range(3) for b in range(250, 270))
    copies = tuple(copy_record(r, UnhashableRecord) for r in records)
    user = Manifest(Level.USER, 2, records, 3)
    for cloud_records in (records, copies):
        verdict = verify_equality(user, Manifest(Level.CLOUD, 2, cloud_records, 3), mode)
        assert verdict == Verdict(z=True, mode=mode, divergences=(), epoch=2)
    with pytest.raises(AssertionError, match="hashed"):
        verify_equality(user, Manifest(Level.CLOUD, 2, copies[1:], 3), mode)


def random_history(rng: random.Random, max_ops: int, directory: Path):
    """A committed upload followed by a seeded script of 1 to ``max_ops``
    verified operations, on a ledger bound to ``directory``, and the
    number of restores in it.

    The script includes deleting a server's highest block id and then
    appending to that server, which hands out an id an earlier epoch held.
    Before an operation it may inject a fault of a random kind and recover,
    which restores the last point, so the audit walk steps across restores.
    """
    servers = rng.randint(1, 3)
    payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
    cluster, ledger = make_committed_state(payload, servers, rng.choice((3, 8)), seed=rng.randrange(1 << 16),
                                           directory=directory)
    restores = 0
    for _ in range(rng.randint(1, max_ops)):
        kinds = [kind for kind in FaultKind if kind is not FaultKind.CSP_STALE_MANIFEST or ledger.next_epoch > 1]
        if rng.random() < 0.25 and inject_random_fault(rng, cluster, rng.choice(kinds)):
            assert recover(ledger, cluster).action is RecoveryAction.RESTORED
            restores += 1
        server = rng.randrange(servers)
        blocks = cluster.servers[server].blocks
        new_bytes = bytes(rng.randrange(256) for _ in range(rng.randint(0, 9)))
        op = rng.choice(("append", "update", "delete", "reuse-id")) if blocks else "append"
        if op == "append":
            append(cluster, ledger, server, new_bytes)
        elif op == "update":
            update(cluster, ledger, server, rng.choice(list(blocks)), new_bytes)
        elif op == "delete":
            delete(cluster, ledger, server, rng.choice(list(blocks)))
        else:
            highest = max(blocks)
            delete(cluster, ledger, server, highest)
            assert append(cluster, ledger, server, new_bytes).block_id <= highest
    return cluster, ledger, restores


def inject_random_fault(rng: random.Random, cluster, kind: FaultKind) -> bool:
    """Inject one fault of ``kind`` at a random valid target; False if none exists."""
    if kind in (FaultKind.SERVER_CRASH, FaultKind.CSP_STALE_MANIFEST):
        inject_fault(cluster, FaultSpec(kind, rng.randrange(cluster.server_count)))
        return True
    min_weight = 0 if kind is FaultKind.DROP_BLOCK else 1
    targets = [
        (server.server_index, block_id)
        for server in cluster.servers
        for block_id, record in server.records.items()
        if record.weight >= min_weight
    ]
    if not targets:
        return False
    server, block = rng.choice(targets)
    inject_fault(cluster, FaultSpec(kind, server, block, seed=rng.randrange(1 << 16)))
    return True


def grant_ranges(rng: random.Random, points: int, every: bool):
    """(first, last) grant bounds: every pair from -1 to ``points``, or the
    full range, each single epoch and a seeded sample of ranges."""
    if every:
        return [(first, last) for first in range(-1, points + 1) for last in range(first - 1, points + 1)]
    bounds = range(-1, points + 1)
    return [(0, points - 1), *((e, e) for e in range(points)),
            *(sorted(rng.sample(bounds, 2)) for _ in range(12)), (points, points + 1)]


def check_audits(rng: random.Random, rounds: int, max_ops: int, every_grant: bool) -> None:
    """Audit seeded histories, as committed and as load_ledger loads them
    back from their directory, against reference_audit."""
    faults = [None, *FaultKind]
    grants = extra_dropped = restores = 0
    with tempfile.TemporaryDirectory() as scratch:
        for round_ in range(rounds * len(faults)):
            cluster, ledger, restored = random_history(rng, max_ops, Path(scratch) / str(round_))
            restores += restored
            fault = faults[round_ % len(faults)]
            if fault is not None and not inject_random_fault(rng, cluster, fault):
                continue
            loaded = load_ledger(ledger.directory)
            live_keys = {r.key for r in read_manifest(cluster).records}
            for first, last in grant_ranges(rng, len(ledger.points), every_grant):
                for mode in Mode:
                    grant = AuditGrant(first, last, mode)
                    try:
                        expected = reference_audit(ledger, cluster, grant)
                    except NoSuchTarget:
                        for audited in (ledger, loaded):
                            with pytest.raises(NoSuchTarget):
                                audit(audited, cluster, grant)
                        continue
                    assert audit(ledger, cluster, grant) == expected, (fault, grant)
                    assert audit(loaded, cluster, grant) == expected, (fault, grant, "loaded")
                    grants += 1
                    extra_dropped += any(
                        live_keys - {r.key for r in ledger.points[e].manifest.records}
                        for e in granted_epochs(ledger, grant)
                    )
    assert grants > 100 * rounds
    assert extra_dropped > 0
    assert restores > 0


def test_audits_equal_the_address_restricted_reference():
    check_audits(random.Random(0xA0D1), rounds=20, max_ops=6, every_grant=True)


def test_deep_audits_equal_the_address_restricted_reference():
    """Up to 40 operations, so the walk crosses ids handed out again and
    records changed back and forth."""
    check_audits(random.Random(0xDEE9), rounds=3, max_ops=40, every_grant=False)


class CountingRecord(BlockRecord):
    """A record that counts how often a comparison hashes it."""

    __slots__ = ()
    hashed = 0

    def __hash__(self):
        CountingRecord.hashed += 1
        return super().__hash__()


def counted(records, memo):
    """``records`` as CountingRecords, one per original record object, so
    records shared between manifests stay shared."""
    for record in records:
        if id(record) not in memo:
            memo[id(record)] = CountingRecord(*record)
    return tuple(memo[id(record)] for record in records)


def hashes(call):
    CountingRecord.hashed = 0
    result = call()
    return CountingRecord.hashed, result


@pytest.mark.parametrize("mode", list(Mode))
def test_a_check_hashes_only_the_servers_that_differ(mode):
    per_server = 30
    records = tuple(CountingRecord(s, b, b % 7, b * 31) for s in range(8) for b in range(per_server))
    user = Manifest(Level.USER, 2, records, 8)
    at = 3 * per_server + 5
    changed = records[:at] + (records[at]._replace(weight=99),) + records[at + 1 :]
    count, verdict = hashes(lambda: verify_equality(user, Manifest(Level.CLOUD, 2, changed, 8), mode))
    assert [d.kind for d in verdict.divergences] == [DivergenceKind.WEIGHT_MISMATCH]
    assert count == 2 * per_server  # server 3's slice on each side; the set path hashed 2 x 8 x per_server
    crashed = tuple(r for r in records if r.server_index != 5)
    cloud = Manifest(Level.CLOUD, 2, crashed, 8, frozenset({5}))
    count, verdict = hashes(lambda: verify_equality(user, cloud, mode))
    assert [d.kind for d in verdict.divergences] == [DivergenceKind.SERVER_UNAVAILABLE] * per_server
    assert count == per_server  # the crashed server's committed slice; unavailable slices are not hashed


@pytest.mark.parametrize("per_server", [32, 128])
def test_an_audit_hashes_one_server_then_two_records_per_epoch(per_server):
    """The start compares the live records with the newest point, which a
    flipped byte tells apart on one server (and none before the flip, when
    the two are equal); each step then looks up the one address the newer
    point's operation line names, so an audit of E epochs hashes at most
    one server's records once and two records per step, however many
    records each server holds."""
    servers, epochs = 8, 24
    cluster, ledger = make_committed_state(bytes(range(256)) * (per_server // 8), servers, 4)
    for k in range(epochs):
        update(cluster, ledger, k % servers, k % per_server, bytes([k]) * (1 + k % 5))
    memo = {}
    counted_ledger = Ledger()
    for point in ledger.points:
        manifest = point.manifest._replace(records=counted(point.manifest.records, memo))
        counted_ledger.points.append(RestorePoint(manifest, point.record))
    grant = AuditGrant(0, epochs, Mode.CHECKSUM)

    def counted_audit():
        for server in cluster.servers:
            server.records = dict(zip(server.records, counted(server.records.values(), memo)))
            server._record_tuple = None  # as put and drop do: the server's next read joins the counted records
        assert all(type(record) is CountingRecord for record in read_manifest(cluster).records)
        expected = reference_audit(ledger, cluster, grant)
        count, verdicts = hashes(lambda: audit(counted_ledger, cluster, grant))
        assert verdicts == expected
        return count, verdicts

    count, verdicts = counted_audit()
    assert verdicts[-1].z and count == 2 * epochs  # the live records are the newest point's: the set starts empty
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 2, 7, seed=3))
    count, verdicts = counted_audit()
    assert sum(not v.z for v in verdicts) == epochs + 1
    # Server 2's slice on each side at the start, then the record leaving the set and the one entering it
    # per step; diffing each step's two points hashed one server's slices again, 2 x per_server per epoch.
    assert count == 2 * per_server + 2 * epochs


def test_an_audit_classifies_only_what_the_epoch_committed(monkeypatch):
    """Records appended after the audited epoch, at addresses it never
    held, reach no classification: auditing epoch 0 after 16 appends and
    one flipped byte classifies the flipped epoch-0 record and the live
    record at its address, nothing else."""
    cluster, ledger = make_committed_state(bytes(range(256)), 4, 16)
    for k in range(16):
        append(cluster, ledger, k % 4, bytes([k]) * (1 + k % 3))
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 1, 2, seed=3))
    module = sys.modules["cloudledger.audit"]  # cloudledger.audit names the function
    classify, classified = module._classify, []

    def counting(expected, actual, *rest):
        expected, actual = list(expected), list(actual)
        classified.extend(expected + actual)
        return classify(expected, actual, *rest)

    monkeypatch.setattr(module, "_classify", counting)
    (verdict,) = audit(ledger, cluster, AuditGrant(0, 0, Mode.CHECKSUM))
    assert [(d.kind, d.server_index, d.block_id) for d in verdict.divergences] == [
        (DivergenceKind.CHECKSUM_MISMATCH, 1, 2)]
    assert len(classified) == 2


def main():
    for mode in Mode:
        check_verdicts(mode, 40000)
    check_audits(random.Random(0xA0D2), rounds=100, max_ops=6, every_grant=True)
    check_audits(random.Random(0xDEEA), rounds=40, max_ops=40, every_grant=False)
    print("verdicts and audits equal the address-keyed references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
