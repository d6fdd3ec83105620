"""Set-based manifest comparison against the address-keyed versions it replaced.

verify_equality returns a clean verdict for equal record tuples with every
server available, else compares manifests as sets of whole records and
pairs by address only the records that differ, and audit drops EXTRA
divergences instead of restricting the live manifest to each epoch's
addresses. The reference functions below are the earlier
implementations, kept as the oracle: on seeded random inputs both must
give equal results.
"""

import random

import pytest

from cloudledger import (
    AuditGrant,
    BlockRecord,
    Divergence,
    DivergenceKind,
    EmptyGrant,
    FaultKind,
    FaultSpec,
    Level,
    Manifest,
    Mode,
    Verdict,
    append,
    audit,
    delete,
    inject_fault,
    read_manifest,
    update,
    verify_equality,
)
from cloudledger.audit import granted_epochs
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
        raise EmptyGrant("no granted epochs")
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

    Small weight and checksum ranges make chance equalities common.
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

    def unavailable():
        return frozenset(s for s in range(servers) if rng.random() < 0.2)

    epoch = rng.randrange(3)
    return (
        Manifest(Level.USER, epoch, tuple(user_records), servers, unavailable()),
        Manifest(Level.CLOUD, epoch, tuple(cloud_records), servers, unavailable()),
    )


@pytest.mark.parametrize("mode", list(Mode))
def test_verdicts_equal_the_address_keyed_reference(mode):
    rng = random.Random(0x5E7 + len(mode.value))
    kinds_seen = set()
    unchanged_on_unavailable = 0
    for _ in range(4000):
        user, cloud = random_manifest_pair(rng)
        verdict = verify_equality(user, cloud, mode)
        assert verdict == reference_verify_equality(user, cloud, mode), (user, cloud)
        kinds_seen.update(d.kind for d in verdict.divergences)
        unavailable = user.unavailable_servers | cloud.unavailable_servers
        unchanged_on_unavailable += any(r.server_index in unavailable for r in set(user.records) & set(cloud.records))
    expected_kinds = set(DivergenceKind)
    if mode is Mode.WEIGHT_ONLY:
        expected_kinds.discard(DivergenceKind.CHECKSUM_MISMATCH)
    assert kinds_seen == expected_kinds
    assert unchanged_on_unavailable > 0


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


def random_history(rng: random.Random):
    """A committed upload followed by a seeded script of verified operations.

    The script includes deleting a server's highest block id and then
    appending to that server, which hands out an id an earlier epoch held.
    """
    servers = rng.randint(1, 3)
    payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
    cluster, ledger = make_committed_state(payload, servers, rng.choice((3, 8)), seed=rng.randrange(1 << 16))
    for _ in range(rng.randint(1, 6)):
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
    return cluster, ledger


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


def test_audits_equal_the_address_restricted_reference():
    rng = random.Random(0xA0D1)
    faults = [None, *FaultKind]
    grants = extra_dropped = 0
    for round_ in range(20 * len(faults)):
        cluster, ledger = random_history(rng)
        fault = faults[round_ % len(faults)]
        if fault is not None and not inject_random_fault(rng, cluster, fault):
            continue
        live_keys = {r.key for r in read_manifest(cluster).records}
        points = len(ledger.points)
        for first in range(-1, points + 1):
            for last in range(first - 1, points + 1):
                for mode in Mode:
                    grant = AuditGrant(first, last, mode)
                    try:
                        expected = reference_audit(ledger, cluster, grant)
                    except EmptyGrant:
                        with pytest.raises(EmptyGrant):
                            audit(ledger, cluster, grant)
                        continue
                    assert audit(ledger, cluster, grant) == expected, (fault, grant)
                    grants += 1
                    extra_dropped += any(
                        live_keys - {r.key for r in ledger.points[e].manifest.records}
                        for e in granted_epochs(ledger, grant)
                    )
    assert grants > 1000
    assert extra_dropped > 0
