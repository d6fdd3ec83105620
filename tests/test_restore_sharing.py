"""Recover writes only the addresses a fault changed.

rewrite_cluster_from_point loads the last snapshot into the live cluster:
load_snapshot leaves alone each server section that is byte for byte the
one the live server renders, puts a block only where a server's block
differs, and replaces a server only when its block ids differ from its
section's. So the restored cluster keeps the record objects the committed
points hold. These tests check that the result equals a fresh load of the
same snapshot, that unchanged records stay shared (and memory stays flat
over many recovers), and that a snapshot failing a check changes nothing.
The seeded property check_restores also pins which sections a restore
parses, whether a recover, the rollback of a failed operation or a
recover of a cluster one epoch behind: exactly those of the servers
whose rendering at the last point's epoch differs from the point's. Run
as a script, it checks a larger seeded set:

    PYTHONPATH=src python -X dev -W error tests/test_restore_sharing.py
"""

import random
import sys

import pytest

from cloudledger import (
    FaultKind,
    FaultSpec,
    NoSuchTarget,
    RecoveryAction,
    SnapshotCorrupt,
    append,
    delete,
    generate_payload,
    inject_fault,
    load_snapshot,
    make_block,
    new_cluster,
    recover,
    snapshot_cluster,
    update,
)
from cloudledger import cluster as cluster_module
from helpers import make_committed_state


def state(cluster):
    """Everything a load sets, dict order included: the fault list is the live status."""
    return (cluster.epoch, cluster.faults, [
        (s.server_index, list(s.blocks.items()), list(s.records.items())) for s in cluster.servers
    ])


def objects(cluster):
    """The identity of every server, block and record object the cluster holds."""
    return [(id(s), list(map(id, s.blocks.values())), list(map(id, s.records.values()))) for s in cluster.servers]


def fresh_load(ledger):
    return load_snapshot(ledger.last_snapshot, ledger.blocks)


def random_fault(rng, cluster):
    kind = rng.choice(list(FaultKind))
    server = rng.randrange(cluster.server_count)
    held = list(cluster.servers[server].blocks)
    block = rng.choice(held) if held else 0
    return FaultSpec(kind, server, block, seed=rng.randrange(1 << 16))


class Boom(Exception):
    pass


@pytest.mark.parametrize("seed", range(6))
def test_a_recovered_cluster_equals_a_fresh_load_of_its_snapshot(seed):
    rng = random.Random(seed)
    cluster, ledger = make_committed_state(generate_payload(seed, 700), 3, 16, seed=seed)
    kinds = set()
    for step in range(40):
        op = rng.randrange(3)
        server = rng.randrange(3)
        held = list(cluster.servers[server].blocks)
        if op == 0 or len(held) < 2:
            append(cluster, ledger, server, rng.randbytes(rng.randrange(1, 20)))
        elif op == 1:
            update(cluster, ledger, server, rng.choice(held), rng.randbytes(rng.randrange(1, 20)))
        else:
            delete(cluster, ledger, server, rng.choice(held))
        for _ in range(rng.randrange(1, 4)):
            fault = random_fault(rng, cluster)
            try:
                inject_fault(cluster, fault)
            except NoSuchTarget:
                continue
            kinds.add(fault.kind)
        recover(ledger, cluster)
        assert state(cluster) == state(fresh_load(ledger))

        if step % 5 == 4:
            def hook(c, fault=random_fault(rng, cluster)):
                try:
                    inject_fault(c, fault)
                finally:
                    raise Boom()

            with pytest.raises(Boom):
                append(cluster, ledger, rng.randrange(3), b"rolled back", post_mutation_hook=hook)
            assert state(cluster) == state(fresh_load(ledger))
    assert kinds == set(FaultKind)


def test_loading_any_point_into_a_cluster_at_any_other_equals_a_fresh_load():
    """Appends, deletes and updates between two points, and a crashed
    server and a stale read path, which no snapshot holds: every server
    path of the load, and every flag it sets."""
    rng = random.Random(7)
    cluster, ledger = make_committed_state(generate_payload(7, 300), 3, 16)
    texts = [ledger.last_snapshot]
    for _ in range(8):
        server = rng.randrange(3)
        held = list(cluster.servers[server].blocks)
        if len(held) > 1 and rng.random() < 0.4:
            delete(cluster, ledger, server, rng.choice(held))
        elif rng.random() < 0.5:
            update(cluster, ledger, server, rng.choice(held), rng.randbytes(rng.randrange(1, 20)))
        else:
            append(cluster, ledger, server, rng.randbytes(rng.randrange(1, 20)))
        texts.append(ledger.last_snapshot)
    for fault in (FaultSpec(FaultKind.SERVER_CRASH, 1), FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0)):
        inject_fault(cluster, fault)
        texts.append(snapshot_cluster(cluster))  # the crash erases server 1; the stale path adds no text
    for start in texts:
        for target in texts:
            live = load_snapshot(start, ledger.blocks)
            assert load_snapshot(target, ledger.blocks, into=live) is live
            assert state(live) == state(load_snapshot(target, ledger.blocks))


def test_recover_after_a_flip_keeps_every_untouched_record_object():
    cluster, ledger = make_committed_state(generate_payload(3, 4096), 4, 16)
    committed = {record.key: record for record in ledger.last().manifest.records}
    report = inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 2, 17, seed=9))
    assert recover(ledger, cluster).action is RecoveryAction.RESTORED
    for server in cluster.servers:
        for block_id, record in server.records.items():
            if (server.server_index, block_id) == (2, 17):
                assert record == report.before
            else:
                assert record is committed[record.key]


def test_recovers_add_no_records_beyond_the_ones_they_restore():
    """At 4,096 blocks, 20 flip/recover/update cycles hold n + O(cycles)
    distinct records across the ledger and the live servers, not n per recover."""
    cluster, ledger = make_committed_state(generate_payload(5, 4096 * 16), 4, 16)
    n = len(ledger.last().manifest.records)
    assert n == 4096
    rng = random.Random(5)
    cycles = 20
    for cycle in range(cycles):
        server = rng.randrange(4)
        inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, server, rng.randrange(1024), seed=cycle))
        assert recover(ledger, cluster).action is RecoveryAction.RESTORED
        update(cluster, ledger, server, rng.randrange(1024), b"cycle %d" % cycle)
    held = {id(r) for point in ledger.points for r in point.manifest.records}
    held.update(id(r) for server in cluster.servers for r in server.records.values())
    assert len(held) <= n + 2 * cycles


def missing_block(text, ledger):
    return text.replace(next(iter(ledger.blocks)), "0" * 64, 1), f"references block {'0' * 64}, which the store lacks"


def failing_block(text, ledger):
    stray = make_block(b"not any block of the cluster")
    ledger.blocks[stray.digest] = stray
    return text.replace(next(iter(ledger.blocks)), stray.digest, 1), "fails its manifest record"


@pytest.mark.parametrize("corrupt", [missing_block, failing_block], ids=["missing-block", "failing-block"])
def test_a_snapshot_that_fails_a_check_leaves_the_live_cluster_as_it_was(corrupt):
    cluster, ledger = make_committed_state(generate_payload(11, 200), 3, 8)
    append(cluster, ledger, 1, b"appended")
    inject_fault(cluster, FaultSpec(FaultKind.DROP_BLOCK, 0, 2))
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 1, 0, seed=4))
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 2))
    before, identities = state(cluster), objects(cluster)
    text, message = corrupt(ledger.last_snapshot, ledger)
    with pytest.raises(SnapshotCorrupt, match=message):
        load_snapshot(text, ledger.blocks, into=cluster)
    assert state(cluster) == before and objects(cluster) == identities

    ledger.last_snapshot = text
    with pytest.raises(SnapshotCorrupt, match=message):
        recover(ledger, cluster)
    assert state(cluster) == before and objects(cluster) == identities


def test_loading_into_a_cluster_of_another_server_count_gives_it_the_snapshots_servers():
    cluster, ledger = make_committed_state(generate_payload(2, 90), 3, 10)
    other = new_cluster(2)
    assert load_snapshot(ledger.last_snapshot, ledger.blocks, into=other) is other
    assert other.server_count == 3
    assert state(other) == state(fresh_load(ledger))
    other = new_cluster(4)
    assert recover(ledger, other).action is RecoveryAction.RESTORED
    assert state(other) == state(fresh_load(ledger))


def test_a_block_id_put_back_last_is_restored_to_its_place():
    """Equal blocks in another order are not equal storage: the manifest
    order is block-id order, so recover rebuilds that server."""
    cluster, ledger = make_committed_state(generate_payload(4, 64), 2, 8)
    server = cluster.servers[1]
    block = server.blocks[0]
    server.drop(0)
    server.put(0, block)
    assert list(server.blocks)[-1] == 0
    assert recover(ledger, cluster).action is RecoveryAction.RESTORED
    assert list(cluster.servers[1].blocks) == sorted(cluster.servers[1].blocks)
    assert state(cluster) == state(fresh_load(ledger))


def sections(text):
    """A snapshot text's server sections, in server order."""
    return [f"MANIFEST {part}" for part in text.partition("\n")[2].split("MANIFEST ")[1:]]


def operate(rng, cluster, ledger, hook=None):
    """One random operation, committed unless ``hook`` raises after its
    write: an append, or an update or a delete of a held block."""
    server = rng.randrange(cluster.server_count)
    held = list(cluster.servers[server].blocks)
    choice = rng.randrange(3)
    if choice == 0 or not held:
        append(cluster, ledger, server, rng.randbytes(rng.randrange(0, 12)), post_mutation_hook=hook)
    elif choice == 1:
        update(cluster, ledger, server, rng.choice(held), rng.randbytes(rng.randrange(0, 12)), post_mutation_hook=hook)
    else:
        delete(cluster, ledger, server, rng.choice(held), post_mutation_hook=hook)


def changed_sections(cluster, text, epoch):
    """The indices of the sections of the snapshot ``text`` of a point at
    ``epoch`` that differ from the cluster's own rendering at that epoch,
    whichever epoch the cluster is at."""
    live = snapshot_cluster(cluster).replace(f" epoch={cluster.epoch} servers=", f" epoch={epoch} servers=")
    return [index for index, (mine, committed) in enumerate(zip(sections(live), sections(text))) if mine != committed]


def fault_mix(rng, cluster):
    """Zero to three faults, each a random kind on a random server, or one
    of the edge cases: a crash of an empty server or of the fullest one,
    and a drop of a server's last block id."""
    faults = []
    for _ in range(rng.randrange(4)):
        servers = cluster.servers
        pick = rng.randrange(6)
        if pick == 0 and any(not server.blocks for server in servers):
            faults.append(FaultSpec(FaultKind.SERVER_CRASH, rng.choice([s for s in servers if not s.blocks]).server_index))
        elif pick == 1:
            faults.append(FaultSpec(FaultKind.SERVER_CRASH, max(servers, key=lambda s: len(s.blocks)).server_index))
        elif pick == 2 and any(server.blocks for server in servers):
            server = rng.choice([s for s in servers if s.blocks])
            faults.append(FaultSpec(FaultKind.DROP_BLOCK, server.server_index, max(server.blocks)))
        else:
            faults.append(random_fault(rng, cluster))
    return faults


def check_restores(seed, steps):
    """A seeded history of operations, each followed by a fault mix and a
    recover; every third step the cluster is first set one epoch behind,
    as load_cluster leaves it under a HEAD line one behind, and every few
    steps an operation then fails after its write, in a hook that injects
    a random fault and raises, and is rolled back. Each restore must equal
    a fresh load of the same text, parse exactly the sections of the
    servers whose rendering at the last point's epoch differs from the
    point's, and keep every server object and record object of the others.
    Every few steps the last text is also loaded into a cluster of another
    server count, and into one loaded from an earlier point, at another
    epoch: both parse every section and equal the fresh load."""
    rng = random.Random(seed)
    servers, block_size = rng.randrange(1, 6), rng.randrange(2, 12)
    payload = generate_payload(seed, rng.randrange(1, servers * block_size * 4))
    cluster, ledger = make_committed_state(payload, servers, block_size, seed=seed)
    texts, parsed, parse = [ledger.last_snapshot], [], cluster_module.parse_manifest

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    def manifests(text, indices):
        """The manifest text of each section of ``text`` listed by index, as a load passes it to parse_manifest."""
        return [section[: section.index("\nEND\n") + len("\nEND\n")]
                for index, section in enumerate(sections(text)) if index in indices]

    cluster_module.parse_manifest = counting_parse
    kinds = set()
    try:
        for step in range(steps):
            operate(rng, cluster, ledger)
            texts.append(ledger.last_snapshot)
            if step % 3 == 1:
                cluster.epoch -= 1
            for fault in fault_mix(rng, cluster):
                try:
                    inject_fault(cluster, fault)
                except NoSuchTarget:
                    continue
                kinds.add(fault.kind)
            text = ledger.last_snapshot
            changed = changed_sections(cluster, text, ledger.last().epoch)
            before = objects(cluster)
            del parsed[:]
            action = recover(ledger, cluster).action
            assert parsed == manifests(text, changed if action is RecoveryAction.RESTORED else []), (seed, step)
            assert state(cluster) == state(fresh_load(ledger)), (seed, step)
            for index, (kept, now) in enumerate(zip(before, objects(cluster))):
                assert index in changed or kept == now, (seed, step, index)

            if step % 4 == 2:
                seen = {}

                def hook(c):
                    fault = random_fault(rng, c)
                    try:
                        inject_fault(c, fault)
                        kinds.add(fault.kind)
                    except NoSuchTarget:
                        pass
                    seen.update(changed=changed_sections(c, text, ledger.last().epoch), before=objects(c))
                    raise Boom()

                del parsed[:]
                with pytest.raises(Boom):
                    operate(rng, cluster, ledger, hook)
                assert parsed == manifests(text, seen["changed"]), (seed, step)
                assert state(cluster) == state(fresh_load(ledger)), (seed, step)
                for index, (kept, now) in enumerate(zip(seen["before"], objects(cluster))):
                    assert index in seen["changed"] or kept == now, (seed, step, index)

            if step % 4 == 3:
                other = new_cluster(rng.choice([n for n in range(1, 7) if n != servers]))
                earlier = load_snapshot(rng.choice(texts[:-1]), ledger.blocks)
                for into in (other, earlier):
                    del parsed[:]
                    assert load_snapshot(text, ledger.blocks, into=into) is into
                    assert parsed == manifests(text, range(servers)), (seed, step)
                    assert state(into) == state(fresh_load(ledger)), (seed, step)
    finally:
        cluster_module.parse_manifest = parse
    return kinds


def test_a_restore_equals_a_fresh_load_and_parses_only_the_changed_sections():
    kinds = set()
    for seed in range(8):
        kinds |= check_restores(seed, steps=40)
    assert kinds == set(FaultKind)


def main():
    kinds = set()
    for seed in range(1000, 1200):
        kinds |= check_restores(seed, steps=60)
    assert kinds == set(FaultKind), kinds
    print("restores, rollbacks and recovers an epoch behind equal fresh loads and parse only the changed sections")
    return 0


if __name__ == "__main__":
    sys.exit(main())
