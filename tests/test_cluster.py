"""Cluster partitioning, uploads, fault injection, snapshots."""

import random

import pytest

from cloudledger import (
    FaultKind,
    FaultSpec,
    Level,
    NoSuchTarget,
    PreexistingData,
    ServerDown,
    SnapshotCorrupt,
    build_manifest,
    inject_fault,
    load_snapshot,
    make_block,
    new_cluster,
    partition_upload,
    read_manifest,
    snapshot_cluster,
    upload,
    user_level_manifest,
    update,
)
from cloudledger.ledger import load_cluster, load_ledger, save_cluster
from helpers import make_committed_state


def reassemble_oracle(per_server, server_count):
    """Independent reconstruction: server s holds globals s, s+n, s+2n, ..."""
    total = sum(len(blocks) for blocks in per_server)
    out = b""
    for k in range(total):
        out += per_server[k % server_count][k // server_count].payload
    return out


def stored_blocks(cluster):
    """The cluster's blocks as a block store: digest -> DataBlock."""
    return {block.digest: block for server in cluster.servers for block in server.blocks.values()}


def test_partition_empty_payload():
    per_server = partition_upload(b"", 4, 8)
    assert len(per_server) == 4
    assert all(blocks == [] for blocks in per_server)


def test_partition_fifty_units_over_five_servers():
    # The 50-unit upload lands as 10 unit blocks per server.
    per_server = partition_upload(bytes(range(50)), 5, 1)
    assert [len(blocks) for blocks in per_server] == [10] * 5
    assert reassemble_oracle(per_server, 5) == bytes(range(50))


def test_partition_ragged_tail_placement():
    payload = b"0123456789"
    per_server = partition_upload(payload, 2, 3)
    assert [b.payload for b in per_server[0]] == [b"012", b"678"]
    assert [b.payload for b in per_server[1]] == [b"345", b"9"]
    assert [r.key for r in build_manifest(Level.USER, 0, per_server).records] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_partition_reassembles_exhaustively():
    """Brute force every (payload size <= 8, B <= 3, n <= 3) instance."""
    for size in range(9):
        payload = bytes(range(size))
        for block_size in range(1, 4):
            for server_count in range(1, 4):
                per_server = partition_upload(payload, server_count, block_size)
                assert reassemble_oracle(per_server, server_count) == payload


def test_partition_reassembles_randomized():
    rng = random.Random(7)
    for _ in range(30):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 5000)))
        server_count = rng.randrange(1, 9)
        block_size = rng.choice([1, 7, 64, 4096])
        per_server = partition_upload(payload, server_count, block_size)
        assert reassemble_oracle(per_server, server_count) == payload


def test_partition_validates_arguments():
    with pytest.raises(ValueError):
        partition_upload(b"x", 0, 1)
    with pytest.raises(ValueError):
        partition_upload(b"x", 1, 0)


def test_upload_then_read_matches_user_manifest():
    payload = bytes(range(200))
    cluster = new_cluster(3)
    cloud = upload(cluster, partition_upload(payload, cluster.server_count, 16))
    user = user_level_manifest(payload, 3, 16, 0)
    assert cloud.level is Level.CLOUD and user.level is Level.USER
    assert cloud.records == user.records
    assert cloud.total_weight == user.total_weight == 200
    assert read_manifest(cluster).records == cloud.records


def test_upload_fifty_units_total():
    cluster = new_cluster(5)
    manifest = upload(cluster, partition_upload(bytes(range(50)), cluster.server_count, 1))
    assert manifest.total_weight == 50
    assert len(manifest.records) == 50


def test_upload_onto_crashed_server_leaves_state_unchanged():
    cluster = new_cluster(3)
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 1))
    before = snapshot_cluster(cluster)
    with pytest.raises(ServerDown):
        upload(cluster, partition_upload(b"payload", cluster.server_count, 2))
    assert snapshot_cluster(cluster) == before


def test_upload_onto_nonempty_cluster_rejected():
    cluster = new_cluster(2)
    upload(cluster, partition_upload(b"first", cluster.server_count, 2))
    with pytest.raises(PreexistingData):
        upload(cluster, partition_upload(b"second", cluster.server_count, 2))


def test_read_manifest_fresh_cluster_is_empty():
    manifest = read_manifest(new_cluster(4))
    assert manifest.records == ()
    assert manifest.total_weight == 0


def test_flip_byte_changes_exactly_one_checksum():
    cluster = new_cluster(3)
    before = upload(cluster, partition_upload(bytes(range(90)), cluster.server_count, 10))
    inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 0, 2, seed=5))
    after = read_manifest(cluster)
    changed = [
        (b, a) for b, a in zip(before.records, after.records)
        if (b.weight, b.checksum) != (a.weight, a.checksum)
    ]
    assert len(changed) == 1
    assert changed[0][0].key == (0, 2)
    assert changed[0][0].weight == changed[0][1].weight
    assert after.total_weight == before.total_weight


def test_same_weight_substitute_preserves_total():
    cluster = new_cluster(2)
    before = upload(cluster, partition_upload(bytes(range(64)), cluster.server_count, 16))
    report = inject_fault(cluster, FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, 1, 0, seed=7))
    after = read_manifest(cluster)
    assert after.total_weight == before.total_weight
    assert report.before.weight == report.after.weight == 16
    assert report.before.checksum != report.after.checksum
    diffs = [k for k, a in zip(before.records, after.records) if k.checksum != a.checksum]
    assert len(diffs) == 1


def test_truncate_single_byte_block_to_zero():
    cluster = new_cluster(1)
    upload(cluster, partition_upload(b"z", cluster.server_count, 1))
    report = inject_fault(cluster, FaultSpec(FaultKind.TRUNCATE, 0, 0, seed=1))
    assert report.after.weight == 0
    assert cluster.servers[0].blocks[0].payload == b""


def test_drop_block_removes_only_that_record():
    cluster = new_cluster(2)
    before = upload(cluster, partition_upload(bytes(range(40)), cluster.server_count, 5))
    inject_fault(cluster, FaultSpec(FaultKind.DROP_BLOCK, 0, 1))
    after = read_manifest(cluster)
    assert len(after.records) == len(before.records) - 1
    assert (0, 1) not in {r.key for r in after.records}
    # survivors keep their ids
    assert {r.key for r in after.records} == {r.key for r in before.records} - {(0, 1)}


def test_server_crash_marks_unavailable_and_spares_others():
    cluster = new_cluster(3)
    before = upload(cluster, partition_upload(bytes(range(90)), cluster.server_count, 10))
    inject_fault(cluster, FaultSpec(FaultKind.SERVER_CRASH, 2))
    after = read_manifest(cluster)
    assert after.unavailable_servers == frozenset({2})
    assert {r.key for r in after.records} == {r.key for r in before.records if r.server_index != 2}
    for record in after.records:
        assert {r.key: r for r in before.records}[record.key] == record


def test_fault_determinism():
    """Identical (state, FaultSpec) must produce identical post-states."""
    specs = [
        FaultSpec(FaultKind.FLIP_BYTE, 1, 0, seed=11),
        FaultSpec(FaultKind.TRUNCATE, 0, 1, seed=12),
        FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, 2, 0, seed=13),
        FaultSpec(FaultKind.DROP_BLOCK, 1, 1),
        FaultSpec(FaultKind.SERVER_CRASH, 0),
    ]
    for spec in specs:
        snapshots = []
        for _ in range(2):
            cluster = new_cluster(3, rng_seed=9)
            upload(cluster, partition_upload(bytes(range(120)), cluster.server_count, 20))
            inject_fault(cluster, spec)
            snapshots.append(snapshot_cluster(cluster))
        assert snapshots[0] == snapshots[1], spec


def test_fault_target_validation():
    cluster = new_cluster(2)
    upload(cluster, partition_upload(bytes(range(8)), cluster.server_count, 2))
    with pytest.raises(NoSuchTarget):
        inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 5, 0))
    with pytest.raises(NoSuchTarget):
        inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 0, 99))
    with pytest.raises(NoSuchTarget):
        inject_fault(cluster, FaultSpec(FaultKind.DROP_BLOCK, 0, None))
    with pytest.raises(NoSuchTarget):
        # no committed previous-epoch manifest to serve
        inject_fault(cluster, FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0))


def test_stale_manifest_changes_reads_not_payloads():
    cluster = new_cluster(2)
    upload(cluster, partition_upload(bytes(range(20)), cluster.server_count, 5))
    # a committed update happened: epoch moves on, content changes
    cluster.epoch = 1
    cluster.servers[0].drop(max(cluster.servers[0].blocks))
    live = read_manifest(cluster)
    cluster.previous_records = live.records
    cluster.epoch = 2

    stored_payloads = [dict(s.blocks) for s in cluster.servers]
    inject_fault(cluster, FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0))
    stale = read_manifest(cluster)
    assert stale.epoch == 2  # the lying read path claims to be current
    assert stale.records == live.records
    assert [dict(s.blocks) for s in cluster.servers] == stored_payloads


def test_snapshot_round_trip():
    cluster = new_cluster(3, rng_seed=4)
    upload(cluster, partition_upload(bytes(range(33)), cluster.server_count, 4))
    cluster.epoch = 2
    text = snapshot_cluster(cluster)
    loaded = load_snapshot(text, stored_blocks(cluster), rng_seed=4)
    assert snapshot_cluster(loaded) == text
    assert loaded.epoch == 2
    assert read_manifest(loaded).records == read_manifest(cluster).records


def test_live_status_is_kept_by_cluster_state_not_by_snapshots(tmp_path):
    """A snapshot, what a restore point holds, has no crashed server or
    stale read path, and a loaded one has every server up, no stale read
    path and no fault listed; the ledger's cluster.state alone keeps both,
    as the faults that set them, which a load from disk replays onto the
    last point under any seed."""
    cluster, ledger = make_committed_state(bytes(range(12)), 3, 2, seed=7, directory=tmp_path)
    update(cluster, ledger, 0, 0, cluster.servers[0].blocks[0].payload)  # epoch 1 has an epoch to replay stale
    faults = [FaultSpec(FaultKind.SERVER_CRASH, 1, 4, seed=1), FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0)]
    for fault in faults:
        inject_fault(cluster, fault)
    assert cluster.faults == [FaultSpec(FaultKind.SERVER_CRASH, 1, None, 6), FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0,
                                                                                   None, 7)]
    text = snapshot_cluster(cluster)
    loaded = load_snapshot(text, stored_blocks(cluster), into=cluster)
    assert loaded.faults == [] and read_manifest(loaded).unavailable_servers == frozenset()
    for fault in faults:
        inject_fault(cluster, fault)
    save_cluster(ledger, cluster)
    assert (tmp_path / "cluster.state").read_bytes() == (b"HEAD 1\ncrash server=1 block=- seed=6\n"
                                                         b"stale-manifest server=0 block=- seed=7\n")
    loaded = load_ledger(tmp_path)
    live = load_cluster(loaded, -3)
    crashed = {fault.target_server for fault in live.faults if fault.kind is FaultKind.SERVER_CRASH}
    assert crashed == {1} and FaultKind.CSP_STALE_MANIFEST in {fault.kind for fault in live.faults}
    assert snapshot_cluster(live) == text and live.faults == cluster.faults and live.rng_seed == -3
    for ledger in (ledger, loaded):  # committed in this process, and handed out already
        with pytest.raises(ValueError, match="load_ledger"):
            load_cluster(ledger, -3)


def test_snapshot_detects_payload_corruption():
    cluster = new_cluster(2)
    upload(cluster, partition_upload(b"abcdef", cluster.server_count, 2))
    text = snapshot_cluster(cluster)
    blocks = stored_blocks(cluster)
    substitute = make_block(b"cc")
    blocks[substitute.digest] = substitute
    corrupted = text.replace(make_block(b"cd").digest, substitute.digest)
    assert corrupted != text
    with pytest.raises(SnapshotCorrupt):
        load_snapshot(corrupted, blocks)


def edit_section(text, section, old, new):
    """``text`` with ``old`` replaced by ``new`` in the header line of its ``section``-th server section."""
    lines = text.split("\n")
    at = [i for i, line in enumerate(lines) if line.startswith("MANIFEST ")][section]
    lines[at] = lines[at].replace(old, new, 1)
    return "\n".join(lines)


@pytest.mark.parametrize("servers", [0, -1])
def test_load_snapshot_rejects_a_manifest_of_no_servers(servers):
    for section in (0, 1):  # the first section's header, whose shape the others must share, and a later one's
        text = edit_section(snapshot_cluster(new_cluster(2)), section, " servers=2 ", f" servers={servers} ")
        with pytest.raises(SnapshotCorrupt, match=f"servers={servers};"):
            load_snapshot(text, {})


def test_load_snapshot_rejects_a_user_level_manifest():
    for section in (0, 1):
        text = edit_section(snapshot_cluster(new_cluster(2)), section, " level=CLOUD ", " level=USER ")
        with pytest.raises(SnapshotCorrupt, match="snapshot manifest has level=USER;"):
            load_snapshot(text, {})


def sections(cluster):
    """The cluster's snapshot text cut into its header line and its server sections."""
    text = snapshot_cluster(cluster)
    head, _, body = text.partition("\n")
    parts = body.split("MANIFEST ")[1:]
    return f"{head}\n", [f"MANIFEST {part}" for part in parts]


@pytest.mark.parametrize("into", [False, True])
def test_load_snapshot_rejects_a_section_whose_records_name_another_server(into):
    cluster = new_cluster(3)
    upload(cluster, partition_upload(bytes(range(40)), cluster.server_count, 4))
    head, parts = sections(cluster)
    live = load_snapshot(head + "".join(parts), stored_blocks(cluster)) if into else None
    swapped = head + "".join([parts[1], parts[0], parts[2]])  # servers 0 and 1 in each other's place
    with pytest.raises(SnapshotCorrupt, match="snapshot section 0 holds a record of server 1"):
        load_snapshot(swapped, stored_blocks(cluster), into=live)
    renamed = head + "".join([parts[0], parts[1].replace("\n1 2 4 ", "\n2 2 4 "), parts[2]])  # its last record
    assert renamed != head + "".join(parts)
    with pytest.raises(SnapshotCorrupt, match="snapshot section 1 holds a record of server 2"):
        load_snapshot(renamed, stored_blocks(cluster), into=live)


@pytest.mark.parametrize("edit, message", [
    (("epoch=4", "epoch=5"), "snapshot section 1 has epoch=5 servers=3, section 0 epoch=4 servers=3"),
    (("servers=3", "servers=4"), "snapshot section 1 has epoch=4 servers=4, section 0 epoch=4 servers=3"),
])
@pytest.mark.parametrize("into", [False, True])
def test_load_snapshot_rejects_sections_that_disagree_on_the_epoch_or_the_server_count(edit, message, into):
    cluster = new_cluster(3)
    upload(cluster, partition_upload(bytes(range(40)), cluster.server_count, 4))
    cluster.epoch = 4
    text = snapshot_cluster(cluster)
    live = load_snapshot(text, stored_blocks(cluster)) if into else None
    with pytest.raises(SnapshotCorrupt, match=message):
        load_snapshot(edit_section(text, 1, *edit), stored_blocks(cluster), into=live)


def test_load_snapshot_rejects_a_section_count_other_than_the_server_count():
    head, parts = sections(new_cluster(2))
    for count in (1, 3):
        with pytest.raises(SnapshotCorrupt, match=f"snapshot has {count} server sections for servers=2"):
            load_snapshot(head + parts[0] * count, {})
    with pytest.raises(SnapshotCorrupt, match="snapshot holds no server section"):
        load_snapshot(head, {})


def test_snapshot_detects_missing_payload_line():
    cluster = new_cluster(2)
    upload(cluster, partition_upload(b"abcdef", cluster.server_count, 2))
    lines = snapshot_cluster(cluster).splitlines()
    del lines[-2]  # drop one reference line
    with pytest.raises(SnapshotCorrupt):
        load_snapshot("\n".join(lines) + "\n", stored_blocks(cluster))


def test_empty_payload_blocks_survive_snapshots():
    cluster = new_cluster(1)
    upload(cluster, partition_upload(b"x", cluster.server_count, 1))
    inject_fault(cluster, FaultSpec(FaultKind.TRUNCATE, 0, 0, seed=3))
    text = snapshot_cluster(cluster)
    loaded = load_snapshot(text, stored_blocks(cluster))
    assert loaded.servers[0].blocks[0].payload == b""
    assert snapshot_cluster(loaded) == text


def test_build_manifest_matches_user_level_for_partition():
    payload = bytes(range(100))
    per_server = partition_upload(payload, 4, 9)
    direct = build_manifest(Level.USER, 0, per_server)
    assert direct.records == user_level_manifest(payload, 4, 9, 0).records
