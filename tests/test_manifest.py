"""Block/manifest model: construction, invariants, canonical serialization."""

import random

import pytest

from cloudledger import (
    BlockRecord,
    Level,
    Manifest,
    SnapshotCorrupt,
    build_manifest,
    fnv1a64,
    make_block,
    parse_manifest,
    serialize_manifest,
)
from cloudledger.checksum import checksum_hex

# 16-byte pair generated once with seed 42 and frozen (equal weights must
# not imply equal checksums).
PAIR_A = bytes.fromhex("390c8c7d7247342cd8100f2f6f770d65")
PAIR_B = bytes.fromhex("d670e58e0351d8ae8e4f6eac342fc231")
PAIR_A_DIGEST = 0xC731D5859B5F26AE
PAIR_B_DIGEST = 0x01D30D8EA37F806B


def test_make_block_empty_payload():
    block = make_block(b"")
    assert block.payload == b""
    assert block.checksum == 0xCBF29CE484222325


def test_make_block_weight_is_length():
    payload = bytes(range(256)) * 4
    block = make_block(payload)
    assert build_manifest(Level.USER, 0, [[block]]).records[0].weight == 1024
    assert block.payload == payload
    assert block.checksum == fnv1a64(payload)


def test_same_weight_blocks_distinct_checksums():
    a = make_block(PAIR_A)
    b = make_block(PAIR_B)
    assert len(a.payload) == len(b.payload) == 16
    assert a.checksum == PAIR_A_DIGEST
    assert b.checksum == PAIR_B_DIGEST
    assert a.checksum != b.checksum


def test_build_manifest_empty():
    manifest = build_manifest(Level.USER, 0, [])
    assert manifest.records == ()
    assert manifest.total_weight == 0
    assert manifest.server_count == 0
    assert parse_manifest(serialize_manifest(manifest)) == manifest


def test_build_manifest_fifty_units_across_five_servers():
    # 5 servers x 10 one-byte blocks: 50 records, total weight 50.
    blocks = [[make_block(bytes([s * 10 + i])) for i in range(10)] for s in range(5)]
    manifest = build_manifest(Level.CLOUD, 0, blocks)
    assert len(manifest.records) == 50
    assert manifest.total_weight == 50
    assert manifest.server_count == 5
    assert [sum(r.weight for r in manifest.records if r.server_index == s) for s in range(5)] == [10] * 5


def test_serialized_form_is_exact():
    blocks = [[make_block(b"a")], [make_block(b"ab")]]
    manifest = build_manifest(Level.USER, 3, blocks)
    assert serialize_manifest(manifest) == (
        "MANIFEST v1 level=USER epoch=3 servers=2 total=3\n"
        "0 0 1 af63dc4c8601ec8c\n"
        "1 0 2 089c4407b545986a\n"
        "END\n"
    )


def reference_serialize_manifest(manifest: Manifest) -> str:
    """The per-line rendering serialize_manifest replaced, kept as the oracle."""
    lines = [
        f"MANIFEST v1 level={manifest.level.value} epoch={manifest.epoch}"
        f" servers={manifest.server_count} total={manifest.total_weight}"
    ]
    for r in manifest.records:
        lines.append(f"{r.server_index} {r.block_id} {r.weight} {checksum_hex(r.checksum)}")
    lines.append("END")
    return "\n".join(lines) + "\n"


EDGE_RECORDS = (
    BlockRecord(0, 0, 0, 0),
    BlockRecord(0, 257, 1, 2**64 - 1),
    BlockRecord(3, 1000, 4096, 1),
    BlockRecord(300, 70000, 10**6, 0xABC),
)


@pytest.mark.parametrize("records", [(), EDGE_RECORDS], ids=["no-records", "edge-values"])
@pytest.mark.parametrize("level", list(Level))
def test_serialization_equals_the_per_line_rendering(records, level):
    manifest = Manifest(level, 7, records, 301)
    text = serialize_manifest(manifest)
    assert text == reference_serialize_manifest(manifest)
    assert parse_manifest(text) == manifest


def test_total_weight_recomputed_from_records():
    rng = random.Random(99)
    for _ in range(25):
        blocks = [
            [make_block(bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20))))
             for i in range(rng.randrange(0, 6))]
            for s in range(rng.randrange(1, 5))
        ]
        manifest = build_manifest(Level.CLOUD, 0, blocks)
        assert manifest.total_weight == sum(r.weight for r in manifest.records)


def test_any_differing_record_tuple_changes_serialization():
    base = build_manifest(Level.CLOUD, 0, [[make_block(b"aa"), make_block(b"bb")]])
    first, second = base.records
    variants = [
        build_manifest(Level.CLOUD, 0, [[make_block(b"aa"), make_block(b"bc")]]),   # checksum changes
        build_manifest(Level.CLOUD, 0, [[make_block(b"aa"), make_block(b"bbb")]]),  # weight changes
        base._replace(records=(first, second._replace(block_id=2))),                # block id changes
        build_manifest(Level.CLOUD, 0, [[make_block(b"aa")], [make_block(b"bb")]]), # server changes
    ]
    for manifest in variants:
        assert serialize_manifest(manifest) != serialize_manifest(base)


def test_parse_round_trip():
    blocks = [[make_block(bytes([i] * (i + 1))) for i in range(4)], []]
    manifest = build_manifest(Level.CLOUD, 7, blocks)
    text = serialize_manifest(manifest)
    parsed = parse_manifest(text)
    assert parsed.records == manifest.records
    assert parsed.level is Level.CLOUD
    assert parsed.epoch == 7
    assert parsed.server_count == 2
    assert serialize_manifest(parsed) == text


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("MANIFEST v1", "MANIFEST v2"),
        lambda t: t.replace("total=10", "total=11"),
        lambda t: t.replace("END\n", ""),
        lambda t: t.replace("af63dc4c8601ec8c", "AF63DC4C8601EC8C"),
        lambda t: "\n".join(reversed(t.splitlines()[:-1])) + "\nEND\n",
        lambda t: t.replace("\n0 1 ", "\n1 1 "),  # server index outside servers=1
        lambda t: t.replace("epoch=0", "epoch=-1"),
        lambda t: t.replace("\n0 0 ", "\n0 -1 "),  # negative block id, still in order
        lambda t: t.replace("total=10", "total=10 junk=1"),  # unknown header field
        lambda t: t.replace("epoch=0", "epoch=5 epoch=0"),  # repeated field, the last one would win
        lambda t: t.replace("servers=1 total=10", "total=10 servers=1"),  # reordered fields
        lambda t: t.replace("epoch=0", "epoch=00"),  # non-canonical numbers
        lambda t: t.replace("servers=1", "servers=+1"),
        lambda t: t.replace("total=10", "total=1_0"),
        lambda t: t.replace("\n0 1 ", "\n0 01 "),  # non-canonical record fields, each of which int() reads as 1
        lambda t: t.replace("\n0 1 ", "\n0 0_1 "),
        lambda t: t.replace("\n0 1 ", "\n0 \u0661 "),  # Arabic-Indic 1
    ],
)
def test_parse_rejects_malformed_text(mutation):
    blocks = [[make_block(b"a"), make_block(b"b" * 9)]]
    text = serialize_manifest(build_manifest(Level.USER, 0, blocks))
    assert "total=10" in text
    with pytest.raises(SnapshotCorrupt):
        parse_manifest(mutation(text))

