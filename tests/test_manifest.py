"""Block/manifest model: construction, invariants, canonical serialization."""

import itertools
import random

import pytest

from cloudledger import (
    DuplicateBlock,
    Level,
    ManifestFormatError,
    build_manifest,
    fnv1a64,
    make_block,
    parse_manifest,
    serialize_manifest,
)

# 16-byte pair generated once with seed 42 and frozen (equal weights must
# not imply equal checksums).
PAIR_A = bytes.fromhex("390c8c7d7247342cd8100f2f6f770d65")
PAIR_B = bytes.fromhex("d670e58e0351d8ae8e4f6eac342fc231")
PAIR_A_DIGEST = 0xC731D5859B5F26AE
PAIR_B_DIGEST = 0x01D30D8EA37F806B


def test_make_block_empty_payload():
    block = make_block(0, b"")
    assert block.weight == 0
    assert block.checksum == 0xCBF29CE484222325


def test_make_block_weight_is_length():
    payload = bytes(range(256)) * 4
    block = make_block(7, payload)
    assert block.weight == 1024
    assert block.payload == payload
    assert block.checksum == fnv1a64(payload)


def test_same_weight_blocks_distinct_checksums():
    a = make_block(0, PAIR_A)
    b = make_block(1, PAIR_B)
    assert a.weight == b.weight == 16
    assert a.checksum == PAIR_A_DIGEST
    assert b.checksum == PAIR_B_DIGEST
    assert a.checksum != b.checksum


def test_make_block_rejects_negative_ordinals():
    with pytest.raises(ValueError):
        make_block(-1, b"x")


def test_build_manifest_empty():
    manifest = build_manifest(Level.USER, 0, [])
    assert manifest.records == ()
    assert manifest.total_weight == 0
    assert manifest.server_count == 0


def test_build_manifest_fifty_units_across_five_servers():
    # 5 servers x 10 one-byte blocks: 50 records, total weight 50.
    blocks = [[make_block(i, bytes([s * 10 + i])) for i in range(10)] for s in range(5)]
    manifest = build_manifest(Level.CLOUD, 0, blocks)
    assert len(manifest.records) == 50
    assert manifest.total_weight == 50
    assert manifest.server_count == 5
    assert [sum(r.weight for r in manifest.records if r.server_index == s) for s in range(5)] == [10] * 5


def test_serialization_insensitive_to_insertion_order():
    """Brute force: every permutation of a 3-block input serializes identically."""
    blocks = [make_block(0, b"a"), make_block(1, b"bb"), make_block(2, b"ccc")]
    baseline = serialize_manifest(build_manifest(Level.USER, 1, [blocks]))
    for perm in itertools.permutations(blocks):
        assert serialize_manifest(build_manifest(Level.USER, 1, [list(perm)])) == baseline


def test_duplicate_block_rejected():
    blocks = [[make_block(3, b"x"), make_block(3, b"y")]]
    with pytest.raises(DuplicateBlock):
        build_manifest(Level.USER, 0, blocks)


def test_serialized_form_is_exact():
    blocks = [[make_block(0, b"a")], [make_block(0, b"ab")]]
    manifest = build_manifest(Level.USER, 3, blocks)
    assert serialize_manifest(manifest) == (
        "MANIFEST v1 level=USER epoch=3 servers=2 total=3\n"
        "0 0 1 af63dc4c8601ec8c\n"
        "1 0 2 089c4407b545986a\n"
        "END\n"
    )


def test_total_weight_recomputed_from_records():
    rng = random.Random(99)
    for _ in range(25):
        blocks = [
            [make_block(i, bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20))))
             for i in range(rng.randrange(0, 6))]
            for s in range(rng.randrange(1, 5))
        ]
        manifest = build_manifest(Level.CLOUD, 0, blocks)
        assert manifest.total_weight == sum(r.weight for r in manifest.records)


def test_any_differing_record_tuple_changes_serialization():
    base_blocks = [[make_block(0, b"aa"), make_block(1, b"bb")]]
    base = serialize_manifest(build_manifest(Level.CLOUD, 0, base_blocks))
    variants = [
        [[make_block(0, b"aa"), make_block(1, b"bc")]],   # checksum changes
        [[make_block(0, b"aa"), make_block(1, b"bbb")]],  # weight changes
        [[make_block(0, b"aa"), make_block(2, b"bb")]],   # block id changes
        [[make_block(0, b"aa")], [make_block(1, b"bb")]], # server changes
    ]
    for blocks in variants:
        assert serialize_manifest(build_manifest(Level.CLOUD, 0, blocks)) != base


def test_parse_round_trip():
    blocks = [[make_block(i, bytes([i] * (i + 1))) for i in range(4)], []]
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
    ],
)
def test_parse_rejects_malformed_text(mutation):
    blocks = [[make_block(0, b"a"), make_block(1, b"b" * 9)]]
    text = serialize_manifest(build_manifest(Level.USER, 0, blocks))
    assert "total=10" in text
    with pytest.raises(ManifestFormatError):
        parse_manifest(mutation(text))

