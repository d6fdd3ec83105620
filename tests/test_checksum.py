"""Golden-value and property tests for the FNV-1a 64 digest.

The DERIVED constants below were computed with an independent reference
implementation of the FNV-1a definition before the package was built and
are frozen here; the same reference is kept in this file for a dual-route
comparison on random inputs, and for fnv1a64_many, which hashes many
payloads as the lanes of one int, on seeded sets of payloads. Run as a
script, it compares fnv1a64_many with the reference on a larger seeded
set of lane counts and lengths:

    PYTHONPATH=src python -X dev -W error tests/test_checksum.py
"""

import random
import sys
import tracemalloc

import pytest

from cloudledger import checksum_hex, fnv1a64, fnv1a64_many
from cloudledger.checksum import _GROUP, _LANES_FROM

# Frozen oracle outputs.
V_EMPTY = 0xCBF29CE484222325
V_A = 0xAF63DC4C8601EC8C
V_AB = 0x089C4407B545986A
V_ABC = 0xE71FA2190541574B
V_HELLO = 0xA430D84680AABD0B


def fnv1a64_reference(data: bytes) -> int:
    # The definition, written differently from the implementation under test.
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


def test_empty_input_leaves_offset_basis():
    assert fnv1a64(b"") == V_EMPTY


def test_golden_single_byte():
    assert fnv1a64(b"a") == V_A


def test_golden_two_bytes_differ_from_one():
    assert fnv1a64(b"ab") == V_AB
    assert V_AB != V_A


def test_more_golden_values():
    assert fnv1a64(b"abc") == V_ABC
    assert fnv1a64(b"hello") == V_HELLO


def test_matches_reference_on_random_inputs():
    rng = random.Random(1234)
    for _ in range(50):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        assert fnv1a64(payload) == fnv1a64_reference(payload)


def test_pure_function():
    payload = b"same bytes, same digest"
    assert fnv1a64(payload) == fnv1a64(payload)


def test_checksum_hex_is_16_lowercase_digits():
    assert checksum_hex(V_A) == "af63dc4c8601ec8c"
    assert checksum_hex(0) == "0" * 16
    assert checksum_hex(V_EMPTY) == "cbf29ce484222325"


def assert_lanes_match_reference(payloads):
    assert fnv1a64_many(payloads) == [fnv1a64_reference(payload) for payload in payloads]


def seeded_payloads(seed, count, lengths):
    rng = random.Random(seed)
    return [rng.randbytes(rng.choice(lengths)) for _ in range(count)]


@pytest.mark.parametrize("payloads", [[], [b""], [b"one payload"], [b""] * _LANES_FROM, [b""] * _GROUP],
                         ids=["no-payload", "one-empty", "one", "empty-at-crossover", "empty-group"])
def test_many_matches_the_definition_on_edge_sets(payloads):
    assert_lanes_match_reference(payloads)


@pytest.mark.parametrize("count", [_LANES_FROM - 1, _LANES_FROM, _LANES_FROM + 1,
                                   _GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + _LANES_FROM - 1])
def test_many_matches_the_definition_around_the_crossover_and_the_group_size(count):
    assert_lanes_match_reference(seeded_payloads(count, count, range(0, 40)))


def test_many_matches_the_definition_when_lanes_end_at_the_same_step():
    rng = random.Random(7)
    payloads = [rng.randbytes(length) for length in (0, 5, 5, 5, 9, 9, 17, 17, 17, 17, 0, 5) * 3]
    rng.shuffle(payloads)
    assert_lanes_match_reference(payloads)


def test_many_matches_the_definition_on_all_ff_payloads():
    # Every byte 0xFF gives the largest XOR and so the largest products.
    assert_lanes_match_reference([b"\xff" * length for length in range(0, 300, 7)])


def test_many_matches_the_definition_for_lengths_0_to_1000():
    payloads = [random.Random(length).randbytes(length) for length in range(1001)]
    random.Random(1001).shuffle(payloads)
    assert_lanes_match_reference(payloads)


def test_many_matches_the_definition_on_4096_lanes_of_64_bytes():
    assert_lanes_match_reference(seeded_payloads(4096, 4096, [64]))


@pytest.mark.parametrize("count", [256, 1024], ids=["1MiB", "4MiB"])
def test_the_lanes_copy_one_group_of_payloads_at_a_time(count):
    """The kernel's memory, the traced peak less the digests it returns,
    stays under 1 MiB + 64 KiB for 4 KiB payloads, whatever their count:
    a group of _GROUP = 256 lanes copies its 256 x 4 KiB = 1 MiB of
    payloads into one matrix, and its lane ints take 4 KiB each."""
    payloads = seeded_payloads(count, count, [4096])
    tracemalloc.start()
    try:
        digests = fnv1a64_many(payloads)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(digests) == count
    assert peak - returned < (1 << 20) + (64 << 10)


def main():
    rng = random.Random(42)
    sets = 0
    for longest in (1, 2, 16, 64, 300, 1000, 4096):
        for count in (*range(2 * _LANES_FROM), _GROUP - 1, _GROUP, _GROUP + 1, 2 * _GROUP + 3, rng.randrange(600)):
            lengths = [rng.randrange(longest + 1) for _ in range(count)]
            assert_lanes_match_reference([b"\xff" * length if rng.random() < 0.1 else rng.randbytes(length)
                                          for length in lengths])
            sets += 1
    print(f"fnv1a64_many matches the definition on {sets} seeded sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
