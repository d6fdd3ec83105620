"""FNV-1a 64-bit hash over block payloads.

See http://isthe.com/chongo/tech/comp/fnv/ for the algorithm family.
FNV-1a XORs each input byte into the running hash before multiplying by
the prime; all arithmetic wraps at 64 bits. Chosen for the manifest
checksum because it is bit-exact everywhere and has no dependencies; it
is not collision resistant and is not meant to be.

fnv1a64 is the definition. fnv1a64_many hashes many payloads at once,
bit-identical to it: the hash of one payload is sequential, but the
hashes of different payloads are independent, so one Python int carries
them all as lanes (SIMD within a register), and each byte step is one
XOR, one multiply and one AND over every lane, run in C. A lane is 16
bytes wide because a 64-bit state times the 41-bit prime stays below
2**105, so no product carries into the next lane before the AND cuts it
back to 64 bits.
"""

from struct import unpack

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3

_MASK64 = (1 << 64) - 1

# Lanes hashed together: fewer than _LANES_FROM cost more as lanes than
# one by one (about equal at 8 payloads of 300 B), and a group of _GROUP
# bounds the kernel's copy of the payloads to _GROUP times the longest.
_LANES_FROM = 8
_GROUP = 256
_LANE = 16  # bytes per lane: a 64-bit state times the 41-bit prime is below 2**105


def fnv1a64(payload: bytes) -> int:
    """Return the FNV-1a 64-bit digest of ``payload`` (empty input allowed)."""
    h = FNV64_OFFSET_BASIS
    prime = FNV64_PRIME
    mask = _MASK64
    for byte in payload:
        h = ((h ^ byte) * prime) & mask
    return h


def fnv1a64_many(payloads: list[bytes]) -> list[int]:
    """Return ``[fnv1a64(p) for p in payloads]``: each group of _GROUP
    payloads is hashed as the lanes of one int, a group of fewer than
    _LANES_FROM one payload at a time."""
    digests: list[int] = []
    for start in range(0, len(payloads), _GROUP):
        group = payloads[start : start + _GROUP]
        if len(group) < _LANES_FROM:
            digests += map(fnv1a64, group)
        else:
            order = sorted(range(len(group)), key=lambda lane: len(group[lane]), reverse=True)
            found = dict(zip(order, _lanes([group[lane] for lane in order])))
            digests += map(found.get, range(len(group)))
    return digests


def _lanes(rows: list[bytes]) -> list[int]:
    """The digests of ``rows``, sorted longest first, each hashed in its
    own lane of one int. The lanes still running are a prefix, so when
    the shortest of them ends, the lanes that end there are read out and
    the int is cut to the lanes left."""
    width = len(rows[0])
    matrix = b"".join([row.ljust(width, b"\0") for row in rows])
    digests = [0] * len(rows)
    active = len(rows)
    ones = int.from_bytes(b"\1".ljust(_LANE, b"\0") * active, "little")  # 1 in each lane
    h, mask = FNV64_OFFSET_BASIS * ones, _MASK64 * ones
    column = bytearray(_LANE * active)
    step = 0
    while active:
        end = len(rows[active - 1])
        for i in range(step, end):
            column[::_LANE] = matrix[i : active * width : width]
            h = ((h ^ int.from_bytes(column, "little")) * FNV64_PRIME) & mask
        step, running = end, active
        while active and len(rows[active - 1]) == end:
            active -= 1
        ended = (h >> (8 * _LANE * active)).to_bytes(_LANE * (running - active), "little")
        digests[active:running] = unpack(f"<{2 * (running - active)}Q", ended)[::2]
        # The next step's AND with the cut mask cuts h too: a lane ends
        # only where at least one step has run since the last one ended.
        mask >>= 8 * _LANE * (running - active)
        del column[_LANE * active :]
    return digests


def checksum_hex(digest: int) -> str:
    """Render a 64-bit digest as the canonical 16 lowercase hex digits."""
    return format(digest, "016x")
