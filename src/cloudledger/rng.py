"""Seeded xorshift64* stream.

One deterministic generator backs demo payload synthesis and fault
encodings, so identical seeds reproduce identical bytes on every platform
and Python version. State update is the classic 12/25/27 shift triple;
the output is the state multiplied by the Vigna constant, both mod 2**64.
"""

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D

# xorshift state must be nonzero; seed 0 maps to this fixed odd constant.
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15


class XorShift64Star:
    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64 or _ZERO_SEED_STATE

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & _MASK64

    def randrange(self, upper: int) -> int:
        """Return an integer in [0, upper). upper must be positive."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        return self.next_u64() % upper

    def bytes(self, count: int) -> bytes:
        """Return ``count`` deterministic bytes (big-endian per 64-bit word)."""
        out = bytearray()
        while len(out) < count:
            out += self.next_u64().to_bytes(8, "big")
        return bytes(out[:count])


def generate_payload(seed: int, size: int) -> bytes:
    """Deterministic demo payload of ``size`` bytes from ``seed``."""
    if size < 0:
        raise ValueError(f"payload size must be >= 0, got {size}")
    return XorShift64Star(seed).bytes(size)
