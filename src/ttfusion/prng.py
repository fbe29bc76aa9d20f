"""Deterministic splitmix64 stream, reproducible bit-for-bit across platforms.

The generator is fully specified: state advances by the 64-bit golden-ratio
increment, each output is the mixed state, and floats are the top 53 bits of
an output divided by 2**53.  Vectorised batches draw from the same stream as
repeated scalar calls (the k-th output depends only on ``seed + k * gamma``).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(state: int) -> int:
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Stateful splitmix64 generator seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Next value in [0, 1): top 53 bits of the output over 2**53."""
        return (self.next_u64() >> 11) / 9007199254740992.0

    def u64_block(self, count: int) -> np.ndarray:
        """The next ``count`` raw outputs as uint64, advancing the state."""
        if count < 0:
            raise ValueError("count must be non-negative")
        # State k steps ahead is seed + k*gamma mod 2**64, so the whole block
        # mixes independently; uint64 arithmetic wraps exactly like the
        # scalar path.  The mix runs in place with one spare array for the
        # shifts, so a block allocates two arrays, not one per operation.
        z = np.arange(1, count + 1, dtype=np.uint64)
        shifted = np.empty_like(z)
        with np.errstate(over="ignore"):
            z *= np.uint64(_GAMMA)
            z += np.uint64(self._state)
            z ^= np.right_shift(z, np.uint64(30), out=shifted)
            z *= np.uint64(_MIX1)
            z ^= np.right_shift(z, np.uint64(27), out=shifted)
            z *= np.uint64(_MIX2)
            z ^= np.right_shift(z, np.uint64(31), out=shifted)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z

    def float_block(self, count: int) -> np.ndarray:
        """The next ``count`` floats in [0, 1) as a float64 array."""
        block = self.u64_block(count)
        block >>= np.uint64(11)
        floats = block.astype(np.float64)
        floats /= 9007199254740992.0
        return floats
