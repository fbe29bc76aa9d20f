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
_TWO_53 = 9007199254740992.0

# Outputs are mixed this many at a time.  The state offsets k * gamma mod
# 2**64 of a block's outputs depend on k alone, so one read-only ramp of
# them serves every block.
RAMP_LENGTH = 16384
_RAMP = np.arange(1, RAMP_LENGTH + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_RAMP.flags.writeable = False


def _mix(state: int) -> int:
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _block_out(count: int, out: np.ndarray | None, dtype) -> np.ndarray:
    if count < 0:
        raise ValueError("count must be non-negative")
    if out is None:
        return np.empty(count, dtype=dtype)
    if out.dtype != dtype or out.shape != (count,):
        raise ValueError(f"out must be a {np.dtype(dtype)} array of shape ({count},)")
    return out


class SplitMix64:
    """Stateful splitmix64 generator seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Next value in [0, 1): top 53 bits of the output over 2**53."""
        return (self.next_u64() >> 11) / _TWO_53

    def u64_block(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next ``count`` raw outputs as uint64, advancing the state;
        written into ``out`` (a uint64 array of shape ``(count,)``) if given."""
        z = _block_out(count, out, np.uint64)
        # State k steps ahead is seed + k*gamma mod 2**64, so every output
        # mixes independently; uint64 arithmetic wraps exactly like the
        # scalar path.  Each chunk is mixed in place with one spare array
        # for the shifts.
        shifted = np.empty(min(count, RAMP_LENGTH), dtype=np.uint64)
        for start in range(0, count, RAMP_LENGTH):
            chunk = z[start : start + RAMP_LENGTH]
            spare = shifted[: chunk.size]
            np.add(_RAMP[: chunk.size], np.uint64(self._state), out=chunk)
            chunk ^= np.right_shift(chunk, np.uint64(30), out=spare)
            chunk *= np.uint64(_MIX1)
            chunk ^= np.right_shift(chunk, np.uint64(27), out=spare)
            chunk *= np.uint64(_MIX2)
            chunk ^= np.right_shift(chunk, np.uint64(31), out=spare)
            self._state = (self._state + chunk.size * _GAMMA) & _MASK64
        return z

    def float_block(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next ``count`` floats in [0, 1) as float64; written into
        ``out`` (a float64 array of shape ``(count,)``) if given."""
        values = _block_out(count, out, np.float64)
        bits = self.u64_block(count, out=values.view(np.uint64))
        bits >>= np.uint64(11)
        # u < 2**53, so its int64 view converts to float64 exactly.
        np.divide(bits.view(np.int64), _TWO_53, out=values)
        return values
