"""Small explicit PRNG used for reproducible experiments.

The generator is xorshift64* (Vigna 2016) with the standard shift triple
(12, 25, 27) and output multiplier 0x2545F4914F6CDD1D.  Per-stream states
are derived from a user seed with the splitmix64 finalizer, so stream i of
a given seed is the same in any language that implements these two
well-documented recipes.  All arithmetic is modulo 2**64.
"""

from __future__ import annotations

import numpy as np

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_XORSHIFT_MULT = np.uint64(0x2545F4914F6CDD1D)
_U64 = np.uint64
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Return outputs offset..offset+count-1 of the splitmix64 stream."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _U64(int(seed) % (1 << 64)) + idx * _SPLITMIX_GAMMA
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        z = z ^ (z >> _U64(31))
    return z


class XorShift64Star:
    """Vectorized xorshift64* over an array of independent streams."""

    def __init__(self, seed: int, streams: int = 1, stream_offset: int = 0):
        state = splitmix64(seed, streams, offset=stream_offset)
        # xorshift64* requires nonzero state; splitmix64 maps at most one
        # input to zero, remap it to the gamma constant.
        state[state == 0] = _SPLITMIX_GAMMA
        self._state = state

    def next_u64(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            x = self._state
            x = x ^ (x >> _U64(12))
            x = x ^ (x << _U64(25))
            x = x ^ (x >> _U64(27))
            self._state = x
            return x * _XORSHIFT_MULT

    def next_float(self) -> np.ndarray:
        """Uniform doubles in [0, 1) with 53 random bits."""
        return (self.next_u64() >> _U64(11)).astype(np.float64) * _INV_2_53


def uniform_stream(seed: int, count: int, low: float,
                   high: float) -> np.ndarray:
    """Uniform variates on [low, high).

    Element i is a pure function of (seed, i): the splitmix64 output
    folded to a 53-bit double.  Used for seeded generator rules, so that
    alpha_i does not depend on how many alphas are drawn.
    """
    u = (splitmix64(seed, count) >> _U64(11)).astype(np.float64)
    return low + (high - low) * u * _INV_2_53
