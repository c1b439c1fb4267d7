"""Deterministic pseudo-random numbers for the validation harness.

A splitmix64 generator supplies 64-bit words; standard normals come from
the cosine branch of the Box-Muller transform, two fresh words per draw.
Everything here is a pure function of the seed so harness runs are
reproducible byte for byte.
"""

from __future__ import annotations

from math import cos, log, pi, sqrt

from .errors import _check_integer

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def _scramble(state: int) -> int:
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SplitMix64:
    """splitmix64: state advances by the golden gamma, output is scrambled."""

    def __init__(self, seed: int):
        _check_integer(seed, "seed")
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        return _scramble(self._state)

    def next_unit(self) -> float:
        # 53-bit mantissa mapped to (0, 1]; never zero, so log() is safe
        return ((self.next_uint64() >> 11) + 1) * 2.0**-53

    def next_normal(self) -> float:
        return self.normals(1)[0]

    def normals(self, count: int) -> list[float]:
        """The next count standard normals, two words each.

        u1 is mapped as `next_unit` maps it, to (0, 1], so it is at least
        2^-53 and every value is finite; u2 is mapped to [0, 1).
        """
        _check_integer(count, "normal count", 0)
        state, out = self._state, []
        push = out.append
        for _ in range(count):
            state = (state + _GOLDEN_GAMMA) & _MASK64
            u1 = ((_scramble(state) >> 11) + 1) * 2.0**-53
            state = (state + _GOLDEN_GAMMA) & _MASK64
            u2 = (_scramble(state) >> 11) * 2.0**-53
            push(sqrt(-2.0 * log(u1)) * cos(2.0 * pi * u2))
        self._state = state
        return out


def stream_seed(seed: int, index: int) -> int:
    """Seed for the index-th derived stream.

    Equals the (index+1)-th raw output of SplitMix64(seed), computed without
    advancing any shared state, so streams can be handed out in any order.
    """
    _check_integer(seed, "seed")
    _check_integer(index, "stream index", 0)
    return _scramble((seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64)
