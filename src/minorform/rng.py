"""Deterministic pseudo-random numbers for the validation harness.

A splitmix64 generator supplies 64-bit words; standard normals come from
the cosine branch of the Box-Muller transform, two fresh words per draw.
Everything here is a pure function of the seed so harness runs are
reproducible byte for byte.

`normals` scrambles its words in blocks of up to 64, each word in its own
128-bit lane of one Python int: word i of a block sits in bits 128*i to
128*i + 127. A lane's state, state + (i + 1) * gamma, stays below 2^71,
and the scramble's first mask reduces it mod 2^64. The scramble then
masks every shift and product to the lanes' low 64 bits, so a shift never
brings a neighbour's bits in, and a 64-bit word times a 64-bit constant
stays below 2^128, so a product never carries into the next lane. Each
lane therefore ends as exactly the word the scalar scramble gives.
"""

from __future__ import annotations

from math import cos, log, pi, sqrt
from struct import Struct

from .errors import _check_integer

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

# lane i of a block: 1 in _ONES, (i + 1) * gamma in _RAMP, 2^64 - 1 in _LOWS
_LANES = 64
_ONES = sum(1 << (128 * i) for i in range(_LANES))
_RAMP = sum((i + 1) << (128 * i) for i in range(_LANES)) * _GOLDEN_GAMMA
_LOWS = _ONES * _MASK64
# each lane's low 64 bits, read little-endian; its upper 64 are skipped
_LANE_WORDS = Struct("<" + "Q8x" * _LANES)


def _scramble(state: int, low: int = _MASK64) -> int:
    """The splitmix64 output of each 64-bit lane of state that low selects."""
    z = state & low
    z = ((z ^ ((z >> 30) & low)) * _MIX_1) & low
    z = ((z ^ ((z >> 27) & low)) * _MIX_2) & low
    return z ^ ((z >> 31) & low)


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

        The 2*count words are scrambled a block at a time, one word per
        128-bit lane (see the module docstring). A block's lanes start at
        state + gamma, state + 2*gamma, ..., the last block holds only the
        words that are left, and the state ends 2*count gammas on.
        """
        _check_integer(count, "normal count", 0)
        words, state, out = 2 * count, self._state, []
        for first in range(0, words, _LANES):
            left = min(words - first, _LANES)
            cut = (1 << (left << 7)) - 1
            lanes = _scramble(state * (_ONES & cut) + (_RAMP & cut), _LOWS & cut) >> 11
            w = _LANE_WORDS.unpack(lanes.to_bytes(_LANE_WORDS.size, "little"))
            out += [
                sqrt(-2.0 * log((u1 + 1) * 2.0**-53)) * cos(2.0 * pi * (u2 * 2.0**-53))
                for u1, u2 in zip(w[:left:2], w[1:left:2])
            ]
            state = (state + _LANES * _GOLDEN_GAMMA) & _MASK64
        self._state = (self._state + words * _GOLDEN_GAMMA) & _MASK64
        return out


def stream_seed(seed: int, index: int) -> int:
    """Seed for the index-th derived stream.

    Equals the (index+1)-th raw output of SplitMix64(seed), computed without
    advancing any shared state, so streams can be handed out in any order.
    """
    _check_integer(seed, "seed")
    _check_integer(index, "stream index", 0)
    return _scramble((seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64)
