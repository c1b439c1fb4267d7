"""Seeded generator: known outputs, stream independence, normal moments."""

import math

import pytest

from minorform import DomainError, SplitMix64, stream_seed

# frozen: first words of the reference splitmix64 sequence for seed 0
SEED0_WORDS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_known_words_for_seed_zero():
    gen = SplitMix64(0)
    assert tuple(gen.next_uint64() for _ in range(3)) == SEED0_WORDS


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_uint64() == SplitMix64(0).next_uint64()
    assert SplitMix64(-1).next_uint64() == SplitMix64((1 << 64) - 1).next_uint64()


def test_stream_seed_matches_skipped_outputs():
    gen = SplitMix64(99)
    outputs = [gen.next_uint64() for _ in range(5)]
    assert [stream_seed(99, i) for i in range(5)] == outputs


def test_stream_seed_rejects_negative_index():
    with pytest.raises(DomainError, match="stream index must be a non-negative integer, got -1"):
        stream_seed(0, -1)


def test_unit_draws_live_in_half_open_interval():
    gen = SplitMix64(7)
    draws = [gen.next_unit() for _ in range(1000)]
    assert all(0.0 < u <= 1.0 for u in draws)


def test_normal_draws_are_deterministic():
    a = [SplitMix64(123).next_normal() for _ in range(10)]
    b = [SplitMix64(123).next_normal() for _ in range(10)]
    assert a == b


def test_normal_moments():
    gen = SplitMix64(2024)
    n = 20000
    draws = [gen.next_normal() for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1
    assert all(math.isfinite(d) for d in draws)
