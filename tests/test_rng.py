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


# frozen: the first normals of seed 0, as one next_normal() call at a time drew them
SEED0_NORMALS = (-0.452757740217458, 2.650605812079669, -0.9886041246243269, 0.252462724150614)


@pytest.mark.parametrize("seed", [0, 123, -5, 2**64 - 1, 2**70 + 3])
def test_normals_are_successive_next_normal_draws(seed):
    for count in (0, 1, 2, 7, 50):
        one, many = SplitMix64(seed), SplitMix64(seed)
        singles = [one.next_normal() for _ in range(count)]
        assert list(map(repr, many.normals(count))) == list(map(repr, singles))
        # and both generators stand at the same state afterwards
        assert [many.next_uint64() for _ in range(3)] == [one.next_uint64() for _ in range(3)]


def test_normals_of_seed_zero_are_frozen():
    assert tuple(SplitMix64(0).normals(4)) == SEED0_NORMALS
    gen = SplitMix64(0)
    assert tuple(gen.next_normal() for _ in range(4)) == SEED0_NORMALS


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1", -1], ids=repr)
def test_normals_refuses_a_count_that_is_not_a_non_negative_integer(bad):
    with pytest.raises(DomainError, match=f"normal count must be a non-negative integer, got {bad!r}"):
        SplitMix64(0).normals(bad)
