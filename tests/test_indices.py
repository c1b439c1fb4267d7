"""Survivor-index calculus: the fold, its reflection, and the branch sums."""

from itertools import product
from math import comb

import pytest

from minorform import (
    DomainError,
    IndexHistory,
    ReprKind,
    heav,
    kappa,
    primed_index,
    primed_index_expanded,
    reflected_primed_index,
    reflected_primed_index_expanded,
)
from minorform.errors import _check_integer
from minorform.indices import survivor_map

MAX_SOURCE_SIZE = 8


def valid_histories(n, depth):
    """Every deletion chain of the given depth starting from an n x n matrix.

    Level d deletes from a matrix of size n - d, so chain[d] runs 1..n-d;
    the base then indexes the remaining (n - depth)-sized minor.
    """
    ranges = [range(1, n - d + 1) for d in range(depth)]
    for chain in product(*ranges):
        for base in range(1, n - depth + 1):
            yield IndexHistory(base, chain)


def test_kappa_pass_and_skip():
    assert kappa(1, 2) == 1  # before the cut: unchanged
    assert kappa(2, 2) == 3  # at the cut: skips past
    assert kappa(3, 2) == 4
    assert kappa(5, 9) == 5


def test_kappa_matches_step_definition():
    for t in range(1, 10):
        for r0 in range(1, 10):
            assert kappa(t, r0) == t + 1 - heav(r0 - t - 1)


def test_kappa_rejects_non_positive():
    with pytest.raises(DomainError):
        kappa(0, 1)
    with pytest.raises(DomainError):
        kappa(1, 0)


def test_kappa_refuses_an_encoding_that_is_not_a_member():
    with pytest.raises(DomainError, match="encoding must be a ReprKind, got 'direct'"):
        kappa(1, 2, "direct")


def test_kappa_through_an_encoding_is_the_direct_step():
    # gamma covers every step through its factorial-parity closure; the
    # window encodings cover t + 1 in {2, 3} and r0 in 1..3 and raise beyond
    for t in range(1, 8):
        for r0 in range(1, 9):
            assert kappa(t, r0, ReprKind.GAMMA) == kappa(t, r0)
    for repr_kind in (ReprKind.COSINE, ReprKind.BESSEL, ReprKind.HERMITE):
        for t in (1, 2):
            for r0 in (1, 2, 3):
                assert kappa(t, r0, repr_kind) == kappa(t, r0)
        with pytest.raises(DomainError):
            kappa(3, 1, repr_kind)


@pytest.mark.parametrize("repr_kind", [ReprKind.DIRECT, ReprKind.GAMMA])
def test_survivor_map_reads_kappa_and_checks_s_on_every_map(repr_kind):
    colmap = (4, 7, 9, 12)
    for s in range(1, 6):
        expected = tuple(colmap[kappa(t, s, repr_kind) - 1] for t in range(1, 4))
        assert survivor_map(colmap, s, repr_kind) == expected
    # a map too short to have a position to read still checks s
    for short in ((), (4,)):
        for bad in (0, True, 1.0):
            with pytest.raises(DomainError, match="deleted index"):
                survivor_map(short, bad, repr_kind)


def test_survivor_steps_run_no_integer_checks(monkeypatch):
    # a cold schedule checks each survivor_map's s once, and none of its steps
    from minorform import discrete, engines, indices

    checks, maps = [], []

    def counted_check(value, what, *bounds):
        checks.append(what)
        return _check_integer(value, what, *bounds)

    def counted_map(*args):
        maps.append(args)
        return survivor_map(*args)

    monkeypatch.setattr(indices, "_check_integer", counted_check)
    monkeypatch.setattr(discrete, "_check_integer", counted_check)
    monkeypatch.setattr(engines, "survivor_map", counted_map)
    engines._telescope_schedule.cache_clear()
    engines._telescope_schedule(6)
    assert len(maps) == sum(k * comb(6, k) for k in range(2, 7))
    assert checks == ["deleted index"] * len(maps)


def test_kappa_composition_order_matters():
    # the chain is ordered: swapping deletion levels changes the survivor
    assert kappa(kappa(2, 1), 3) == 4
    assert kappa(kappa(2, 3), 1) == 3


def test_primed_index_single_level_is_kappa():
    for base in range(1, 6):
        for r in range(1, 6):
            assert primed_index(1, IndexHistory(base, (r,))) == kappa(base, r)


def test_primed_index_known_chains():
    # hand-folded: all-ones chains push the base up one per level
    assert primed_index(1, IndexHistory(1, (1,))) == 2
    assert primed_index(2, IndexHistory(1, (1, 1))) == 3
    assert primed_index(3, IndexHistory(1, (1, 1, 1))) == 4
    assert reflected_primed_index(3, IndexHistory(1, (1, 1, 1))) == 5
    # a later deletion leaves earlier positions alone
    assert primed_index(2, IndexHistory(1, (3, 2))) == 1
    assert primed_index(2, IndexHistory(2, (1, 2))) == 4


def test_primed_index_equals_explicit_fold():
    for n in range(2, MAX_SOURCE_SIZE + 1):
        for depth in range(1, n):
            for hist in valid_histories(n, depth):
                value = hist.base
                for deleted in reversed(hist.chain):
                    value = kappa(value, deleted)
                assert primed_index(depth, hist) == value
                assert 1 <= value <= n


def test_expanded_sum_matches_fold_everywhere():
    for n in range(2, MAX_SOURCE_SIZE + 1):
        for depth in range(1, n):
            for hist in valid_histories(n, depth):
                assert primed_index_expanded(depth, hist) == primed_index(depth, hist)


def test_reflected_expanded_matches_reflected_fold():
    for n in range(3, MAX_SOURCE_SIZE + 1):
        for depth in range(1, n - 1):
            for hist in valid_histories(n, depth):
                if hist.base not in (1, 2):
                    continue
                assert reflected_primed_index_expanded(depth, hist) == reflected_primed_index(
                    depth, hist
                )


def test_reflection_swaps_the_two_by_two_rows():
    for hist in valid_histories(5, 3):
        if hist.base not in (1, 2):
            continue
        mirrored = IndexHistory(3 - hist.base, hist.chain)
        assert reflected_primed_index(3, hist) == primed_index(3, mirrored)


def test_all_ones_specialization_steps_with_the_first_cut():
    # base 1 under k all-ones deletions lands at k + 1
    for k in range(1, 5):
        assert primed_index(k, IndexHistory(1, (1,) * k)) == k + 1
    # with inner all-ones cuts, only the outermost deletion r0 can undo the
    # last shift: the survivor is (k + 1) - heav(r0 - (k + 1))
    for r0 in range(1, 8):
        assert kappa(1, r0) == 2 - heav(r0 - 2)
        assert primed_index(2, IndexHistory(1, (r0, 1))) == 3 - heav(r0 - 3)
        assert primed_index(3, IndexHistory(1, (r0, 1, 1))) == 4 - heav(r0 - 4)
        assert reflected_primed_index(3, IndexHistory(1, (r0, 1, 1))) == 5 - heav(r0 - 5)


def test_history_validation():
    with pytest.raises(DomainError):
        IndexHistory(0, (1,))
    with pytest.raises(DomainError):
        IndexHistory(1, ())
    with pytest.raises(DomainError):
        IndexHistory(1, (1, 0))
    with pytest.raises(DomainError):
        primed_index(2, IndexHistory(1, (1,)))  # depth mismatch
    with pytest.raises(DomainError):
        reflected_primed_index(1, IndexHistory(3, (1,)))  # base must be 1 or 2


def test_primed_index_gives_every_subscript_of_the_expansion():
    # chain[k - 1] is the local position s_k deleted at level k, in product
    # order, the expansion's own; row r reads the original column
    # primed_index(r - 1, IndexHistory(s_r, (s_1, ..., s_{r-1})))
    from minorform.engines import _column_terms

    checked = 0
    for n in range(2, 8):
        chains = product(*(range(1, n - k + 1) for k in range(n)))
        for term, chain in zip(_column_terms(n, ReprKind.DIRECT), chains, strict=True):
            assert term.sign == (-1) ** sum(s - 1 for s in chain)
            assert term.columns[0] == chain[0]
            for r in range(2, n + 1):
                hist = IndexHistory(chain[r - 1], chain[: r - 1])
                assert primed_index(r - 1, hist) == term.columns[r - 1]
                assert primed_index_expanded(r - 1, hist) == term.columns[r - 1]
                checked += 1
    assert checked == 34406
