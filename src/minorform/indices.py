"""Survivor-index calculus for telescoping minor chains.

When row/column `r` is deleted from a matrix, position `t` of the minor
reads source position kappa(t, r): positions before the cut keep their
index, later ones skip past it. Nested deletions compose kappa once per
level, innermost first. kappa is the one statement of the step, which
minors and the telescope schedule, the expansion's one DAG, read. Its unit
step under any encoding is `discrete._survivor_heav`, which checks nothing.
"""

from __future__ import annotations

from .discrete import ReprKind, _survivor_heav, heav
from .errors import DomainError, FrozenRecord, _check_integer


def kappa(t: int, r0: int, repr_kind: ReprKind = ReprKind.DIRECT) -> int:
    """Source index read by minor position t after deleting index r0.

    kappa(t, r0) = t + 1 - heav(r0 - t - 1): t itself while t < r0, else t+1.
    The step is `discrete._survivor_heav(r0, t + 1, repr_kind)`: GAMMA covers
    every step, other encodings raise DomainError outside their domains, as
    does a t or r0 that is not a positive integer.
    """
    _check_integer(t, "minor position", 1)
    _check_integer(r0, "deleted index", 1)
    return _step(t, r0, repr_kind)


def _step(t: int, r0: int, repr_kind: ReprKind) -> int:
    return t + 1 - _survivor_heav(r0, t + 1, repr_kind)


def survivor_map(colmap: tuple[int, ...], s: int, repr_kind: ReprKind = ReprKind.DIRECT) -> tuple[int, ...]:
    """The map left by deleting position s of colmap: its position t reads colmap's kappa(t, s).

    s is checked once, as kappa checks its deleted index; the positions
    are range integers and need no check.
    """
    _check_integer(s, "deleted index", 1)
    return tuple(colmap[_step(t, s, repr_kind) - 1] for t in range(1, len(colmap)))


class IndexHistory(FrozenRecord):
    """A base index at depth K plus the deletion chain above it.

    chain[0] is the outermost deleted index (in original coordinates),
    chain[-1] the innermost; base indexes the innermost minor.
    """

    __slots__ = ("base", "chain")

    def __init__(self, base: int, chain: tuple[int, ...]):
        _check_integer(base, "base index", 1)
        chain = tuple(chain)
        if not chain:
            raise DomainError("deletion chain must contain at least one index")
        for r in chain:
            _check_integer(r, "deleted index", 1)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "chain", chain)

    @property
    def depth(self) -> int:
        return len(self.chain)


def _check_depth(k: int, hist: IndexHistory) -> None:
    _check_integer(k, "depth")
    if k != hist.depth:
        raise DomainError(f"history carries {hist.depth} deletions, got depth {k}")


def primed_index(k: int, hist: IndexHistory) -> int:
    """Original-matrix index read by `hist.base` after k nested deletions.

    Folds kappa through the chain innermost-first: the base survives the
    deepest cut first, the outermost cut last.
    """
    _check_depth(k, hist)
    value = hist.base
    for deleted in reversed(hist.chain):
        value = kappa(value, deleted)
    return value


def _reflected(hist: IndexHistory) -> IndexHistory:
    if hist.base not in (1, 2):
        raise DomainError(f"reflection is defined for base 1 or 2 only, got {hist.base}")
    return IndexHistory(3 - hist.base, hist.chain)


def reflected_primed_index(k: int, hist: IndexHistory) -> int:
    """As primed_index, but the 2x2-level base is reflected (1 <-> 2)."""
    return primed_index(k, _reflected(hist))


def primed_index_expanded(k: int, hist: IndexHistory) -> int:
    """Alternate closed-sum evaluator for primed_index; no recursion."""
    # Branch-sum evaluation: bit m-1 of the branch number says whether the
    # m-th inner deletion did (1) or did not (0) sit at-or-below the running
    # index, contributing its step gate and, if it did, advancing the index;
    # exactly one branch has all gates open, and it reproduces the fold.
    _check_depth(k, hist)
    chain = hist.chain
    total = 0
    for bits in range(1 << (k - 1)):
        index, gates = hist.base, 1
        for m in range(1, k):
            deleted = chain[k - m]  # innermost deletion handled first
            if bits >> (m - 1) & 1:
                gates *= heav(index - deleted)
                index += 1
            else:
                gates *= heav(deleted - index - 1)
            if gates == 0:
                break
        if gates:
            total += gates * kappa(index, chain[0])
    return total


def reflected_primed_index_expanded(k: int, hist: IndexHistory) -> int:
    """Alternate closed-sum evaluator for reflected_primed_index."""
    return primed_index_expanded(k, _reflected(hist))
