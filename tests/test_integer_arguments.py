"""The integer-argument rule: every size, count, index, depth, seed and
stream index of the public API, and the argument and shift of every
discrete function, refuses a bool or any other non-int, even
one equal to an int (True, 1.0), with DomainError."""

import pytest

from minorform import (
    DomainError,
    IndexHistory,
    Matrix,
    ReprKind,
    SplitMix64,
    TrialConfig,
    element_inverse,
    expand_terms,
    gamma_int,
    heav,
    identity,
    kappa,
    kron,
    minor_by_deletion,
    minor_by_formula,
    primed_index,
    primed_index_expanded,
    random_matrix,
    reflected_primed_index,
    reflected_primed_index_expanded,
    repr_delta,
    repr_heav,
    sparse_case,
    stream_seed,
)
from minorform.indices import survivor_map

HIST = IndexHistory(1, (2,))
A = identity(3)
VALUES = (1, 2, 3, 4, 5)

# each entry passes the bad value in one integer slot, every other argument
# valid, so the error must name that value
INTEGER_SLOTS = {
    "gamma_int n": lambda v: gamma_int(v),
    "expand_terms n": lambda v: expand_terms(v),
    "kappa t": lambda v: kappa(v, 1),
    "kappa r0": lambda v: kappa(1, v),
    "survivor_map s": lambda v: survivor_map((1, 2, 3), v),
    "IndexHistory base": lambda v: IndexHistory(v, (2,)),
    "IndexHistory chain entry": lambda v: IndexHistory(1, (2, v)),
    "Matrix n": lambda v: Matrix(v, (1.0,)),
    "Matrix.entry row": lambda v: A.entry(v, 1),
    "Matrix.entry col": lambda v: A.entry(1, v),
    "minor_by_deletion row": lambda v: minor_by_deletion(A, v, 1),
    "minor_by_formula col": lambda v: minor_by_formula(A, 1, v),
    "element_inverse p": lambda v: element_inverse(A, v, 1),
    "random_matrix n": lambda v: random_matrix(v, 0),
    "random_matrix seed": lambda v: random_matrix(2, v),
    "SplitMix64 seed": lambda v: SplitMix64(v),
    "TrialConfig trials": lambda v: TrialConfig(trials=v, size=3),
    "TrialConfig size": lambda v: TrialConfig(trials=2, size=v),
    "TrialConfig seed": lambda v: TrialConfig(trials=2, size=3, seed=v),
    "stream_seed seed": lambda v: stream_seed(v, 0),
    "stream_seed index": lambda v: stream_seed(0, v),
    "primed_index k": lambda v: primed_index(v, HIST),
    "primed_index_expanded k": lambda v: primed_index_expanded(v, HIST),
    "reflected_primed_index k": lambda v: reflected_primed_index(v, HIST),
    "reflected_primed_index_expanded k": lambda v: reflected_primed_index_expanded(v, HIST),
    "sparse_case id": lambda v: sparse_case(v, VALUES),
    "kron z": lambda v: kron(v),
    "heav z": lambda v: heav(v),
    "repr_delta z": lambda v: repr_delta(v, 1, ReprKind.GAMMA),
    "repr_delta n": lambda v: repr_delta(1, v, ReprKind.DIRECT),
    "repr_heav z": lambda v: repr_heav(v, 2, ReprKind.DIRECT),
    "repr_heav p": lambda v: repr_heav(1, v, ReprKind.GAMMA),
}


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1"], ids=repr)
@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
def test_integer_parameters_refuse_bools_and_non_ints(slot, bad):
    with pytest.raises(DomainError) as info:
        INTEGER_SLOTS[slot](bad)
    assert str(info.value).endswith(f"got {bad!r}")

