"""Closed-form determinants and inverses against the brute-force oracles.

Sizes 2..5 run fully unrolled index-table sums; everything is checked
here against permutation sums, adjugates, and elimination.
"""

from minorform import (
    Matrix,
    ReprKind,
    closed_form_det,
    closed_form_inverse,
    cofactor_inverse,
    gauss_inverse,
    general_inverse,
    leibniz_det,
    random_matrix,
    residual_max_abs,
)

a = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
print("integer example, determinant 1 (a unimodular matrix):")
print(f"  closed form det: {closed_form_det(a)}")
print(f"  permutation sum: {leibniz_det(a)}")
inv = closed_form_inverse(a)
print("  inverse rows:", [[int(v.real) for v in row] for row in inv.rows()])
print(f"  residual |A X - I|: {residual_max_abs(a, inv):.3e}")
print()

print("random complex draws, closed form vs oracles:")
for n in (2, 3, 4, 5):
    m = random_matrix(n, seed=100 + n, complex_entries=True)
    det_gap = abs(closed_form_det(m) - leibniz_det(m))
    inv_gap = max(
        abs(u - v) for u, v in zip(closed_form_inverse(m).data, cofactor_inverse(m).data)
    )
    print(f"  n={n}: det gap {det_gap:.3e}, inverse gap {inv_gap:.3e}")
print()

print("the 3x3 determinant through every encoding (identical bits):")
m3 = random_matrix(3, seed=5)
for repr_kind in ReprKind:
    print(f"  {repr_kind.value:8s} {closed_form_det(m3, repr_kind).real!r}")
print()

print("beyond size 5 the telescoping engine takes over:")
m6 = random_matrix(6, seed=6)
g = general_inverse(m6)
print(f"  n=6 telescoped inverse residual:   {residual_max_abs(m6, g):.3e}")
print(f"  n=6 elimination inverse residual:  {residual_max_abs(m6, gauss_inverse(m6).inverse):.3e}")
