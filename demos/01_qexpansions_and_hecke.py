"""Walkthrough: exact q-expansions, the Miller basis, and the T2 matrix.

Builds the standard generators, checks the classical identity
Delta = (E4^3 - E6^2)/1728 coefficient by coefficient, assembles the echelon
basis of a cusp space, and reads off the integer matrix of T2 two ways.
All of it is the exact big-integer path of ``maeda.oracles``, the reference
that the tests hold the product's mod-p builder to.

Run:  python3 demos/01_qexpansions_and_hecke.py
"""

from maeda.hecke import dim_cusp_forms
from maeda.oracles import (
    charpoly_exact,
    delta,
    eisenstein,
    hecke_matrix_T2,
    hecke_matrix_T2_spanning,
    miller_basis,
    series_pow,
)

PREC = 12

e4 = eisenstein(4, PREC)
e6 = eisenstein(6, PREC)
dl = delta(PREC)
print("E4    =", e4)
print("E6    =", e6)
print("Delta =", dl)

diff = series_pow(e4, 3) - series_pow(e6, 2)
quotient = [c // 1728 for c in diff.coeffs]
assert all(c % 1728 == 0 for c in diff.coeffs)
assert tuple(quotient) == dl.coeffs
print("\n(E4^3 - E6^2)/1728 reproduces Delta exactly through q^%d" % (PREC - 1))

k = 48
d = dim_cusp_forms(k)
print(f"\nweight {k}: dim S_{k} = {d}")
for i, f in enumerate(miller_basis(k), start=1):
    head = ", ".join(str(int(c)) for c in f.coeffs[: d + 3])
    print(f"  f_{i} coefficients a_0..a_{d + 2}: {head}, ...")

m = hecke_matrix_T2(k)
print(f"\nT2 matrix on the Miller basis of S_{k}:")
for row in m.rows:
    print("  ", row)
print("characteristic polynomial (ascending):", charpoly_exact(m))

spanning = hecke_matrix_T2_spanning(k)
print("\nsame polynomial from the raw spanning products:",
      charpoly_exact(spanning) == charpoly_exact(m))
