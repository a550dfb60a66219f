"""Walkthrough: reductions mod p, factorization patterns, witness kinds.

Reduces one T2 matrix at a spread of primes and shows how each prime is
classified from the pattern of its characteristic polynomial: small primes
tend to divide the discriminant (non-squarefree reduction, no kind at all),
while a random prime usually lands some kind immediately.

Run:  python3 demos/02_patterns_mod_p.py
"""

from maeda.certify import classify
from maeda.ffpoly import (
    charpoly_mod_p,
    factorization_pattern,
    is_squarefree,
    reduce_matrix,
)
from maeda.hecke import dim_cusp_forms, hecke_matrix_T2

K = 120
d = dim_cusp_forms(K)
matrix = hecke_matrix_T2(K)
print(f"weight {K}, dim S_{K} = {d}\n")
print(f"{'p':>8}  {'squarefree':>10}  {'pattern':>22}  kinds")

for p in (2, 3, 5, 7, 11, 101, 4099, 65537, 524287, 1048573):
    fp = charpoly_mod_p(reduce_matrix(matrix, p), p)
    if not is_squarefree(fp, p):
        print(f"{p:>8}  {'no':>10}  {'-':>22}  (divides the discriminant)")
        continue
    pattern = factorization_pattern(fp, p)
    kinds = classify(pattern, d)
    names = ", ".join(sorted(k.value for k in kinds)) or "-"
    print(f"{p:>8}  {'yes':>10}  {str(pattern):>22}  {names}")

print("""
kind I   : irreducible (forces irreducibility over Q)
kind II  : exactly one even-degree factor, of degree 2 (gives a transposition)
kind III : a factor of prime degree > d/2 (gives a long prime cycle)
kind IV  : linear times irreducible of degree d-1 (diagnostic only)
""")
