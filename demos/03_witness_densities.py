"""Walkthrough: witness densities, their brute-force oracle, and the bounds.

Prints the exact densities of the four witness kinds for small dimensions,
verifies them against a full enumeration of S_d, sweeps the two lower bounds
to d = 10000, and sandwiches the prime-reciprocal sum between its explicit
estimates.

Run:  python3 demos/03_witness_densities.py
"""

import math
from fractions import Fraction

from maeda.certify import classify
from maeda.density import (
    check_density_bounds,
    density,
    prime_reciprocal_bounds,
    prime_reciprocal_sum,
)
from maeda.oracles import enumerate_cycle_patterns
from maeda.patterns import PrimeType
from maeda.report import cmd_density

print("density table (exact and float), expected trials, bound status:\n")
cmd_density(2, 12)

print("\nenumeration cross-check at d = 6 (all 720 elements of S_6):")
tallies = enumerate_cycle_patterns(6)
for kind in PrimeType:
    tally = sum(c for pattern, c in tallies.items() if kind in classify(pattern, 6))
    exact = density(kind, 6)
    assert exact == Fraction(tally, math.factorial(6))
    print(f"  kind {kind.value:>3}: {tally:>3}/720 = {exact}")

report = check_density_bounds(10_000)
print(f"\nlower-bound sweep to d = {report.d_max}: "
      f"{report.checked_II} kind-II checks, {report.checked_III} kind-III checks, "
      f"{len(report.violations)} violations")

print("\nprime-reciprocal sandwich:")
for x in (100, 10_000):
    lower, upper = prime_reciprocal_bounds(x)
    print(f"  x = {x:>6}: {lower:.6f} < {prime_reciprocal_sum(x):.6f} < {upper:.6f}")
