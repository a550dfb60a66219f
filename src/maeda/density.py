"""Cycle-pattern combinatorics of S_d and the densities of the witness kinds.

For a monic integer polynomial whose Galois group is the full symmetric group
S_d, the density of primes realizing a given squarefree factorization pattern
equals the proportion of S_d elements with that cycle pattern.  The witness
densities are therefore pure permutation counts:

  D_I(d)   = 1/d                                   (d-cycles)
  D_II(d)  = [(e-3)!!]^2 / (2 (e-2)!),  e = largest even integer <= d
                                                   (one 2-cycle, rest odd)
  D_III(d) = sum of 1/l over primes d/2 < l <= d   (a long prime cycle)
  D_IV(d)  = 1/(d-1) for d >= 3, and 1/2 at d = 2  (fixed point + (d-1)-cycle)

Everything is exact (fractions and integers); floats appear only in the
claimed lower bounds (:func:`lower_bound`) and in their large-d sweep, which
runs in log space.  A brute-force enumeration of S_d (d <= 8) in
:mod:`maeda.oracles` serves as the oracle for all of the closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .patterns import Pattern, PrimeType
from .primes import sieve_primes

__all__ = [
    "MEISSEL_MERTENS",
    "cycle_pattern_count",
    "odd_order_count",
    "density_I",
    "density_II",
    "density_III",
    "density_IV",
    "density",
    "expected_trials",
    "lower_bound",
    "check_density_bounds",
    "BoundViolation",
    "BoundReport",
    "prime_reciprocal_sum",
    "prime_reciprocal_bounds",
]

MEISSEL_MERTENS = 0.2614972128476427837554


def double_factorial(n: int) -> int:
    """Product of the odd positive integers <= n (odd n; empty product is 1)."""
    if n < -1 or n % 2 == 0:
        raise ValueError(f"double factorial used here only for odd n >= -1, got {n}")
    return math.prod(range(1, n + 1, 2))


def cycle_pattern_count(pattern: Pattern) -> int:
    """Number of S_d elements with the given cycle pattern, d = pattern.size.

    d! divided by the product of length^mult * mult! over the pattern's
    parts; the division is exact and asserted.
    """
    denominator = math.prod(
        length**mult * math.factorial(mult) for length, mult in pattern.parts
    )
    count, rem = divmod(math.factorial(pattern.size), denominator)
    assert rem == 0, "pattern count must divide the factorial exactly"
    return count


def odd_order_count(n: int) -> int:
    """Permutations of n letters all of whose cycle lengths are odd.

    ((n-1)!!)^2 for even n and ((n-2)!!)^2 * n for odd n.  The square in the
    even case is easy to drop by mistake; already at n = 4 there are 9 such
    permutations (identity plus eight 3-cycles), not 3!!.  The enumeration
    oracle pins the squared form.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n % 2 == 0:
        return double_factorial(n - 1) ** 2
    return double_factorial(n - 2) ** 2 * n


def density_I(d: int) -> Fraction:
    """Density of primes with irreducible reduction: 1/d (d-cycles in S_d)."""
    if d < 2:
        raise ValueError("kind I density needs d >= 2")
    return Fraction(1, d)


def density_II(d: int) -> Fraction:
    """Density of primes of kind II: one even factor, of degree exactly 2.

    Counting one 2-cycle times an odd-order rearrangement of the other d-2
    letters gives C(d,2) * oddorder(d-2) / d!, which collapses to
    [(e-3)!!]^2 / (2 (e-2)!) with e the largest even integer <= d.
    """
    if d <= 2:
        raise ValueError("kind II density needs d > 2")
    e = d if d % 2 == 0 else d - 1
    return Fraction(double_factorial(e - 3) ** 2, 2 * math.factorial(e - 2))


def density_III(d: int) -> Fraction:
    """Density of primes of kind III: sum of 1/l over primes d/2 < l <= d.

    Two lengths above d/2 cannot coexist in d letters, so the per-prime
    events are disjoint and the reciprocals simply add.
    """
    if d < 2:
        raise ValueError("kind III density needs d >= 2")
    total = sum(
        (Fraction(1, ell) for ell in sieve_primes(d + 1).tolist() if 2 * ell > d),
        Fraction(0),
    )
    assert total > 0, "a prime always exists in (d/2, d] for d >= 2"
    return total


def density_IV(d: int) -> Fraction:
    """Density of primes of kind IV: a fixed point beside a (d-1)-cycle.

    1/(d-1) for d >= 3.  At d = 2 the two part lengths coincide and the
    pattern collapses to 1^2, whose density is 1/2; the generic pattern
    count handles both cases.
    """
    if d < 2:
        raise ValueError("kind IV density needs d >= 2")
    pattern = Pattern.from_lengths((1, d - 1))
    return Fraction(cycle_pattern_count(pattern), math.factorial(d))


_DENSITY = {
    PrimeType.I: density_I,
    PrimeType.II: density_II,
    PrimeType.III: density_III,
    PrimeType.IV: density_IV,
}


def density(kind: PrimeType, d: int) -> Fraction:
    """Exact density of witness primes of the given kind at dimension d."""
    return _DENSITY[kind](d)


def expected_trials(kind: PrimeType, d: int) -> float:
    """Expected number of uniform prime draws until a witness of this kind."""
    return float(1 / density(kind, d))


def lower_bound(kind: PrimeType, d: int) -> float | None:
    """The claimed lower bound on density(kind, d), or None where none is.

    1/(4 sqrt d) for kind II at d > 2, and 1/(3 log d) for kind III at
    d > 10; the sweep :func:`check_density_bounds` shows that each holds.
    """
    if kind == PrimeType.II and d > 2:
        return 1.0 / (4.0 * math.sqrt(d))
    if kind == PrimeType.III and d > 10:
        return 1.0 / (3.0 * math.log(d))
    return None


class BoundViolation(NamedTuple):
    d: int
    kind: PrimeType
    value: float
    bound: float


class BoundReport(NamedTuple):
    """Outcome of the density lower-bound sweeps."""

    d_max: int
    checked_II: int
    checked_III: int
    violations: tuple[BoundViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_density_bounds(d_max: int) -> BoundReport:
    """Sweep D_II(d) and D_III(d) against :func:`lower_bound` for d <= d_max.

    Runs in float/log space: D_II follows the exact even-step recurrence
    D(e+2) = D(e) * (e-1)/e applied to logarithms, and D_III uses prefix
    sums of prime reciprocals, so the sweep is linear in d_max and immune
    to factorial overflow.
    """
    if lower_bound(PrimeType.III, d_max) is None:
        raise ValueError(f"the kind III bound is not defined at any d <= {d_max}")
    reciprocals = [0.0] * (d_max + 1)  # sum of 1/l over primes l <= x
    primes = set(sieve_primes(d_max + 1).tolist())
    for x in range(1, d_max + 1):
        reciprocals[x] = reciprocals[x - 1] + (1.0 / x if x in primes else 0.0)

    log_dii = math.log(0.5)  # D_II at even step e = 2
    e = 2
    checked = {PrimeType.II: 0, PrimeType.III: 0}
    violations: list[BoundViolation] = []
    for d in range(3, d_max + 1):
        while e + 2 <= d:
            log_dii += math.log(e - 1) - math.log(e)
            e += 2
        values = {PrimeType.II: math.exp(log_dii),
                  PrimeType.III: reciprocals[d] - reciprocals[d // 2]}
        for kind, value in values.items():
            bound = lower_bound(kind, d)
            if bound is not None:
                checked[kind] += 1
                if value <= bound:
                    violations.append(BoundViolation(d, kind, value, bound))
    return BoundReport(d_max, checked[PrimeType.II], checked[PrimeType.III],
                       tuple(violations))


def prime_reciprocal_sum(x: float) -> float:
    """sum of 1/p over primes p <= x, by direct sieve-and-add."""
    if x < 2:
        return 0.0
    return sum(1.0 / p for p in sieve_primes(int(x) + 1).tolist())


def prime_reciprocal_bounds(x: float) -> tuple[float, float]:
    """Explicit sandwich for sum of 1/p over p <= x, valid for all x > 1.

    Lower: loglog x + B - (1/(10 log^2 x) + 4/(15 log^3 x)).
    Upper: loglog x + B + 1/log^2 x.
    B is the Meissel-Mertens constant.
    """
    if x <= 1:
        raise ValueError("bounds require x > 1")
    lg = math.log(x)
    loglog = math.log(lg)
    lower = loglog + MEISSEL_MERTENS - (1.0 / (10.0 * lg**2) + 4.0 / (15.0 * lg**3))
    upper = loglog + MEISSEL_MERTENS + 1.0 / lg**2
    return lower, upper
