"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and shares no code with the library
paths it checks: trial-division factorization over F_p, permutation-expansion
determinants, and list-based polynomial arithmetic.
"""

from __future__ import annotations

import itertools
from collections import Counter


# ---------------------------------------------------------------------------
# polynomials over F_p as plain coefficient lists (lowest degree first)

def poly_trim(a: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out, p)


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = poly_trim(a, p)
    b = poly_trim(b, p)
    assert b, "division by zero polynomial"
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    while len(r) >= len(b):
        t = r[-1] * binv % p
        shift = len(r) - len(b)
        q[shift] = t
        for i, c in enumerate(b):
            r[shift + i] = (r[shift + i] - t * c) % p
        r = poly_trim(r, p)
    return q, r


def _poly_eval(f: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def monic_irreducibles_upto3(p: int) -> list[list[int]]:
    """All monic irreducible polynomials over F_p of degree 1, 2 and 3.

    Degree 1 is always irreducible; degrees 2 and 3 are irreducible exactly
    when they have no root in F_p.
    """
    out: list[list[int]] = [[a, 1] for a in range(p)]
    for degree in (2, 3):
        for tail in itertools.product(range(p), repeat=degree):
            f = list(tail) + [1]
            if all(_poly_eval(f, x, p) for x in range(p)):
                out.append(f)
    return out


def trial_factor_pattern(coeffs, p: int) -> dict[int, int]:
    """Factorization pattern of a monic polynomial of degree <= 7 over F_p.

    Divides out every monic irreducible of degree <= 3 (with multiplicity);
    whatever remains has degree <= 7 and no factor of degree <= 3, hence it
    is itself irreducible.
    """
    f = poly_trim(list(coeffs), p)
    assert f and f[-1] == 1 and len(f) - 1 <= 7
    pattern: Counter[int] = Counter()
    for g in monic_irreducibles_upto3(p):
        while len(f) >= len(g):
            q, r = poly_divmod(f, g, p)
            if r:
                break
            pattern[len(g) - 1] += 1
            f = q
        if len(f) == 1:
            break
    if len(f) > 1:
        pattern[len(f) - 1] += 1
    return dict(pattern)


# ---------------------------------------------------------------------------
# characteristic polynomial by permutation expansion of det(X I - A)

def charpoly_det_expansion(rows, modulus: int | None = None) -> list[int]:
    """det(X*I - A) for a small square matrix, ascending coefficients.

    Sums sign * product over all d! permutations; the entries of X*I - A are
    the linear polynomials delta_ij * X - a_ij.  Exact over the integers, or
    over F_p when ``modulus`` is given.
    """
    d = len(rows)
    out = [0] * (d + 1)
    if d == 0:
        out = [1]
    for perm in itertools.permutations(range(d)):
        sign = _perm_sign(perm)
        term = [1]
        for i in range(d):
            entry = [-rows[i][perm[i]], 1 if perm[i] == i else 0]
            term = _zmul(term, entry)
        for n, c in enumerate(term):
            out[n] += sign * c
    if modulus is not None:
        out = [c % modulus for c in out]
    return out


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _zmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# the reduction rows and Frobenius matrix of a monic f, one row at a time

def reduction_and_frobenius_rows(f: list[int], p: int) -> tuple[list[list[int]], list[list[int]]]:
    """For monic f of degree n >= 2 over F_p: the rows X^(n+j) mod f for
    0 <= j <= n-2, and the rows X^(rp) mod f for 0 <= r < n, each padded to
    n coefficients.  Each reduction row is the one before times X, and each
    Frobenius row the one before times X^p, by schoolbook products and long
    division."""
    n = len(f) - 1

    def mod_f(a: list[int]) -> list[int]:
        return poly_divmod(a, f, p)[1]

    def pad(a: list[int]) -> list[int]:
        return a + [0] * (n - len(a))

    reduction = [mod_f([0] * n + [1])]
    for _ in range(n - 2):
        reduction.append(mod_f([0] + reduction[-1]))
    xp, square = [1], [0, 1]  # X^p by right-to-left binary powering
    e = p
    while e:
        if e & 1:
            xp = mod_f(poly_mul(xp, square, p))
        square = mod_f(poly_mul(square, square, p))
        e >>= 1
    frobenius = [[1]]
    for _ in range(n - 1):
        frobenius.append(mod_f(poly_mul(frobenius[-1], xp, p)))
    return [pad(r) for r in reduction], [pad(r) for r in frobenius]
