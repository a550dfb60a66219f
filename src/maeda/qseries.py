"""The Miller echelon basis of level-one cusp forms, mod a prime p < 2^20.

A q-expansion sum(a_n q^n, n < prec) mod p is an int64 array of residues.
:func:`spanning_set` builds the cusp forms g_i = Delta^i E6^b E4^(alpha_i),
i = 1 .. d, from E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum
sigma_5(n) q^n and Delta = q prod (1 - q^n)^24, each row from the one before
as g_(i+1) = g_i w with w = Delta / E4^3 (one Newton inverse per prime).
:func:`miller_basis` eliminates them, with unit pivots and no division, to
the unique echelon basis f_i = q^i + O(q^(d+1)): the exact integer basis of
:mod:`maeda.oracles`, reduced mod p.

Exactness in int64: a product of two residues is below 2^40, so a truncated
product of two series, a sum of fewer than prec of them, is exact while
prec < 2^23 (:data:`MAX_PREC_MOD_P`); so is the Newton step, whose factors
lie in (-p, p).  The tables sigma_3(n), sigma_5(n) and prod (1 - q^n) do not
depend on p and are built once per precision, exactly: sigma_5(n) < 1.04 n^5
is below 2^63 only for n < 6168, so they refuse a precision above
:data:`MAX_TABLE_PREC` = 6000.  The paper's range, k <= 14000, needs
prec <= 2337.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .primes import check_modulus

# A truncated product of two residue series sums fewer than prec products,
# each below 2^40, so it is exact in int64 while prec < 2^23.
MAX_PREC_MOD_P = 1 << 23

# sigma_5(n) < 1.04 n^5 < 2^63 for n <= 6000 (the first overflow is at 6168).
MAX_TABLE_PREC = 6000


def dim_cusp_forms(k: int) -> int:
    """Dimension of the weight-k level-one cusp space; 0 off the even range.

    For even k >= 0 this is floor(k/12), less one when k = 2 mod 12, clamped
    at zero.  Odd or negative k gives 0, so the function is total and batch
    drivers can feed it arbitrary ranges.
    """
    if k < 0 or k % 2:
        return 0
    d = k // 12 - (1 if k % 12 == 2 else 0)
    return max(d, 0)


def _weight_exponents(k: int) -> tuple[int, int]:
    # Exponents (b, alpha_d) with k = 12d + 4*alpha_d + 6b; alpha_d in {0,1,2}.
    d = dim_cusp_forms(k)
    b = (k // 2) % 2
    num = k - 12 * d - 6 * b
    assert num % 4 == 0 and num >= 0, f"exponent bookkeeping broke at k={k}"
    alpha_d = num // 4
    assert alpha_d in (0, 1, 2)
    return b, alpha_d


def _basis_size(k: int, prec: int | None) -> tuple[int, int]:
    # (d, prec) for a Miller basis of weight k, with the default precision
    if k % 2 or k < 12:
        raise ValueError(f"weight must be even and at least 12, got {k}")
    d = dim_cusp_forms(k)
    if prec is None:
        prec = 2 * (d + 2) + 1
    if prec < 2 * (d + 2):
        raise ValueError(f"precision {prec} insufficient for weight {k} (need >= {2 * (d + 2)})")
    return d, prec


@functools.lru_cache(maxsize=4)
def _tables(prec: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # sigma_3(n), sigma_5(n) and prod (1 - q^n) for n < prec, exact int64
    if prec > MAX_TABLE_PREC:
        raise ValueError(f"precision {prec} above {MAX_TABLE_PREC}: sigma_5 would overflow int64")
    sigma3 = np.zeros(prec, dtype=np.int64)
    sigma5 = np.zeros(prec, dtype=np.int64)
    for n in range(1, prec):
        sigma3[n::n] += n**3
        sigma5[n::n] += n**5
    # pentagonal numbers: 1 + sum_{j>=1} (-1)^j (q^{j(3j-1)/2} + q^{j(3j+1)/2})
    euler = np.zeros(prec, dtype=np.int64)
    euler[0] = 1
    for j in range(1, math.isqrt(prec) + 1):  # j(3j-1)/2 >= j^2 >= prec beyond
        for n in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if n < prec:
                euler[n] = (-1) ** j
    for table in (sigma3, sigma5, euler):
        table.flags.writeable = False  # shared by every prime at this precision
    return sigma3, sigma5, euler


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # truncated product of two residue series of equal length
    return np.convolve(a, b)[: len(a)] % p


def _pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.zeros_like(a)
    result[0] = 1
    while e:
        if e & 1:
            result = _mul(result, a, p)
        e >>= 1
        if e:
            a = _mul(a, a, p)
    return result


def _inverse(f: np.ndarray, p: int) -> np.ndarray:
    # 1/f for a residue series with f[0] = 1: Newton's g <- g (2 - f g),
    # doubling the number of correct terms per step
    g = np.ones(1, dtype=np.int64)
    while len(g) < len(f):
        n = min(2 * len(g), len(f))
        fg = np.convolve(f[:n], g)[:n] % p
        fg[0] -= 2
        g = -np.convolve(g, fg)[:n] % p
    return g


def spanning_set(k: int, p: int, prec: int) -> np.ndarray:
    """The cusp forms g_i = Delta^i E6^b E4^(alpha_i) mod p, i = 1 .. d.

    With b = (k/2) mod 2 and alpha_i = (k - 12i - 6b)/4, g_i is a weight-k
    cusp form q^i + O(q^(i+1)).  Returns a d x prec int64 array whose row
    i-1 is g_i mod p.  Raises ValueError unless p is a prime below 2^20, k
    an even weight of at least 12, and 2(d+2) <= prec <= MAX_TABLE_PREC.
    """
    check_modulus(p)
    d, prec = _basis_size(k, prec)
    if prec >= MAX_PREC_MOD_P:
        raise ValueError(f"precision {prec} would overflow int64 sums (need < 2^23)")
    sigma3, sigma5, euler = _tables(prec)
    rows = np.empty((d, prec), dtype=np.int64)
    if d == 0:
        return rows
    b, alpha_d = _weight_exponents(k)
    e4, e6 = 240 * (sigma3 % p) % p, -504 * (sigma5 % p) % p
    e4[0] = e6[0] = 1
    dl = np.zeros(prec, dtype=np.int64)
    dl[1:] = _pow(euler % p, 24, p)[:-1]
    rows[0] = _mul(dl, _pow(e4, alpha_d + 3 * (d - 1), p), p)
    if b:
        rows[0] = _mul(rows[0], e6, p)
    w = _mul(dl, _inverse(_pow(e4, 3, p), p), p)
    for i in range(1, d):
        rows[i] = _mul(rows[i - 1], w, p)
    return rows


def miller_basis(k: int, p: int, prec: int | None = None) -> np.ndarray:
    """Echelon basis f_1 .. f_d of the weight-k cusp space, mod p < 2^20.

    Returns a d x prec int64 array of residues whose row i-1 is f_i mod p,
    with coefficient 1 at q^i and 0 at every other q^j, 1 <= j <= d.
    ``prec`` defaults to 2(d+2)+1, one guard term past the window the Hecke
    action reads; below 2(d+2) it is refused.  The elimination runs up from
    f_d = g_d: f_i is g_i minus its coefficients at q^(i+1) .. q^d times the
    finished rows below, one vector-matrix product per row.
    """
    d, prec = _basis_size(k, prec)
    rows = spanning_set(k, p, prec)
    for i in range(d - 2, -1, -1):
        rows[i] = (rows[i] - rows[i, i + 2 : d + 1] @ rows[i + 1 :]) % p
    assert np.array_equal(rows[:, 1 : d + 1], np.eye(d, dtype=np.int64)), (
        f"echelon property failed at k={k} mod {p}"
    )
    return rows
