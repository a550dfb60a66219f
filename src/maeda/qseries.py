"""The Miller echelon basis of level-one cusp forms, mod a prime p < 2^20.

A q-expansion sum(a_n q^n, n < prec) mod p is an array of residues: int64
where it leaves this module, float64 while products are taken.
:func:`spanning_set` builds the cusp forms g_i = Delta^i E6^b E4^(alpha_i),
i = 1 .. d, from E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum
sigma_5(n) q^n and Delta = q prod (1 - q^n)^24, using g_(i+1) = g_i w with
w = Delta / E4^3 (one Newton inverse per prime).
:func:`miller_basis` eliminates them, with unit pivots and no division, to
the unique echelon basis f_i = q^i + O(q^(d+1)): the exact integer basis of
:mod:`maeda.oracles`, reduced mod p.

The precision is fixed by k: 2(d+2)+1 coefficients, one guard term past the
2(d+2) the Hecke action reads.  The tables sigma_3(n), sigma_5(n) and
prod (1 - q^n) do not depend on p and are built once per precision, exactly:
sigma_5(n) < 1.04 n^5 is below 2^63 only for n < 6168, so they refuse a
precision above :data:`MAX_TABLE_PREC` = 6000.  That is the one bound
enforced here, and it implies the exactness bound of :mod:`maeda.ffpoly`:
series products, vector-matrix and matrix products all run in float64,
exact while they sum fewer than 2^13 products of residues
(:data:`~maeda.ffpoly.MAX_FLOAT_TERMS`).  The spanning rows come by baby
and giant steps: with s = isqrt(d), rows 2 .. s are each the one before
times the upper-triangular Toeplitz matrix of w, and each later block of s
rows is the block before times the Toeplitz matrix of w^s, in one product.
The elimination is one product per row.  The paper's range, k <= 14000,
needs prec <= 2337.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ffpoly import _convolve, _inverse, _matmul, _toeplitz
from .primes import check_modulus

# sigma_5(n) < 1.04 n^5 < 2^63 for n <= 6000 (the first overflow is at 6168);
# below 2^13, it also keeps every int64 and float64 sum of products exact.
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


def _basis_size(k: int) -> tuple[int, int]:
    # (d, prec) of the Miller basis of weight k
    if k % 2 or k < 12:
        raise ValueError(f"weight must be even and at least 12, got {k}")
    d = dim_cusp_forms(k)
    return d, 2 * (d + 2) + 1


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
    # truncated product of two float64 residue series of equal length
    return _convolve(a, b, p, 0, len(a))


def _pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    # a^e by right-to-left binary powering; the first factor is taken as it
    # is, not multiplied by 1
    result = None
    while e:
        if e & 1:
            result = a if result is None else _mul(result, a, p)
        e >>= 1
        if e:
            a = _mul(a, a, p)
    if result is None:
        result = np.zeros_like(a)
        result[0] = 1
    return result


def spanning_set(k: int, p: int) -> np.ndarray:
    """The cusp forms g_i = Delta^i E6^b E4^(alpha_i) mod p, i = 1 .. d.

    With b = (k/2) mod 2 and alpha_i = (k - 12i - 6b)/4, g_i is a weight-k
    cusp form q^i + O(q^(i+1)).  Returns a d x prec int64 array whose row
    i-1 is g_i mod p, prec = 2(d+2)+1.  Raises ValueError unless p is a
    prime below 2^20, k an even weight of at least 12, and prec at most
    :data:`MAX_TABLE_PREC`.
    """
    check_modulus(p)
    d, prec = _basis_size(k)
    sigma3, sigma5, euler = _tables(prec)
    rows = np.zeros((d, prec))  # float64 residues, for the products below
    if d == 0:
        return rows.astype(np.int64)
    b, alpha_d = _weight_exponents(k)
    e4 = (240 * (sigma3 % p) % p).astype(np.float64)
    e6 = (-504 * (sigma5 % p) % p).astype(np.float64)
    e4[0] = e6[0] = 1
    dl = np.zeros(prec)
    dl[1:] = _pow((euler % p).astype(np.float64), 24, p)[:-1]
    first = _mul(dl, _pow(e4, alpha_d + 3 * (d - 1), p), p)
    rows[0] = _mul(first, e6, p) if b else first
    w = _mul(dl, _inverse(_pow(e4, 3, p), p), p)
    # g_i = q^i + ... and w = q + ..., so row i-1 is zero left of column i:
    # each product skips those columns of its rows, and the columns of its
    # result that are known to be zero
    s = math.isqrt(d)
    toeplitz = _toeplitz(w, prec)
    for i in range(1, s):
        rows[i, i + 1 :] = _matmul(rows[i - 1, i:], toeplitz[i:, i + 1 :], p)
    if s < d:  # each later block of s rows is the block before times w^s
        toeplitz = _toeplitz(_pow(w, s, p), prec)
        for i in range(s, d, s):
            t = min(s, d - i)
            rows[i : i + t, i + 1 :] = _matmul(
                rows[i - s : i - s + t, i - s + 1 :], toeplitz[i - s + 1 :, i + 1 :], p)
    return rows.astype(np.int64)


def miller_basis(k: int, p: int) -> np.ndarray:
    """Echelon basis f_1 .. f_d of the weight-k cusp space, mod p < 2^20.

    Returns a d x (2(d+2)+1) int64 array of residues whose row i-1 is f_i
    mod p, with coefficient 1 at q^i and 0 at every other q^j, 1 <= j <= d.
    The elimination runs up from f_d = g_d: f_i is g_i minus its
    coefficients at q^(i+1) .. q^d times the finished rows below, one
    vector-matrix product per row.
    """
    rows = spanning_set(k, p)
    d = rows.shape[0]
    done = rows.astype(np.float64)  # rows i+1.. are finished when row i starts
    for i in range(d - 2, -1, -1):
        rows[i] = (rows[i] - _matmul(done[i, i + 2 : d + 1], done[i + 1 :], p)) % p
        done[i] = rows[i]
    assert np.array_equal(rows[:, 1 : d + 1], np.eye(d, dtype=np.int64)), (
        f"echelon property failed at k={k} mod {p}"
    )
    return rows
