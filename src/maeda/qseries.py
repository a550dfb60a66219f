"""The Miller echelon basis of level-one cusp forms, mod a prime p < 2^20.

A q-expansion sum(a_n q^n, n < prec) mod p is an array of residues: int64
where it leaves this module, float64 while products are taken.
:func:`spanning_set` builds the cusp forms g_i = Delta^i E6^b E4^(alpha_i),
i = 1 .. d, from E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum
sigma_5(n) q^n and Delta = q (prod (1 - q^n)^3)^8, the cube by Jacobi's
identity prod (1 - q^n)^3 = sum_(m>=0) (-1)^m (2m+1) q^(m(m+1)/2), using
g_(i+1) = g_i w with w = Delta / E4^3 (one Newton inverse per prime).
:func:`miller_basis` eliminates them, with unit pivots and no division, to
the unique echelon basis f_i = q^i + O(q^(d+1)): the exact integer basis of
:mod:`maeda.oracles`, reduced mod p.

Both take one prime or a block of them.  A block of B primes is built in
one pass: every series, row and elimination step is an array with a leading
axis of length B, each slice reduced mod its own prime, so each step is one
batched numpy call for the whole block rather than one call per prime.
:func:`max_block` bounds B at a weight, by the memory of a Toeplitz matrix
per prime.

The precision is fixed by k: 2(d+2)+1 coefficients, one guard term past the
2(d+2) the Hecke action reads.  The tables sigma_3(n), sigma_5(n) and
prod (1 - q^n)^3 do not depend on p and are built once per precision,
exactly: sigma_5(n) < 1.04 n^5 is below 2^63 only for n < 6168, so they
refuse a precision above :data:`MAX_TABLE_PREC` = 6000.  That is the one bound
enforced here, and it implies the exactness bound of :mod:`maeda.ffpoly`:
series products, vector-matrix and matrix products all run in float64,
exact while they sum fewer than 2^13 products of residues
(:data:`~maeda.ffpoly.MAX_FLOAT_TERMS`).  The spanning rows come by baby
and giant steps: with s = isqrt(d), rows 2 .. s are each the one before
times the upper-triangular Toeplitz matrix of w, and each later block of s
rows is the block before times the Toeplitz matrix of w^s, in one product.
The elimination is one product per row.  The paper's range, k <= 14000,
needs prec <= 2337.  Series products and the Newton inverse are those of
:mod:`maeda.ffpoly` (:func:`~maeda.ffpoly._mul`), batched over the block.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .ffpoly import _inverse, _matmul_residues, _mul, _toeplitz
from .primes import check_modulus

# sigma_5(n) < 1.04 n^5 < 2^63 for n <= 6000 (the first overflow is at 6168);
# below 2^13, it also keeps every int64 and float64 sum of products exact.
MAX_TABLE_PREC = 6000

# The primes of one build: B primes at precision prec hold B prec^2 floats in
# the Toeplitz matrix of the spanning rows, and each batched step is one
# numpy call for all B.  Per-prime T2 build, ms, median of 5 passes over 32
# random primes below 2^20, one prime per call before blocks / blocks of
# B = 1, 2, 4, 8, 16, range of two runs on a 2-core Xeon, numpy 2.4:
#   d = 16: 0.62-0.68 / 1.00-1.02, 0.64-0.65, 0.33-0.37, 0.17-0.22, 0.11-0.14
#   d = 25: 0.58-0.87 / 0.75-1.26, 0.52-0.82, 0.32-0.40, 0.21-0.30, 0.15-0.16
#   d = 33: 0.71-0.93 / 0.86-1.47, 0.66-0.70, 0.39-0.67, 0.32-0.36, 0.25-0.28
#   d = 49: 0.99-1.48 / 1.54-1.84, 0.95-1.18, 0.65-0.87, 0.60-0.65, 0.52-0.56
#   d = 100: 2.72-3.58 / 2.82-3.94, 2.57-2.92, 1.91-2.32, 1.78-2.20, 1.66-2.21
# A block of 16 costs 2-5 times a block of one at d = 16 to 33, so a search
# builds full blocks from its first draw, and pays with up to B - 1 primes
# past its last trial: over sweep-random's 34 weights (d 1 to 50, 308
# trials, seed 1) it builds 674 primes in 44 blocks, 86-91 ms in one
# process, where blocks doubling from one prime built 405 in 100, 125-140
# ms.  The gain past B = 8 is small, so a block holds at most MAX_BLOCK
# primes, and at most MAX_BLOCK_FLOATS floats (1 MiB) per Toeplitz matrix:
# 16 primes up to d = 42, 12 at d = 49, 3 at d = 100 and 1 from d = 126.
# At those sizes one build's traced peak is 1.7 MB at d = 49 and 1.6 MB at
# d = 100, against 0.2 and 0.8 MB one prime at a time
MAX_BLOCK_FLOATS = 1 << 17
MAX_BLOCK = 16


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


def _shape(k: int) -> tuple[int, int, int, int]:
    # (d, prec, b, alpha_d) of weight k: d rows of prec = 2(d+2)+1
    # coefficients, and k = 12d + 4 alpha_d + 6b with alpha_d in {0,1,2}
    if k % 2 or k < 12:
        raise ValueError(f"weight must be even and at least 12, got {k}")
    d = dim_cusp_forms(k)
    b = (k // 2) % 2
    alpha_d, rest = divmod(k - 12 * d - 6 * b, 4)
    assert rest == 0 and alpha_d in (0, 1, 2), f"exponent bookkeeping broke at k={k}"
    return d, 2 * (d + 2) + 1, b, alpha_d


def max_block(k: int) -> int:
    """The most primes that one build at weight k should take at once.

    B primes at precision prec hold B prec^2 floats in each Toeplitz matrix
    of :func:`spanning_set`: at most :data:`MAX_BLOCK_FLOATS`, and B at most
    :data:`MAX_BLOCK`, but at least 1.  Raises ValueError where k is not an
    even weight of at least 12.
    """
    prec = _shape(k)[1]
    return max(1, min(MAX_BLOCK, MAX_BLOCK_FLOATS // prec**2))


@functools.lru_cache(maxsize=4)
def _tables(prec: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # sigma_3(n), sigma_5(n) and prod (1 - q^n)^3 for n < prec, exact int64
    if prec > MAX_TABLE_PREC:
        raise ValueError(f"precision {prec} above {MAX_TABLE_PREC}: sigma_5 would overflow int64")
    tables = np.zeros((3, prec), dtype=np.int64)
    sigma3, sigma5, cube = tables
    for n in range(1, prec):
        sigma3[n::n] += n**3
        sigma5[n::n] += n**5
    # Jacobi: prod (1 - q^n)^3 = sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2}
    for m in range(math.isqrt(2 * prec) + 1):  # m(m+1)/2 > m^2/2 > prec beyond
        if (n := m * (m + 1) // 2) < prec:
            cube[n] = (-1) ** m * (2 * m + 1)
    tables.flags.writeable = False  # shared by every prime at this precision
    return tuple(tables)  # read-only views of its rows


def _pow(a: np.ndarray, e: int, p: np.ndarray) -> np.ndarray:
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
        result[:, 0] = 1
    return result


def _block(p) -> np.ndarray:
    # the checked moduli as a 1-d int64 array: the one check of a T2 build,
    # after which its later steps may read p
    if np.ndim(p) > 1:
        raise ValueError("moduli must be one prime or a 1-d sequence of primes")
    block = [operator.index(q) for q in ([p] if np.ndim(p) == 0 else p)]
    for q in block:
        check_modulus(q)
    return np.array(block, dtype=np.int64)


def spanning_set(k: int, p) -> np.ndarray:
    """The cusp forms g_i = Delta^i E6^b E4^(alpha_i) mod p, i = 1 .. d.

    With b = (k/2) mod 2 and alpha_i = (k - 12i - 6b)/4, g_i is a weight-k
    cusp form q^i + O(q^(i+1)).  Returns a d x prec int64 array whose row
    i-1 is g_i mod p, prec = 2(d+2)+1.  p may also be a 1-d sequence of B
    primes: then the result is B x d x prec (B = 0 included), slice r mod
    the r-th prime, and each step takes the whole block at once.  Raises
    ValueError, before any work, unless every p is a prime below 2^20, k an
    even weight of at least 12, and prec at most :data:`MAX_TABLE_PREC`.
    """
    primes = _block(p)
    d, prec, b, alpha_d = _shape(k)
    sigma3, sigma5, cube = _tables(prec)
    rows = np.zeros((len(primes), d, prec))  # float64 residues, for the products below
    if rows.size:  # nothing to build for an empty space or an empty block
        _fill_rows(rows, b, alpha_d, primes, sigma3, sigma5, cube)
    return rows.astype(np.int64).reshape(np.shape(p) + (d, prec))


def _fill_rows(rows: np.ndarray, b: int, alpha_d: int, primes: np.ndarray,
               sigma3: np.ndarray, sigma5: np.ndarray, cube: np.ndarray) -> None:
    # rows[r, i-1] = g_i mod primes[r], as float64 residues
    d, prec = rows.shape[1:]
    column = primes[:, None]  # one row per prime, against the series' columns
    e4 = (240 * (sigma3 % column) % column).astype(np.float64)
    e6 = (-504 * (sigma5 % column) % column).astype(np.float64)
    e4[:, 0] = e6[:, 0] = 1
    p = column.astype(np.float64)
    dl = np.zeros(e4.shape)
    dl[:, 1:] = _pow((cube % column).astype(np.float64), 8, p)[:, :-1]
    first = _mul(dl, _pow(e4, alpha_d + 3 * (d - 1), p), p)
    rows[:, 0] = _mul(first, e6, p) if b else first
    w = _mul(dl, _inverse(_pow(e4, 3, p), p), p)
    # g_i = q^i + ... and w = q + ..., so row i-1 is zero left of column i:
    # each product skips those columns of its rows, and the columns of its
    # result that are known to be zero
    s = math.isqrt(d)
    w_s = _pow(w, s, p) if s < d else None
    p = p[:, None]  # one block of rows per prime
    toeplitz = _toeplitz(w, prec)  # B prec^2 floats: one such matrix at a time
    for i in range(1, s):
        rows[:, i : i + 1, i + 1 :] = _matmul_residues(
            rows[:, i - 1 : i, i:], toeplitz[:, i:, i + 1 :], p)
    del toeplitz
    if w_s is not None:  # each later block of s rows is the block before times w^s
        toeplitz = _toeplitz(w_s, prec)
        for i in range(s, d, s):
            t = min(s, d - i)
            rows[:, i : i + t, i + 1 :] = _matmul_residues(
                rows[:, i - s : i - s + t, i - s + 1 :], toeplitz[:, i - s + 1 :, i + 1 :], p)


def miller_basis(k: int, p) -> np.ndarray:
    """Echelon basis f_1 .. f_d of the weight-k cusp space, mod p < 2^20.

    Returns a d x (2(d+2)+1) int64 array of residues whose row i-1 is f_i
    mod p, with coefficient 1 at q^i and 0 at every other q^j, 1 <= j <= d;
    for a 1-d sequence of B primes, B such arrays stacked, as in
    :func:`spanning_set`.  The elimination runs up from f_d = g_d: f_i is
    g_i minus its coefficients at q^(i+1) .. q^d times the finished rows
    below, one batched vector-matrix product per row for the whole block.
    """
    done = spanning_set(k, p).astype(np.float64)  # which checks p and k first
    primes = np.asarray(p, dtype=np.float64)[..., None, None]  # a batch axis iff done has one
    d = done.shape[-2]  # rows i+1.. are finished when row i starts
    for i in range(d - 2, -1, -1):
        # row i, 0-based, is f = g - c_(i+2) f_(i+2) - .. - c_d f_d, c_j the
        # coefficient of g = g_(i+1) at q^j: one product of (1, p - c_(i+2),
        # .., p - c_d) with g and the finished rows
        coeffs = primes - done[..., i : i + 1, i + 1 : d + 1]
        coeffs[..., 0] = 1
        done[..., i : i + 1, :] = _matmul_residues(coeffs, done[..., i:, :], primes)
    rows = done.astype(np.int64)
    assert (rows[..., 1 : d + 1] == np.eye(d, dtype=np.int64)).all(), (
        f"echelon property failed at k={k} mod {p}"
    )
    return rows
