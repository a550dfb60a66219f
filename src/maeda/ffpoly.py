"""Arithmetic over prime fields F_p with p < 2^20.

Matrix reduction, characteristic polynomials, squarefreeness, and
factorization patterns.

F_p data are plain int64 numpy arrays of residues in [0, p), passed together
with p: a matrix is a square 2-d array, and a polynomial is a 1-d array of
coefficients, lowest degree first, whose last entry is its leading
coefficient.  Data enter F_p only through the public functions, by one
exact reduction (:func:`_residues`) that raises ValueError before any work
unless p is a prime below 2^20 and every entry is an integer, and the
helpers trust their p and their residues.

Two regimes.  A trial of the search takes the characteristic polynomial of
a d x d matrix and the pattern of a degree-d polynomial, and for nearly all
of them p > d.  There, :func:`charpoly_mod_p` reads the characteristic
polynomial off traces of matrix powers, about 2 sqrt(d) BLAS products: the
power sums tr(A^k) give it by Newton's identities.  Up to degree
:data:`TRACE_FACTOR_MAX_DEGREE`, :func:`is_squarefree` does the same with
the Frobenius matrix Q: the traces of its powers to the full degree count
the distinct factors of each degree, and :func:`factorization_pattern`
reads those counts.  Q itself is built by baby and giant steps: about
sqrt(d) rows one at a time, then each block of sqrt(d) rows in one
product.  Otherwise the characteristic polynomial comes from a Hessenberg
reduction, squarefreeness from a gcd with the derivative, and the pattern
from distinct-degree splitting with the Frobenius matrix and blocked gcds
(von zur Gathen & Shoup, 1992; Kaltofen & Shoup, 1998), which take about d
numpy steps one after another.  The traces need p > d (:func:`_by_traces`):
Newton's identities divide by every k <= d, and a Frobenius trace is an
integer up to d read from its residue.  The Hessenberg charpoly therefore
runs only for p <= d, and the gcd and splitting also above the measured
crossover degree, where their O(d^2) and O(d^3) beat the O(d^3.5) of the
traces.  Both regimes give the same results; the tests compare them.

Exactness.  With p < 2^20 a product of two residues is below 2^40, and
float64 holds every integer below 2^53, so a float64 sum of fewer than
:data:`MAX_FLOAT_TERMS` = 2^13 such products is exact.  Dense vector-matrix
and matrix products run in float64 through BLAS (:func:`_matmul`,
:func:`_matmul_residues`), and series products and Newton inverses, for
the divisions here and for a block of primes in :mod:`maeda.qseries`,
through :func:`_mul`: ``np.convolve`` in float64, or batched products with
Toeplitz matrices (:func:`_toeplitz`); each of the helpers asserts the
bound on its terms per sum before it multiplies.  The baby and
giant products sum at most one row length per entry: the size of the
matrix here, and for the series of :mod:`maeda.qseries` their length, at
most 6000.  Doubling the reduction rows, and the matrix of multiplication
by an element mod f (:func:`_times`), fold the shifted terms below X^d
into the product's sums and reduce once: a sum is at most d - 1 products
below 2^40 and one residue below 2^20, so while its d terms are fewer than
2^13, which each asserts, it stays below (2^13 - 1) 2^40 = 2^53 - 2^40,
exact and inside the range of the float64 reduction below.  The trace
kernels also assert their own size preconditions.  A trace
tr(M^a M^b) is a sum over the d^2 entries of two matrices, exact in one
product only while d^2 < 2^13, that is d <= 90; :func:`_power_traces` cuts
it into chunks of fewer than 2^13 terms, each an exact product reduced mod
p, and adds the chunk residues: fewer than d^2 / 2^12 + 1 of them, each
below 2^20, so their sum is exact at any d with d^2 < 2^45.  The products
of the Hessenberg charpoly, of X^p mod f, of the gcd and of distinct-degree
splitting run in int64, which sums at most n products below 2^40, exact
while n < 2^23; polynomials here have degree at most the matrix size, and
an n x n matrix with n >= 2^23 would take 512 TiB.  Newton's identities
sum at most d products of residues in int64: at d <= 1166, below
1166 * 2^40 < 2^51, and since p > d on that path, below 2^60 at any d.
The paper's range, k <= 14000, has d <= 1166 and series of length at most
2337.  Float results return to residues as ``% p``, as
``astype(np.int64) % p``, or for whole matrices as x - floor(x / p) p,
about twice as fast; ``np.fmod`` on float64 would be exact too, but
measured about 30 times slower (150 ns against 4.6 ns per element).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .patterns import Pattern
from .primes import MAX_MODULUS, check_modulus

__all__ = [
    "MAX_MODULUS",
    "reduce_matrix",
    "charpoly_mod_p",
    "is_squarefree",
    "factorization_pattern",
    "distinct_degree_split",
]


def reduce_matrix(M, p: int) -> np.ndarray:
    """A new int64 array: the square integer matrix M reduced exactly into [0, p).

    M is an integer array, nested sequences, or anything with such ``rows``,
    like :func:`maeda.oracles.hecke_matrix_T2`, entries beyond int64 included.
    Raises ValueError unless p is a prime below 2^20 and M a square integer matrix.
    """
    h = _residues(getattr(M, "rows", M), p)
    if h.shape == (0,):  # no rows at all
        h = h.reshape(0, 0)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    return h


def _residues(a, p: int) -> np.ndarray:
    # a new int64 array: a's integer entries (an integral float is one)
    # reduced exactly into [0, p).  All but an array of signed integers is
    # read as Python ints: numpy would read the list [2^63 + 1, -1] as floats
    check_modulus(p)
    x = a if isinstance(a, np.ndarray) else np.asarray(a, dtype=object)
    if x.dtype.kind in "bi":
        return x.astype(np.int64, copy=False) % p
    exact = np.frompyfunc(lambda e: operator.index(
        int(e) if isinstance(e, float) and e.is_integer() else e) % p, 1, 1)
    try:
        return np.asarray(exact(x), dtype=np.int64)
    except TypeError:
        raise ValueError("entries must be integers") from None


# float64 holds every integer below 2^53 and a product of two residues is
# below 2^40, so a float64 dot product of residues is exact while it sums
# fewer than 2^13 products.
MAX_FLOAT_TERMS = 1 << 13


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # a @ b mod p for float64 arrays of residues, as int64 residues; exact
    assert a.shape[-1] < MAX_FLOAT_TERMS, "a float64 dot product could exceed 2^53"
    return (a @ b).astype(np.int64) % p


def _matmul_residues(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray | None = None
                     ) -> np.ndarray:
    # a @ b mod p for float64 arrays of residues, as float64 residues; exact
    assert a.shape[-1] < MAX_FLOAT_TERMS, "a float64 dot product could exceed 2^53"
    return _reduce(np.matmul(a, b, out=out), p)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    # x mod p in place, for float64 integers 0 <= x < 2^53 - 2^40, such as
    # sums of fewer than 2^13 products of residues.  For x = qp + r, x / p is
    # correctly rounded and (q + 1)p < 2^53, so the spacing of doubles just
    # below q + 1 is under 2/p, while x / p lies at least 1/p below q + 1:
    # it rounds to less than q + 1, and its floor is q.  On a whole matrix
    # this is about twice as fast as the int64 remainder of _matmul
    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _toeplitz(w: np.ndarray, cols: int) -> np.ndarray:
    # contiguous float64 n x cols matrix, n = w.shape[-1], whose row j is
    # X^j w cut at X^cols, so x @ _toeplitz(w, n) is the product x w cut at
    # X^n; leading axes of w are batch axes, one matrix per series.  Row j
    # starts j zeros before w in a zero-padded copy, read with a negative
    # row stride, and every index stays inside the copy (numpy checks it)
    n = w.shape[-1]
    padded = np.zeros(w.shape[:-1] + (n - 1 + max(n, cols),))
    padded[..., n - 1 : 2 * n - 1] = w
    step = padded.itemsize
    rows = np.ndarray(w.shape[:-1] + (n, cols), buffer=padded, offset=(n - 1) * step,
                      strides=padded.strides[:-1] + (-step, step))
    return np.ascontiguousarray(rows)


# A series product of length n takes, per prime of a block of B, either an
# n x n Toeplitz matrix (a copy of n^2 floats) and its product, or one
# np.convolve (n^2 / 2 multiply-adds, one call per prime).  Per product and
# prime, us, best of 3 runs of 400, Toeplitz / convolve, on a 2-core Xeon
# with numpy 2.4 (OpenBLAS): n = 37: 20.6/13.1 at B = 1, 10.0/9.7 at B = 2,
# 6.8/8.3 at B = 4, 3.0/7.3 at B = 16; n = 103: 26.5/20.2, 17.2/16.4,
# 12.3/13.8, 10.1/12.5; n = 150: 32.4/24.9, 23.6/21.4, 18.4/19.1,
# 29.2/16.8; n = 205: 42.1/32.7, 33.2/26.9, 36.1/24.6, 61.3/22.4.  So
# blocks of two or more primes take Toeplitz products up to this length
# (d <= 61), and convolutions above it
SERIES_TOEPLITZ_MAX_LENGTH = 127


def _mul(a: np.ndarray, b: np.ndarray, p: np.ndarray | int, start: int = 0,
         stop: int | None = None) -> np.ndarray:
    # coefficients start..stop-1 (stop = n by default) of a_r b_r mod p_r, for
    # each row r of the float64 residue series a (B x m) and b (B x n), m <= n,
    # and the column p of their primes (or one prime, for B = 1), as float64
    # residues; exact, each coefficient sums at most m products.  For two or
    # more rows up to SERIES_TOEPLITZ_MAX_LENGTH, each row of a times the
    # Toeplitz matrix of that row of b, in one batched product; otherwise one
    # convolution per row
    m, n = a.shape[-1], b.shape[-1]
    stop = n if stop is None else stop
    if len(a) == 1 or n > SERIES_TOEPLITZ_MAX_LENGTH:
        assert m < MAX_FLOAT_TERMS, "a float64 convolution could exceed 2^53"
        out = np.empty((len(a), stop - start))
        for r in range(len(a)):
            out[r] = np.convolve(a[r], b[r])[start:stop]
        return _reduce(out, p)
    return _matmul_residues(a[:, None], _toeplitz(b, stop)[:, :m, start:], p[:, None])[:, 0]


def _inverse(f: np.ndarray, p: np.ndarray | int) -> np.ndarray:
    # 1/f mod X^n for float64 residue series f (B x n) with f[:, 0] = 1, p as
    # in _mul, by Newton's iteration: if f g = 1 + X^m e mod X^t, then
    # 1/f = g - X^m g e mod X^t, t <= 2m
    g = np.ones((len(f), 1))
    while g.shape[1] < f.shape[1]:
        m = g.shape[1]
        t = min(2 * m, f.shape[1])
        e = _mul(g, f[:, :t], p, m, t)
        g = np.concatenate((g, -_mul(g[:, : t - m], e, p) % p), axis=1)
    return g


def _by_traces(d: int, p: int) -> bool:
    # power traces of a d x d matrix or a degree-d polynomial need p > d:
    # Newton's identities divide by every k <= d, and a Frobenius trace is
    # an integer up to d read from its residue
    return p > d


def _power_traces(M: np.ndarray, m: int, p: int) -> np.ndarray:
    # tr(M^i) mod p for 0 <= i <= m, M a d x d float64 array of residues, by
    # Paterson-Stockmeyer baby and giant steps.  The babies M^a, a < s, are
    # kept; the giants G_b = (M^T)^(bs) are made one at a time, so at most
    # s + 3 matrices are live.  M^0 = I and M^1 = M, and G_1 = M^T at
    # s = 1, need no product, so the steps take s - 3 + ceil((m + 1) / s)
    # products, and s is the least that makes this fewest.
    # tr(M^(a + bs)) = <M^a, G_b>, a sum over the d^2 entries taken in
    # chunks of fewer than MAX_FLOAT_TERMS terms: each chunk is an exact
    # float product, reduced mod p, and the chunks are added up and reduced
    # once more
    d = M.shape[0]
    s = min(range(1, math.isqrt(m) + 2), key=lambda s: s - (-(m + 1) // s))
    giants = -(-(m + 1) // s)
    chunks = -(-d * d // (MAX_FLOAT_TERMS - 1)) or 1
    size = -(-d * d // chunks)
    assert size < MAX_FLOAT_TERMS, "a chunk's float64 product could exceed 2^53"
    assert chunks * p < 2**53, "a sum of chunk residues could exceed 2^53"
    baby = np.empty((s, d, d))
    baby[0] = np.eye(d)
    if s > 1:
        baby[1] = M
    for a in range(2, s):
        _matmul_residues(baby[a - 1], M, p, out=baby[a])
    flat = baby.reshape(s, d * d)
    part = np.zeros((giants, chunks, s))  # part[b, c, a]: chunk c of <M^a, G_b>
    part[0, 0] = flat[:, :: d + 1].sum(axis=1)  # G_0 = I: the babies' traces
    if giants > 1:  # G_1 = (M^s)^T
        step = giant = _matmul_residues(M.T, baby[s - 1].T, p) if s > 1 else M.T
    for b in range(1, giants):
        g = giant.reshape(-1)
        for c in range(chunks):
            chunk = slice(c * size, (c + 1) * size)
            np.matmul(flat[:, chunk], g[chunk], out=part[b, c])
        if b + 1 < giants:
            giant = _matmul_residues(giant, step, p)
    traces = _reduce(part, p).sum(axis=1)  # entry (b, a), below chunks p
    return traces.reshape(-1)[: m + 1].astype(np.int64) % p


def charpoly_mod_p(A: np.ndarray, p: int) -> np.ndarray:
    """Monic characteristic polynomial of the square matrix A over F_p.

    A is read by :func:`reduce_matrix`, which raises ValueError unless p is
    a prime below 2^20 and A square.  When p > d, the power sums tr(A^k),
    k <= d, come from about 2 sqrt(d) matrix products (Paterson &
    Stockmeyer, SIAM J. Comput. 2, 1973) and give the coefficients by
    Newton's identities (the Le Verrier-Faddeev method; Faddeev & Faddeeva,
    *Computational Methods of Linear Algebra*, 1963).
    Otherwise the matrix is reduced to upper Hessenberg form by a
    similarity built from pivoted eliminations, and the leading-minor
    recurrence runs on it (Cohen, *A Course in Computational Algebraic
    Number Theory*, sec. 2.2.4).  Both are deterministic.  The Hessenberg
    route is O(d^3) in about 2d numpy steps one after another; the traces
    cost O(d^3.5) in about 2 sqrt(d) steps.  On T2 at primes near 2^20,
    traces against Hessenberg took 2.8 against 9.1 ms at d = 100, 18 against
    36-39 ms at d = 200, 0.15-0.17 against 0.24-0.26 s at d = 400, and
    1.4-1.6 against 2.3-2.5 s at d = 800, so the traces run whenever p > d.
    """
    h = reduce_matrix(A, p)
    if _by_traces(h.shape[0], p):
        return _charpoly_traces(h, p)
    return _charpoly_hessenberg(h, p)


def _charpoly_traces(h: np.ndarray, p: int) -> np.ndarray:
    # Newton's identities for f = X^d + c_1 X^(d-1) + ... + c_d and the power
    # sums s_i = tr(h^i): k c_k = -(s_k + sum_{i<k} c_(k-i) s_i).  Each sum is
    # an int64 dot product of fewer than d terms below 2^40: at d <= 1166,
    # below 1166 * 2^40 < 2^51, and as p > d, below 2^60 at any d
    d = h.shape[0]
    assert p > d, "Newton's identities divide by every k <= d"
    s = _power_traces(h.astype(np.float64), d, p)
    inverse = [0, 1]  # inverse[k] = 1/k mod p, from p = (p // k) k + p % k
    for k in range(2, d + 1):
        inverse.append(-(p // k) * inverse[p % k] % p)
    c = np.zeros(d + 1, dtype=np.int64)
    c[0] = 1
    for k in range(1, d + 1):
        c[k] = -(int(s[k]) + int(c[k - 1 : 0 : -1] @ s[1:k])) * inverse[k] % p
    return c[::-1].copy()


def _charpoly_hessenberg(h: np.ndarray, p: int) -> np.ndarray:
    # h: a square int64 array of residues, overwritten.  Reduce to upper
    # Hessenberg form, then run the leading-minor recurrence.  Every product
    # is an int64 sum of at most d products of residues, exact (see the
    # module docstring)
    d = h.shape[0]
    for m in range(1, d - 1):
        # rows m.. are zero left of column m-1, so only columns m-1.. change
        if not h[m, m - 1]:
            nonzero = np.flatnonzero(h[m + 1 :, m - 1])
            if nonzero.size == 0:
                continue
            r = m + 1 + int(nonzero[0])
            h[[m, r], m - 1 :] = h[[r, m], m - 1 :]
            h[:, [m, r]] = h[:, [r, m]]
        t = h[m + 1 :, m - 1] * pow(int(h[m, m - 1]), p - 2, p) % p
        if t.any():
            # eliminate all of column m-1 below row m in one similarity step:
            # rows i -= t_i * row m, then column m += sum_i t_i * column i
            h[m + 1 :, m - 1 :] = (h[m + 1 :, m - 1 :] - np.outer(t, h[m, m - 1 :])) % p
            h[:, m] = (h[:, m] + h[:, m + 1 :] @ t) % p
    # charpoly of the leading m x m minor, by expansion along the last row:
    # P[m] = (X - h_mm) P[m-1] - sum_k h_{k,m} (prod of subdiagonal run) P[k-1],
    # where run[k-1] = h[k, k-1] ... h[m-1, m-2] grows by one factor per m
    P = np.zeros((d + 1, d + 1), dtype=np.int64)  # row m is P[m]
    P[0, 0] = 1
    run = np.zeros(d, dtype=np.int64)
    for m in range(1, d + 1):
        prev = P[m - 1, :m]
        cur = P[m, : m + 1]
        cur[1:] = prev
        cur[:m] -= h[m - 1, m - 1] * prev
        if m > 1:
            run[m - 2] = 1
            run[: m - 1] = run[: m - 1] * h[m - 1, m - 2] % p
            coefs = h[: m - 1, m - 1] * run[: m - 1] % p
            cur[:m] -= coefs @ P[: m - 1, :m]
        cur %= p
    return P[d].copy()


# ---------------------------------------------------------------------------
# raw-array polynomial helpers (trimmed int64 arrays, lowest degree first)

def _trim(a: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(a)
    return a[: nonzero[-1] + 1] if nonzero.size else a[:0]


def _divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    # quotient and remainder of trimmed a by trimmed b != 0.  The quotient's
    # reversal is rev(a) / rev(b) mod X^(deg a - deg b + 1), one Newton
    # inverse (von zur Gathen & Gerhard, Modern Computer Algebra, sec. 9.1),
    # taken as a block of one series
    db, n = len(b) - 1, len(a) - len(b) + 1  # n: length of the quotient
    if n <= 0:
        return a[:0].copy(), a.copy()
    lead_inv = pow(int(b[-1]), p - 2, p)
    rev_b = np.zeros((1, n))
    rev_b[0, : min(n, db + 1)] = b[::-1][:n] * lead_inv % p
    q = _mul(a[None, ::-1][:, :n].astype(np.float64), _inverse(rev_b, p), p)[0] * lead_inv % p
    q = q[::-1].astype(np.int64)
    if not db:
        return q, a[:0].copy()
    r = (a[:db] - np.convolve(q[:db], b[:db])[:db]) % p  # a - q b has degree < db
    return q, _trim(r)


def _exact_div(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    q, r = _divmod(a, b, p)
    assert not r.size, "division was expected to be exact"
    return q


def _gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # monic gcd.  A first step that drops the degree by more than one is one
    # Newton division; the rest runs in two fixed buffers with explicit
    # degree tracking so the long Euclid chains allocate nothing; entries
    # above the tracked degree are stale and never read
    a, b = _trim(a), _trim(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1 and len(a) > len(b) + 1:
        a, b = b, _divmod(a, b, p)[1]
    size = max(len(a), 1)
    buf_a = np.zeros(size, dtype=np.int64)
    buf_a[: len(a)] = a
    buf_b = np.zeros(size, dtype=np.int64)
    buf_b[: len(b)] = b
    da, db = len(a) - 1, len(b) - 1
    while db >= 0:
        if db == 0:
            return np.ones(1, dtype=np.int64)
        binv = pow(int(buf_b[db]), p - 2, p)
        while da >= db:
            t = int(buf_a[da]) * binv % p
            if t:
                buf_a[da - db : da] = (buf_a[da - db : da] - t * buf_b[:db]) % p
            da -= 1
            while da >= 0 and not buf_a[da]:
                da -= 1
        buf_a, buf_b, da, db = buf_b, buf_a, db, da
    if da < 0:
        return buf_a[:0]
    g = buf_a[: da + 1].copy()
    if g[da] != 1:
        g = g * pow(int(g[da]), p - 2, p) % p
    return g


def _reduction_rows(f: np.ndarray, p: int) -> np.ndarray:
    # float64 rows[j] = X^(d+j) mod f for 0 <= j < d, f monic of degree
    # d >= 2, by doubling: X^(d+j+m) is X^(d+j) times X^m, whose terms from
    # X^d on are m rows already made, so rows m..2m-1 are one product with
    # rows 0..m-1 plus the shifted terms below X^d, reduced once: a sum of
    # m products and one residue, m + 1 terms
    d = len(f) - 1
    rows = np.zeros((d, d))
    rows[0] = (-f[:d]) % p
    m = 1
    while m < d:
        t = min(m, d - m)
        assert m + 1 < MAX_FLOAT_TERMS, "a float64 sum could exceed 2^53"
        block = rows[:t, d - m :] @ rows[:m]
        block[:, m:] += rows[:t, : d - m]
        rows[m : m + t] = _reduce(block, p)
        m += t
    return rows


def _mulmod(a: np.ndarray, b: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    # a, b of length d (deg < d); result length d, reduced mod the monic f
    # behind ``rows``.  Exact: see module docstring.
    d = len(a)
    c = np.convolve(a, b) % p
    if len(c) <= d:
        out = np.zeros(d, dtype=np.int64)
        out[: len(c)] = c
        return out
    high = c[d:].astype(np.float64)
    return (c[:d] + _matmul(high, rows[: len(high)], p)) % p


def _x_power(e: int, rows: np.ndarray, p: int) -> np.ndarray:
    # X^e mod the monic f behind ``rows``, e >= 1, by left-to-right binary
    # powering from X^s, s the longest leading bit prefix of e below 2n:
    # X^s is a monomial or one of the rows X^n..X^(2n-1), so only the bits
    # after the prefix cost a squaring.  Per bit, h -> h^2, or X h^2 for a
    # set bit, whose terms from X^n on are reduced in one int64 product
    # with those rows
    n = rows.shape[1]
    table = rows.astype(np.int64)
    bits = bin(e)[2:]
    k = min(len(bits), (2 * n - 1).bit_length())
    if int(bits[:k], 2) >= 2 * n:
        k -= 1
    s = int(bits[:k], 2)
    if s < n:
        h = np.zeros(n, dtype=np.int64)
        h[s] = 1
    else:
        h = table[s - n].copy()
    shifted = np.zeros(n + 1, dtype=np.int64)  # X h, for a set bit
    for bit in bits[k:]:
        if bit == "1":
            shifted[1:] = h
            c = np.convolve(h, shifted)
        else:
            c = np.convolve(h, h)
        c %= p
        h = (c[:n] + c[n:] @ table[: len(c) - n]) % p
    return h


# For p > n, squarefreeness and the pattern of a degree-n polynomial come
# from the Frobenius traces to n up to this degree, and from a gcd with the
# derivative and distinct-degree splitting above it.  Squarefree test plus
# pattern per trial on T2 reductions at 8 random primes in (2^19, 2^20),
# median ms, traces against gcd and splitting, medians of 3 runs at n = 250
# and 300 and of 6 at 275 and 290, on a shared 2-core Xeon with numpy 2.4
# (OpenBLAS): 42.4 / 57.6 at n = 250, 56.0 / 65.1 at n = 275, 66.2 / 73.4
# at n = 290 and 69.7 / 53.4 at n = 300.  The traces grow as n^3.5 and
# splitting as n^3, so the last n measured where the traces did not lose is
# the limit
TRACE_FACTOR_MAX_DEGREE = 290


def is_squarefree(f: np.ndarray, p: int) -> bool:
    """True iff f has no repeated irreducible factor over F_p.

    Raises ValueError unless p is a prime below 2^20 and f is a 1-d array
    of integers, not zero mod p.  f is made monic first, and when p > n =
    deg f and 2 <= n <= :data:`TRACE_FACTOR_MAX_DEGREE`, the answer comes
    from the traces of the Frobenius matrix Q to n.  On
    F_p[X]/(g^m), g irreducible of degree e, Frobenius maps the ideal
    (g)^j into (g)^(pj), inside (g)^(j+1), so on every graded piece of the
    (g)-adic filtration but the residue field F_(p^e) it is nilpotent.  So
    tr(Q^i) is the total degree of the *distinct* irreducible factors of f
    whose degree divides i, an integer up to n < p, and Möbius inversion of
    the traces to n gives the factor degrees of the radical of f (see
    :func:`factorization_pattern`): f is squarefree iff they add up to n.
    Otherwise gcd(f, f') is taken, and f is squarefree iff it is constant.

    The last answer is cached, keyed on p and the coefficients, and on the
    trace path with it the factor degrees: a search tests f and then
    factors it, and :func:`factorization_pattern` tests it again and reads
    the degrees instead of building Q again.
    """
    return _squarefree(p, _monic(f, p)[0].tobytes())[0]


@functools.lru_cache(maxsize=1)
def _squarefree(p: int, coeffs: bytes) -> tuple[bool, tuple[int, ...] | None]:
    # for monic f: (squarefree?, the sieved traces of _factor_degrees to n,
    # or None off the trace path)
    f = np.frombuffer(coeffs, dtype=np.int64)
    n = len(f) - 1
    if 2 <= n <= TRACE_FACTOR_MAX_DEGREE and _by_traces(n, p):
        found = _factor_degrees(f, p)
        return sum(found) == n, found
    derivative = f[1:] * np.arange(1, len(f)) % p
    return len(_gcd(f, derivative, p)) <= 1, None


def _monic(f, p: int) -> tuple[np.ndarray, bool]:
    # the monic multiple of f, and whether f is monic: its last residue is
    # 1, which an untrimmed f's is not
    f = _residues(f, p)
    if f.ndim != 1 or not f.any():
        raise ValueError("a polynomial must be a 1-d array, not zero mod p")
    if f[-1] == 1:
        return f, True
    f = _trim(f)
    return f * pow(int(f[-1]), p - 2, p) % p, False


def _factorable(f, p: int) -> tuple[np.ndarray, tuple[int, ...] | None]:
    # f and its _squarefree record's factor degrees; ValueError unless monic and squarefree
    f, monic = _monic(f, p)
    squarefree, found = _squarefree(p, f.tobytes()) if monic else (False, None)
    if not squarefree:
        raise ValueError("factoring requires a monic squarefree polynomial")
    return f, found


def _times(h: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    # float64 matrix of multiplication by h mod the monic f behind ``rows``,
    # deg h < n = deg f: row j is X^j h mod f, h shifted by j, its terms from
    # X^n on reduced by the rows
    n = len(h)
    shifted = _toeplitz(h, 2 * n - 1)
    assert n < MAX_FLOAT_TERMS, "a float64 sum could exceed 2^53"
    out = shifted[:, n:] @ rows[:-1]  # n - 1 products per entry
    out += shifted[:, :n]  # and one residue, reduced once
    return _reduce(out, p)


def _frobenius(f: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    # for monic f of degree n >= 2: the float64 reduction rows of f, and the
    # float64 Frobenius matrix Q of F_p[X]/(f), whose row r is X^(rp) mod f.
    # Baby steps: row 1 is X^p, and rows 2..s, s = isqrt(n), are each the
    # one before times the matrix of multiplication by X^p.  Giant steps:
    # each later block of s rows is the block before times the matrix of
    # multiplication by X^(sp), row s, in one product
    n = len(f) - 1
    rows = _reduction_rows(f, p)
    s = math.isqrt(n)
    frob = np.zeros((n, n))
    frob[0, 0] = 1
    frob[1] = _x_power(p, rows, p)
    times_xp = _times(frob[1], rows, p)
    for r in range(2, min(s + 1, n)):
        frob[r] = _matmul(frob[r - 1], times_xp, p)
    if s + 1 < n:
        giant = _times(frob[s], rows, p)
        for r in range(s + 1, n, s):
            t = min(s, n - r)
            frob[r : r + t] = _matmul(frob[r - s : r - s + t], giant, p)
    return rows, frob


def distinct_degree_split(f: np.ndarray, p: int) -> dict[int, np.ndarray]:
    """Split monic squarefree f into subproducts by irreducible-factor degree.

    Returns {i: product of all irreducible factors of degree i}, each value
    a monic polynomial array, the product of all values equal to f.  Raises
    ValueError unless p is a prime below 2^20 and f is monic and squarefree.

    gcd(f, X^(p^i) - X) is the product of the factors whose degree divides i.
    The powers X^(p^i) mod f come from the Frobenius matrix Q, whose row r is
    X^(rp) mod f, each row the one before times the matrix of multiplication
    by X^p mod f: Frobenius is F_p-linear, so each round is one
    vector-matrix product h -> h Q instead of a modular exponentiation (von
    zur Gathen & Shoup, "Computing Frobenius maps and factoring polynomials",
    1992).  The rounds are taken in blocks of ceil(sqrt(deg f)), and the
    products of X^(p^i) - X over a block share one gcd with what remains of
    f; only a block whose gcd is non-trivial is refined round by round
    (the baby-step/giant-step blocking of Kaltofen & Shoup, "Subquadratic-time
    factoring of polynomials over finite fields", 1998).  Once 2(i+1) exceeds
    the remaining degree, what is left is itself irreducible.  The factors
    are never separated further: a factorization *pattern* only needs their
    degrees.
    """
    return _split(_factorable(f, p)[0], p)


def _split(f: np.ndarray, p: int) -> dict[int, np.ndarray]:
    fr = f.copy()  # f with the factors found so far divided out
    n = deg = len(fr) - 1
    if n < 2:
        return {n: fr} if n else {}
    # everything below is reduced mod the original f, so the rows and Q are
    # built once; h = X^(p^j) mod f is also X^(p^j) mod every factor fr of f
    rows, frob = _frobenius(fr, p)
    h = np.zeros(n, dtype=np.int64)
    h[1] = 1
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    block = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    out: dict[int, np.ndarray] = {}
    j = 0  # every factor of degree <= j has been divided out of fr
    while 2 * (j + 1) <= deg:
        last = min(j + block, deg // 2)
        diffs = []  # X^(p^i) - X mod f for i in j+1..last
        prod = one
        for _ in range(j, last):
            h = _matmul(h.astype(np.float64), frob, p)  # h(X) -> h(X^p)
            hx = h.copy()
            hx[1] = (hx[1] - 1) % p
            diffs.append(hx)
            prod = _mulmod(prod, hx, rows, p)
        g = _gcd(fr, prod, p)  # the factors of fr of degree j+1..last
        for i, hx in enumerate(diffs, start=j + 1):
            if len(g) - 1 < 2 * i:  # no factor of degree < i is left in g,
                if len(g) > 1:  # so g is 1 or irreducible
                    out[len(g) - 1] = g
                    fr = _exact_div(fr, g, p)
                break
            gi = _gcd(g, hx, p)
            if len(gi) > 1:
                assert (len(gi) - 1) % i == 0, "degree-i subproduct must have degree divisible by i"
                out[i] = gi
                fr = _exact_div(fr, gi, p)
                g = _exact_div(g, gi, p)
        deg = len(fr) - 1
        j = last
    if deg > 0:  # no factor of degree <= j is left and deg < 2(j+1): irreducible
        out[deg] = fr
    return out


def factorization_pattern(f: np.ndarray, p: int) -> Pattern:
    """Factorization pattern of a monic squarefree f over F_p.

    The multiset {degree: count} of its irreducible factors.  Raises
    ValueError unless p is a prime below 2^20 and f is monic and
    squarefree; elsewhere the pattern would be ill-defined.

    When p > n = deg f and 2 <= n <= :data:`TRACE_FACTOR_MAX_DEGREE`,
    the pattern is read off traces.  F_p[X]/(f) is the product of the fields
    F_(p^e), one per irreducible factor of degree e, and on F_(p^e) the
    i-th power of Frobenius has trace e if e divides i and 0 otherwise: it
    permutes the e elements of a normal basis, fixing all of them if e
    divides i and none otherwise (Lidl & Niederreiter, *Finite Fields*,
    Thm. 2.35).  So tr(Q^i), with
    Q the Frobenius matrix (Berlekamp's Q; Knuth, *The Art of Computer
    Programming* vol. 2, sec. 4.6.2), is the total degree S(i) of the
    factors whose degree divides i; since S(i) <= n < p, the residue is
    that integer.  Möbius inversion of S(e) = sum over m | e of m c_m gives
    the number c_e of factors of degree e.  :func:`is_squarefree` has just
    taken these traces for every i <= n and cached the counts c_e, so the
    pattern reads them and builds nothing.  Otherwise the pattern comes
    from :func:`distinct_degree_split`: for p <= n, where a trace cannot be
    read as an integer, and above the crossover degree, where splitting's
    O(n^3) is faster than the traces' O(n^3.5).
    """
    f, found = _factorable(f, p)
    if found is None:
        return Pattern.from_pairs((i, (len(g) - 1) // i) for i, g in _split(f, p).items())
    return Pattern.from_pairs((e, v // e) for e, v in enumerate(found) if v)


def _factor_degrees(f: np.ndarray, p: int) -> tuple[int, ...]:
    # for monic f of degree n with 2 <= n < p: entry e of the result,
    # 1 <= e <= n, is the total degree e c_e of the distinct irreducible
    # factors of degree e, entry 0 is 0.  found[e] starts as tr(Q^e), the
    # total degree of the distinct factors whose degree divides e, and once
    # the divisors of e below it are taken out is e c_e: a sieve that
    # performs the Möbius inversion
    n = len(f) - 1
    assert p > n, "a Frobenius trace up to deg f is read as an integer"
    found = _power_traces(_frobenius(f, p)[1], n, p).tolist()
    found[0] = 0
    for e in range(1, len(found)):
        assert found[e] % e == 0, "Frobenius traces must count factors"
        for multiple in range(2 * e, len(found), e):
            found[multiple] -= found[e]
    return tuple(found)
