"""Arithmetic over prime fields F_p with p < 2^20.

Matrix reduction, characteristic polynomials, squarefreeness, and
factorization patterns.

F_p data are plain int64 numpy arrays of residues in [0, p), passed together
with p: a matrix is a square 2-d array, and a polynomial is a 1-d array of
coefficients, lowest degree first, whose last entry is its leading
coefficient.  The modulus is checked once, where integer data enter F_p
(:func:`reduce_matrix`, and :func:`~maeda.hecke.hecke_matrix_T2`);
the functions that take an F_p array trust the p passed with it.

Two regimes.  A trial of the search takes the characteristic polynomial of
a d x d matrix and the pattern of a degree-d polynomial, and for nearly all
of them p > d.  There, :func:`charpoly_mod_p` reads the characteristic
polynomial off traces of matrix powers, about 2 sqrt(d) BLAS products: the
power sums tr(A^k) give it by Newton's identities.  Up to degree
:data:`TRACE_PATTERN_MAX_DEGREE`, :func:`factorization_pattern` does the
same with the Frobenius matrix Q: the traces of its powers count the
factors of each degree.  Up to :data:`TRACE_SQUAREFREE_MAX_DEGREE`,
:func:`is_squarefree` takes those traces to the full degree, which count
the distinct factors of each degree, and the pattern reuses them.  Q itself
is built by baby and giant steps: about sqrt(d) rows one at a time, then
each block of sqrt(d) rows in one product.  Otherwise the characteristic
polynomial comes from a Hessenberg reduction, squarefreeness from a gcd
with the derivative, and the pattern from distinct-degree splitting with
the Frobenius matrix and blocked gcds (von zur Gathen & Shoup, 1992;
Kaltofen & Shoup, 1998), which take about d numpy steps one after another.
The traces need p > d (:func:`_by_traces`): Newton's identities divide by
every k <= d, and a Frobenius trace is an integer up to d read from its
residue.  The Hessenberg charpoly therefore runs only for p <= d, and the
gcd and splitting also above their measured crossover degrees, where their
O(d^2) and O(d^3) beat the O(d^3.5) of the traces.  Both regimes give the
same results; the tests compare them.

Exactness.  With p < 2^20 a product of two residues is below 2^40, and
float64 holds every integer below 2^53, so a float64 sum of fewer than
:data:`MAX_FLOAT_TERMS` = 2^13 such products is exact.  Dense vector-matrix
and matrix products run in float64 through BLAS (:func:`_matmul`,
:func:`_matmul_residues`), and series products and Newton inverses through
``np.convolve`` in float64 (:func:`_convolve`); each of the three helpers
asserts the bound on its terms per sum before it multiplies.  The baby and
giant products sum at most one row length per entry: the size of the
matrix here, and for the series of :mod:`maeda.qseries` their length, at
most 6000.  Doubling the reduction rows sums at most d + 1 terms.  The
trace kernels also assert their own size preconditions.  A trace
tr(M^a M^b) is a sum over the d^2 entries of two matrices, exact in one
product only while d^2 < 2^13, that is d <= 90; :func:`_power_traces` cuts
it into chunks of fewer than 2^13 terms, each an exact product reduced mod
p, and adds the chunk residues: fewer than d^2 / 2^12 + 1 of them, each
below 2^20, so their sum is exact at any d with d^2 < 2^45.  The products
of the gcd and of distinct-degree splitting run in int64, which sums at
most n products below 2^40, exact while n < 2^23; polynomials here have
degree at most the matrix size, and an n x n matrix with n >= 2^23 would
take 512 TiB.  Newton's identities sum at most d products of residues in
int64: at d <= 1166, below 1166 * 2^40 < 2^51, and since p > d on that
path, below 2^60 at any d.  The paper's range, k <= 14000, has d <= 1166
and series of length at most 2337.  Float results return to residues as
``% p``, as ``astype(np.int64) % p``, or for whole matrices as
x - floor(x / p) p, about twice as fast; ``np.fmod`` on float64 would be
exact too, but measured about 30 times slower (150 ns against 4.6 ns per
element).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    """Entry-wise reduction of a square integer matrix into [0, p), as int64.

    M is anything whose ``rows`` are sequences of integers, such as the
    exact matrix of :func:`maeda.oracles.hecke_matrix_T2`.  Raises
    ValueError unless p is a prime below 2^20.
    """
    check_modulus(p)
    d = len(M.rows)
    return np.fromiter(
        (e % p for row in M.rows for e in row), dtype=np.int64, count=d * d
    ).reshape(d, d)


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


def _convolve(a: np.ndarray, b: np.ndarray, p: int, start: int = 0, stop: int | None = None
              ) -> np.ndarray:
    # coefficients start..stop-1 of a b mod p, for residue arrays of which
    # one at least is float64, as float64 residues; exact: each sums at most
    # min(len a, len b) products
    assert min(len(a), len(b)) < MAX_FLOAT_TERMS, "a float64 convolution could exceed 2^53"
    return np.convolve(a, b)[start:stop] % p


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


def _by_traces(d: int, p: int) -> bool:
    # power traces of a d x d matrix or a degree-d polynomial need p > d:
    # Newton's identities divide by every k <= d, and a Frobenius trace is
    # an integer up to d read from its residue
    return p > d


# The pattern of a degree-n polynomial comes from traces up to this degree,
# and from distinct-degree splitting above it.  Per trial on T2 reductions at
# 15 random primes in (2^19, 2^20), median ms, traces against splitting, on a
# 2-core Xeon with numpy 2.4 (OpenBLAS): 19.7 / 36.7 at n = 200, 53-55 /
# 62-63 at n = 300, 89 / 105 at n = 350, and 125-131 / 117-128 at n = 400
# (two runs each at 300 and 400).  The traces grow as n^3.5 and splitting
# as n^3, so the last n measured where the traces won is the limit
TRACE_PATTERN_MAX_DEGREE = 350


def _power_traces(M: np.ndarray, m: int, p: int) -> np.ndarray:
    # tr(M^i) mod p for 0 <= i <= m, M a d x d float64 array of residues, by
    # Paterson-Stockmeyer baby and giant steps.  The babies M^a, a < s, are
    # kept; the giants G_b = (M^T)^(bs) are made one at a time, so at most
    # s + 3 matrices are live.  The steps take s - 2 + ceil((m + 1) / s)
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
    for a in range(1, s):
        _matmul_residues(baby[a - 1], M, p, out=baby[a])
    flat = baby.reshape(s, d * d)
    part = np.zeros((giants, chunks, s))  # part[b, c, a]: chunk c of <M^a, G_b>
    part[0, 0] = flat[:, :: d + 1].sum(axis=1)  # G_0 = I: the babies' traces
    if giants > 1:
        step = giant = _matmul_residues(M.T, baby[s - 1].T, p)  # G_1 = (M^s)^T
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

    A may hold any integers; they are reduced mod p.  When p > d, the power
    sums tr(A^k), k <= d, come from about 2 sqrt(d) matrix products
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973) and give the
    coefficients by Newton's identities (the Le Verrier-Faddeev method;
    Faddeev & Faddeeva, *Computational Methods of Linear Algebra*, 1963).
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
    h = np.asarray(A, dtype=np.int64) % p
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
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
    # Hessenberg form, then run the leading-minor recurrence
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
            right = h[:, m + 1 :].astype(np.float64)
            h[:, m] = (h[:, m] + _matmul(right, t.astype(np.float64), p)) % p
    # charpoly of the leading m x m minor, by expansion along the last row:
    # P[m] = (X - h_mm) P[m-1] - sum_k h_{k,m} (prod of subdiagonal run) P[k-1],
    # where run[k-1] = h[k, k-1] ... h[m-1, m-2] grows by one factor per m
    P = np.zeros((d + 1, d + 1))  # float64 residues; row m is P[m]
    P[0, 0] = 1
    run = np.zeros(d, dtype=np.int64)
    for m in range(1, d + 1):
        prev = P[m - 1, :m].astype(np.int64)
        cur = np.zeros(m + 1, dtype=np.int64)
        cur[1:] = prev
        cur[:m] -= h[m - 1, m - 1] * prev
        if m > 1:
            run[m - 2] = 1
            run[: m - 1] = run[: m - 1] * h[m - 1, m - 2] % p
            coefs = h[: m - 1, m - 1] * run[: m - 1] % p
            cur[:m] -= _matmul(coefs.astype(np.float64), P[: m - 1, :m], p)
        P[m, : m + 1] = cur % p
    return P[d].astype(np.int64)


# ---------------------------------------------------------------------------
# raw-array polynomial helpers (trimmed int64 arrays, lowest degree first)

def _trim(a: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(a)
    return a[: nonzero[-1] + 1] if nonzero.size else a[:0]


def _degree_scan(buf: np.ndarray, start: int) -> int:
    d = start
    while d >= 0 and not buf[d]:
        d -= 1
    return d


def _inverse(f: np.ndarray, p: int) -> np.ndarray:
    # 1/f mod X^len(f) for residues f with f[0] = 1, as float64 residues, by
    # Newton's iteration: if f g = 1 + X^m e mod X^n, then 1/f = g - X^m g e
    # mod X^n, n <= 2m
    g = np.ones(1)
    while len(g) < len(f):
        m, n = len(g), min(2 * len(g), len(f))
        e = _convolve(f[:n], g, p, m, n)
        g = np.concatenate((g, -_convolve(g, e, p, 0, n - m) % p))
    return g


def _divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    # quotient and remainder of trimmed a by trimmed b != 0.  The quotient's
    # reversal is rev(a) / rev(b) mod X^(deg a - deg b + 1), one Newton
    # inverse (von zur Gathen & Gerhard, Modern Computer Algebra, sec. 9.1)
    db, n = len(b) - 1, len(a) - len(b) + 1  # n: length of the quotient
    if n <= 0:
        return a[:0].copy(), a.copy()
    lead_inv = pow(int(b[-1]), p - 2, p)
    rev_b = np.zeros(n, dtype=np.int64)
    rev_b[: min(n, db + 1)] = b[::-1][:n] * lead_inv % p
    q = _convolve(a[::-1][:n], _inverse(rev_b, p), p, 0, n) * lead_inv % p
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
            da = _degree_scan(buf_a, da - 1)
        buf_a, buf_b, da, db = buf_b, buf_a, db, da
    if da < 0:
        return buf_a[:0]
    g = buf_a[: da + 1].copy()
    if g[da] != 1:
        g = g * pow(int(g[da]), p - 2, p) % p
    return g


def _reduction_rows(f: np.ndarray, p: int) -> np.ndarray:
    # float64 rows[j] = X^(d+j) mod f for 0 <= j <= d-2, f monic of degree
    # d >= 2, by doubling: X^(d+j+m) is X^(d+j) times X^m, whose terms from
    # X^d on are m rows already made, so rows m..2m-1 are one product with
    # rows 0..m-1 (m + 1 terms per sum)
    d = len(f) - 1
    rows = np.zeros((d - 1, d))
    rows[0] = (-f[:d]) % p
    m = 1
    while m < d - 1:
        t = min(m, d - 1 - m)
        block = _matmul_residues(rows[:t, d - m :], rows[:m], p)
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
    # powering: a square per bit, and a set bit multiplies by X, a shift
    # whose one term X^n is reduced by rows[0] = X^n mod f
    n = rows.shape[1]
    top_row = rows[0].astype(np.int64)
    h = np.zeros(n, dtype=np.int64)
    h[1] = 1
    for bit in bin(e)[3:]:
        h = _mulmod(h, h, rows, p)
        if bit == "1":
            top = h[-1]
            h = np.concatenate(([0], h[:-1]))
            if top:
                h = (h + top * top_row) % p
    return h


# On the trace path, squarefreeness comes from the traces of the Frobenius
# matrix up to this degree, and from a gcd with the derivative above it.
# Squarefree test plus pattern per trial on T2 reductions at 10-15 random
# primes in (2^19, 2^20), median ms, traces to n against the gcd plus traces
# to n/2, on a 2-core Xeon with numpy 2.4 (OpenBLAS): 3.3 / 4.4 at n = 90,
# 6.5 / 7.2 at n = 120, 7.8 / 8.4 at n = 130, 10.5-10.7 / 10.6-10.7 at
# n = 150 (two runs), 11.0 / 10.5 at n = 160, 15.6 / 14.3 at n = 175 and
# 21.7 / 18.8 at n = 200.  The traces to n cost about twice the products of
# the traces to n/2, and the gcd grows only as n^2, so the last n measured
# where the traces did not lose is the limit
TRACE_SQUAREFREE_MAX_DEGREE = 150


def is_squarefree(f: np.ndarray, p: int) -> bool:
    """True iff f has no repeated irreducible factor over F_p.

    When f is monic, p > n = deg f and 2 <= n <=
    :data:`TRACE_SQUAREFREE_MAX_DEGREE`, the answer comes from the traces
    of the Frobenius matrix Q to n.  On
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
    factors it, and the factoring entry points test it again and read the
    degrees instead of building Q again.
    """
    f = np.asarray(f, dtype=np.int64)
    if not f.any():
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    return _squarefree(p, f.tobytes())[0]


@functools.lru_cache(maxsize=1)
def _squarefree(p: int, coeffs: bytes) -> tuple[bool, tuple[int, ...] | None]:
    # (squarefree?, the sieved traces of _factor_degrees to n, or None off
    # the trace path)
    f = np.frombuffer(coeffs, dtype=np.int64)
    n = len(f) - 1
    if 2 <= n <= TRACE_SQUAREFREE_MAX_DEGREE and _by_traces(n, p) and f[-1] == 1:
        found = _factor_degrees(f, n, p)
        return sum(found) == n, found
    derivative = f[1:] * np.arange(1, len(f)) % p
    return len(_gcd(f, derivative, p)) <= 1, None


def _require_monic_squarefree(f: np.ndarray, p: int) -> None:
    if not len(f) or f[-1] != 1:
        raise ValueError("distinct-degree splitting requires a monic polynomial")
    if not is_squarefree(f, p):
        raise ValueError("distinct-degree splitting requires a squarefree polynomial")


def _toeplitz(w: np.ndarray, cols: int) -> np.ndarray:
    # contiguous float64 len(w) x cols matrix whose row j is X^j w cut at
    # X^cols, so x @ _toeplitz(w, len(w)) is the product x w cut at
    # X^len(w): row j starts j zeros before w in a zero-padded copy, read
    # with a negative row stride, and every index stays inside the copy
    n = len(w)
    padded = np.zeros(n - 1 + max(n, cols))
    padded[n - 1 : 2 * n - 1] = w
    step = padded.strides[0]
    rows = as_strided(padded[n - 1 :], shape=(n, cols), strides=(-step, step))
    return np.ascontiguousarray(rows)


def _times(h: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    # float64 matrix of multiplication by h mod the monic f behind ``rows``,
    # deg h < n = deg f: row j is X^j h mod f, h shifted by j, its terms from
    # X^n on reduced by the rows
    n = len(h)
    shifted = _toeplitz(h, 2 * n - 1)
    out = _matmul_residues(shifted[:, n:], rows, p)
    out += shifted[:, :n]
    return _reduce(out, p)


def _frobenius(f: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    # for monic f of degree n >= 2: the float64 reduction rows of f, and the
    # float64 Frobenius matrix Q of F_p[X]/(f), whose row r is X^(rp) mod f.
    # Baby steps: rows 1..s, s = isqrt(n), each the one before times the
    # matrix of multiplication by X^p.  Giant steps: each later block of s
    # rows is the block before times the matrix of multiplication by
    # X^(sp), row s, in one product
    n = len(f) - 1
    rows = _reduction_rows(f, p)
    times_xp = _times(_x_power(p, rows, p).astype(np.float64), rows, p)
    s = math.isqrt(n)
    frob = np.zeros((n, n))
    frob[0, 0] = 1
    for r in range(1, min(s + 1, n)):
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
    ValueError on input that is not monic or not squarefree.

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
    fr = np.array(f, dtype=np.int64)  # f with the factors found so far divided out
    _require_monic_squarefree(fr, p)
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

    The multiset {degree: count} of its irreducible factors; raises
    ValueError on input that is not monic or not squarefree, where the
    pattern would be ill-defined.

    When p > n = deg f and n <= :data:`TRACE_PATTERN_MAX_DEGREE`, the
    pattern is read off traces.  F_p[X]/(f) is the product of the fields
    F_(p^e), one per irreducible factor of degree e, and on F_(p^e) the
    i-th power of Frobenius has trace e if e divides i and 0 otherwise: it
    permutes the e elements of a normal basis, fixing all of them if e
    divides i and none otherwise (Lidl & Niederreiter, *Finite Fields*,
    Thm. 2.35).  So tr(Q^i), with
    Q the Frobenius matrix (Berlekamp's Q; Knuth, *The Art of Computer
    Programming* vol. 2, sec. 4.6.2), is the total degree S(i) of the
    factors whose degree divides i; since S(i) <= n < p, the residue is
    that integer.  Möbius inversion of S(e) = sum over m | e of m c_m gives
    the number c_e of factors of degree e.  Up to
    :data:`TRACE_SQUAREFREE_MAX_DEGREE`, :func:`is_squarefree` has just
    taken the traces for every i <= n and cached the counts c_e, so the
    pattern reads them and builds nothing.  Above it, the traces for
    i <= n/2, about 2 sqrt(n/2) matrix products (see
    :func:`charpoly_mod_p`), give c_e for e <= n/2, and the degree left over
    is one factor of degree > n/2.  Otherwise the pattern comes from
    :func:`distinct_degree_split`: for p <= n, where a trace cannot be read
    as an integer, and above the crossover degree, where splitting's O(n^3)
    is faster.
    """
    f = np.asarray(f, dtype=np.int64)
    n = len(f) - 1
    if n < 2 or n > TRACE_PATTERN_MAX_DEGREE or not _by_traces(n, p):
        split = distinct_degree_split(f, p)
        return Pattern.from_pairs((i, (len(g) - 1) // i) for i, g in split.items())
    return _pattern_traces(f, p)


def _factor_degrees(f: np.ndarray, m: int, p: int) -> tuple[int, ...]:
    # for monic f of degree n with 2 <= n < p, and m <= n: entry e of the
    # result, 1 <= e <= m, is the total degree e c_e of the distinct
    # irreducible factors of degree e, entry 0 is 0.  found[e] starts as
    # tr(Q^e), the total degree of the distinct factors whose degree divides
    # e, and once the divisors of e below it are taken out is e c_e: a sieve
    # that performs the Möbius inversion
    assert p > len(f) - 1, "a Frobenius trace up to deg f is read as an integer"
    found = _power_traces(_frobenius(f, p)[1], m, p).tolist()
    found[0] = 0
    for e in range(1, len(found)):
        assert found[e] % e == 0, "Frobenius traces must count factors"
        for multiple in range(2 * e, len(found), e):
            found[multiple] -= found[e]
    return tuple(found)


def _pattern_traces(f: np.ndarray, p: int) -> Pattern:
    # the factor degrees to n cached by the squarefree test, or else the
    # traces to n/2: the degree they leave over is one factor above n/2
    _require_monic_squarefree(f, p)
    n = len(f) - 1
    found = _squarefree(p, f.tobytes())[1] or _factor_degrees(f, n // 2, p)
    rest = n - sum(found)
    assert rest == 0 or rest > n // 2, "at most one factor has degree above n/2"
    pairs = [(e, v // e) for e, v in enumerate(found) if v]
    return Pattern.from_pairs(pairs + [(rest, 1)] if rest else pairs)
