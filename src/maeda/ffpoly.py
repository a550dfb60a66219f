"""Arithmetic over prime fields F_p with p < 2^20.

Matrix reduction, characteristic polynomials, squarefreeness, and
factorization patterns via distinct-degree splitting with a Frobenius matrix
and blocked gcds (von zur Gathen & Shoup, 1992; Kaltofen & Shoup, 1998).

F_p data are plain int64 numpy arrays of residues in [0, p), passed together
with p: a matrix is a square 2-d array, and a polynomial is a 1-d array of
coefficients, lowest degree first, whose last entry is its leading
coefficient.  The modulus is checked once, where integer data enter F_p
(:func:`reduce_matrix`, and :func:`~maeda.hecke.hecke_matrix_T2`);
the functions that take an F_p array trust the p passed with it.

The modulus cap p < 2^20 keeps every intermediate inside int64: a product of
two residues stays below 2^40, and every convolution or dot-product sum here
adds at most n such products, n the matrix size or polynomial degree.  That
includes the Frobenius step h @ Q, n products below 2^40 each.  With
n < 2^23 every sum stays below 2^63, so numpy integer arithmetic is exact
throughout; an n x n int64 matrix with n >= 2^23 would take 512 TiB, so
the degree bound holds for any matrix that exists.
"""

from __future__ import annotations

import functools
import math

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


def charpoly_mod_p(A: np.ndarray, p: int) -> np.ndarray:
    """Monic characteristic polynomial of the square matrix A over F_p.

    A may hold any integers; they are reduced mod p.  Deterministic O(d^3):
    reduce to upper Hessenberg form by a similarity built from pivoted
    eliminations, then run the leading-minor recurrence.
    """
    h = np.asarray(A, dtype=np.int64) % p
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    d = h.shape[0]
    for m in range(1, d - 1):
        col = h[m:, m - 1]
        nonzero = np.nonzero(col)[0]
        if nonzero.size == 0:
            continue
        r = m + int(nonzero[0])
        if r != m:
            h[[m, r], :] = h[[r, m], :]
            h[:, [m, r]] = h[:, [r, m]]
        inv = pow(int(h[m, m - 1]), p - 2, p)
        t = h[m + 1 :, m - 1] * inv % p
        if np.any(t):
            # eliminate all of column m-1 below row m in one similarity step:
            # rows i -= t_i * row m, then column m += sum_i t_i * column i
            h[m + 1 :, :] = (h[m + 1 :, :] - np.outer(t, h[m, :])) % p
            h[:, m] = (h[:, m] + h[:, m + 1 :] @ t) % p
    # charpoly of the leading m x m minor, by expansion along the last row:
    # P[m] = (X - h_mm) P[m-1] - sum_k h_{k,m} (prod of subdiagonal run) P[k-1]
    P = np.zeros((d + 1, d + 1), dtype=np.int64)
    P[0, 0] = 1
    for m in range(1, d + 1):
        prev = P[m - 1, :m]
        cur = P[m, : m + 1]
        cur[1:] = prev
        cur[:m] = (cur[:m] - int(h[m - 1, m - 1]) * prev) % p
        if m > 1:
            coefs = np.zeros(m - 1, dtype=np.int64)
            t = 1
            for k in range(m - 1, 0, -1):
                t = t * int(h[k, k - 1]) % p
                coefs[k - 1] = int(h[k - 1, m - 1]) * t % p
            if np.any(coefs):
                cur[:m] = (cur[:m] - coefs @ P[: m - 1, :m]) % p
    return P[d].copy()


# ---------------------------------------------------------------------------
# raw-array polynomial helpers (trimmed int64 arrays, lowest degree first)

def _degree_scan(buf: np.ndarray, start: int) -> int:
    d = start
    while d >= 0 and not buf[d]:
        d -= 1
    return d


def _gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # monic gcd, run in two fixed buffers with explicit degree tracking so
    # the long Euclid chains allocate nothing; entries above the tracked
    # degree are stale and never read
    size = max(len(a), len(b), 1)
    buf_a = np.zeros(size, dtype=np.int64)
    buf_a[: len(a)] = a
    buf_b = np.zeros(size, dtype=np.int64)
    buf_b[: len(b)] = b
    da = _degree_scan(buf_a, len(a) - 1)
    db = _degree_scan(buf_b, len(b) - 1)
    if da < db:
        buf_a, buf_b, da, db = buf_b, buf_a, db, da
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


def _exact_div(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # quotient of a by monic b, asserting zero remainder
    db = len(b) - 1
    q = np.zeros(len(a) - db, dtype=np.int64)
    r = a.copy()
    for shift in range(len(a) - 1 - db, -1, -1):
        t = int(r[shift + db]) % p
        q[shift] = t
        if t:
            r[shift : shift + db + 1] = (r[shift : shift + db + 1] - t * b) % p
    assert not np.any(r % p), "division was expected to be exact"
    return q


def _reduction_rows(f: np.ndarray, p: int) -> np.ndarray:
    # rows[j] = X^(d+j) mod f for 0 <= j <= d-2, f monic of degree d >= 2
    d = len(f) - 1
    rows = np.zeros((d - 1, d), dtype=np.int64)
    base = (-f[:d]) % p
    rows[0] = base
    for j in range(1, d - 1):
        prev = rows[j - 1]
        r = np.zeros(d, dtype=np.int64)
        r[1:] = prev[:-1]
        top = int(prev[d - 1])
        if top:
            r = (r + top * base) % p
        rows[j] = r
    return rows


def _mulmod(a: np.ndarray, b: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    # a, b of length d (deg < d); result length d, reduced mod the monic f
    # behind ``rows``.  Safe in int64: see module docstring.
    d = len(a)
    c = np.convolve(a, b) % p
    if len(c) <= d:
        out = np.zeros(d, dtype=np.int64)
        out[: len(c)] = c
        return out
    high = c[d:]
    return (c[:d] + high @ rows[: len(high)]) % p


def _powmod(a: np.ndarray, e: int, rows: np.ndarray, p: int) -> np.ndarray:
    result = np.zeros(len(a), dtype=np.int64)
    result[0] = 1
    base = a
    while e:
        if e & 1:
            result = _mulmod(result, base, rows, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, rows, p)
    return result


def is_squarefree(f: np.ndarray, p: int) -> bool:
    """True iff gcd(f, f') is constant, i.e. f has no repeated roots.

    The last answer is cached, keyed on p and the coefficients: a search
    tests f and then factors it, and the factoring entry points test it again
    before splitting.
    """
    f = np.asarray(f, dtype=np.int64)
    if not f.any():
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    return _is_squarefree(p, f.tobytes())


@functools.lru_cache(maxsize=1)
def _is_squarefree(p: int, coeffs: bytes) -> bool:
    f = np.frombuffer(coeffs, dtype=np.int64)
    derivative = f[1:] * np.arange(1, len(f)) % p
    return len(_gcd(f, derivative, p)) <= 1


def distinct_degree_split(f: np.ndarray, p: int) -> dict[int, np.ndarray]:
    """Split monic squarefree f into subproducts by irreducible-factor degree.

    Returns {i: product of all irreducible factors of degree i}, each value
    a monic polynomial array, the product of all values equal to f.  Raises
    ValueError on input that is not monic or not squarefree.

    gcd(f, X^(p^i) - X) is the product of the factors whose degree divides i.
    The powers X^(p^i) mod f come from the Frobenius matrix Q, whose row r is
    X^(rp) mod f: Frobenius is F_p-linear, so each round is one
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
    if not len(fr) or fr[-1] != 1:
        raise ValueError("distinct-degree splitting requires a monic polynomial")
    if not is_squarefree(fr, p):
        raise ValueError("distinct-degree splitting requires a squarefree polynomial")
    n = deg = len(fr) - 1
    if n < 2:
        return {n: fr} if n else {}
    # everything below is reduced mod the original f, so the rows and Q are
    # built once; h = X^(p^j) mod f is also X^(p^j) mod every factor fr of f
    rows = _reduction_rows(fr, p)
    h = np.zeros(n, dtype=np.int64)
    h[1] = 1
    xp = _powmod(h, p, rows, p)
    frob = np.zeros((n, n), dtype=np.int64)  # Q: row r is X^(rp) mod f
    frob[0, 0] = 1
    frob[1] = xp
    for r in range(2, n):
        frob[r] = _mulmod(frob[r - 1], xp, rows, p)
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
            h = h @ frob % p  # Frobenius is F_p-linear: h(X) -> h(X^p)
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

    The multiset {degree: count} of its irreducible factors, computed by
    distinct-degree splitting alone (see :func:`distinct_degree_split`);
    raises ValueError on non-squarefree input, where the pattern would be
    ill-defined.
    """
    split = distinct_degree_split(f, p)
    return Pattern.from_pairs((i, (len(g) - 1) // i) for i, g in split.items())
