"""Independent checker for maeda certificates.

Nothing here imports maeda.  Every claim in a certificate is re-derived by
other means:

* the dimension, by counting solutions of 4a + 6b = k;
* Tr T2 and Tr T2^2 = Tr T4 + 2^(k-1) d, by the Eichler-Selberg trace
  formula with Hurwitz class numbers counted from reduced binary quadratic
  forms;
* the matrix of T2 mod p, from E4, E6 and Delta = q (eta^3)^8 built mod p
  (eta^3 by Jacobi's identity), on the raw product basis Delta^i E4^a E6^b
  rather than an echelon basis;
* its characteristic polynomial mod p, by the Krylov sequence of a random
  vector, whose top two coefficients must match the exact traces mod p;
* the factorization pattern, by sympy's factorization over GF(p);
* the kind I / II / III / IV rule, re-derived from the degree multiset.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt

import numpy as np
from sympy import Poly, isprime, symbols

X = symbols("x")
REQUIRED = ("I", "II", "III")
PRIME_BOUND = 1 << 20


# ---------------------------------------------------------------------------
# exact invariants

def dimension(k: int) -> int:
    """dim S_k(SL2(Z)) as dim M_k - 1, counting monomials E4^a E6^b."""
    if k < 0 or k % 2:
        return 0
    count = sum(1 for b in range(k // 6 + 1) if (k - 6 * b) % 4 == 0)
    return max(count - 1, 0)


def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n): reduced forms of discriminant -n, with
    a(x^2 + y^2) weighted 1/2 and a(x^2 + xy + y^2) weighted 1/3."""
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for b in range(n % 2, isqrt(n // 3) + 1, 2):
        ac = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if a == b or a == c or b == 0:
                    if a == b == c:
                        total += Fraction(1, 3)
                    elif b == 0 and a == c:
                        total += Fraction(1, 2)
                    else:
                        total += 1
                else:
                    total += 2  # (a, b, c) and (a, -b, c) are both reduced
            a += 1
    return total


def hecke_trace(n: int, k: int) -> int:
    """Tr T_n on S_k(SL2(Z)), k >= 4 even, by the Eichler-Selberg formula."""
    total = Fraction(0)
    t = 0
    while t * t <= 4 * n:
        # P = coefficient of x^(k-2) in 1 / (1 - t x + n x^2)
        p_prev, p_cur = 1, t
        for _ in range(k - 3):
            p_prev, p_cur = p_cur, t * p_cur - n * p_prev
        weight = 1 if t == 0 else 2
        total += weight * p_cur * hurwitz(4 * n - t * t)
        t += 1
    divisor_sum = sum(min(e, n // e) ** (k - 1) for e in range(1, n + 1) if n % e == 0)
    trace = -total / 2 - Fraction(divisor_sum, 2)
    if trace.denominator != 1:
        raise ArithmeticError(f"non-integral trace of T{n} at weight {k}: {trace}")
    return int(trace)


def t2_traces(k: int) -> tuple[int, int]:
    """(Tr T2, Tr T2^2) on S_k, using T2^2 = T4 + 2^(k-1) T1."""
    return hecke_trace(2, k), hecke_trace(4, k) + 2 ** (k - 1) * dimension(k)


# ---------------------------------------------------------------------------
# T2 mod p on the product basis

def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # exact in int64: residues < 2^20 and at most a few hundred terms per sum
    return np.convolve(a, b)[: len(a)] % p


def _pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.zeros_like(a)
    out[0] = 1
    for _ in range(e):
        out = _mul(out, a, p)
    return out


def _sigma_series(power: int, scale: int, prec: int, p: int) -> np.ndarray:
    out = np.zeros(prec, dtype=np.int64)
    out[0] = 1
    for n in range(1, prec):
        s = sum(e**power for e in range(1, n + 1) if n % e == 0)
        out[n] = scale * s % p
    return out


def _delta(prec: int, p: int) -> np.ndarray:
    eta3 = np.zeros(prec, dtype=np.int64)
    m = 0
    while m * (m + 1) // 2 < prec:
        eta3[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1) % p
        m += 1
    e = _mul(eta3, eta3, p)
    e = _mul(e, e, p)
    e = _mul(e, e, p)  # eta^24 / q
    out = np.zeros(prec, dtype=np.int64)
    out[1:] = e[: prec - 1]
    return out


def t2_matrix_mod_p(k: int, p: int) -> np.ndarray:
    """Matrix of T2 mod p on the cusp space of weight k, in some basis.

    The basis is g_i = Delta^i E4^a E6^b (12 i + 4 a + 6 b = k), with
    g_i = q^i + O(q^(i+1)).  With G the unitriangular first-d coefficient
    block of the g_i and H that of T2 g_i, the matrix is H G^(-1).
    """
    d = dimension(k)
    prec = 2 * d + 1
    e4 = _sigma_series(3, 240, prec, p)
    e6 = _sigma_series(5, -504, prec, p)
    dl = _delta(prec, p)
    two_k1 = pow(2, k - 1, p)
    G = np.zeros((d, d), dtype=np.int64)
    H = np.zeros((d, d), dtype=np.int64)
    dl_powers = [dl]
    for _ in range(d - 1):
        dl_powers.append(_mul(dl_powers[-1], dl, p))
    b = 1 if k % 4 else 0  # k - 12 i - 6 b must be divisible by 4
    e4_cube = _pow(e4, 3, p)
    tail = _pow(e4, (k - 12 * d - 6 * b) // 4, p)  # E4^a at i = d
    if b:
        tail = _mul(tail, e6, p)
    for i in range(d, 0, -1):
        g = _mul(dl_powers[i - 1], tail, p)
        tail = _mul(tail, e4_cube, p)
        G[i - 1] = g[1 : d + 1]
        for n in range(1, d + 1):
            c = g[2 * n]
            if n % 2 == 0:
                c += two_k1 * g[n // 2]
            H[i - 1, n - 1] = c % p
    # M G = H with G unit upper triangular: solve column by column
    M = np.zeros((d, d), dtype=np.int64)
    for j in range(d):
        col = H[:, j] - M[:, :j] @ G[:j, j] % p
        M[:, j] = col % p
    return M


# ---------------------------------------------------------------------------
# charpoly mod p by a Krylov sequence

def _solve_mod_p(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Solve A x = b mod p by Gauss-Jordan; None when A is singular."""
    n = A.shape[0]
    aug = np.concatenate([A % p, (b % p)[:, None]], axis=1)
    for col in range(n):
        nz = np.nonzero(aug[col:, col])[0]
        if nz.size == 0:
            return None
        r = col + int(nz[0])
        if r != col:
            aug[[col, r]] = aug[[r, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), p - 2, p) % p
        factors = aug[:, col].copy()
        factors[col] = 0
        aug = (aug - np.outer(factors, aug[col])) % p
    return aug[:, n]


def charpoly_krylov(A: np.ndarray, p: int, seed: int = 0) -> list[int]:
    """Monic characteristic polynomial of A mod p, lowest degree first.

    The Krylov vectors v, Av, ..., A^d v of a random v satisfy
    A^d v = sum c_i A^i v; when v, ..., A^(d-1) v are independent the
    polynomial X^d - sum c_i X^i is the characteristic polynomial.  A
    matrix that is not cyclic (squarefree witnesses always are)
    raises ValueError after 64 vectors.
    """
    d = A.shape[0]
    rng = random.Random(seed)
    for _ in range(64):
        v = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        K = np.zeros((d + 1, d), dtype=np.int64)
        K[0] = v
        for i in range(1, d + 1):
            K[i] = A @ K[i - 1] % p
        c = _solve_mod_p(K[:d].T.copy(), K[d], p)
        if c is not None:
            return [int(-x % p) for x in c] + [1]
    raise ValueError(f"no cyclic vector found mod {p}")


# ---------------------------------------------------------------------------
# patterns and kinds

def factor_degrees(coeffs: list[int], p: int) -> tuple[list[int], bool]:
    """Degrees of the irreducible factors over GF(p), with multiplicity,
    and whether the polynomial is squarefree."""
    f = Poly(list(reversed(coeffs)), X, modulus=p)
    _, factors = f.factor_list()
    degrees = sorted(g.degree() for g, e in factors for _ in range(e))
    return degrees, all(e == 1 for _, e in factors)


def kinds_of(degrees: list[int]) -> set[str]:
    """Witness kinds of a squarefree factor-degree multiset of total d."""
    d = sum(degrees)
    kinds = set()
    if degrees == [d]:
        kinds.add("I")
    even = [g for g in degrees if g % 2 == 0]
    if even == [2]:
        kinds.add("II")
    if any(2 * g > d and isprime(g) for g in degrees):
        kinds.add("III")
    if d >= 2 and sorted(degrees) == [1, d - 1]:
        kinds.add("IV")
    return kinds


# ---------------------------------------------------------------------------
# certificates

def check_certificate(text: str, mode: str, seed: int | None) -> list[str]:
    """Problems found in one certificate's JSON text; empty when it is correct.

    ``mode`` and ``seed`` are what the search was asked for (seed None in
    consecutive mode); the prime bound must be the default 2^20.
    """
    cert = json.loads(text)
    k = cert["weight"]
    d = dimension(k)
    problems = []
    if d == 0 or cert["dimension"] != d:
        return [f"k={k}: dimension {cert['dimension']}, expected {d}"]
    if cert["vacuous"] != (d == 1):
        problems.append(f"k={k}: vacuous flag {cert['vacuous']} at d={d}")
    if (cert["mode"], cert["seed"], cert["prime_bound"]) != (mode, seed, PRIME_BOUND):
        problems.append(f"k={k}: mode, seed or prime bound is not what was asked for")
    witnesses = cert["witnesses"]
    required = ("I",) if d == 1 else REQUIRED
    for kind in required:
        if kind not in witnesses:
            problems.append(f"k={k}: no kind-{kind} witness")
        elif cert["trials_total"].get(kind) != witnesses[kind]["trial"]:
            problems.append(f"k={k}: trials_total[{kind}] disagrees with its witness")
    tr1, tr2 = t2_traces(k)
    factored: dict[int, tuple[list[int], bool]] = {}  # kinds often share a prime
    for kind, w in witnesses.items():
        p, where = w["prime"], f"k={k} kind {kind} p={w['prime']}"
        if not (isprime(p) and p < cert["prime_bound"] and w["trial"] >= 1):
            problems.append(f"{where}: bad prime, bound or trial")
            continue
        if p not in factored:
            cp = charpoly_krylov(t2_matrix_mod_p(k, p), p, seed=p)
            if (cp[d - 1] + tr1) % p:
                problems.append(f"{where}: charpoly disagrees with Tr T2 = {tr1}")
            if d >= 2 and (2 * cp[d - 2] - (tr1 * tr1 - tr2)) % p:
                problems.append(f"{where}: charpoly disagrees with Tr T2^2 = {tr2}")
            factored[p] = factor_degrees(cp, p)
        degrees, squarefree = factored[p]
        claimed = sorted(length for length, mult in w["pattern"] for _ in range(mult))
        if not squarefree:
            problems.append(f"{where}: not squarefree")
        elif degrees != claimed:
            problems.append(f"{where}: pattern {claimed}, sympy finds {degrees}")
        elif kind not in kinds_of(degrees):
            problems.append(f"{where}: pattern {degrees} is not of kind {kind}")
    return problems


def strip_duration(text: str) -> dict:
    """Certificate content apart from its wall-clock field."""
    cert = json.loads(text)
    cert.pop("duration_ms", None)
    return cert
