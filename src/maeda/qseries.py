"""Exact integer q-expansion arithmetic and the Miller echelon basis.

A truncated q-expansion sum(a_n q^n, 0 <= n < prec) is stored as a tuple of
arbitrary-precision integers.  All arithmetic is exact; binary operations
truncate to the shorter operand, so a result never claims coefficients it
cannot know.

The generators supplied here are the level-one classics: the Eisenstein
series E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n,
and the discriminant form Delta = q prod (1 - q^n)^24, which coincides with
(E4^3 - E6^2)/1728 coefficient for coefficient.  From monomials in these,
:func:`miller_basis` assembles the unique echelon basis f_1, ..., f_d of the
weight-k cusp space, with f_i = q^i + O(q^(d+1)) and integer coefficients
throughout: every pivot is 1, so no division is ever performed.

:func:`miller_basis_mod_p` builds the same basis reduced modulo a prime
p < 2^20 without any big integer: the generators come from a sigma-sieve and
the pentagonal Euler product, and every product is an int64 convolution
taken mod p.  Because the echelon basis is unique and its pivots are 1, the
result is the exact basis reduced mod p.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .primes import check_modulus

# A truncated product of two residue series sums fewer than prec products,
# each below 2^40, so it is exact in int64 while prec < 2^23.
MAX_PREC_MOD_P = 1 << 23


class PrecisionError(IndexError):
    """A coefficient beyond the stored precision was requested."""


class QSeries:
    """Truncated power series in q with exact integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self._coeffs = tuple(coeffs)
        if not self._coeffs:
            raise ValueError("a series must store at least one coefficient")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def prec(self) -> int:
        """Number of stored coefficients (indices 0 .. prec-1)."""
        return len(self._coeffs)

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise ValueError("coefficient index must be non-negative")
        if n >= len(self._coeffs):
            raise PrecisionError(
                f"coefficient of q^{n} requested, series known to O(q^{len(self._coeffs)})"
            )
        return self._coeffs[n]

    def truncate(self, prec: int) -> "QSeries":
        """Drop coefficients from index ``prec`` on (prec <= self.prec)."""
        if not 1 <= prec <= len(self._coeffs):
            raise ValueError(f"cannot truncate precision {len(self._coeffs)} to {prec}")
        return QSeries(self._coeffs[:prec])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "QSeries") -> "QSeries":
        return series_add(self, other)

    def __sub__(self, other: "QSeries") -> "QSeries":
        prec = min(len(self._coeffs), len(other._coeffs))
        return QSeries(x - y for x, y in zip(self._coeffs[:prec], other._coeffs[:prec]))

    def __neg__(self) -> "QSeries":
        return QSeries(-x for x in self._coeffs)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return series_mul(self, other)
        if isinstance(other, int):
            return QSeries(other * x for x in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        shown = []
        for n, a in enumerate(self._coeffs):
            if a:
                shown.append(f"{int(a)}*q^{n}" if n else str(int(a)))
            if len(shown) == 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"QSeries({body} + O(q^{len(self._coeffs)}))"


def one(prec: int) -> QSeries:
    """The constant series 1 at the given precision."""
    if prec < 1:
        raise ValueError("precision must be positive")
    return QSeries([1] + [0] * (prec - 1))


def series_add(a: QSeries, b: QSeries) -> QSeries:
    """Coefficient-wise sum, truncated to min(a.prec, b.prec)."""
    prec = min(a.prec, b.prec)
    return QSeries(x + y for x, y in zip(a.coeffs[:prec], b.coeffs[:prec]))


def series_mul(a: QSeries, b: QSeries) -> QSeries:
    """Cauchy product, truncated to min(a.prec, b.prec); exact integers."""
    prec = min(a.prec, b.prec)
    ac = a.coeffs[:prec]
    bc = b.coeffs[:prec]
    out = [0] * prec
    for i, ai in enumerate(ac):
        if not ai:
            continue
        for j, bj in enumerate(bc[: prec - i]):
            if bj:
                out[i + j] += ai * bj
    return QSeries(out)


def series_pow(a: QSeries, e: int) -> QSeries:
    """a**e for e >= 0, by binary powering at a's precision."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    result = one(a.prec)
    base = a
    while e:
        if e & 1:
            result = series_mul(result, base)
        e >>= 1
        if e:
            base = series_mul(base, base)
    return result


# (scale, power) with E_k = 1 + scale * sum sigma_power(n) q^n
_EISENSTEIN = {4: (240, 3), 6: (-504, 5)}


def eisenstein(k: int, prec: int) -> QSeries:
    """Normalized Eisenstein series E4 or E6 through ``prec`` coefficients.

    E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n,
    where sigma_j(n) sums the j-th powers of the divisors of n.
    """
    if k not in _EISENSTEIN:
        raise ValueError(f"Eisenstein generator defined only for k in (4, 6), got {k}")
    scale, power = _EISENSTEIN[k]
    if prec < 1:
        raise ValueError("precision must be positive")
    sigma = [0] * prec
    for d in range(1, prec):
        pw = d ** power
        for n in range(d, prec, d):
            sigma[n] += pw
    return QSeries([1] + [scale * s for s in sigma[1:]])


def _euler_product(prec: int) -> QSeries:
    # prod_{n>=1} (1 - q^n) expanded by the pentagonal number theorem:
    # 1 + sum_{j>=1} (-1)^j (q^{j(3j-1)/2} + q^{j(3j+1)/2}).
    coeffs = [0] * prec
    coeffs[0] = 1
    j = 1
    while True:
        g = j * (3 * j - 1) // 2
        if g >= prec:
            break
        sign = -1 if j % 2 else 1
        coeffs[g] += sign
        g = j * (3 * j + 1) // 2
        if g < prec:
            coeffs[g] += sign
        j += 1
    return QSeries(coeffs)


def delta(prec: int) -> QSeries:
    """The discriminant cusp form Delta = q prod_{n>=1} (1 - q^n)^24."""
    if prec < 1:
        raise ValueError("precision must be positive")
    if prec == 1:
        return QSeries([0])
    eta24 = series_pow(_euler_product(prec - 1), 24)
    return QSeries([0, *eta24.coeffs])


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


def spanning_set(k: int, prec: int) -> list[QSeries]:
    """The cusp-form products Delta^i E6^b E4^(alpha_i), i = 1 .. d.

    With b = (k/2) mod 2 and alpha_i = (k - 12i - 6b)/4, the i-th product is
    a weight-k cusp form with expansion q^i + higher order, so the set spans
    the cusp space and is triangular with unit leading coefficients.
    """
    if k % 2 or k < 12:
        raise ValueError(f"weight must be even and at least 12, got {k}")
    d = dim_cusp_forms(k)
    if prec < 1:
        raise ValueError("precision must be positive")
    if d == 0:
        return []
    b, alpha_d = _weight_exponents(k)
    e4 = eisenstein(4, prec)
    e4cube = series_pow(e4, 3)
    # tails[i-1] = E6^b E4^(alpha_i); alpha_i decreases by 3 per step of i.
    tail = series_pow(e4, alpha_d)
    if b:
        tail = series_mul(tail, eisenstein(6, prec))
    tails = [tail]
    for _ in range(d - 1):
        tails.append(series_mul(tails[-1], e4cube))
    tails.reverse()
    dl = delta(prec)
    out = []
    power = dl
    for i in range(1, d + 1):
        g = series_mul(power, tails[i - 1])
        assert all(c == 0 for c in g.coeffs[:i]) and (prec <= i or g.coeffs[i] == 1), (
            f"spanning product {i} for k={k} lost its unit leading term"
        )
        out.append(g)
        if i < d:
            power = series_mul(power, dl)
    return out


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


def miller_basis(k: int, prec: int | None = None) -> list[QSeries]:
    """Echelon basis f_1 .. f_d of the weight-k cusp space.

    Each f_i has integer coefficients with coefficient of q^j equal to 1 for
    j = i and 0 for every other 1 <= j <= d.  The basis is produced from
    :func:`spanning_set` by upward elimination; since each pivot coefficient
    is 1, the elimination stays in the integers.

    ``prec`` counts stored coefficients and defaults to 2(d+2)+1, one guard
    term past twice the dimension-plus-two window the Hecke action reads;
    anything below 2(d+2) is rejected as insufficient.
    """
    d, prec = _basis_size(k, prec)
    rows = [list(g.coeffs) for g in spanning_set(k, prec)]
    for i in range(d):
        fi = rows[i]
        for j in range(i + 1, d):
            c = fi[j + 1]
            if c:
                gj = rows[j]  # still the raw product: rows below i are untouched
                for m in range(j + 1, prec):
                    gm = gj[m]
                    if gm:
                        fi[m] -= c * gm
    basis = [QSeries(r) for r in rows]
    for i, f in enumerate(basis, start=1):
        for j in range(1, d + 1):
            assert f.coeffs[j] == (1 if j == i else 0), (
                f"echelon property failed at k={k}, basis element {i}, q^{j}"
            )
    return basis


# ---------------------------------------------------------------------------
# the same basis modulo a prime, in int64 numpy arrays of residues

def _mul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # truncated product of two residue series of equal length
    return np.convolve(a, b)[: len(a)] % p


def _pow_mod_p(a: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.zeros_like(a)
    result[0] = 1
    while e:
        if e & 1:
            result = _mul_mod_p(result, a, p)
        e >>= 1
        if e:
            a = _mul_mod_p(a, a, p)
    return result


def _eisenstein_mod_p(k: int, prec: int, p: int) -> np.ndarray:
    scale, power = _EISENSTEIN[k]
    sigma = np.zeros(prec, dtype=np.int64)
    for n in range(1, prec):
        sigma[n::n] += pow(n, power, p)
    out = scale * (sigma % p) % p
    out[0] = 1
    return out


def _spanning_set_mod_p(k: int, d: int, prec: int, p: int) -> np.ndarray:
    # rows Delta^i E6^b E4^(alpha_i) mod p, i = 1 .. d, as in spanning_set
    b, alpha_d = _weight_exponents(k)
    e4 = _eisenstein_mod_p(4, prec, p)
    e4cube = _pow_mod_p(e4, 3, p)
    dl = np.zeros(prec, dtype=np.int64)
    eta = np.array(_euler_product(prec - 1).coeffs, dtype=np.int64) % p
    dl[1:] = _pow_mod_p(eta, 24, p)
    tail = _pow_mod_p(e4, alpha_d, p)
    if b:
        tail = _mul_mod_p(tail, _eisenstein_mod_p(6, prec, p), p)
    # first the tails E6^b E4^(alpha_i): alpha_i grows by 3 per step down from i = d
    rows = np.empty((d, prec), dtype=np.int64)
    rows[d - 1] = tail
    for i in range(d - 2, -1, -1):
        rows[i] = _mul_mod_p(rows[i + 1], e4cube, p)
    power = dl
    for i in range(d):
        if i:
            power = _mul_mod_p(power, dl, p)
        rows[i] = _mul_mod_p(power, rows[i], p)
    return rows


def miller_basis_mod_p(k: int, p: int, prec: int | None = None) -> np.ndarray:
    """:func:`miller_basis` reduced mod a prime p < 2^20, with no big integer.

    Returns a d x prec int64 array of residues in [0, p) whose row i-1 is
    f_i mod p; ``prec`` has the same default and floor as in
    :func:`miller_basis`.  The elimination runs bottom-up: f_d is the last
    spanning product, and f_i is the i-th product minus its coefficients at
    q^(i+1) .. q^d times the finished rows below, one vector-matrix product
    per row.  Every pivot is 1, so nothing is divided.
    """
    check_modulus(p)
    d, prec = _basis_size(k, prec)
    if prec >= MAX_PREC_MOD_P:
        raise ValueError(f"precision {prec} would overflow int64 sums (need < 2^23)")
    if d == 0:
        return np.zeros((0, prec), dtype=np.int64)
    rows = _spanning_set_mod_p(k, d, prec, p)
    for i in range(d - 2, -1, -1):
        rows[i] = (rows[i] - rows[i, i + 2 : d + 1] @ rows[i + 1 :]) % p
    assert np.array_equal(rows[:, 1 : d + 1], np.eye(d, dtype=np.int64)), (
        f"echelon property failed at k={k} mod {p}"
    )
    return rows
