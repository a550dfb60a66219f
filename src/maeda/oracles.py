"""Exact big-integer reference path: q-expansions, the Miller basis, and T2.

Only the tests and the demos import this module; they check the product's
mod-p builder (:func:`maeda.hecke.hecke_matrix_T2`) against
``reduce_matrix(hecke_matrix_T2(k), p)`` here.  A truncated q-expansion is
a :class:`QSeries` of arbitrary-precision integers; binary operations
truncate to the shorter operand.  The Miller basis is eliminated with unit
pivots, so everything stays in the integers.  The build grows about as
d^3.5 (about 2.4 s at d = 100 on one core).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .qseries import _basis_size, _weight_exponents, dim_cusp_forms


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
# the T2 matrix over the integers

@dataclass(frozen=True)
class IntMatrix:
    """Dense square matrix of arbitrary-precision integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def d(self) -> int:
        return len(self.rows)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.d))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def hecke_coefficient(m: int, n: int, k: int, a) -> int:
    """Coefficient of q^n in T_m f, with ``a`` indexing the expansion of f.

    ``a`` is anything supporting ``a[j]`` for the needed indices j <= m*n
    (a :class:`QSeries`, a list, ...); an accessor of insufficient precision
    raises its own error, which propagates.
    """
    if m < 1 or n < 1:
        raise ValueError("Hecke index and coefficient index must be positive")
    total = 0
    for e in _divisors(gcd(m, n)):
        total += e ** (k - 1) * a[(m * n) // (e * e)]
    return total


def hecke_matrix_T2(k: int) -> IntMatrix:
    """Matrix of T2 on the Miller basis of the weight-k cusp space.

    Row i holds the image of basis element i: entry (i, j) is the q^j
    coefficient of T2 f_i, which equals the j-th coordinate because the
    basis is echelonized.  A zero-dimensional space yields the 0x0 matrix.
    """
    if k % 2 or k < 12:
        raise ValueError(f"weight must be even and at least 12, got {k}")
    d = dim_cusp_forms(k)
    if d == 0:
        return IntMatrix(())
    basis = miller_basis(k)
    return IntMatrix(
        tuple(
            tuple(int(hecke_coefficient(2, n, k, f)) for n in range(1, d + 1))
            for f in basis
        )
    )


def hecke_matrix_T2_spanning(k: int) -> IntMatrix:
    """Matrix of T2 on the raw spanning products Delta^i E6^b E4^(alpha_i).

    Cross-check path for :func:`hecke_matrix_T2`: instead of echelonizing,
    the coordinates of each image are obtained by solving the unit upper
    triangular system that the leading terms q^i of the products impose.
    The two matrices are similar, so they share a characteristic polynomial.
    """
    if k % 2 or k < 12:
        raise ValueError(f"weight must be even and at least 12, got {k}")
    d = dim_cusp_forms(k)
    if d == 0:
        return IntMatrix(())
    prec = 2 * (d + 2) + 1
    gs = spanning_set(k, prec)
    rows = []
    for g in gs:
        image = [hecke_coefficient(2, n, k, g) for n in range(1, d + 1)]
        coords = [0] * (d + 1)  # 1-based
        for m in range(1, d + 1):
            c = image[m - 1]
            for j in range(1, m):
                cj = coords[j]
                if cj:
                    c -= cj * gs[j - 1].coeffs[m]
            coords[m] = c
        rows.append(tuple(int(c) for c in coords[1:]))
    return IntMatrix(tuple(rows))


def charpoly_exact(M: IntMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(X*I - M), coefficients ascending, exact.

    Uses the trace recurrence (Faddeev-LeVerrier); the division at step i is
    exact over the integers, which is asserted.
    """
    d = M.d
    out = [0] * (d + 1)
    out[d] = 1
    if d == 0:
        return tuple(out)
    a = [[int(x) for x in row] for row in M.rows]
    mk = [row[:] for row in a]
    c = 0
    for step in range(1, d + 1):
        if step > 1:
            for j in range(d):
                mk[j][j] += c
            mk = [
                [sum(a[i][t] * mk[t][j] for t in range(d)) for j in range(d)]
                for i in range(d)
            ]
        trace = sum(mk[j][j] for j in range(d))
        c, rem = divmod(-trace, step)
        assert rem == 0, "trace recurrence must divide exactly over the integers"
        out[d - step] = c
    return tuple(out)
