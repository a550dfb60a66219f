"""The Hecke operator T2 on level-one cusp forms as an integer matrix.

The action of T_m on a q-expansion f = sum a_n q^n is

    (T_m f)_n = sum over e | gcd(m, n) of e^(k-1) * a_(m n / e^2),

so once the Miller basis is known to 2d coefficients, the d x d matrix of T2
is read off directly: row i holds the first d coefficients of T2 f_i, and the
echelon shape of the basis means those coefficients *are* the coordinates.
Everything stays in the integers; no division is ever performed.

:func:`hecke_matrix_T2` is the exact integer matrix, whose big-integer build
grows about as d^3.5.  The witness search reduces it at tens to hundreds of
primes per weight, so it builds it once.  :func:`hecke_matrix_T2_mod_p` reads
the same matrix mod p off :func:`~maeda.qseries.miller_basis_mod_p` in int64
arithmetic; a certificate recheck, which needs only its few witness primes,
uses that instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .qseries import dim_cusp_forms, miller_basis, miller_basis_mod_p, spanning_set

__all__ = [
    "IntMatrix",
    "dim_cusp_forms",
    "hecke_coefficient",
    "hecke_matrix_T2",
    "hecke_matrix_T2_mod_p",
    "hecke_matrix_T2_spanning",
    "charpoly_exact",
]


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


def hecke_matrix_T2_mod_p(k: int, p: int) -> np.ndarray:
    """:func:`hecke_matrix_T2` reduced mod a prime p < 2^20, built mod p.

    No big integer is formed: entry (i, n) is a_(2n) + 2^(k-1) a_(n/2) of
    f_i mod p, the second term only for even n, read off the basis from
    :func:`~maeda.qseries.miller_basis_mod_p`, which checks p.  Returns an
    int64 array equal to ``reduce_matrix(hecke_matrix_T2(k), p)``.
    """
    basis = miller_basis_mod_p(k, p)
    d = basis.shape[0]
    entries = basis[:, 2 : 2 * d + 1 : 2].copy()
    entries[:, 1::2] += pow(2, k - 1, p) * basis[:, 1 : d // 2 + 1]
    entries %= p
    return entries


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
