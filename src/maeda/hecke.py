"""The Hecke operator T2 on level-one cusp forms, as a matrix mod p.

On a weight-k q-expansion f = sum a_n q^n, (T2 f)_n = a_(2n) + 2^(k-1) a_(n/2),
the second term only for even n.  Row i of the d x d matrix of T2 holds the
first d coefficients of T2 f_i, which are its coordinates because the Miller
basis is echelonized.  :func:`hecke_matrix_T2` reads them off
:func:`~maeda.qseries.miller_basis` mod a prime p < 2^20, in int64; the
witness search and the recheck both build T2 this way at each prime they
test.  The tests hold it to the exact matrix of :mod:`maeda.oracles`.
"""

from __future__ import annotations

import numpy as np

from .qseries import dim_cusp_forms, miller_basis

__all__ = ["dim_cusp_forms", "hecke_matrix_T2"]


def hecke_matrix_T2(k: int, p: int) -> np.ndarray:
    """Matrix of T2 on the Miller basis of the weight-k cusp space, mod p.

    Entry (i, n) is a_(2n) + 2^(k-1) a_(n/2) of f_i mod p.  Returns a d x d
    int64 array of residues (0 x 0 when the space is empty), equal to the
    exact matrix reduced mod p.  Raises ValueError unless p is a prime below
    2^20 and k an even weight of at least 12.
    """
    basis = miller_basis(k, p)
    d = basis.shape[0]
    entries = basis[:, 2 : 2 * d + 1 : 2].copy()
    entries[:, 1::2] += pow(2, k - 1, p) * basis[:, 1 : d // 2 + 1]
    entries %= p
    return entries
