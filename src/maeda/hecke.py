"""The Hecke operator T2 on level-one cusp forms, as a matrix mod p.

On a weight-k q-expansion f = sum a_n q^n, (T2 f)_n = a_(2n) + 2^(k-1) a_(n/2),
the second term only for even n.  Row i of the d x d matrix of T2 holds the
first d coefficients of T2 f_i, which are its coordinates because the Miller
basis is echelonized.  :func:`hecke_matrix_T2` reads them off
:func:`~maeda.qseries.miller_basis` mod a prime p < 2^20, exactly (the
argument is in :mod:`maeda.ffpoly`); the witness search and the recheck
both build T2 this way mod each prime they test, a block of primes in one
pass.  The tests hold it to the exact matrix of :mod:`maeda.oracles`.
"""

from __future__ import annotations

import numpy as np

from .qseries import dim_cusp_forms, miller_basis

__all__ = ["dim_cusp_forms", "hecke_matrix_T2"]


def hecke_matrix_T2(k: int, p) -> np.ndarray:
    """Matrix of T2 on the Miller basis of the weight-k cusp space, mod p.

    Entry (i, n) is a_(2n) + 2^(k-1) a_(n/2) of f_i mod p.  Returns a d x d
    int64 array of residues (0 x 0 when the space is empty), equal to the
    exact matrix reduced mod p.  For a 1-d sequence of B primes it returns
    the B matrices stacked, B x d x d, built in one pass of batched
    products (:func:`~maeda.qseries.miller_basis`).  Raises ValueError,
    before any work, unless every p is a prime below 2^20 and k an even
    weight of at least 12.
    """
    basis = miller_basis(k, p)  # which checks p and k first
    primes = np.asarray(p, dtype=np.int64)[..., None, None]  # a batch axis iff basis has one
    d = basis.shape[-2]
    entries = basis[..., 2 : 2 * d + 1 : 2].copy()
    twos = np.array([pow(2, k - 1, q) for q in primes.ravel().tolist()], dtype=np.int64)
    entries[..., 1::2] += twos.reshape(primes.shape) * basis[..., 1 : d // 2 + 1]
    entries %= primes
    return entries
