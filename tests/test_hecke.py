"""Dimension formula, Hecke action on expansions, and the T2 matrix."""

import random

import numpy as np
import pytest

from _oracles import charpoly_det_expansion
from maeda import hecke
from maeda.ffpoly import reduce_matrix
from maeda.hecke import dim_cusp_forms
from maeda.oracles import (
    IntMatrix,
    PrecisionError,
    charpoly_exact,
    delta,
    eisenstein,
    hecke_coefficient,
    hecke_matrix_T2,
    hecke_matrix_T2_spanning,
    series_mul,
    series_pow,
)
from maeda.primes import sieve_primes


@pytest.mark.parametrize(
    "k, d",
    [(12, 1), (26, 1), (2, 0), (0, 0), (14, 0), (24, 2), (60, 5), (96, 8),
     (600, 50), (12000, 1000), (-6, 0), (7, 0), (11, 0)],
)
def test_dim_cusp_forms(k, d):
    assert dim_cusp_forms(k) == d


def test_hecke_coefficient_on_delta():
    f = delta(13)
    # gcd(2, 1) = 1: single term a_2
    assert hecke_coefficient(2, 1, 12, f) == -24
    # n = 2: a_4 + 2^11 a_1; equals tau(2)^2 since T2 Delta = tau(2) Delta
    assert hecke_coefficient(2, 2, 12, f) == -1472 + 2048 == 576
    # gcd(2, 3) = 1: a_6
    assert hecke_coefficient(2, 3, 12, f) == -6048 == -24 * 252


def test_hecke_coefficient_general_index():
    f = delta(13)
    # T3 Delta = tau(3) Delta: coefficient of q^1 is a_3
    assert hecke_coefficient(3, 1, 12, f) == 252
    # coefficient of q^3 in T3 Delta: a_9 + 3^11 a_1 = tau(3)^2
    assert hecke_coefficient(3, 3, 12, f) == 252 * 252
    with pytest.raises(ValueError):
        hecke_coefficient(0, 1, 12, f)


def test_hecke_coefficient_propagates_precision_error():
    f = delta(5)
    with pytest.raises(PrecisionError):
        hecke_coefficient(2, 3, 12, f)  # needs a_6, series stops at a_4


def test_t2_matrix_weight_12():
    assert hecke_matrix_T2(12).rows == ((-24,),)


def test_t2_matrix_empty_space():
    m = hecke_matrix_T2(14)
    assert m.d == 0 and m.rows == ()
    assert charpoly_exact(m) == (1,)


DIM_ONE_EIGENVALUES = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}


@pytest.mark.parametrize("k, a2", sorted(DIM_ONE_EIGENVALUES.items()))
def test_dim_one_eigenvalues_against_series_oracle(k, a2):
    # independent route: expand Delta * E4^alpha * E6^b directly and read
    # the q^2 coefficient (T2 g = a_2(g) g for a one-dimensional space)
    b = (k // 2) % 2
    alpha = (k - 12 - 6 * b) // 4
    prec = 4
    g = series_mul(delta(prec), series_pow(eisenstein(4, prec), alpha))
    if b:
        g = series_mul(g, eisenstein(6, prec))
    assert g[1] == 1
    assert g[2] == a2
    assert hecke_matrix_T2(k).rows == ((a2,),)


def test_weight_24_trace_and_determinant():
    # independent oracle: T2 in the non-echelonized spanning basis
    # {Delta E4^3, Delta^2}, coordinates solved from unit-triangular systems
    spanning = hecke_matrix_T2_spanning(24)
    (a, b), (c, d) = spanning.rows
    assert a + d == 1080
    assert a * d - b * c == -20468736
    miller = hecke_matrix_T2(24)
    assert miller.trace() == 1080
    assert charpoly_exact(miller) == charpoly_exact(spanning) == (-20468736, -1080, 1)


def test_basis_independence_of_charpoly_up_to_120():
    for k in range(12, 121, 2):
        assert charpoly_exact(hecke_matrix_T2(k)) == charpoly_exact(
            hecke_matrix_T2_spanning(k)
        ), k


def test_matrix_entries_are_integers_without_division():
    for k in (48, 120, 300):
        m = hecke_matrix_T2(k)
        assert all(isinstance(e, int) for row in m.rows for e in row)


def test_charpoly_exact_against_det_expansion_oracle():
    rng = random.Random(20240)
    for _ in range(40):
        d = rng.randrange(1, 5)
        rows = tuple(
            tuple(rng.randrange(-50, 51) for _ in range(d)) for _ in range(d)
        )
        assert list(charpoly_exact(IntMatrix(rows))) == charpoly_det_expansion(rows)


def test_intmatrix_rejects_non_square():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))


MOD_P_WEIGHTS = [*range(12, 241, 2), 300, 400, 596, 600, 1200]


@pytest.mark.parametrize("k", MOD_P_WEIGHTS)
def test_t2_mod_p_matches_reduced_exact_matrix(k):
    # differential: the int64 build against the big-integer build, reduced
    exact = hecke_matrix_T2(k)
    primes = [2, 3, 5, 7, 1048573, *random.Random(k).sample(sieve_primes(1 << 20), 3)]
    for p in primes:
        modp = hecke.hecke_matrix_T2(k, p)
        assert modp.dtype == np.int64 and modp.shape == (exact.d, exact.d)
        assert np.array_equal(modp, reduce_matrix(exact, p)), (k, p)


@pytest.mark.parametrize("k", [200, 300, 400, 596])
def test_t2_mod_p_matches_reduced_exact_matrix_at_first_primes(k):
    # consecutive mode tests the smallest primes first, at every weight
    exact = hecke_matrix_T2(k)
    for p in sieve_primes(1 << 20)[:30]:
        assert np.array_equal(hecke.hecke_matrix_T2(k, p), reduce_matrix(exact, p)), (k, p)


@pytest.mark.parametrize("p", [1 << 20, 1048583, 4194319, 1, 9, 1048575])
def test_t2_mod_p_rejects_large_or_composite_modulus(p):
    with pytest.raises(ValueError):
        hecke.hecke_matrix_T2(48, p)


def test_t2_mod_p_rejects_bad_weights():
    for k in (13, 10, 0):
        with pytest.raises(ValueError):
            hecke.hecke_matrix_T2(k, 5)
