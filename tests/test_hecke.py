"""Dimension formula, Hecke action on expansions, and the T2 matrix."""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from _oracles import charpoly_det_expansion
from maeda import hecke, qseries
from maeda.ffpoly import charpoly_mod_p, reduce_matrix
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
from maeda.qseries import max_block


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
    primes = [2, 3, 5, 7, 1048573, *random.Random(k).sample(sieve_primes(1 << 20).tolist(), 3)]
    for p in primes:
        modp = hecke.hecke_matrix_T2(k, p)
        assert modp.dtype == np.int64 and modp.shape == (exact.d, exact.d)
        assert np.array_equal(modp, reduce_matrix(exact, p)), (k, p)


@pytest.mark.parametrize("k", [200, 300, 400, 596])
def test_t2_mod_p_matches_reduced_exact_matrix_at_first_primes(k):
    # consecutive mode tests the smallest primes first, at every weight
    exact = hecke_matrix_T2(k)
    for p in sieve_primes(1 << 20)[:30].tolist():
        assert np.array_equal(hecke.hecke_matrix_T2(k, p), reduce_matrix(exact, p)), (k, p)


def _benchmark_oracle():
    # perfbench/oracle.py shares no code with maeda: it builds T2 mod p in
    # int64 on the raw product basis and takes a Krylov charpoly
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k, p", [(2400, 1048573), (2400, 1048559), (4800, 1048571)])
def test_t2_charpoly_at_large_d_matches_independent_int64_build(k, p):
    # d = 200 and 400, primes just below 2^20: every float64 sum of the
    # builder and the chunked trace charpoly is at its largest here
    oracle = _benchmark_oracle()
    expected = oracle.charpoly_krylov(oracle.t2_matrix_mod_p(k, p), p)
    assert charpoly_mod_p(hecke.hecke_matrix_T2(k, p), p).tolist() == expected


@pytest.mark.parametrize("p", [1 << 20, 1048583, 4194319, 1, 9, 1048575])
def test_t2_mod_p_rejects_large_or_composite_modulus(p):
    with pytest.raises(ValueError):
        hecke.hecke_matrix_T2(48, p)


@pytest.mark.parametrize("p", [1048573.0, 2.0, 7.0, np.float64(37.0)])
def test_t2_mod_p_refuses_a_float_modulus(monkeypatch, p):
    built: list = []
    monkeypatch.setattr(qseries, "_fill_rows", lambda *args: built.append(args))
    with pytest.raises(TypeError):
        hecke.hecke_matrix_T2(48, p)
    assert built == []


def test_t2_mod_p_rejects_bad_weights():
    for k in (13, 10, 0):
        with pytest.raises(ValueError):
            hecke.hecke_matrix_T2(k, 5)


def _mixed_primes(d: int, length: int) -> list[int]:
    # a block of `length` primes: 2, 3, the largest prime <= d, the least
    # prime past the precision, the two largest primes below 2^20, then
    # random primes
    prec = 2 * (d + 2) + 1
    small = [p for p in sieve_primes(d + 1)[-1:].tolist() if p > 3]
    above = next(p for p in sieve_primes(2 * prec + 2).tolist() if p > prec)
    special = [2, 3, *small, above, 1048571, 1048573]
    rest = random.Random(d).sample(sieve_primes(1 << 20).tolist(), max(0, length - len(special)))
    return (special + rest)[:length]


@pytest.mark.parametrize("d", [1, 2, 16, 49, 100])
def test_t2_block_slices_equal_per_prime_builds_and_exact_matrix(d):
    # block lengths 1, 2, cap - 1, cap and cap + 1; blocks shorter than
    # the special primes are cut from them in turn, so each length meets all
    k = 12 * d
    exact = hecke_matrix_T2(k)
    cap = max_block(k)
    for length in sorted({1, 2, cap - 1, cap, cap + 1} - {0}):
        primes = _mixed_primes(d, max(length, 6))
        for start in range(0, len(primes), length):
            block = (primes + primes)[start : start + length]
            matrices = hecke.hecke_matrix_T2(k, block)
            assert matrices.dtype == np.int64 and matrices.shape == (length, d, d)
            for p, matrix in zip(block, matrices):
                assert np.array_equal(matrix, hecke.hecke_matrix_T2(k, p)), (d, length, p)
                assert np.array_equal(matrix, reduce_matrix(exact, p)), (d, length, p)


@pytest.mark.parametrize("bad", [9, 1 << 20, 1048583, 4194319])
def test_t2_block_with_one_bad_modulus_is_refused_before_any_work(monkeypatch, bad):
    built: list = []
    monkeypatch.setattr(qseries, "_fill_rows", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="modulus must"):
        hecke.hecke_matrix_T2(48, [1048573, 5, bad])
    assert built == []


T2_BUILDERS = [hecke.hecke_matrix_T2, qseries.miller_basis, qseries.spanning_set]


@pytest.mark.parametrize("build", T2_BUILDERS, ids=lambda build: build.__name__)
def test_t2_build_checks_each_modulus_once(monkeypatch, build):
    # spanning_set, the first step of every build, is the one that checks
    checked: list[int] = []
    check = qseries.check_modulus
    monkeypatch.setattr(qseries, "check_modulus", lambda p: checked.append(p) or check(p))
    build(48, [1048573, 5, 7])
    assert checked == [1048573, 5, 7]
    checked.clear()
    build(48, 7)
    assert checked == [7]


@pytest.mark.parametrize("build", T2_BUILDERS, ids=lambda build: build.__name__)
@pytest.mark.parametrize("k, p, message", [
    (48, [5, 1048575], "modulus must be prime, got 1048575"),
    (47, [5, 7], "weight must be even and at least 12, got 47"),
    (10, 5, "weight must be even and at least 12, got 10"),
    (48, [[5, 7]], "moduli must be one prime or a 1-d sequence of primes"),
    (13, [[5, 7]], "moduli must be one prime or a 1-d sequence of primes"),
    (48, np.array([[5], [7]]), "moduli must be one prime or a 1-d sequence of primes"),
])
def test_every_t2_builder_refuses_before_any_work(monkeypatch, build, k, p, message):
    tables: list[int] = []
    monkeypatch.setattr(qseries, "_tables", lambda prec: tables.append(prec))
    with pytest.raises(ValueError, match=message):
        build(k, p)
    assert tables == []


@pytest.mark.parametrize("build", T2_BUILDERS, ids=lambda build: build.__name__)
@pytest.mark.parametrize("k", [14, 48])  # d = 0 and d = 4
@pytest.mark.parametrize("p", [7, [5, 7, 1048573], (5, 7, 1048573),
                               np.array([5, 7, 1048573], dtype=np.int64), []],
                         ids=["int", "list", "tuple", "array", "empty"])
def test_every_t2_builder_takes_the_shape_of_its_moduli(monkeypatch, build, k, p):
    # np.shape(p) + (d, cols): one prime gives one build, and a block of B
    # primes, B = 0 included, a leading axis of B whose slices are the
    # primes' own builds; an empty block builds no rows
    d, prec = qseries._shape(k)[:2]
    cols = d if build is hecke.hecke_matrix_T2 else prec
    fill = qseries._fill_rows
    filled: list[int] = []
    monkeypatch.setattr(qseries, "_fill_rows", lambda rows, *args: filled.append(len(rows))
                        or fill(rows, *args))
    built = build(k, p)
    assert built.dtype == np.int64 and built.shape == np.shape(p) + (d, cols)
    assert filled == ([np.size(p)] if d and np.size(p) else [])
    for q, one in zip(np.ravel(p).tolist(), built.reshape(np.size(p), d, cols)):
        assert np.array_equal(one, build(k, q)), q
