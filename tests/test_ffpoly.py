"""Prime-field matrices, characteristic polynomials, and factorization patterns."""

import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from _oracles import charpoly_det_expansion, poly_mul, trial_factor_pattern
from maeda.ffpoly import (
    MAX_MODULUS,
    charpoly_mod_p,
    distinct_degree_split,
    factorization_pattern,
    is_squarefree,
    reduce_matrix,
)
from maeda import hecke
from maeda.oracles import IntMatrix, charpoly_exact, hecke_matrix_T2
from maeda.patterns import Pattern
from maeda.primes import sieve_primes


def poly(p: int, coeffs) -> np.ndarray:
    """Polynomial array over F_p from integer coefficients, lowest degree first."""
    return np.array(coeffs, dtype=np.int64) % p


def assert_poly(f: np.ndarray, p: int) -> None:
    """f follows the polynomial convention: int64 residues, trimmed."""
    assert f.dtype == np.int64 and f.ndim == 1
    assert np.all((0 <= f) & (f < p))
    assert len(f) == 0 or f[-1] != 0


def test_charpoly_returns_reduced_monic_array():
    # entries outside [0, p) are reduced: [[9, -1], [0, 13]] is [[2, 6], [0, 6]]
    # mod 7, whose charpoly (X - 2)(X - 6) = X^2 - 8X + 12 is (5, 6, 1) mod 7
    f = charpoly_mod_p(np.array([[9, -1], [0, 13]]), 7)
    assert_poly(f, 7)
    assert f.tolist() == [5, 6, 1]
    for k, p in ((48, 5), (120, 1048573)):
        f = charpoly_mod_p(hecke.hecke_matrix_T2(k, p), p)
        assert_poly(f, p)
        assert len(f) == hecke_matrix_T2(k).d + 1 and f[-1] == 1


def test_modulus_validation():
    one = IntMatrix(((1,),))
    with pytest.raises(ValueError):
        reduce_matrix(one, 6)  # composite
    with pytest.raises(ValueError):
        reduce_matrix(one, MAX_MODULUS + 7)  # beyond the 2^20 cap
    with pytest.raises(ValueError):
        reduce_matrix(one, 1048583)  # prime, but >= 2^20
    with pytest.raises(ValueError):
        charpoly_mod_p(np.zeros((2, 3), dtype=np.int64), 5)  # not square


def test_reduce_matrix_examples():
    a = reduce_matrix(IntMatrix(((-24,),)), 101)
    assert a.dtype == np.int64 and a.tolist() == [[77]]
    zero = IntMatrix(((0, 0), (0, 0)))
    assert reduce_matrix(zero, 13).tolist() == [[0, 0], [0, 0]]


def test_reduce_matrix_trace_matches_integer_trace():
    m = hecke_matrix_T2(24)
    rng = random.Random(5)
    primes = sieve_primes(MAX_MODULUS)
    for _ in range(20):
        p = primes[rng.randrange(len(primes))]
        a = reduce_matrix(m, p)
        assert int(a.trace()) % p == 1080 % p


def test_charpoly_one_by_one():
    assert charpoly_mod_p(np.array([[7]]), 11).tolist() == [4, 1]  # X - 7 = X + 4 mod 11


def test_charpoly_companion_matrix():
    # companion matrix of X^2 + 1 over F_5
    assert charpoly_mod_p(np.array([[0, -1], [1, 0]]), 5).tolist() == [1, 0, 1]


def test_charpoly_empty_matrix():
    assert charpoly_mod_p(np.zeros((0, 0), dtype=np.int64), 7).tolist() == [1]


def test_charpoly_against_det_expansion_oracle():
    rng = random.Random(99)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 101])
        d = rng.randrange(1, 5)
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        got = charpoly_mod_p(np.array(rows, dtype=np.int64), p)
        expect = charpoly_det_expansion(rows, modulus=p)
        assert got.tolist() == expect, (p, rows)


def test_charpoly_mod_p_matches_reduced_exact_charpoly():
    rng = random.Random(17)
    primes = sieve_primes(MAX_MODULUS)
    for k in (24, 48, 84):  # d = 2, 4, 7
        m = hecke_matrix_T2(k)
        exact = charpoly_exact(m)
        for _ in range(30):
            p = primes[rng.randrange(len(primes))]
            assert charpoly_mod_p(reduce_matrix(m, p), p).tolist() == [
                c % p for c in exact
            ]


@pytest.mark.parametrize(
    "p, coeffs, expected",
    [
        (2, (1, 0, 1), False),  # (X+1)^2
        (5, (1, 0, 1), True),  # (X+2)(X+3)
        (7, (0, 0, 0, 1), False),  # X^3
    ],
)
def test_is_squarefree(p, coeffs, expected):
    assert is_squarefree(poly(p, coeffs), p) is expected


def test_is_squarefree_cache_keys_on_p_and_coefficients():
    # the cached last answer must never be returned for another p or f
    f = poly(5, (1, 0, 1))
    for _ in range(2):
        assert is_squarefree(f, 2) is False  # (X+1)^2 over F_2
        assert is_squarefree(f, 5) is True
    g = f.copy()
    g[1] = 2  # X^2 + 2X + 1 = (X+1)^2 over F_5
    assert is_squarefree(g, 5) is False
    assert is_squarefree(f, 5) is True


def test_is_squarefree_rejects_zero():
    with pytest.raises(ValueError):
        is_squarefree(np.zeros(0, dtype=np.int64), 5)
    with pytest.raises(ValueError):
        is_squarefree(np.zeros(3, dtype=np.int64), 5)


def test_is_squarefree_with_vanishing_derivative():
    # f = X^4 + 1 over F_2 has zero derivative and is (X+1)^4
    assert is_squarefree(poly(2, (1, 0, 0, 0, 1)), 2) is False


@pytest.mark.parametrize(
    "p, coeffs, expected",
    [
        (3, (1, 0, 1), {2: 1}),  # irreducible: -1 not a square mod 3
        (5, (1, 0, 1), {1: 2}),  # roots 2 and 3
        (5, (0, -1, 0, 1), {1: 3}),  # X^3 - X = X(X-1)(X+1)
    ],
)
def test_factorization_pattern_examples(p, coeffs, expected):
    assert factorization_pattern(poly(p, coeffs), p) == Pattern.from_pairs(
        expected.items()
    )


def test_factorization_pattern_rejects_non_squarefree():
    with pytest.raises(ValueError):
        factorization_pattern(poly(2, (1, 0, 1)), 2)
    square = poly(5, (4, 4, 1))  # (X+2)^2, its answer cached by the first call
    assert not is_squarefree(square, 5)
    with pytest.raises(ValueError):
        factorization_pattern(square, 5)
    with pytest.raises(ValueError):
        distinct_degree_split(poly(5, (1, 3)), 5)  # leading coefficient 3
    with pytest.raises(ValueError):
        distinct_degree_split(poly(5, (1, 1, 0)), 5)  # untrimmed: leading entry 0


def test_ddf_against_trial_factorization():
    rng = random.Random(424)
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(60):
            d = rng.randrange(1, 7)
            f = poly(p, [rng.randrange(p) for _ in range(d)] + [1])
            if not is_squarefree(f, p):
                continue
            got = factorization_pattern(f, p)
            assert got.as_dict() == trial_factor_pattern(f.tolist(), p), (p, f)
            checked += 1
    assert checked > 150


def test_ddf_exhaustive_small_fields():
    for p in (2, 3):
        for d in range(1, 5):
            for mask in range(p**d):
                tail = []
                m = mask
                for _ in range(d):
                    tail.append(m % p)
                    m //= p
                f = poly(p, tail + [1])
                if not is_squarefree(f, p):
                    continue
                assert factorization_pattern(f, p).as_dict() == trial_factor_pattern(
                    f.tolist(), p
                ), f


@settings(max_examples=120, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 13, 101, 499, 997]),
    tail=st.lists(st.integers(0, 996), min_size=1, max_size=30),
)
def test_pattern_degree_sum_and_multiply_back(p, tail):
    f = poly(p, tail + [1])
    if not is_squarefree(f, p):
        return
    split = distinct_degree_split(f, p)
    pattern = factorization_pattern(f, p)
    assert pattern.size == len(f) - 1
    for i, g in split.items():
        assert_poly(g, p)
        assert (len(g) - 1) % i == 0 and g[-1] == 1
    product = [1]
    for g in split.values():
        product = poly_mul(product, g.tolist(), p)
    assert product == f.tolist()


# ---------------------------------------------------------------------------
# sympy as an independent factorization oracle

def sympy_factor_degrees(coeffs, p: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) of each irreducible factor, by sympy over F_p."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("X"), modulus=p)
    return sorted((g.degree(), m) for g, m in poly.factor_list()[1])


def _mobius(n: int) -> int:
    result, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            result = -result
        q += 1
    return -result if n > 1 else result


def irreducible_count(p: int, m: int) -> int:
    """Number of monic irreducibles of degree m over F_p (Gauss's formula)."""
    return sum(_mobius(e) * p ** (m // e) for e in range(1, m + 1) if m % e == 0) // m


def planted_polynomial(rng: random.Random, p: int, shape) -> tuple[list[int], list[list[int]]]:
    """Product of distinct random monic irreducibles of the given degrees.

    Returns the product and the factors, lowest degree first; each factor
    is certified irreducible by sympy.  Degrees with more factors than F_p
    has irreducibles of that degree must not be asked for.
    """
    factors: list[list[int]] = []
    for m in shape:
        while True:
            high_first = [1] + [rng.randrange(p) for _ in range(m)]
            low_first = high_first[::-1]
            if low_first not in factors and gf_irreducible_p(high_first, p, ZZ):
                break
        factors.append(low_first)
    product = [1]
    for g in factors:
        product = poly_mul(product, g, p)
    return product, factors


def check_planted(rng: random.Random, p: int, shape) -> None:
    product, factors = planted_polynomial(rng, p, shape)
    f = np.array(product, dtype=np.int64)
    expected = Pattern.from_lengths(shape)
    assert factorization_pattern(f, p) == expected, (p, shape)
    assert sympy_factor_degrees(product, p) == sorted((m, 1) for m in shape)
    split = distinct_degree_split(f, p)
    assert sorted(split) == sorted(set(shape))
    multiplied = [1]
    for i, g in split.items():
        assert_poly(g, p)
        assert g[-1] == 1 and (len(g) - 1) % i == 0
        planted_i = [1]
        for h in factors:
            if len(h) - 1 == i:
                planted_i = poly_mul(planted_i, h, p)
        assert g.tolist() == planted_i, (p, shape, i)
        multiplied = poly_mul(multiplied, g.tolist(), p)
    assert multiplied == product


@st.composite
def planted_shapes(draw, min_degree: int = 1):
    """A prime and factor degrees, each at most 20, summing to at least
    min_degree; the drawn part sums to at most 64, and the rest is topped up
    with the largest degrees F_p still has irreducibles for."""
    p = draw(st.sampled_from([2, 3, 5, 13, 101, 997, 1048573]))
    shape: list[int] = []
    for m in draw(st.lists(st.integers(1, 20), min_size=1, max_size=12)):
        if sum(shape) + m <= 64 and shape.count(m) < irreducible_count(p, m):
            shape.append(m)
    m = 20
    while sum(shape) < min_degree:
        if shape.count(m) < irreducible_count(p, m):
            shape.append(m)
        else:
            m -= 1
    return p, shape


@pytest.mark.parametrize("k", [300, 600, 1200])  # d = 25, 50, 100
def test_pattern_matches_sympy_on_T2_reductions(k):
    rng = random.Random(k)
    primes = sieve_primes(MAX_MODULUS)
    checked = 0
    for p in [2, 3, 5, 7] + [primes[rng.randrange(len(primes))] for _ in range(4)]:
        fp = charpoly_mod_p(hecke.hecke_matrix_T2(k, p), p)
        # squarefreeness from the multiplicities: sympy's Poly.is_sqf calls
        # X^50 over F_2 squarefree
        factors = sympy_factor_degrees(fp.tolist(), p)
        squarefree = all(m == 1 for _, m in factors)
        assert is_squarefree(fp, p) is squarefree, (k, p)
        if not squarefree:
            with pytest.raises(ValueError):
                factorization_pattern(fp, p)
            continue
        assert factorization_pattern(fp, p) == Pattern.from_lengths(m for m, _ in factors), (k, p)
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize(
    "shape",
    [
        (8, 9, 16, 17, 10),  # degree 60, blocks of 8 rounds: 8|9 and 16|17 straddle
        (8, 8, 9, 9, 1, 1, 2, 22),  # several factors of one degree, either side
        (7,) * 8 + (4,),  # eight factors of one degree
        (30, 30),  # two factors of half the degree, found in the last round
        (29, 31),  # the larger one is left over after the last round
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 11),  # one factor in nearly every round
    ],
)
@pytest.mark.parametrize("p", [3, 1048573])
def test_split_planted_shapes_at_block_boundaries(p, shape):
    check_planted(random.Random(sum(shape) + p), p, shape)


@settings(max_examples=25, deadline=None)
@given(planted=planted_shapes(), seed=st.integers(0, 2**32))
def test_pattern_matches_planted_shape_and_sympy(planted, seed):
    check_planted(random.Random(seed), *planted)


@settings(max_examples=15, deadline=None)
@given(planted=planted_shapes(min_degree=60), seed=st.integers(0, 2**32))
def test_split_multiply_back_at_degree_60(planted, seed):
    check_planted(random.Random(seed), *planted)
