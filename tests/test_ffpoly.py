"""Prime-field matrices, characteristic polynomials, and factorization patterns."""

import random
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from _oracles import (
    charpoly_det_expansion,
    poly_divmod,
    poly_mul,
    reduction_and_frobenius_rows,
    trial_factor_pattern,
)
from maeda import ffpoly
from maeda.ffpoly import (
    MAX_FLOAT_TERMS,
    MAX_MODULUS,
    TRACE_FACTOR_MAX_DEGREE,
    _by_traces,
    _charpoly_hessenberg,
    _charpoly_traces,
    _divmod,
    _factor_degrees,
    _frobenius,
    _gcd,
    _inverse,
    _matmul,
    _matmul_residues,
    _mul,
    _power_traces,
    _reduction_rows,
    _squarefree,
    _x_power,
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


@pytest.mark.parametrize(
    "entry", [reduce_matrix, charpoly_mod_p, is_squarefree, factorization_pattern,
              distinct_degree_split], ids=lambda entry: entry.__name__)
def test_modulus_validation(entry, monkeypatch):
    # every public function checks p before any work, every time: a spy on
    # the trace and gcd kernels sees no call.  X^3 + X + 1 is monic and
    # squarefree at the prime 1048573 < 2^20
    matrix = entry in (reduce_matrix, charpoly_mod_p)
    data = [[1, 2, 3], [4, 5, 6], [7, 8, 10]] if matrix else np.array([1, 1, 0, 1], dtype=np.int64)
    work = []
    for kernel in ("_power_traces", "_gcd"):
        original = getattr(ffpoly, kernel)
        monkeypatch.setattr(ffpoly, kernel, lambda *a, _f=original: work.append(a) or _f(*a))
    # the 2^20 cap, a prime above it and 2^31 - 1, and composites below it
    for p in (MAX_MODULUS, MAX_MODULUS + 7, 1048583, 2**31 - 1, 6, 1048575):
        for _ in range(2):  # a failed check is not remembered
            with pytest.raises(ValueError, match="modulus"):
                entry(data, p)
    assert not work
    entry(data, 1048573)
    with pytest.raises(TypeError):  # a passed int does not pass its float
        entry(data, 1048573.0)


def test_reduce_matrix_examples():
    a = reduce_matrix(IntMatrix(((-24,),)), 101)
    assert a.dtype == np.int64 and a.tolist() == [[77]]
    zero = IntMatrix(((0, 0), (0, 0)))
    assert reduce_matrix(zero, 13).tolist() == [[0, 0], [0, 0]]
    for empty in (IntMatrix(()), np.zeros((0, 0)), []):
        assert reduce_matrix(empty, 13).shape == (0, 0)
        assert charpoly_mod_p(empty, 13).tolist() == [1]
    for entry in (reduce_matrix, charpoly_mod_p):
        for bad in ([[1, 2, 3], [4, 5, 6]], np.zeros((2, 3), dtype=np.int64), [1, 2], 5):
            with pytest.raises(ValueError, match="square"):
                entry(bad, 5)
    # the Hessenberg path (p <= d) overwrites its reduction, never the input
    m = np.array([[9, -1, 4], [0, 13, 2], [5, 5, 5]])
    assert reduce_matrix(m, 7) is not m
    charpoly_mod_p(m, 3)
    assert m.tolist() == [[9, -1, 4], [0, 13, 2], [5, 5, 5]]


def test_reduce_matrix_trace_matches_integer_trace():
    m = hecke_matrix_T2(24)
    rng = random.Random(5)
    primes = sieve_primes(MAX_MODULUS).tolist()
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


def pivot_path_matrices(rng: random.Random, d: int) -> dict[str, list[list[int]]]:
    """Integer matrices whose Hessenberg reduction mod a small prime meets
    zero pivots (a row swap) and all-zero columns (nothing to eliminate)."""
    entry = lambda: rng.choice((-3, -2, -1, 1, 2, 3, 4))  # noqa: E731
    cut = rng.randrange(2, d - 2)  # diagonal blocks [0, cut) and [cut, d)
    block = [[0 if i >= cut > j else rng.randrange(-3, 4) for j in range(d)]
             for i in range(d)]
    perm = rng.sample(range(d), d)
    return {
        "sparse": [[entry() if rng.random() < 0.12 else 0 for _ in range(d)] for _ in range(d)],
        "triangular": [[entry() if j >= i else 0 for j in range(d)] for i in range(d)],
        "block-triangular": block,
        "permuted": [[block[perm[i]][perm[j]] for j in range(d)] for i in range(d)],
    }


@pytest.mark.parametrize("d", [8, 13, 21, 30])
def test_charpoly_mod_p_on_pivot_paths(d):
    rng = random.Random(d)
    for name, rows in pivot_path_matrices(rng, d).items():
        exact = charpoly_exact(IntMatrix(tuple(map(tuple, rows))))
        for p in (2, 3, 5):
            got = charpoly_mod_p(np.array(rows, dtype=np.int64), p)
            assert got.tolist() == [c % p for c in exact], (name, d, p)


def test_charpoly_mod_p_matches_reduced_exact_charpoly():
    rng = random.Random(17)
    primes = sieve_primes(MAX_MODULUS).tolist()
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
            assert dict(got.parts) == trial_factor_pattern(f.tolist(), p), (p, f)
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
                assert dict(factorization_pattern(f, p).parts) == trial_factor_pattern(
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


def shifted_binomial(rng: random.Random, p: int, m: int) -> list[int]:
    """(X + c)^m - g over F_p, lowest degree first, for a random c and a
    primitive root g: irreducible when every prime factor of m divides
    p - 1, and 4 divides p - 1 if 4 divides m (Lidl & Niederreiter,
    *Finite Fields*, Thm. 3.75)."""
    c = rng.randrange(p)
    low_first = [comb(m, j) * pow(c, m - j, p) % p for j in range(m + 1)]
    low_first[0] = (low_first[0] - sympy.primitive_root(p)) % p
    return low_first


def planted_polynomial(rng: random.Random, p: int, shape) -> tuple[list[int], list[list[int]]]:
    """Product of distinct random monic irreducibles of the given degrees.

    Returns the product and the factors, lowest degree first; each factor
    is certified irreducible by sympy.  Degrees with more factors than F_p
    has irreducibles of that degree must not be asked for.  A random
    polynomial of degree m is irreducible with probability about 1/m, so a
    factor of degree 48 or more is a shifted binomial instead, and needs p
    to meet the conditions of :func:`shifted_binomial`.
    """
    factors: list[list[int]] = []
    for m in shape:
        while True:
            if m >= 48:
                low_first = shifted_binomial(rng, p, m)
            else:
                low_first = [rng.randrange(p) for _ in range(m)] + [1]
            if low_first not in factors and gf_irreducible_p(low_first[::-1], p, ZZ):
                break
        factors.append(low_first)
    product = [1]
    for g in factors:
        product = poly_mul(product, g, p)
    return product, factors


def check_planted(rng: random.Random, p: int, shape) -> np.ndarray:
    """Plant the shape, check factorization_pattern, sympy and the split
    subproducts against it, and return the product."""
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
    return f


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
    primes = sieve_primes(MAX_MODULUS).tolist()
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


# ---------------------------------------------------------------------------
# the float64 product and Newton division behind the kernels above

def test_float_product_is_exact_at_the_worst_case():
    # every residue p - 1 at the largest p, summed over the longest series
    # (prec = 2337 at k = 14000): 2337 (p - 1)^2 < 2^53
    p, n = 1048573, 2337
    a = np.full((2, n), p - 1, dtype=np.float64)
    b = np.full((n, 3), p - 1, dtype=np.float64)
    exact = n * (p - 1) ** 2
    assert exact < 2**53 and int((a @ b)[0, 0]) == exact
    assert _matmul(a, b, p).tolist() == [[exact % p] * 3] * 2
    assert _matmul(a, b, p).dtype == np.int64


def test_float_product_refuses_2_13_terms():
    assert MAX_FLOAT_TERMS == 1 << 13
    _matmul(np.ones(MAX_FLOAT_TERMS - 1), np.ones(MAX_FLOAT_TERMS - 1), 5)
    with pytest.raises(AssertionError):
        _matmul(np.ones(MAX_FLOAT_TERMS), np.ones(MAX_FLOAT_TERMS), 5)


def test_divmod_matches_long_division_oracle():
    rng = random.Random(9)
    cases = [(2, 40, 1), (2, 3, 7), (3, 0, 0), (5, 12, 12), (101, 1, 1)]
    cases += [(rng.choice([2, 3, 7, 101, 1048573]), rng.randrange(0, 80), rng.randrange(0, 40))
              for _ in range(150)]
    for p, deg_a, deg_b in cases:
        a = [rng.randrange(p) for _ in range(deg_a)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(deg_b)] + [rng.randrange(1, p)]
        q, r = _divmod(poly(p, a), poly(p, b), p)
        assert_poly(q, p)
        assert_poly(r, p)
        assert (q.tolist(), r.tolist()) == poly_divmod(a, b, p), (p, a, b)


def test_float_residue_product_is_exact_at_the_worst_case():
    # the longest product allowed, a full chunk of a trace: 2^13 - 1 terms,
    # every residue p - 1
    p, n = 1048573, MAX_FLOAT_TERMS - 1
    a = np.full((2, n), p - 1, dtype=np.float64)
    b = np.full((n, 3), p - 1, dtype=np.float64)
    exact = n * (p - 1) ** 2
    assert exact < 2**53 and int((a @ b)[0, 0]) == exact
    assert _matmul_residues(a, b, p).tolist() == [[exact % p] * 3] * 2
    # x - floor(x / p) p is the remainder wherever x < 2^53 - 2^40, also
    # next to the multiples of p, where a quotient rounded up would show
    rng = np.random.default_rng(3)
    for q in (3, 1021, 1048571, p):
        top = (MAX_FLOAT_TERMS - 1) * (q - 1) ** 2
        quotients = rng.integers(1, top // q, size=20000)
        x = np.concatenate((rng.integers(0, top, size=20000), quotients * q - 1,
                            quotients * q, [top, top - 1, q - 1, 0]))
        assert _matmul_residues(x.astype(np.float64)[:, None], np.ones((1, 1)), q
                                ).ravel().astype(np.int64).tolist() == (x % q).tolist()
    with pytest.raises(AssertionError):
        _matmul_residues(np.ones(MAX_FLOAT_TERMS), np.ones(MAX_FLOAT_TERMS), 5)


def test_series_product_is_exact_at_the_worst_case():
    # every coefficient p - 1 at the largest primes and the longest series
    # (prec = 2337 at k = 14000): coefficient i sums i + 1 products, up to
    # 2337 (p - 1)^2 < 2^53, against Python ints.  A block of one series
    # with one int prime, as _divmod takes it, and a block of two primes
    n = 2337
    assert n * (MAX_MODULUS - 1) ** 2 < 2**53
    for block, p in (([1048573], 1048573),
                     ([1048573, 1048571], np.array([[1048573.0], [1048571.0]]))):
        a = np.array([[q - 1.0] * n for q in block])
        product = _mul(a, a, p)
        assert product.dtype == np.float64 and product.astype(np.int64).tolist() == [
            [(i + 1) * (q - 1) ** 2 % q for i in range(n)] for q in block]
        assert _mul(a, a, p, n - 3, n + 2).astype(np.int64).tolist() == [
            [min(i + 1, 2 * n - 1 - i) * (q - 1) ** 2 % q for i in range(n - 3, n + 2)]
            for q in block]
        # the Newton inverse of that series, checked by the exact product
        unit = a.copy()
        unit[:, 0] = 1
        inverse = _inverse(unit, p)
        assert _mul(unit, inverse, p).astype(np.int64).tolist() == [[1] + [0] * (n - 1)] * len(block)
    _mul(np.ones((1, MAX_FLOAT_TERMS - 1)), np.ones((1, MAX_FLOAT_TERMS + 5)), 5)
    with pytest.raises(AssertionError):
        _mul(np.ones((1, MAX_FLOAT_TERMS)), np.ones((1, MAX_FLOAT_TERMS)), 5)


@pytest.mark.parametrize("n", [15, 16, 17, 24, 25, 26, 99, 100, 101])  # s^2 and s^2 +- 1
def test_frobenius_rows_at_block_boundaries(n):
    # the baby and giant steps of the Frobenius matrix, and the doubled
    # reduction rows, against one row at a time in Python ints: a random f,
    # and the worst case for exactness, every coefficient p - 1, at the
    # largest p
    rng = random.Random(n)
    q = next_prime(n)
    for p, f in ((1048573, [1048572] * n + [1]), (q, [rng.randrange(q) for _ in range(n)] + [1])):
        rows, frob = _frobenius(np.array(f, dtype=np.int64), p)
        expected_rows, expected_frob = reduction_and_frobenius_rows(f, p)
        assert rows.dtype == frob.dtype == np.float64
        assert rows.astype(np.int64).tolist() == expected_rows, (n, p)
        assert frob.astype(np.int64).tolist() == expected_frob, (n, p)


def _x_powers_by_shifts(f: list[int], p: int, count: int) -> list[list[int]]:
    # X^0 .. X^count mod the monic f in Python ints, each the one before
    # shifted by one, less its top coefficient times f
    h, out = [1] + [0] * (len(f) - 2), []
    for _ in range(count + 1):
        out.append(h)
        h = [(a - h[-1] * c) % p for a, c in zip([0] + h[:-1], f)]
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 16, 49, 100])
def test_x_power_matches_binary_powering_in_python_ints(n):
    # X^e mod f at the largest modulus, for every e to 4n (and to 2^7), past
    # the last seed X^(2n - 1) the rows hold, against shifts in Python ints,
    # and for p - 1 and p against schoolbook products and long division;
    # then X^q mod f over F_q for every prime q < 2n, a monomial or a row,
    # which takes no squaring.  A random f, and the worst case for
    # exactness, every coefficient p - 1
    p = 1048573
    rng = random.Random(n)
    for f in ([p - 1] * n + [1], [rng.randrange(p) for _ in range(n)] + [1]):
        rows = _reduction_rows(np.array(f, dtype=np.int64), p)
        powers = _x_powers_by_shifts(f, p, max(4 * n, 128))
        for e in range(1, len(powers)):
            assert _x_power(e, rows, p).tolist() == powers[e], (n, e)
        for e in (p - 1, p):
            expected, square, rest = [1], [0, 1], e
            while rest:
                if rest & 1:
                    expected = poly_divmod(poly_mul(expected, square, p), f, p)[1]
                square = poly_divmod(poly_mul(square, square, p), f, p)[1]
                rest >>= 1
            power = _x_power(e, rows, p)
            assert power.dtype == np.int64
            assert power.tolist() == expected + [0] * (n - len(expected)), (n, e)
    for q in sieve_primes(2 * n).tolist():
        for f in ([q - 1] * n + [1], [rng.randrange(q) for _ in range(n)] + [1]):
            rows = _reduction_rows(np.array(f, dtype=np.int64), q)
            assert _x_power(q, rows, q).tolist() == _x_powers_by_shifts(f, q, q)[q], (n, q, f)


@pytest.mark.parametrize("n", [2, 3, 16, 49, 100])
def test_x_power_squares_only_the_bits_after_its_seed(n, monkeypatch):
    # X^e starts from X^s, s the longest leading bit prefix of e below 2n,
    # which is a monomial or a row of the table, so it takes one
    # np.convolve per bit of e after that prefix
    p = 1048573
    rows = _reduction_rows(np.array([p - 1] * n + [1], dtype=np.int64), p)
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda *args: calls.append(1) or convolve(*args))
    squarings = {}
    for e in [*range(1, 4 * n + 1), p - 1, p, 524309, 1048571]:
        bits = e.bit_length()
        prefix = max(j for j in range(1, bits + 1) if e >> (bits - j) < 2 * n)
        calls.clear()
        _x_power(e, rows, p)
        assert len(calls) == bits - prefix, (n, e)
        squarings[e] = len(calls)
    assert squarings[2 * n - 1] == 0 and squarings[2 * n] == 1
    assert squarings[p] == {2: 18, 3: 18, 16: 15, 49: 14, 100: 13}[n]


def test_hessenberg_charpoly_is_exact_at_the_largest_entries():
    # the int64 column updates and leading-minor recurrence at d = 300 and
    # the largest modulus: every entry p - 1, and random entries near p,
    # against the trace charpoly
    p, d = 1048573, 300
    rng = np.random.default_rng(300)
    for m in (np.full((d, d), p - 1, dtype=np.int64), rng.integers(p - 1000, p, (d, d))):
        assert _charpoly_hessenberg(m.copy(), p).tolist() == _charpoly_traces(m, p).tolist()


# ---------------------------------------------------------------------------
# the trace path (p > d) against the Hessenberg and distinct-degree code it
# replaced there: charpoly_mod_p and factorization_pattern take it on nearly
# every trial of the search, so each regime is pinned against the other, and
# against independent oracles

def next_prime(n: int) -> int:
    """The least prime above n."""
    return next(q for q in sieve_primes(2 * n + 3).tolist() if q > n)


def test_trace_charpoly_equals_hessenberg_on_T2_for_every_d_to_90():
    # k = 12 d has dim S_k = d
    for d in range(1, 91):
        for p in (next_prime(d), 1048571, 1048573):
            m = hecke.hecke_matrix_T2(12 * d, p)
            traced = _charpoly_traces(m, p)
            assert_poly(traced, p)
            assert traced.tolist() == _charpoly_hessenberg(m.copy(), p).tolist(), (d, p)
            assert charpoly_mod_p(m, p).tolist() == traced.tolist()


@st.composite
def small_matrices(draw):
    """An integer matrix of size d <= 12 of one of several shapes, and a
    prime p with d < p <= 200."""
    d = draw(st.integers(0, 12))
    p = draw(st.sampled_from([q for q in sieve_primes(201).tolist() if q > d]))
    kind = draw(st.sampled_from(["random", "zero", "scalar", "nilpotent", "block-diagonal"]))
    entries = st.integers(-10**6, 10**6)
    rows = [[draw(entries) for _ in range(d)] for _ in range(d)]
    if kind == "zero":
        rows = [[0] * d for _ in range(d)]
    elif kind == "scalar":
        c = draw(entries)
        rows = [[c if i == j else 0 for j in range(d)] for i in range(d)]
    elif kind == "nilpotent":  # strictly upper triangular, then permuted
        perm = draw(st.permutations(range(d)))
        upper = [[rows[i][j] if j > i else 0 for j in range(d)] for i in range(d)]
        rows = [[upper[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
    elif kind == "block-diagonal":
        cut = draw(st.integers(0, d))
        rows = [[rows[i][j] if (i < cut) == (j < cut) else 0 for j in range(d)]
                for i in range(d)]
    return p, rows


@settings(max_examples=150, deadline=None)
@given(case=small_matrices())
def test_trace_charpoly_matches_exact_charpoly_on_small_matrices(case):
    p, rows = case
    exact = [c % p for c in charpoly_exact(IntMatrix(tuple(map(tuple, rows))))]
    a = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
    assert _by_traces(len(rows), p)
    assert _charpoly_traces(a % p, p).tolist() == exact
    assert _charpoly_hessenberg(a % p, p).tolist() == exact
    assert charpoly_mod_p(a, p).tolist() == exact


def ddf_pattern(f: np.ndarray, p: int) -> Pattern:
    """The factorization pattern by distinct-degree splitting alone."""
    return Pattern.from_pairs((i, (len(g) - 1) // i) for i, g in distinct_degree_split(f, p).items())


def trace_pattern(f: np.ndarray, p: int) -> Pattern:
    """The factorization pattern by the Frobenius traces to deg f alone."""
    return Pattern.from_pairs((e, v // e) for e, v in enumerate(_factor_degrees(f, p)) if v)


@pytest.mark.parametrize(
    "p, shape",
    [
        (97, (1,) * 90),  # all linear, at the largest degree the trace path takes
        (1048573, (1,) * 40),
        (97, (2,) * 45),  # {2: k}
        (1048573, (2,) * 12),
        (1048573, (1, 29)),  # {1: 1, d - 1: 1}
        (43, (1, 40)),
        (1048573, (1, 2, 2, 3, 5, 7, 11, 13, 17)),  # mixed
        (97, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)),
        (101, (3, 3, 4, 6, 6, 12, 24, 25)),  # one factor above d/2 and divisor chains below
    ],
)
def test_trace_pattern_matches_ddf_and_sympy_on_planted_products(p, shape):
    product, _ = planted_polynomial(random.Random(len(shape) + p), p, shape)
    f = np.array(product, dtype=np.int64)
    expected = Pattern.from_lengths(shape)
    assert _by_traces(len(f) - 1, p)
    assert trace_pattern(f, p) == expected
    assert ddf_pattern(f, p) == expected
    assert factorization_pattern(f, p) == expected
    assert sympy_factor_degrees(product, p) == sorted((m, 1) for m in shape)


@pytest.mark.parametrize("k", [300, 588, 1080])  # d = 25, 49, 90
def test_trace_pattern_matches_ddf_and_sympy_on_T2_reductions(k):
    d = hecke.dim_cusp_forms(k)
    rng = random.Random(k)
    primes = sieve_primes(MAX_MODULUS).tolist()
    checked = 0
    for p in [next_prime(d), 1048571] + [primes[rng.randrange(len(primes))] for _ in range(3)]:
        fp = charpoly_mod_p(hecke.hecke_matrix_T2(k, p), p)
        assert len(fp) == d + 1 and _by_traces(d, p)
        if not is_squarefree(fp, p):
            continue
        traced = trace_pattern(fp, p)
        assert traced == ddf_pattern(fp, p), (k, p)
        factors = sympy_factor_degrees(fp.tolist(), p)
        assert traced == Pattern.from_lengths(m for m, _ in factors), (k, p)
        checked += 1
    assert checked >= 3


@pytest.fixture
def paths(monkeypatch) -> list[str]:
    """The kernels charpoly_mod_p, is_squarefree and factorization_pattern
    call, in order."""
    taken: list[str] = []
    for name, kernel in (("traces", "_charpoly_traces"), ("hessenberg", "_charpoly_hessenberg"),
                         ("traces", "_factor_degrees"), ("split", "distinct_degree_split")):
        original = getattr(ffpoly, kernel)
        monkeypatch.setattr(ffpoly, kernel, lambda *a, _f=original, _n=name: taken.append(_n) or _f(*a))
    return taken


def test_selection_boundary_in_d_and_p(paths, monkeypatch):
    assert _by_traces(30, 31) and not _by_traces(31, 31) and not _by_traces(30, 29)
    assert _by_traces(1000, 1009) and not _by_traces(1009, 1009)
    # the charpoly at p = d against the next prime, d = 101 (k = 1212): p = 101
    # takes Hessenberg, and the traces refuse it, since Newton's identities
    # divide by 101; p = 103 takes the traces
    for p in (101, 103):
        m = hecke.hecke_matrix_T2(1212, p)
        assert m.shape == (101, 101)
        paths.clear()
        fp = charpoly_mod_p(m, p)
        assert paths == (["traces"] if p == 103 else ["hessenberg"])
        assert fp.tolist() == _charpoly_hessenberg(m.copy(), p).tolist()
        if p == 103:
            assert fp.tolist() == _charpoly_traces(m, p).tolist()
        else:
            with pytest.raises(AssertionError):
                _charpoly_traces(m, p)
    # p <= d against p > d at d = 30 (k = 360): p = 29 takes Hessenberg and
    # distinct-degree splitting, and the traces refuse it, since Newton's
    # identities divide by 29 and a Frobenius trace of 30 reads as 1
    for p in (29, 31):
        m = hecke.hecke_matrix_T2(360, p)
        paths.clear()
        fp = charpoly_mod_p(m, p)
        assert paths == (["traces"] if p > 30 else ["hessenberg"])
        assert fp.tolist() == _charpoly_hessenberg(m.copy(), p).tolist()
        if p > 30:
            assert fp.tolist() == _charpoly_traces(m, p).tolist()
        else:
            with pytest.raises(AssertionError):
                _charpoly_traces(m, p)
    f = np.array(planted_polynomial(random.Random(3), 29, (1, 2, 3, 24))[0], dtype=np.int64)
    paths.clear()
    assert factorization_pattern(f, 29) == Pattern.from_lengths((1, 2, 3, 24))
    assert paths == ["split"]
    with pytest.raises(AssertionError):
        _factor_degrees(f, 29)
    # squarefreeness and the pattern at the crossover degree against one
    # more, p = 1048573: the traces to n alone, whose factor degrees the
    # pattern reads, and then a gcd with the derivative and distinct-degree
    # splitting.  A planted product of factors that sympy certifies
    # irreducible, squarefree and with one linear factor repeated, each
    # also against sympy's squarefree decomposition (its full factorization
    # takes over a minute at these degrees)
    p = 1048573
    gcds = []
    monkeypatch.setattr(ffpoly, "_gcd", lambda *a, _f=_gcd: gcds.append(1) or _f(*a))
    for n in (TRACE_FACTOR_MAX_DEGREE, TRACE_FACTOR_MAX_DEGREE + 1):
        rest = n - 233  # two factors of degree below 48, drawn at random
        shape = (1,) * 3 + tuple(range(2, 22)) + (rest // 2, rest - rest // 2)
        product, factors = planted_polynomial(random.Random(n), p, shape)
        repeated = [1]  # the first linear factor in place of the second
        for g in [factors[0], factors[0], *factors[2:]]:
            repeated = poly_mul(repeated, g, p)
        assert len(repeated) == len(product) == n + 1
        for coeffs, squarefree in ((product, True), (repeated, False)):
            assert sympy_squarefree(coeffs, p) is squarefree
            g = np.array(coeffs, dtype=np.int64)
            gcds.clear()
            paths.clear()
            assert is_squarefree(g, p) is squarefree
            if squarefree:
                assert factorization_pattern(g, p) == Pattern.from_lengths(shape)
            traced = n == TRACE_FACTOR_MAX_DEGREE
            assert paths == (["traces"] if traced else ["split"] if squarefree else [])
            assert bool(gcds) != traced


@pytest.mark.parametrize("d, chunks", [(91, 2), (128, 3)])
def test_chunked_power_traces_are_exact_at_the_worst_case(d, chunks):
    # every entry p - 1 at the largest p, where a chunk of M itself sums
    # up to 2^13 - 1 terms of (p - 1)^2, next to 2^53.  M^i is
    # (p - 1)^i d^(i - 1) times the all-ones matrix, so tr(M^i) = (d (p - 1))^i
    p = 1048573
    assert -(-d * d // (MAX_FLOAT_TERMS - 1)) == chunks
    m = np.full((d, d), p - 1.0)
    assert _power_traces(m, d, p).tolist() == [d] + [pow(d * (p - 1), i, p) for i in range(1, d + 1)]
    # entries next to p - 1, against Python-int traces up to M^4:
    # tr(M^(2j + e)) = <M^(j + e), (M^j)^T>
    rng = np.random.default_rng(d)
    m = rng.integers(p - 1000, p, size=(d, d)).astype(object)
    square = m.dot(m) % p
    expected = [d, m.trace(), square.trace(), (square * m.T).sum(), (square * square.T).sum()]
    assert _power_traces(m.astype(np.float64), 4, p).tolist() == [int(t) % p for t in expected]


@pytest.mark.parametrize("d, chunks", [(128, 3), (181, 4)])
def test_trace_charpoly_of_the_all_p_minus_1_matrix(d, chunks):
    # every entry p - 1 at the largest p is -J, J the all-ones matrix, with
    # eigenvalues -d once and 0 d - 1 times: its charpoly is X^(d-1) (X + d).
    # The trace chunks hold fewer than 2^13 terms each (at d = 181, 4 of at
    # most 8,191), and the entries of M itself give the largest chunk sums
    p = 1048573
    assert -(-d * d // (MAX_FLOAT_TERMS - 1)) == chunks
    got = charpoly_mod_p(np.full((d, d), p - 1), p)
    assert got.tolist() == [0] * (d - 1) + [d, 1]


def test_charpoly_mod_p_reduces_entries_beyond_int64_exactly():
    # the exact T2 matrix at k = 1200 (d = 100) has entries of about 1800
    # bits, which np.asarray(..., dtype=np.int64) refuses with OverflowError.
    # reduce_matrix reads the same residues from every form of a matrix, and
    # charpoly_mod_p reads its matrix through it
    m = hecke_matrix_T2(1200)
    assert max(abs(e) for row in m.rows for e in row) >= 2**63
    for p in (97, 1048573):  # the Hessenberg path (p <= d) and the traces
        residues = [[e % p for e in row] for row in m.rows]
        expected = charpoly_mod_p(np.array(residues, dtype=np.int64), p).tolist()
        forms = (m, m.rows, [list(row) for row in m.rows], np.array(m.rows, dtype=object),
                 IntMatrix(tuple(map(tuple, residues))), np.array(residues, dtype=np.int64))
        for form in forms:
            assert reduce_matrix(form, p).tolist() == residues, p
            assert charpoly_mod_p(form, p).tolist() == expected, p
    assert reduce_matrix([[-(2**70)]], 5).tolist() == [[-(2**70) % 5]]
    assert charpoly_mod_p([[-(2**70)]], 5).tolist() == [2**70 % 5, 1]
    for entry in (reduce_matrix, charpoly_mod_p):
        with pytest.raises(ValueError, match="square"):
            entry([[2**70, 1]], 5)


@pytest.mark.parametrize("k", [1092, 1200, 2400, 4800])  # d = 91, 100, 200, 400
def test_chunked_trace_charpoly_equals_hessenberg_on_T2(k):
    d = hecke.dim_cusp_forms(k)
    for p in (1048573, 1048571) if d < 400 else (1048559,):
        m = hecke.hecke_matrix_T2(k, p)
        assert m.shape == (d, d) and _by_traces(d, p)
        traced = _charpoly_traces(m, p)
        assert_poly(traced, p)
        assert traced.tolist() == _charpoly_hessenberg(m.copy(), p).tolist(), (k, p)


@pytest.mark.parametrize(
    "p, shape",
    [
        (1048573, (1,) * 90 + (2,) * 5),  # n = 100, many linear factors
        (193, (1,) * 20 + (2, 2, 3, 4, 5, 64)),  # n = 100, a factor above n/2
        (1048573, (1,) * 130 + (2,) * 6 + (3, 5)),  # n = 150, many linear factors
        (193, (1,) * 30 + (2,) * 6 + (3, 4, 5, 96)),  # n = 150, a factor above n/2
    ],
)
def test_trace_pattern_above_degree_90_matches_ddf_and_sympy(p, shape):
    # check_planted checks distinct_degree_split directly, whose subproducts
    # the search no longer meets at these degrees
    f = check_planted(random.Random(len(shape) + p), p, shape)
    assert 90 < len(f) - 1 <= TRACE_FACTOR_MAX_DEGREE and _by_traces(len(f) - 1, p)
    assert trace_pattern(f, p) == Pattern.from_lengths(shape)


@pytest.mark.parametrize("k", [1200, 2400, 4800])  # d = 100, 200, 400
def test_pattern_paths_on_T2_reductions_above_degree_90(k, paths):
    # traces for p > d up to the crossover degree; splitting for p <= d (at
    # d = 100 every such reduction has a repeated factor) and above it
    d = hecke.dim_cusp_forms(k)
    below = [q for q in sieve_primes(d + 1).tolist() if q > d - 20]
    checked = {"traces": 0, "split": 0}
    for p in below + [next_prime(d), 1048571, 1048573]:
        fp = charpoly_mod_p(hecke.hecke_matrix_T2(k, p), p)
        paths.clear()
        if not is_squarefree(fp, p):
            continue
        got = factorization_pattern(fp, p)
        path = "traces" if p > d and d <= TRACE_FACTOR_MAX_DEGREE else "split"
        assert paths == [path], (k, p)
        assert got == ddf_pattern(fp, p), (k, p)
        if p > d:
            assert got == trace_pattern(fp, p), (k, p)
        checked[path] += 1
    assert checked["traces" if d <= TRACE_FACTOR_MAX_DEGREE else "split"] >= 2, checked


@pytest.mark.parametrize("d, products", [(1, 0), (2, 1), (3, 1), (16, 6), (50, 12), (100, 18)])
def test_power_traces_take_no_product_by_the_identity(d, products, monkeypatch):
    # M^0 = I and M^1 = M, and at s = 1 also G_1 = M^T, need no product, so
    # the traces to d take s - 3 + ceil((d + 1) / s) products: s = 1 at
    # d <= 2, 2 at 3, 3 at 16, 6 at 50 and 8 at 100
    calls = []
    product = ffpoly._matmul_residues
    monkeypatch.setattr(ffpoly, "_matmul_residues",
                        lambda *args, **kwargs: calls.append(1) or product(*args, **kwargs))
    p = 1048573
    m = np.random.default_rng(d).integers(0, p, size=(d, d))
    traces = _power_traces(m.astype(np.float64), d, p).tolist()
    assert len(calls) == products
    if d <= 16:  # against powers in Python ints
        power, expected = np.eye(d, dtype=np.int64).astype(object), []
        for _ in range(d + 1):
            expected.append(int(power.trace()) % p)
            power = power.dot(m.astype(object)) % p
        assert traces == expected


def test_power_traces_of_a_permutation_matrix():
    # a permutation with cycles of lengths 1, 2, 3, 4: tr(M^i) counts the
    # points on cycles whose length divides i
    perm = [0, 2, 1, 4, 5, 3, 7, 8, 9, 6]
    m = np.zeros((10, 10))
    m[range(10), perm] = 1
    expected = [sum(c for c in (1, 2, 3, 4) if i % c == 0) for i in range(13)]
    assert _power_traces(m, 12, 11).tolist() == [e % 11 for e in expected]


@pytest.mark.parametrize("coeffs, p", [
    ((1, 3), 5),  # leading coefficient 3
    ((1, 1, 0), 5),  # untrimmed: leading entry 0
    ((), 5),  # no coefficients
    ((4, 4, 1), 5),  # (X+2)^2
    ((1, 0, 2, 0, 1), 7),  # (X^2+1)^2
])
def test_trace_pattern_raises_the_ddf_errors(coeffs, p):
    f = poly(p, coeffs)
    with pytest.raises(ValueError) as ddf:
        distinct_degree_split(f, p)
    with pytest.raises(ValueError) as pattern:
        factorization_pattern(f, p)
    assert str(pattern.value) == str(ddf.value)


# ---------------------------------------------------------------------------
# squarefreeness from the Frobenius traces to n (p > n, n up to
# TRACE_FACTOR_MAX_DEGREE) against the gcd with the derivative

def gcd_squarefree(f: np.ndarray, p: int) -> bool:
    """Squarefreeness by a gcd with the derivative alone."""
    return len(_gcd(f, f[1:] * np.arange(1, len(f)) % p, p)) <= 1


def sympy_squarefree(coeffs, p: int) -> bool:
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("X"), modulus=p)
    return all(m == 1 for _, m in poly.sqf_list()[1])


def prime_for_degree(m: int, above: int) -> int:
    """The least prime p > above for which :func:`shifted_binomial` of
    degree m is irreducible: every prime factor of m divides p - 1, and 4
    does if 4 divides m."""
    step = 1
    for q in sympy.factorint(m):
        step *= q
    if m % 4 == 0 and step % 4:
        step *= 2
    p = above // step * step + 1
    while p <= above or not sympy.isprime(p):
        p += step
    return p


def irreducible(rng: random.Random, p: int, m: int) -> list[int]:
    return planted_polynomial(rng, p, (m,))[1][0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9, 16, 30, 49, 50, 51, 90, 100, 149, 150,
                               TRACE_FACTOR_MAX_DEGREE])
def test_trace_squarefree_rule_on_planted_repeated_factors(n):
    # X^2 h, g^2 h and (X - a)^3 h, h irreducible, with a squarefree (X - b) h
    # as a control; p > n, so every one takes the trace rule
    rng = random.Random(n)
    cases = []  # (p, factors with repeats, squarefree?)
    p = prime_for_degree(n - 2, n) if n > 2 else next_prime(n)
    cases.append((p, [[0, 1], [0, 1]] + ([irreducible(rng, p, n - 2)] if n > 2 else []), False))
    p = prime_for_degree(n - 1, n) if n > 1 else next_prime(n)
    cases.append((p, planted_polynomial(rng, p, (1, n - 1))[1], True))
    if n >= 4:
        e = min(3, (n - 2) // 2)
        p = prime_for_degree(n - 2 * e, 1 << 19)
        g = irreducible(rng, p, e)
        h = irreducible(rng, p, n - 2 * e)
        cases.append((p, [g, g, h], False))
    if n >= 3:
        p = prime_for_degree(n - 3, n) if n > 3 else next_prime(1 << 19)
        a = rng.randrange(1, p)
        cases.append((p, [[p - a, 1]] * 3 + ([irreducible(rng, p, n - 3)] if n > 3 else []), False))
    for p, factors, squarefree in cases:
        product = [1]
        for g in factors:
            product = poly_mul(product, g, p)
        f = np.array(product, dtype=np.int64)
        assert len(f) - 1 == n and p > n and f[-1] == 1
        assert is_squarefree(f, p) is squarefree, (n, p, factors)
        assert _squarefree(p, f.tobytes())[1] is not None  # the trace rule
        assert gcd_squarefree(f, p) is squarefree
        assert sympy_squarefree(product, p) is squarefree


@pytest.mark.parametrize("k, last", [(200, 223), (400, 433), (596, 773)])  # d = 16, 33, 49
def test_trace_squarefree_rule_equals_gcd_on_T2_reductions(k, last):
    # every prime p > d that consecutive mode tries at k (seed 1), up to its
    # last witness: about a third of the reductions are not squarefree
    d = hecke.dim_cusp_forms(k)
    results = []
    for p in (q for q in sieve_primes(last + 1).tolist() if q > d):
        fp = charpoly_mod_p(hecke.hecke_matrix_T2(k, p), p)
        squarefree = is_squarefree(fp, p)
        assert _squarefree(p, fp.tobytes())[1] is not None  # the trace rule
        assert squarefree is gcd_squarefree(fp, p), (k, p)
        results.append(squarefree)
    assert 0.15 < results.count(False) / len(results) < 0.6, results.count(False)
