"""Series arithmetic, the standard generators, and the Miller basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maeda import qseries
from maeda.oracles import (
    PrecisionError,
    QSeries,
    delta,
    eisenstein,
    miller_basis,
    one,
    series_add,
    series_mul,
    series_pow,
    spanning_set,
)
from maeda.qseries import dim_cusp_forms


def test_qseries_basics():
    f = QSeries([1, 2, 3])
    assert f.prec == 3
    assert f[0] == 1 and f[2] == 3
    with pytest.raises(PrecisionError):
        f[3]
    with pytest.raises(ValueError):
        f[-1]
    with pytest.raises(ValueError):
        QSeries([])
    assert f.truncate(2) == QSeries([1, 2])
    with pytest.raises(ValueError):
        f.truncate(4)


def test_series_add_examples():
    one_plus_q = QSeries([1, 1, 0])
    one_minus_q = QSeries([1, -1, 0])
    assert series_add(one_plus_q, one_minus_q) == QSeries([2, 0, 0])

    f = QSeries([5, -7, 11])
    zero = QSeries([0, 0, 0])
    assert series_add(f, zero) == f

    e4 = eisenstein(4, 3)
    e6 = eisenstein(6, 3)
    assert (e4 + e6)[1] == 240 - 504 == -264


def test_series_add_truncates_to_shorter():
    f = QSeries([1, 2, 3, 4])
    g = QSeries([1, 1])
    assert (f + g).prec == 2


def test_series_mul_examples():
    one_plus_q = QSeries([1, 1, 0])
    one_minus_q = QSeries([1, -1, 0])
    assert series_mul(one_plus_q, one_minus_q) == QSeries([1, 0, -1])

    f = QSeries([3, 1, 4, 1, 5])
    assert series_mul(f, one(5)) == f


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
)
def test_series_mul_commutative_associative(a, b, c):
    prec = min(len(a), len(b), len(c))
    fa, fb, fc = QSeries(a[:prec]), QSeries(b[:prec]), QSeries(c[:prec])
    assert series_mul(fa, fb) == series_mul(fb, fa)
    assert series_mul(series_mul(fa, fb), fc) == series_mul(fa, series_mul(fb, fc))


def test_eisenstein_values():
    assert eisenstein(4, 3).coeffs == (1, 240, 2160)  # sigma_3(2) = 9
    assert eisenstein(6, 3).coeffs == (1, -504, -16632)  # sigma_5(2) = 33
    assert eisenstein(4, 1)[0] == 1
    assert eisenstein(6, 1)[0] == 1
    with pytest.raises(ValueError):
        eisenstein(8, 5)
    with pytest.raises(ValueError):
        eisenstein(4, 0)


def test_delta_leading_coefficients():
    d = delta(4)
    assert d[0] == 0 and d[1] == 1 and d[2] == -24 and d[3] == 252


def test_delta_matches_eisenstein_identity_to_500():
    # Delta = (E4^3 - E6^2)/1728 with the division exact, coefficient-wise.
    prec = 500
    diff = series_pow(eisenstein(4, prec), 3) - series_pow(eisenstein(6, prec), 2)
    quotient = []
    for c in diff.coeffs:
        q, r = divmod(c, 1728)
        assert r == 0
        quotient.append(q)
    assert tuple(quotient) == delta(prec).coeffs


def test_delta_truncation_consistent():
    long = delta(120)
    for prec in (1, 2, 17, 119):
        assert delta(prec).coeffs == long.coeffs[:prec]


def test_miller_basis_weight_12_is_delta():
    (f,) = miller_basis(12)
    assert f.coeffs == delta(f.prec).coeffs


def test_miller_basis_weight_26_is_delta_e4sq_e6():
    (f,) = miller_basis(26)
    prec = f.prec
    expected = series_mul(
        series_mul(delta(prec), series_pow(eisenstein(4, prec), 2)),
        eisenstein(6, prec),
    )
    assert f == expected


def test_miller_basis_weight_24_echelon_coefficient():
    f1, f2 = miller_basis(24)
    assert f1[1] == 1 and f1[2] == 0
    assert f2[1] == 0 and f2[2] == 1


@pytest.mark.parametrize("k", [13, 10, 0, -4])
def test_miller_basis_rejects_bad_weights(k):
    with pytest.raises(ValueError):
        miller_basis(k)


def test_spanning_set_leading_terms():
    for k in (12, 24, 36, 50, 72):
        gs = spanning_set(k, 2 * (dim_cusp_forms(k) + 2) + 1)
        for i, g in enumerate(gs, start=1):
            assert all(c == 0 for c in g.coeffs[:i])
            assert g[i] == 1


def test_echelon_property_all_weights_to_300():
    for k in range(12, 301, 2):
        basis = miller_basis(k)
        d = dim_cusp_forms(k)
        assert len(basis) == d
        for i, f in enumerate(basis, start=1):
            for j in range(1, d + 1):
                assert f[j] == (1 if j == i else 0), (k, i, j)


@pytest.mark.parametrize("k", [12, 24, 26, 50, 96, 144, 300])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 691, 1048573])
def test_miller_basis_mod_p_is_exact_basis_reduced(k, p):
    exact = [[c % p for c in f.coeffs] for f in miller_basis(k)]
    modp = qseries.miller_basis(k, p)
    assert modp.dtype == np.int64
    assert modp.shape == (dim_cusp_forms(k), 2 * (dim_cusp_forms(k) + 2) + 1)
    assert modp.tolist() == exact, (k, p)


def test_miller_basis_mod_p_empty_space():
    assert qseries.miller_basis(14, 5).shape == (0, 5)


@pytest.mark.parametrize("p", [0, 1, 4, 15, 1 << 20, 1048583, -7])
def test_miller_basis_mod_p_rejects_bad_modulus(p):
    with pytest.raises(ValueError):
        qseries.miller_basis(24, p)


def test_miller_basis_mod_p_rejects_bad_weight_and_precision():
    with pytest.raises(ValueError):
        qseries.miller_basis(13, 5)
    # d = 2998 needs 6001 coefficients, one past MAX_TABLE_PREC: refused
    # before anything is allocated
    assert 2 * (dim_cusp_forms(35976) + 2) + 1 == qseries.MAX_TABLE_PREC + 1
    with pytest.raises(ValueError, match="precision 6001 above 6000"):
        qseries.miller_basis(35976, 5)


def test_tables_are_exact_up_to_their_bound():
    # sigma_5 is the largest entry: exact in int64 up to MAX_TABLE_PREC and
    # refused above it, since sigma_5(6168) is the first value past 2^63
    top = qseries.MAX_TABLE_PREC
    sigma3, sigma5, euler = qseries._tables(top)
    assert not sigma5.flags.writeable
    exact3, exact5 = [0] * top, [0] * top
    for e in range(1, top):
        for n in range(e, top, e):
            exact3[n] += e**3
            exact5[n] += e**5
    assert sigma3.tolist() == exact3 and sigma5.tolist() == exact5
    assert sum(e**5 for e in range(1, 6169) if 6168 % e == 0) >= 1 << 63
    prec = 300
    assert [240 * int(s) for s in sigma3[1:prec]] == list(eisenstein(4, prec).coeffs[1:])
    assert [-504 * int(s) for s in sigma5[1:prec]] == list(eisenstein(6, prec).coeffs[1:])
    eta24 = series_pow(QSeries(int(c) for c in euler[:prec]), 24)
    assert eta24.coeffs == delta(prec + 1).coeffs[1:]
    with pytest.raises(ValueError, match="overflow"):
        qseries._tables(top + 1)


@pytest.mark.parametrize("k", [12, 24, 26, 50, 96, 144, 300])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 691, 1048573])
def test_spanning_set_is_exact_products_reduced(k, p):
    prec = 2 * (dim_cusp_forms(k) + 2) + 1
    exact = [[c % p for c in g.coeffs] for g in spanning_set(k, prec)]
    assert qseries.spanning_set(k, p).tolist() == exact


@pytest.mark.parametrize("d", [15, 16, 17, 24, 25, 26, 99, 100, 101])  # s^2 and s^2 +- 1
def test_spanning_set_baby_and_giant_rows_at_block_boundaries(d):
    # rows 2 .. s one at a time, then blocks of s = isqrt(d) rows, the last
    # one full or short: against the exact products, reduced mod p
    k = 12 * d
    assert dim_cusp_forms(k) == d
    exact = spanning_set(k, 2 * (d + 2) + 1)
    for p in (7, 1048573):
        reduced = [[c % p for c in g.coeffs] for g in exact]
        assert qseries.spanning_set(k, p).tolist() == reduced, (d, p)
