"""Cycle-pattern counts, witness densities, bounds, and the enumeration oracle."""

import math
from fractions import Fraction

import pytest

from maeda.certify import classify
from maeda.density import (
    check_density_bounds,
    cycle_pattern_count,
    density,
    density_I,
    density_II,
    density_III,
    density_IV,
    expected_trials,
    lower_bound,
    odd_order_count,
    prime_reciprocal_bounds,
    prime_reciprocal_sum,
)
from maeda.oracles import all_patterns, enumerate_cycle_patterns
from maeda.patterns import Pattern, PrimeType
from maeda.report import cmd_density

T = PrimeType


def pat(d: dict[int, int]) -> Pattern:
    return Pattern.from_pairs(d.items())


def test_cycle_pattern_count_examples():
    assert cycle_pattern_count(pat({4: 1})) == 6  # (d-1)! four-cycles
    assert cycle_pattern_count(pat({1: 9})) == 1  # identity
    assert cycle_pattern_count(pat({2: 1, 1: 2})) == 6


def test_odd_order_count_small_values():
    assert odd_order_count(0) == 1
    assert odd_order_count(1) == 1
    assert odd_order_count(2) == 1
    assert odd_order_count(3) == 3  # identity and two 3-cycles
    assert odd_order_count(4) == 9  # identity and eight 3-cycles


def test_odd_order_count_matches_enumeration():
    for n in range(0, 9):
        tally = sum(
            count
            for pattern, count in enumerate_cycle_patterns(n).items()
            if all(length % 2 == 1 for length in pattern.lengths())
        )
        assert odd_order_count(n) == tally, n


def test_density_values():
    assert density_I(5) == Fraction(1, 5)
    assert density_II(3) == Fraction(1, 2)
    assert density_II(4) == Fraction(1, 4)
    assert density_III(5) == Fraction(1, 3) + Fraction(1, 5) == Fraction(8, 15)
    assert density_IV(4) == Fraction(1, 3)
    assert density_IV(5) == Fraction(1, 4)


def test_density_iv_collapses_at_dimension_two():
    # the fixed-point + (d-1)-cycle pattern degenerates to 1^2 at d = 2;
    # its true proportion in S_2 is 1/2 (the identity alone)
    assert density_IV(2) == Fraction(1, 2)
    assert enumerate_cycle_patterns(2)[pat({1: 2})] == 1


def test_density_domains():
    for fn in (density_I, density_II, density_III, density_IV):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        density_II(2)
    assert density(T.I, 2) == Fraction(1, 2)


def test_expected_trials():
    assert expected_trials(T.I, 10) == 10.0
    assert expected_trials(T.III, 5) == pytest.approx(15 / 8)
    assert expected_trials(T.IV, 2) == 2.0
    for d in range(2, 40):
        assert expected_trials(T.I, d) == float(d)


def test_density_monotone():
    values = [density_I(d) for d in range(2, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_enumerate_cycle_patterns_s3():
    assert enumerate_cycle_patterns(3) == {
        pat({3: 1}): 2,
        pat({2: 1, 1: 1}): 3,
        pat({1: 3}): 1,
    }


def test_enumerate_cycle_patterns_totals():
    for d in range(0, 7):
        assert sum(enumerate_cycle_patterns(d).values()) == math.factorial(d)
    assert enumerate_cycle_patterns(1) == {pat({1: 1}): 1}
    with pytest.raises(ValueError):
        enumerate_cycle_patterns(9)


def test_pattern_counts_match_enumeration_through_7():
    for d in range(1, 8):
        tallies = enumerate_cycle_patterns(d)
        assert set(tallies) == set(all_patterns(d))
        for pattern, count in tallies.items():
            assert cycle_pattern_count(pattern) == count, (d, pattern)


def test_formula_densities_match_enumeration_through_7():
    starts = {T.I: 2, T.II: 3, T.III: 2, T.IV: 2}
    for kind, start in starts.items():
        for d in range(start, 8):
            tally = sum(
                count
                for pattern, count in enumerate_cycle_patterns(d).items()
                if kind in classify(pattern, d)
            )
            assert density(kind, d) == Fraction(tally, math.factorial(d)), (kind, d)


def test_pattern_count_sum_identity_to_30():
    for d in (1, 2, 5, 12, 19, 30):
        assert sum(cycle_pattern_count(q) for q in all_patterns(d)) == math.factorial(d)


def test_check_density_bounds_no_violations_to_1000():
    report = check_density_bounds(1000)
    assert report.ok
    assert report.checked_II == 998 and report.checked_III == 990


def test_check_density_bounds_examples():
    assert float(density_II(12)) == pytest.approx(0.1230468, abs=1e-6)
    assert float(density_II(12)) > 1 / (4 * math.sqrt(12)) == pytest.approx(0.0721687, abs=1e-6)
    d3 = density_III(11)
    assert d3 == Fraction(1, 7) + Fraction(1, 11)
    assert float(d3) > 1 / (3 * math.log(11))
    with pytest.raises(ValueError):
        check_density_bounds(10)


def test_prime_reciprocal_sum_and_bounds():
    # 25 primes below 100; direct sum lies strictly inside the sandwich
    assert prime_reciprocal_sum(100) == pytest.approx(1.802817, abs=1e-5)
    for x in (100, 1000, 10_000):
        lower, upper = prime_reciprocal_bounds(x)
        assert lower < upper
        s = prime_reciprocal_sum(x)
        assert lower < s < upper, x
    with pytest.raises(ValueError):
        prime_reciprocal_bounds(1.0)


def test_density_report_shapes(capsys):
    # lower_bound is defined exactly where the sweep checks it
    assert [d for d in range(1, 14) if lower_bound(T.II, d) is not None] == list(range(3, 14))
    assert [d for d in range(1, 14) if lower_bound(T.III, d) is not None] == [11, 12, 13]
    assert lower_bound(T.I, 50) is None and lower_bound(T.IV, 50) is None
    assert lower_bound(T.II, 5) == pytest.approx(1 / (4 * math.sqrt(5)))
    assert lower_bound(T.III, 11) == pytest.approx(1 / (3 * math.log(11)))
    # the density table prints "-" outside each kind's domain and bound
    assert cmd_density(1, 11) == 0
    rows = {int(line.split()[0]): line.split() for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows[1][1:] == ["-"] * 9
    assert rows[2][1:] == ["1/2=0.5000", "-", "1/2=0.5000", "1/2=0.5000", "2.00", "-", "2.00",
                           "-", "-"]
    assert rows[5][3] == "8/15=0.5333" and rows[5][5] == "5.00"
    assert rows[10][-2:] == ["ok", "-"] and rows[11][-2:] == ["ok", "ok"]
