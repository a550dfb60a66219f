"""Acceptance suite: one test per criterion, each printing a PASS line.

The two heavyweight fixtures (a random-mode run over weights 12..600 with
seed 1, and a consecutive-mode run over 200..600) are session-scoped; run
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
Every test here is marked ``slow``, so ``pytest -m "not slow"`` leaves the
suite out.
"""

import csv
import dataclasses
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from maeda.certify import check_certificate, classify, sample_prime, verify_weight
from maeda.cli import (
    RunConfig,
    certificate_path,
    cmd_check,
    cmd_verify,
    load_certificates,
    read_certificate,
    write_certificate,
)
from maeda.density import (
    check_density_bounds,
    cycle_pattern_count,
    density,
    odd_order_count,
    prime_reciprocal_bounds,
    prime_reciprocal_sum,
)
from maeda.ffpoly import (
    charpoly_mod_p,
    factorization_pattern,
    is_squarefree,
    reduce_matrix,
)
from maeda.hecke import dim_cusp_forms
from maeda.oracles import (
    charpoly_exact,
    delta,
    eisenstein,
    enumerate_cycle_patterns,
    hecke_matrix_T2,
    hecke_matrix_T2_spanning,
    series_mul,
    series_pow,
)
from maeda.patterns import PrimeType
from maeda.primes import sieve_primes
from maeda.report import cmd_stats, ratio_rows, ratio_summary

pytestmark = pytest.mark.slow

T = PrimeType


def report(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="session")
def random_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_random")
    code = cmd_verify(RunConfig(k_min=12, k_max=600, out_dir=out,
                                mode="random", seed=1))
    assert code == 0, "random-mode verification run failed"
    return out


@pytest.fixture(scope="session")
def consecutive_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_consecutive")
    code = cmd_verify(RunConfig(k_min=200, k_max=600, out_dir=out,
                                mode="consecutive"))
    assert code == 0, "consecutive-mode verification run failed"
    return out


def test_criterion_1_desk_scale_reproduction(random_run):
    with open(random_run / "summary.csv", newline="") as fh:
        rows = {int(r["weight"]): r for r in csv.DictReader(fh)}
    weights = list(range(12, 601, 2))
    assert sorted(rows) == weights
    certified = vacuous_dim1 = 0
    for k in weights:
        d = dim_cusp_forms(k)
        assert int(rows[k]["dimension"]) == d
        if d == 0:
            assert rows[k]["status"] == "vacuous"
            continue
        assert rows[k]["status"] == "certified", k
        cert = read_certificate(certificate_path(random_run, k))
        if d == 1:
            assert cert.vacuous and set(cert.witnesses) == {T.I}
            vacuous_dim1 += 1
        else:
            assert not cert.vacuous
            assert set(cert.witnesses) >= {T.I, T.II, T.III}
        certified += 1
    assert cmd_check(random_run) == 0
    report(1, f"{certified} weights certified over 12..600 (seed 1), "
              f"{vacuous_dim1} dimension-1 weights flagged vacuous, "
              f"independent recheck green")


DIM_ONE_EIGENVALUES = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}


def test_criterion_2_dimension_one_eigenvalues():
    for k, expected in sorted(DIM_ONE_EIGENVALUES.items()):
        b = (k // 2) % 2
        alpha = (k - 12 - 6 * b) // 4
        g = series_mul(delta(4), series_pow(eisenstein(4, 4), alpha))
        if b:
            g = series_mul(g, eisenstein(6, 4))
        oracle = g[2]  # one-dimensional space: T2 g = a_2(g) g
        assert oracle == expected
        assert hecke_matrix_T2(k).rows == ((expected,),)
    report(2, "T2 = [a_2] matches the direct series expansion for "
              "k in {12, 16, 18, 20, 22, 26}")


def test_criterion_3_basis_independence():
    checked = 0
    for k in range(24, 121, 2):
        assert charpoly_exact(hecke_matrix_T2(k)) == charpoly_exact(
            hecke_matrix_T2_spanning(k)
        ), k
        checked += 1
    report(3, f"Miller-basis and spanning-basis characteristic polynomials "
              f"agree exactly for {checked} weights, 24 <= k <= 120")


def test_criterion_4_density_formulas_vs_enumeration():
    started = time.perf_counter()
    starts = {T.I: 2, T.II: 3, T.III: 2, T.IV: 2}
    comparisons = 0
    for d in range(1, 8):
        tallies = enumerate_cycle_patterns(d)
        for pattern, count in tallies.items():
            assert cycle_pattern_count(pattern) == count, (d, pattern)
        for kind, start in starts.items():
            if d < start:
                continue
            tally = sum(
                count for pattern, count in tallies.items()
                if kind in classify(pattern, d)
            )
            assert density(kind, d) == Fraction(tally, math.factorial(d)), (kind, d)
            comparisons += 1
    for n in range(0, 9):
        tally = sum(
            count for pattern, count in enumerate_cycle_patterns(n).items()
            if all(length % 2 == 1 for length in pattern.lengths())
        )
        assert odd_order_count(n) == tally, n
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"enumeration checks took {elapsed:.2f}s"
    report(4, f"{comparisons} exact density-vs-enumeration equalities plus "
              f"pattern counts (d <= 7) and odd-order counts (n <= 8) "
              f"in {elapsed:.2f}s")


def test_criterion_5_density_lower_bounds_to_1e4():
    started = time.perf_counter()
    result = check_density_bounds(10_000)
    elapsed = time.perf_counter() - started
    assert result.ok, result.violations[:5]
    assert result.checked_II == 9998 and result.checked_III == 9990
    assert elapsed < 10.0, f"bound sweep took {elapsed:.2f}s"
    report(5, f"D_II > 1/(4 sqrt d) on 2 < d <= 1e4 and D_III > 1/(3 log d) "
              f"on 10 < d <= 1e4: zero violations in {elapsed:.2f}s")


def test_criterion_6_search_statistics_both_modes(random_run, consecutive_run,
                                                  tmp_path):
    # the exact data shape behind the published histograms, at reduced range
    assert cmd_stats(random_run, tmp_path / "random_stats") == 0
    assert cmd_stats(consecutive_run, tmp_path / "consecutive_stats") == 0

    certs = [c for _, c in load_certificates(random_run)
             if not isinstance(c, ValueError) and 200 <= c.weight <= 600]
    random_summary = ratio_summary(ratio_rows(certs))
    means = {}
    for kind in (T.I, T.II, T.III):
        stats = random_summary[("random", kind)]
        means[kind] = stats["mean"]
        assert 0.5 <= stats["mean"] <= 1.5, (kind, stats)

    consec_certs = [c for _, c in load_certificates(consecutive_run)
                    if not isinstance(c, ValueError)]
    consec_summary = ratio_summary(ratio_rows(consec_certs))
    consec_iii = consec_summary[("consecutive", T.III)]["mean"]
    assert consec_iii > means[T.III]
    report(6, "random-mode mean N/E over 200 <= k <= 600: "
              + ", ".join(f"{k.value}={means[k]:.2f}" for k in means)
              + f"; consecutive-mode kind III mean {consec_iii:.2f} exceeds "
                f"random {means[T.III]:.2f}")


def test_criterion_7_frobenius_density_weight_24():
    import random as _random

    rng = _random.Random(777)
    matrix = hecke_matrix_T2(24)
    n = 5000
    hits = 0
    for _ in range(n):
        p = sample_prime(rng, 1 << 20)
        fp = charpoly_mod_p(reduce_matrix(matrix, p), p)
        if is_squarefree(fp, p) and T.I in classify(factorization_pattern(fp, p), 2):
            hits += 1
    sigma = math.sqrt(0.25 / n)
    deviation = abs(hits / n - 0.5)
    assert deviation < 5 * sigma, (hits, n)
    report(7, f"kind-I fraction over {n} random primes at k=24: "
              f"{hits / n:.4f}, |dev| = {deviation:.4f} < 5 sigma = {5 * sigma:.4f}")


def test_criterion_8_certificate_tamper_detection(tmp_path):
    cert = verify_weight(48, seed=1)
    original = cert.witnesses[T.I]
    matrix = hecke_matrix_T2(48)
    substitute = None
    for p in sieve_primes(10_000).tolist():
        if p == original.prime:
            continue
        fp = charpoly_mod_p(reduce_matrix(matrix, p), p)
        if is_squarefree(fp, p) and factorization_pattern(fp, p) != original.pattern:
            substitute = p  # verified non-witness: its pattern differs
            break
    assert substitute is not None
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = dataclasses.replace(original, prime=substitute)
    tampered = dataclasses.replace(cert, witnesses=witnesses)

    result = check_certificate(tampered)
    assert not result
    assert any("pattern mismatch" in reason for reason in result.reasons)

    fixture_dir = tmp_path / "tampered"
    fixture_dir.mkdir()
    write_certificate(fixture_dir / "cert_48.json", tampered)
    assert cmd_check(fixture_dir) == 1
    report(8, f"substituting verified non-witness prime {substitute} for "
              f"{original.prime} fails the recheck with a pattern mismatch")


def test_criterion_9_prime_reciprocal_sandwich():
    details = []
    for x in (100, 1_000, 10_000):
        lower, upper = prime_reciprocal_bounds(x)
        total = prime_reciprocal_sum(x)
        assert lower < total < upper, (x, lower, total, upper)
        details.append(f"x={x}: {lower:.5f} < {total:.5f} < {upper:.5f}")
    report(9, "; ".join(details))


GOLDEN = Path(__file__).resolve().parent / "golden"


def normalized_certificates(directory: Path) -> dict[int, str]:
    # weight -> that certificate's JSON without duration_ms, on one line;
    # the golden files hold these lines in weight order
    lines = {}
    for path in Path(directory).glob("cert_*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["duration_ms"]
        lines[payload["weight"]] = json.dumps(payload)
    return lines


def test_certificates_are_golden(random_run, consecutive_run, tmp_path):
    # with a fixed seed every certificate is byte-identical apart from
    # duration_ms: the acceptance runs and k = 1200 against committed copies
    assert cmd_verify(RunConfig(k_min=1200, k_max=1200, out_dir=tmp_path,
                                mode="random", seed=1)) == 0
    runs = ((random_run, "certificates_random_12_600_seed_1.jsonl"),
            (consecutive_run, "certificates_consecutive_200_600.jsonl"),
            (tmp_path, "certificates_random_1200_seed_1.jsonl"))
    compared = 0
    for directory, name in runs:
        golden = {json.loads(line)["weight"]: line
                  for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines()}
        actual = normalized_certificates(directory)
        differing = [k for k in sorted(golden.keys() | actual.keys())
                     if golden.get(k) != actual.get(k)]
        assert not differing, (f"{name}: first differing weight {differing[0]}\n"
                               f"golden: {golden.get(differing[0])}\n"
                               f"actual: {actual.get(differing[0])}")
        compared += len(actual)
    report(10, f"{compared} certificates equal the golden files apart from duration_ms")
