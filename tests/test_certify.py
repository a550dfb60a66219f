"""Classification, witness search, certificates, and the rechecker."""

import bisect
import dataclasses
import random

import pytest

from maeda import certify
from maeda.certify import (
    MAX_WEIGHT,
    Certificate,
    NothingToVerify,
    SearchExhausted,
    Witness,
    check_certificate,
    classify,
    covered_index,
    sample_prime,
    verify_weight,
)
from maeda.ffpoly import charpoly_mod_p, factorization_pattern, is_squarefree, reduce_matrix
from maeda.hecke import dim_cusp_forms
from maeda.oracles import hecke_matrix_T2
from maeda.patterns import Pattern, PrimeType
from maeda.primes import is_prime, prime_count, sieve_primes


def pat(d: dict[int, int]) -> Pattern:
    return Pattern.from_pairs(d.items())


T = PrimeType


@pytest.mark.parametrize(
    "pattern, d, expected",
    [
        ({5: 1}, 5, {T.I, T.III}),  # prime degree > d/2, so I implies III
        ({2: 1, 1: 2}, 4, {T.II}),
        ({2: 1, 5: 1}, 7, {T.II, T.III}),
        ({1: 1, 5: 1}, 6, {T.III, T.IV}),
        ({4: 1}, 4, {T.I}),  # 4 is not prime: no III
        ({2: 1}, 2, {T.I, T.II, T.III}),  # an irreducible quadratic is all three
        ({1: 2}, 2, {T.IV}),
        ({1: 1}, 1, {T.I}),
        ({2: 2, 1: 1}, 5, set()),  # two even factors: nothing
        ({6: 1, 1: 2}, 8, set()),  # even factor of degree 6 disqualifies II
        ({3: 1, 5: 1}, 8, {T.III}),
        ({2: 1, 3: 2}, 8, {T.II}),  # 3 <= 8/2: not III
    ],
)
def test_classify(pattern, d, expected):
    assert classify(pat(pattern), d) == expected


def test_classify_rejects_size_mismatch():
    with pytest.raises(ValueError):
        classify(pat({2: 1}), 3)


def test_sample_prime_tiny_bounds():
    rng = random.Random(0)
    assert all(sample_prime(rng, 3) == 2 for _ in range(10))
    with pytest.raises(ValueError):
        sample_prime(rng, 2)


def test_sample_prime_uniform_chi_square():
    rng = random.Random(123)
    counts = {2: 0, 3: 0, 5: 0, 7: 0}
    n = 10_000
    for _ in range(n):
        counts[sample_prime(rng, 10)] += 1
    expected = n / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 16.27  # 99.9% quantile of chi-square with 3 dof


def test_prime_pool_size_below_2_20():
    assert prime_count(1 << 20) == 82025


def test_sieve_primes_matches_primality_test():
    primes = [n for n in range(5001) if is_prime(n)]
    for bound in range(5002):
        assert sieve_primes(bound) == tuple(primes[: bisect.bisect_left(primes, bound)]), bound


def test_verify_weight_dim_one_vacuous():
    cert = verify_weight(12, seed=5)
    assert cert.vacuous and cert.dimension == 1
    assert set(cert.witnesses) == {T.I}
    witness = cert.witnesses[T.I]
    assert witness.trial == 1 and witness.pattern == pat({1: 1})
    assert cert.trials_total == {T.I: 1, T.II: 0, T.III: 0}
    assert check_certificate(cert)


def test_verify_weight_round_trip_check():
    for k in (24, 36, 60, 96):
        cert = verify_weight(k, seed=3)
        assert check_certificate(cert), k
        assert not cert.vacuous
        assert set(cert.witnesses) >= {T.I, T.II, T.III}


def test_verify_weight_rejects_empty_space():
    with pytest.raises(NothingToVerify):
        verify_weight(14)
    with pytest.raises(NothingToVerify):
        verify_weight(2)


def test_verify_weight_consecutive_is_deterministic():
    a = verify_weight(96, mode="consecutive")
    b = verify_weight(96, mode="consecutive")
    assert a.witnesses == b.witnesses
    assert a.trials_total == b.trials_total
    assert a.seed is None


def test_verify_weight_random_seed_reproducible():
    a = verify_weight(120, seed=42)
    b = verify_weight(120, seed=42)
    assert a.witnesses == b.witnesses and a.trials_total == b.trials_total


def test_verify_weight_consecutive_skips_bad_small_primes():
    # 2 and 3 divide the weight-24 discriminant, so the consecutive search
    # must count them as trials and move past them
    cert = verify_weight(24, mode="consecutive")
    m = hecke_matrix_T2(24)
    for p in (2, 3):
        assert not is_squarefree(charpoly_mod_p(reduce_matrix(m, p), p), p)
    assert all(w.prime not in (2, 3) for w in cert.witnesses.values())
    assert min(w.trial for w in cert.witnesses.values()) >= 3


def test_verify_weight_exhaustion_reports_progress():
    with pytest.raises(SearchExhausted) as info:
        verify_weight(96, seed=1, max_trials=0)
    assert info.value.weight == 96
    assert info.value.missing == {T.I, T.II, T.III}


def test_type_one_witness_doubles_as_type_three_when_d_prime():
    # d prime: the pattern {d: 1} certifying kind I also certifies kind III,
    # so kind III can never be found later than kind I
    for k, d in ((24, 2), (36, 3), (60, 5), (84, 7)):
        cert = verify_weight(k, seed=11)
        assert cert.dimension == d and is_prime(d)
        assert cert.witnesses[T.III].trial <= cert.witnesses[T.I].trial
        if cert.witnesses[T.I].pattern == pat({d: 1}):
            assert cert.witnesses[T.III].trial <= cert.witnesses[T.I].trial


def test_frobenius_statistics_weight_24():
    # d = 2: kind-I density is 1/2; binomial 5-sigma band over 5000 draws
    rng = random.Random(2024)
    m = hecke_matrix_T2(24)
    n = 5000
    hits = 0
    for _ in range(n):
        p = sample_prime(rng, 1 << 20)
        fp = charpoly_mod_p(reduce_matrix(m, p), p)
        if is_squarefree(fp, p) and T.I in classify(factorization_pattern(fp, p), 2):
            hits += 1
    sigma = (0.25 / n) ** 0.5
    assert abs(hits / n - 0.5) < 5 * sigma


def test_frobenius_statistics_weight_60():
    # d = 5: kind-I density 1/5, kind-III density 1/3 + 1/5 = 8/15
    rng = random.Random(60)
    m = hecke_matrix_T2(60)
    n = 3000
    hits = {T.I: 0, T.III: 0}
    for _ in range(n):
        p = sample_prime(rng, 1 << 20)
        fp = charpoly_mod_p(reduce_matrix(m, p), p)
        if not is_squarefree(fp, p):
            continue
        kinds = classify(factorization_pattern(fp, p), 5)
        for kind in hits:
            if kind in kinds:
                hits[kind] += 1
    for kind, density in ((T.I, 1 / 5), (T.III, 8 / 15)):
        sigma = (density * (1 - density) / n) ** 0.5
        assert abs(hits[kind] / n - density) < 5 * sigma, kind


def find_non_witness_prime(weight: int, kind: PrimeType, recorded: Witness) -> int:
    """Smallest prime whose pattern differs from the recorded witness pattern."""
    m = hecke_matrix_T2(weight)
    d = m.d
    for p in sieve_primes(10_000):
        if p == recorded.prime:
            continue
        fp = charpoly_mod_p(reduce_matrix(m, p), p)
        if not is_squarefree(fp, p):
            continue
        if factorization_pattern(fp, p) != recorded.pattern:
            return p
    raise AssertionError("no replacement prime found")


def test_check_certificate_detects_wrong_dimension():
    cert = verify_weight(48, seed=9)
    bad = dataclasses.replace(cert, dimension=cert.dimension + 1)
    result = check_certificate(bad)
    assert not result and result.reasons == ("wrong dimension",)


def test_check_certificate_detects_substituted_prime():
    cert = verify_weight(48, seed=9)
    kind = T.I
    substitute = find_non_witness_prime(48, kind, cert.witnesses[kind])
    witnesses = dict(cert.witnesses)
    witnesses[kind] = dataclasses.replace(witnesses[kind], prime=substitute)
    bad = dataclasses.replace(cert, witnesses=witnesses)
    result = check_certificate(bad)
    assert not result
    assert any("pattern mismatch" in r for r in result.reasons)


def test_check_certificate_detects_non_squarefree_witness():
    cert = verify_weight(24, seed=9)
    witnesses = dict(cert.witnesses)
    # 2 divides the weight-24 discriminant: reduction is not squarefree
    witnesses[T.I] = dataclasses.replace(witnesses[T.I], prime=2)
    bad = dataclasses.replace(cert, witnesses=witnesses)
    result = check_certificate(bad)
    assert any("non-squarefree" in r for r in result.reasons)


def test_check_certificate_detects_type_mismatch():
    cert = verify_weight(48, seed=9)  # d = 4: kinds I and III are disjoint
    witnesses = dict(cert.witnesses)
    w1, w3 = witnesses[T.I], witnesses[T.III]
    assert w1.pattern != pat({4: 1}) or w3.pattern != w1.pattern
    witnesses[T.III] = w1  # relabel the kind-I witness as kind III
    bad = dataclasses.replace(cert, witnesses=witnesses)
    result = check_certificate(bad)
    assert any("type mismatch" in r for r in result.reasons)


def test_check_certificate_detects_composite_and_out_of_range():
    cert = verify_weight(36, seed=9)
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = dataclasses.replace(witnesses[T.I], prime=15)
    result = check_certificate(dataclasses.replace(cert, witnesses=witnesses))
    assert any("composite" in r for r in result.reasons)

    small = dataclasses.replace(cert, prime_bound=3)
    result = check_certificate(small)
    assert any("outside prime bound" in r for r in result.reasons)


@pytest.fixture(scope="module")
def cert48() -> dict[int, Certificate]:
    """verify_weight(48, seed=s) for seeds 1 and 9, searched before any
    test patches the builder, so that built_primes sees only the recheck."""
    return {seed: verify_weight(48, seed=seed) for seed in (1, 9)}


@pytest.fixture
def built_primes(monkeypatch) -> list[int]:
    """The primes at which T2 mod p is built while the test runs, in call order."""
    built: list[int] = []
    real_build = certify.hecke_matrix_T2
    monkeypatch.setattr(certify, "hecke_matrix_T2",
                        lambda k, p: built.append(p) or real_build(k, p))
    return built


def test_check_certificate_rejects_prime_bound_above_2_20(built_primes, cert48):
    # a hand-edited bound lets a prime >= 2^20 through the bound check; it
    # must become a FAIL reason, and no matrix may be built at that prime
    cert = cert48[9]
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = dataclasses.replace(witnesses[T.I], prime=1048583)
    bad = dataclasses.replace(cert, prime_bound=4194304, witnesses=witnesses)
    result = check_certificate(bad)
    assert not result
    assert "prime bound 4194304 outside [3, 2^20]" in result.reasons
    assert "kind I witness 1048583: not below 2^20" in result.reasons
    assert built_primes and all(p < 1 << 20 for p in built_primes)


def test_check_certificate_refuses_huge_prime_before_primality_test(monkeypatch):
    # Miller-Rabin on a 4200-digit odd number takes seconds; a witness prime
    # that large must be refused as not below 2^20 without testing it
    tested: list[int] = []
    monkeypatch.setattr(certify, "is_prime", lambda n: tested.append(n) or is_prime(n))
    cert = verify_weight(48, seed=9)
    witnesses = dict(cert.witnesses)
    huge = 10**4200 + 7
    witnesses[T.I] = dataclasses.replace(witnesses[T.I], prime=huge)
    result = check_certificate(dataclasses.replace(cert, witnesses=witnesses))
    assert f"kind I witness {huge}: not below 2^20" in result.reasons
    assert tested and all(n < 1 << 20 for n in tested)


def test_check_certificate_builds_once_per_distinct_prime(built_primes, cert48):
    cert = cert48[1]  # kinds III and IV share prime 298201
    primes = [w.prime for w in cert.witnesses.values()]
    assert len(set(primes)) < len(primes)
    assert check_certificate(cert)
    assert sorted(built_primes) == sorted(set(primes))


def test_check_certificate_refuses_weight_above_max(built_primes, cert48):
    # a header consistent with an absurd weight must not start a build
    cert = cert48[9]
    k = 10**6
    bad = dataclasses.replace(cert, weight=k, dimension=dim_cusp_forms(k))
    result = check_certificate(bad)
    assert not result
    assert result.reasons == (f"weight {k} above {MAX_WEIGHT}",)
    assert built_primes == []


@pytest.mark.parametrize(
    "prime, bound, refusal",
    [(15, 1 << 20, "composite"), (1048583, 1 << 20, "not below 2^20"),
     (101, 100, "outside prime bound 100")],
)
def test_check_certificate_compares_pattern_size_at_refused_prime(
    built_primes, cert48, prime, bound, refusal
):
    # a refused witness prime is never built at, but its pattern's size is
    # still compared with d, so both faults are reported
    cert = cert48[9]
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = dataclasses.replace(witnesses[T.I], prime=prime, pattern=pat({2: 1}))
    result = check_certificate(dataclasses.replace(cert, prime_bound=bound, witnesses=witnesses))
    assert f"kind I witness {prime}: pattern size 2, expected 4" in result.reasons
    assert f"kind I witness {prime}: {refusal}" in result.reasons
    assert prime not in built_primes


def test_check_certificate_missing_witness():
    cert = verify_weight(36, seed=9)
    witnesses = dict(cert.witnesses)
    del witnesses[T.II]
    result = check_certificate(dataclasses.replace(cert, witnesses=witnesses))
    assert any("missing witness" in r for r in result.reasons)


@pytest.mark.parametrize(
    "n, expected",
    [
        (2, True),
        (9999, True),  # small indices are covered wholesale
        (10000, True),
        (10001, False),  # composite above the wholesale range
        (3999971, True),  # prime below 4000000
        (4000037, True),  # prime above, but 2 mod 5
    ],
)
def test_covered_index(n, expected):
    assert covered_index(n) is expected


def test_covered_index_finds_uncovered_prime():
    # a prime above 4000000 that is +-1 mod 5 and +-1 mod 7 is not covered
    n = 4000000
    while not (is_prime(n) and n % 5 in (1, 4) and n % 7 in (1, 6)):
        n += 1
    assert n > 4000000 and not covered_index(n)


def test_covered_index_rejects_tiny():
    with pytest.raises(ValueError):
        covered_index(1)
