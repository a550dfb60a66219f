"""Classification, witness search, certificates, and the rechecker."""

import bisect
import json
import random

import numpy as np
import pytest

from maeda import certify, ffpoly, hecke
from maeda import primes as primes_module
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
from maeda.cli import certificate_to_json
from maeda.ffpoly import charpoly_mod_p, factorization_pattern, is_squarefree, reduce_matrix
from maeda.hecke import dim_cusp_forms
from maeda.oracles import hecke_matrix_T2
from maeda.patterns import Pattern, PrimeType
from maeda.primes import is_prime, sieve_primes
from maeda.qseries import max_block


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
    # one cached int32 array, shared by every caller, so it must be read-only
    primes = sieve_primes(1 << 20)
    assert len(primes) == 82025 and primes.dtype == np.int32
    assert primes is sieve_primes(1 << 20) and not primes.flags.writeable
    with pytest.raises(ValueError):
        primes[0] = 4


def test_sieve_refuses_a_bound_above_2_31_before_it_allocates(monkeypatch):
    # int32 holds every prime below 2^31; without numpy any allocation fails
    # with another error than the refusal
    monkeypatch.setattr(primes_module, "np", None)
    with pytest.raises(ValueError, match="above 2\\^31"):
        sieve_primes((1 << 31) + 1)


def test_sieve_primes_matches_primality_test():
    # every bound to 3000, and each side of the square of every prime below
    # 60, where the odd-only sieve starts crossing out that prime's multiples
    squares = [q * q + e for q in range(60) if is_prime(q) for e in (-1, 0, 1)]
    primes = [n for n in range(max(squares) + 1) if is_prime(n)]
    for bound in [*range(3001), *squares]:
        assert sieve_primes(bound).tolist() == primes[: bisect.bisect_left(primes, bound)], bound


def test_drawn_and_consecutive_primes_are_python_ints():
    # sample_prime indexes the sieve as before, so the draws are unchanged;
    # certificates hold Python ints, which JSON can write
    rng = random.Random(2026)
    draws = [sample_prime(rng, 1 << 20) for _ in range(6)] + [sample_prime(rng, 100)
                                                              for _ in range(6)]
    assert draws == [171401, 504563, 825829, 842617, 145417, 341017, 71, 71, 61, 43, 67, 61]
    assert all(type(p) is int for p in draws)
    for cert in (verify_weight(48, seed=1), verify_weight(48, mode="consecutive")):
        primes = [w.prime for w in cert.witnesses.values()]
        assert all(type(p) is int for p in primes)
        written = json.loads(certificate_to_json(cert))["witnesses"].values()
        assert [w["prime"] for w in written] == primes


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
    assert str(info.value) == "weight 96: no witness of kind I, II, III within 0 trials"
    # the cap counts trials, and the witnesses found before it are kept
    with pytest.raises(SearchExhausted) as info:
        verify_weight(96, seed=1, max_trials=3)
    assert str(info.value) == "weight 96: no witness of kind I within 3 trials"
    assert {kind: w.trial for kind, w in info.value.found.items()} == {T.II: 2, T.III: 3}
    # consecutive mode runs out of the 10 primes below 30
    with pytest.raises(SearchExhausted) as info:
        verify_weight(96, mode="consecutive", bound=30)
    assert str(info.value) == "weight 96: no witness of kind I, III within 10 trials"
    assert info.value.found[T.II].prime == 23


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
    for p in sieve_primes(10_000).tolist():
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
    bad = cert._replace(dimension=cert.dimension + 1)
    result = check_certificate(bad)
    assert not result and result.reasons == ("wrong dimension",)


def test_check_certificate_detects_substituted_prime():
    cert = verify_weight(48, seed=9)
    kind = T.I
    substitute = find_non_witness_prime(48, kind, cert.witnesses[kind])
    witnesses = dict(cert.witnesses)
    witnesses[kind] = witnesses[kind]._replace(prime=substitute)
    bad = cert._replace(witnesses=witnesses)
    result = check_certificate(bad)
    assert not result
    assert any("pattern mismatch" in r for r in result.reasons)


def test_check_certificate_detects_non_squarefree_witness():
    cert = verify_weight(24, seed=9)
    witnesses = dict(cert.witnesses)
    # 2 divides the weight-24 discriminant: reduction is not squarefree
    witnesses[T.I] = witnesses[T.I]._replace(prime=2)
    bad = cert._replace(witnesses=witnesses)
    result = check_certificate(bad)
    assert any("non-squarefree" in r for r in result.reasons)


def test_check_certificate_detects_type_mismatch():
    cert = verify_weight(48, seed=9)  # d = 4: kinds I and III are disjoint
    witnesses = dict(cert.witnesses)
    w1, w3 = witnesses[T.I], witnesses[T.III]
    assert w1.pattern != pat({4: 1}) or w3.pattern != w1.pattern
    witnesses[T.III] = w1  # relabel the kind-I witness as kind III
    bad = cert._replace(witnesses=witnesses)
    result = check_certificate(bad)
    assert any("type mismatch" in r for r in result.reasons)


def test_check_certificate_detects_composite_and_out_of_range():
    cert = verify_weight(36, seed=9)
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = witnesses[T.I]._replace(prime=15)
    result = check_certificate(cert._replace(witnesses=witnesses))
    assert any("composite" in r for r in result.reasons)

    small = cert._replace(prime_bound=3)
    result = check_certificate(small)
    assert any("outside prime bound" in r for r in result.reasons)


@pytest.fixture(scope="module")
def cert48() -> dict[int, Certificate]:
    """verify_weight(48, seed=s) for seeds 1 and 9, searched before any
    test patches the builder, so that built_primes sees only the recheck."""
    return {seed: verify_weight(48, seed=seed) for seed in (1, 9)}


@pytest.fixture
def built_primes(monkeypatch) -> list[int]:
    """The primes at which T2 mod p is built while the test runs, in call
    order: every prime of each block that certify builds in one call."""
    built: list[int] = []
    real_build = certify.hecke_matrix_T2
    monkeypatch.setattr(certify, "hecke_matrix_T2",
                        lambda k, block: built.extend(block) or real_build(k, block))
    return built


@pytest.fixture
def built_blocks(monkeypatch) -> list[list[int]]:
    """Each block of primes that certify builds T2 at in one call, in order."""
    blocks: list[list[int]] = []
    real_build = certify.hecke_matrix_T2
    monkeypatch.setattr(certify, "hecke_matrix_T2",
                        lambda k, block: blocks.append(list(block)) or real_build(k, block))
    return blocks


@pytest.mark.parametrize("kwargs, trials, sizes, message", [
    ({"bound": 60}, 17, [16, 1], "no witness of kind I, II, III within 17 trials"),
    ({"max_trials": 20}, 20, [16, 4], "no witness of kind I, II, III within 20 trials"),
    ({"max_trials": 30}, 30, [16, 14], "no witness of kind I, III within 30 trials"),
    ({"k": 1200, "max_trials": 7}, 7, [3, 3, 1], "no witness of kind I, II, III within 7 trials"),
    ({"k": 1512, "max_trials": 3}, 3, [1, 1, 1], "no witness of kind I, II, III within 3 trials"),
])
def test_search_builds_no_prime_past_the_trial_cap_or_the_stream(
    built_blocks, kwargs, trials, sizes, message
):
    # the last block is cut at the end of the primes below the bound, or
    # at max_trials; the message is the one the search gave before blocks.
    # max_block is 16 at k = 200, 3 at k = 1200 and 1 at k = 1512
    kwargs = {"k": 200, "mode": "consecutive", **kwargs}
    with pytest.raises(SearchExhausted, match=f"^weight {kwargs['k']}: {message}$"):
        verify_weight(**kwargs)
    assert [len(block) for block in built_blocks] == sizes
    assert [p for block in built_blocks for p in block] == sieve_primes(1 << 20)[:trials].tolist()


@pytest.mark.parametrize("k, mode", [(12, "random"), (48, "random"), (300, "random"),
                                     (200, "consecutive")])
def test_search_builds_each_drawn_prime_once_in_full_blocks(built_blocks, k, mode):
    # blocks of max_block(k) primes from the first draw on (fewer only where
    # the max_trials = 100 d draws run out), in the order they are drawn;
    # the last block is the first that reaches the trial that ends the
    # search, so fewer than one block is built past it
    cert = verify_weight(k, mode=mode, seed=1)
    trials = max(cert.trials_total.values())
    sizes = [len(block) for block in built_blocks]
    left = [100 * dim_cusp_forms(k) - sum(sizes[:i]) for i in range(len(sizes))]
    assert sizes == [min(max_block(k), n) for n in left]
    built = [p for block in built_blocks for p in block]
    if mode == "consecutive":
        drawn = sieve_primes(1 << 20)[: len(built)].tolist()
    else:
        rng = random.Random(certify._weight_seed(1, k))
        drawn = [sample_prime(rng, 1 << 20) for _ in built]
    assert built == drawn and len(set(built)) == len(built)
    assert trials <= len(built) < trials + max_block(k)


def test_built_yields_matrices_that_own_their_storage():
    # a view into the block would keep the spent block alive through the
    # next build; 15 primes make a full block of max_block(600) = 11 and 4
    primes = sieve_primes(1 << 20)[-15:].tolist()
    size = max_block(600)
    expected = [matrix for i in range(0, len(primes), size)
                for matrix in hecke.hecke_matrix_T2(600, primes[i:i + size])]
    built = list(certify._built(600, primes))
    assert [p for p, _ in built] == primes
    for (p, matrix), want in zip(built, expected, strict=True):
        assert matrix.base is None and np.array_equal(matrix, want), p


def test_weight_seed_is_the_blake2b_digest_of_seed_and_weight():
    # certify takes blake2b from _blake2, not from hashlib (which would
    # load OpenSSL); the per-weight seeds, and so every draw, stay those of
    # hashlib.blake2b
    import hashlib

    for seed in (0, 1, 2, 7, -1, -12345, 2**31 - 1, 2**63, 10**30):
        for k in (0, 12, 14, 48, 200, 1200, 12000, MAX_WEIGHT):
            digest = hashlib.blake2b(f"{seed}:{k}".encode(), digest_size=8).digest()
            assert certify._weight_seed(seed, k) == int.from_bytes(digest, "big"), (seed, k)


def test_rosser_bound_exceeds_every_prime_below_2_20():
    primes = sieve_primes(1 << 20).tolist()
    bounds = [certify._nth_prime_bound(n) for n in range(1, len(primes) + 1)]
    assert all(p < bound for p, bound in zip(primes, bounds))
    assert certify._nth_prime_bound(0) == 12 and certify._nth_prime_bound(-3) == 12


@pytest.mark.parametrize("bound", [3, 60, 1 << 20])
@pytest.mark.parametrize("max_trials", [1, 5, 6, None])  # None: 100 d = 1600
def test_consecutive_draws_are_a_prefix_of_the_full_sieve(
    built_blocks, monkeypatch, bound, max_trials
):
    # consecutive mode sieves only below a bound on its max_trials-th
    # prime; that shorter stream starts with every prime it can draw
    sieved: list[np.ndarray] = []
    monkeypatch.setattr(certify, "sieve_primes", lambda b: sieved.append(sieve_primes(b)) or sieved[-1])
    everything = sieve_primes(bound).tolist()
    cap = 100 * dim_cusp_forms(200) if max_trials is None else max_trials
    try:
        cert = verify_weight(200, "consecutive", bound=bound, max_trials=max_trials)
        trials = max(cert.trials_total.values())
    except SearchExhausted as exc:
        trials = exc.trials
        assert trials == min(cap, len(everything))
    [stream] = sieved
    assert stream.tolist()[:cap] == everything[:cap]
    built = [p for block in built_blocks for p in block]
    assert trials <= len(built) and built == everything[: len(built)]


def test_check_certificate_builds_the_distinct_valid_primes_in_one_block(built_blocks, cert48):
    cert = cert48[1]  # kinds III and IV share prime 298201
    witnesses = dict(cert.witnesses)
    witnesses[T.II] = witnesses[T.II]._replace(prime=15)
    result = check_certificate(cert._replace(witnesses=witnesses))
    assert "kind II witness 15: composite" in result.reasons
    ordered = sorted(witnesses.items(), key=lambda kv: kv[0].value)
    valid = list(dict.fromkeys(w.prime for _, w in ordered if w.prime != 15))
    assert len(valid) < len(witnesses) - 1
    assert built_blocks == [valid]


def test_check_certificate_rejects_prime_bound_above_2_20(built_primes, cert48):
    # a hand-edited bound lets a prime >= 2^20 through the bound check; it
    # must become a FAIL reason, and no matrix may be built at that prime
    cert = cert48[9]
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = witnesses[T.I]._replace(prime=1048583)
    bad = cert._replace(prime_bound=4194304, witnesses=witnesses)
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
    witnesses[T.I] = witnesses[T.I]._replace(prime=huge)
    result = check_certificate(cert._replace(witnesses=witnesses))
    assert f"kind I witness {huge}: not below 2^20" in result.reasons
    assert tested and all(n < 1 << 20 for n in tested)


def test_check_certificate_builds_once_per_distinct_prime(built_primes, cert48):
    cert = cert48[1]  # kinds III and IV share prime 298201
    primes = [w.prime for w in cert.witnesses.values()]
    assert len(set(primes)) < len(primes)
    assert check_certificate(cert)
    assert sorted(built_primes) == sorted(set(primes))


@pytest.fixture
def trial_calls(monkeypatch) -> dict[str, list]:
    """Each call that certify makes to the steps of a trial, by step: the
    squarefree test's list holds its answers."""
    calls: dict[str, list] = {"charpoly": [], "squarefree": [], "pattern": []}

    def counted(step, fn, record=lambda args, result: None):
        def wrapper(*args):
            result = fn(*args)
            calls[step].append(record(args, result))
            return result
        return wrapper

    monkeypatch.setattr(certify, "charpoly_mod_p", counted("charpoly", charpoly_mod_p))
    monkeypatch.setattr(certify, "is_squarefree",
                        counted("squarefree", is_squarefree, lambda args, result: result))
    monkeypatch.setattr(certify, "factorization_pattern",
                        counted("pattern", factorization_pattern))
    return calls


@pytest.mark.parametrize("k, mode", [(48, "random"), (300, "random"), (200, "consecutive")])
def test_search_makes_one_charpoly_squarefree_test_and_pattern_per_trial(trial_calls, k, mode):
    # perfbench/run.py --trace 1 equates traced trials with the trials the
    # certificates record; a change that batched or skipped trials would
    # break that rule and must face this test
    cert = verify_weight(k, mode=mode, seed=1)
    trials = max(cert.trials_total.values())
    assert len(trial_calls["charpoly"]) == len(trial_calls["squarefree"]) == trials
    assert len(trial_calls["pattern"]) == sum(trial_calls["squarefree"])
    if mode == "consecutive":  # small primes: some reductions are not squarefree
        assert sum(trial_calls["squarefree"]) < trials


def test_recheck_makes_one_charpoly_per_distinct_witness_prime(trial_calls, cert48):
    for cert in cert48.values():
        del trial_calls["charpoly"][:]
        assert check_certificate(cert)
        primes = {w.prime for w in cert.witnesses.values()}
        assert len(trial_calls["charpoly"]) == len(primes)
    assert len({w.prime for w in cert48[1].witnesses.values()}) < len(cert48[1].witnesses)


@pytest.mark.parametrize("k, mode", [(96, "random"), (200, "consecutive")])
def test_search_and_recheck_make_no_squarefree_test_inside_ffpoly(monkeypatch, k, mode):
    # certify's own squarefree tests are the only ones: the pattern reads
    # ffpoly's cached answer, and never calls the public is_squarefree that a
    # trace wraps to count them
    inner: list = []
    public = ffpoly.is_squarefree
    monkeypatch.setattr(ffpoly, "is_squarefree", lambda *args: inner.append(args) or public(*args))
    cert = verify_weight(k, mode=mode, seed=1)
    assert check_certificate(cert)
    assert inner == []


def test_check_certificate_refuses_weight_above_max(built_primes, cert48):
    # a header consistent with an absurd weight must not start a build
    cert = cert48[9]
    k = 10**6
    bad = cert._replace(weight=k, dimension=dim_cusp_forms(k))
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
    witnesses[T.I] = witnesses[T.I]._replace(prime=prime, pattern=pat({2: 1}))
    result = check_certificate(cert._replace(prime_bound=bound, witnesses=witnesses))
    assert f"kind I witness {prime}: pattern size 2, expected 4" in result.reasons
    assert f"kind I witness {prime}: {refusal}" in result.reasons
    assert prime not in built_primes


def test_check_certificate_missing_witness():
    cert = verify_weight(36, seed=9)
    witnesses = dict(cert.witnesses)
    del witnesses[T.II]
    result = check_certificate(cert._replace(witnesses=witnesses))
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


def test_is_prime_with_two_bases_below_their_bound():
    # below 1373653 Miller-Rabin takes bases 2 and 3 only; that bound is
    # itself a strong pseudoprime to both, so the full base set must refuse it
    from maeda.primes import _MR_TWO_BASES_BOUND
    assert _MR_TWO_BASES_BOUND == 829 * 1657
    assert not is_prime(_MR_TWO_BASES_BOUND)
    primes = set(sieve_primes(_MR_TWO_BASES_BOUND + 1000).tolist())
    window = range(_MR_TWO_BASES_BOUND - 20_000, _MR_TWO_BASES_BOUND + 1000)
    sample = random.Random(5).sample(range(1 << 20), 20_000)
    assert all(is_prime(n) == (n in primes) for n in [*range(2000), *sample, *window])
