"""Tests of the independent checker on known values.

    python3 -m pytest perfbench/test_oracle.py
"""

import json
from fractions import Fraction

import pytest

import oracle

PRIMES = (5, 101, 65537, 1048573)


def test_dimension():
    known = {12: 1, 14: 0, 24: 2, 26: 1, 38: 2, 600: 50, 1200: 100}
    assert {k: oracle.dimension(k) for k in known} == known


def test_hurwitz_class_numbers():
    known = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1,
             11: 1, 12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 20: 2, 23: 3}
    assert {n: oracle.hurwitz(n) for n in known} == known


def test_ramanujan_tau():
    assert oracle.hecke_trace(2, 12) == -24
    assert oracle.hecke_trace(4, 12) == -1472
    assert oracle.t2_traces(12) == (-24, 576)


@pytest.mark.parametrize("p", PRIMES)
def test_weight_24_charpoly(p):
    # T2 on S_24 has characteristic polynomial x^2 - 1080 x - 20468736
    assert oracle.t2_traces(24) == (1080, 1080**2 + 2 * 20468736)
    charpoly = oracle.charpoly_krylov(oracle.t2_matrix_mod_p(24, p), p, seed=p)
    assert charpoly == [-20468736 % p, -1080 % p, 1]


def test_kinds():
    assert oracle.kinds_of([4]) == {"I"}
    assert oracle.kinds_of([1, 1, 2]) == {"II"}
    assert oracle.kinds_of([1, 3]) == {"III", "IV"}
    assert oracle.kinds_of([5]) == {"I", "III"}
    assert oracle.kinds_of([2, 2]) == set()


# cert_48.json of `maeda verify --from 48 --to 48 --seed 1`, as in the README
CERT_48 = {
    "weight": 48, "dimension": 4, "mode": "random", "seed": 1,
    "prime_bound": 1048576, "vacuous": False,
    "witnesses": {
        "I": {"prime": 140453, "pattern": [[4, 1]], "trial": 6},
        "II": {"prime": 229753, "pattern": [[1, 2], [2, 1]], "trial": 1},
        "III": {"prime": 298201, "pattern": [[1, 1], [3, 1]], "trial": 8},
        "IV": {"prime": 298201, "pattern": [[1, 1], [3, 1]], "trial": 8},
    },
    "trials_total": {"I": 6, "II": 1, "III": 8},
    "duration_ms": 18, "schema_version": 1,
}


def test_certificate_accepted_and_tampering_found():
    assert oracle.check_certificate(json.dumps(CERT_48), "random", 1) == []
    assert oracle.check_certificate(json.dumps(CERT_48), "random", 2)
    for path, value in ((("witnesses", "I", "prime"), 229753),
                        (("witnesses", "II", "pattern"), [[2, 2]]),
                        (("trials_total", "III"), 7),
                        (("dimension",), 5)):
        tampered = json.loads(json.dumps(CERT_48))
        *parents, leaf = path
        target = tampered
        for key in parents:
            target = target[key]
        target[leaf] = value
        assert oracle.check_certificate(json.dumps(tampered), "random", 1), path


def test_strip_duration():
    other = dict(CERT_48, duration_ms=99)
    assert oracle.strip_duration(json.dumps(other)) == oracle.strip_duration(json.dumps(CERT_48))
