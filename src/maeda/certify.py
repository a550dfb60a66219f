"""Witness-prime search, certificates, and independent rechecking.

For the characteristic polynomial F of T2 on a weight-k cusp space of
dimension d, a prime p (with squarefree reduction F mod p) is classified by
the factorization pattern of that reduction:

  I   -- a single irreducible factor of degree d;
  II  -- exactly one factor of even degree, and that degree is 2;
  III -- some factor of prime degree strictly greater than d/2;
  IV  -- a linear factor times an irreducible factor of degree d-1.

A kind-I prime forces F to be irreducible over Q; kinds II and III supply a
transposition and a long prime-length cycle in the Galois group, and a
transitive subgroup of S_d containing both must be all of S_d.  So witnesses
of kinds I, II and III together certify the weight.  Kind IV is recorded when
it shows up, as a density diagnostic, but is never searched for.

The search draws primes below a bound (uniformly at random from a seeded
generator, or consecutively from 2) and keeps the first witness of each kind;
one prime may witness several kinds at once.  The resulting
:class:`Certificate` can be rechecked from scratch by
:func:`check_certificate` at the cost of a few modular characteristic
polynomials, with no searching.

Search and recheck build T2 the same way, mod each prime they test
(:func:`~maeda.hecke.hecke_matrix_T2`), :func:`~maeda.qseries.max_block`
primes per call from the first draw on (fewer where the primes run out),
so the recheck takes its distinct witness primes at once when they fit.
The charpoly, squarefree test and pattern then run one prime at a time, in
order, so blocks change no result and no trial count.
The independent paths are the tests,
which hold that builder to :mod:`maeda.oracles` over a sweep of weights and
primes, and ``perfbench/oracle.py``, which shares no code with this package.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from _blake2 import blake2b
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .ffpoly import MAX_MODULUS, charpoly_mod_p, factorization_pattern, is_squarefree
from .ffpoly import reduce_matrix  # noqa: F401  unused; perfbench/trace_child.py wraps it here
from .hecke import dim_cusp_forms, hecke_matrix_T2
from .patterns import Pattern, PrimeType
from .primes import is_prime, sieve_primes
from .qseries import max_block

__all__ = [
    "PrimeType",
    "Witness",
    "Certificate",
    "CheckResult",
    "NothingToVerify",
    "SearchExhausted",
    "MODES",
    "REQUIRED_KINDS",
    "MAX_WEIGHT",
    "rule_errors",
    "classify",
    "sample_prime",
    "verify_weight",
    "check_certificate",
    "covered_index",
]

MODES = ("random", "consecutive")

# The kinds a certificate needs, and for which it records trial totals.
REQUIRED_KINDS = (PrimeType.I, PrimeType.II, PrimeType.III)

# The paper's range.  ``check`` refuses certificates above it, since the cost
# of building T2 grows about as d^3 and an absurd weight would run for months.
MAX_WEIGHT = 14000

REASON_WRONG_DIMENSION = "wrong dimension"
REASON_PATTERN_MISMATCH = "pattern mismatch"
REASON_TYPE_MISMATCH = "type mismatch"
REASON_NON_SQUAREFREE = "non-squarefree witness"
REASON_PATTERN_SIZE = "pattern size"


class NothingToVerify(ValueError):
    """The cusp space is zero-dimensional: there is nothing to certify."""


class SearchExhausted(RuntimeError):
    """The witness search hit its trial cap before finding every kind."""

    def __init__(self, weight: int, trials: int, missing: set[PrimeType],
                 found: dict[PrimeType, "Witness"]):
        self.weight = weight
        self.trials = trials
        self.missing = missing
        self.found = found
        names = ", ".join(sorted(t.value for t in missing))
        super().__init__(
            f"weight {weight}: no witness of kind {names} within {trials} trials"
        )


class Witness(NamedTuple):
    """One witness prime: the prime, its pattern, and the trial that found it."""

    prime: int
    pattern: Pattern
    trial: int


class Certificate(NamedTuple):
    """Per-weight record of witness primes, sufficient for independent recheck.

    ``vacuous`` marks dimension-1 weights: a linear characteristic polynomial
    is already irreducible with (trivially) full symmetric group, so only the
    kind-I witness is recorded and kinds II/III are satisfied vacuously.
    ``trials_total`` gives, per required kind, the number of primes tested up
    to and including its witness (0 where vacuous).
    """

    weight: int
    dimension: int
    mode: str
    seed: int | None
    prime_bound: int
    vacuous: bool
    witnesses: Mapping[PrimeType, Witness]
    trials_total: Mapping[PrimeType, int]
    duration_ms: int


class CheckResult(NamedTuple):
    """Outcome of a certificate recheck; falsy iff anything failed."""

    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def rule_errors(weight: int, mode: str, bound: int) -> dict[str, str]:
    """{"weight" | "bound" | "mode": reason} for each rule that is broken.

    The one definition of each rule: weight at most :data:`MAX_WEIGHT`, prime
    bound in [3, 2^20], mode one of :data:`MODES`.
    """
    rules = {
        "weight": (weight <= MAX_WEIGHT, f"weight {weight} above {MAX_WEIGHT}"),
        "bound": (3 <= bound <= MAX_MODULUS, f"prime bound {bound} outside [3, 2^20]"),
        "mode": (mode in MODES, f"unknown mode {mode!r}"),
    }
    return {name: reason for name, (ok, reason) in rules.items() if not ok}


def header_error(cert: Certificate) -> str | None:
    """Why nothing in ``cert`` can be read at its dimension, or None.

    Its weight breaks the weight rule of :func:`rule_errors`, or its
    dimension is not that of the weight's cusp space (or is 0).
    """
    error = rule_errors(cert.weight, cert.mode, cert.prime_bound).get("weight")
    if error is None and not 0 < cert.dimension == dim_cusp_forms(cert.weight):
        return REASON_WRONG_DIMENSION
    return error


def _required(d: int) -> set[PrimeType]:
    # a linear charpoly needs only kind I; II and III hold vacuously
    return {PrimeType.I} if d == 1 else set(REQUIRED_KINDS)


def _trials_total(witnesses: Mapping[PrimeType, Witness]) -> dict[PrimeType, int]:
    return {
        kind: witnesses[kind].trial if kind in witnesses else 0
        for kind in REQUIRED_KINDS
    }


def classify(pattern: Pattern, d: int) -> set[PrimeType]:
    """Kinds witnessed by a squarefree factorization pattern of degree d.

    The kinds are not mutually exclusive; for prime d, the full-degree
    pattern {d: 1} is simultaneously of kinds I and III.
    """
    if pattern.size != d:
        raise ValueError(f"pattern has size {pattern.size}, expected degree {d}")
    kinds: set[PrimeType] = set()
    if pattern.parts == ((d, 1),):
        kinds.add(PrimeType.I)
    if pattern.multiplicity(2) == 1 and all(
        length % 2 == 1 for length in pattern.lengths() if length != 2
    ):
        kinds.add(PrimeType.II)
    if any(2 * length > d and is_prime(length) for length in pattern.lengths()):
        kinds.add(PrimeType.III)
    if d >= 2 and pattern == Pattern.from_lengths((1, d - 1)):
        kinds.add(PrimeType.IV)
    return kinds


def sample_prime(rng: random.Random, bound: int) -> int:
    """Uniformly random prime below ``bound``; deterministic in the rng state.

    All primes below the bound are sieved once (and cached) and indexed
    uniformly, so each is drawn with probability exactly 1/pi(bound).
    """
    primes = sieve_primes(bound)
    if not len(primes):
        raise ValueError(f"no primes below {bound}")
    return int(primes[rng.randrange(len(primes))])


def _built(k: int, primes: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
    # (p, T2 mod p) for each of the primes in turn, built max_block(k) at a
    # time (fewer in the last block).  A block is drawn only when the one
    # before is used up, so fewer than one block is built past where the
    # caller stops.  Each matrix is a copy that owns its storage: a view would
    # keep the whole spent block alive through the next build, held by the
    # caller's loop variable and by the tuples enumerate and zip reuse
    primes = iter(primes)
    while block := list(itertools.islice(primes, max_block(k))):
        yield from zip(block, map(np.copy, hecke_matrix_T2(k, block)))


def _pattern_of(matrix: np.ndarray, p: int) -> Pattern | None:
    # the charpoly of T2 mod p, the squarefree test, then the pattern (None:
    # the reduction is not squarefree, so p classifies nothing)
    fp = charpoly_mod_p(matrix, p)
    return factorization_pattern(fp, p) if is_squarefree(fp, p) else None


def _weight_seed(seed: int, k: int) -> int:
    # Stable per-weight derivation, so batch runs reproduce independently of
    # scheduling order (Python's salted hash() would not): the first 8 bytes
    # of the BLAKE2b digest of "seed:k", big-endian.  BLAKE2b comes from the
    # interpreter's own _blake2, which is what hashlib.blake2b is as well;
    # importing hashlib would load OpenSSL's _hashlib and libcrypto, about
    # 3.5 MB of resident memory per process (README, "Where a process's time
    # goes")
    digest = blake2b(f"{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _nth_prime_bound(n: int) -> int:
    # an integer above the n-th prime: p_n < n (ln n + ln ln n) for n >= 6
    # (Rosser & Schoenfeld, Illinois J. Math. 6, 1962, (3.13)), and p_5 = 11
    if n < 6:
        return 12
    return math.floor(n * (math.log(n) + math.log(math.log(n)))) + 1


def verify_weight(
    k: int,
    mode: str = "random",
    seed: int = 0,
    bound: int = MAX_MODULUS,
    max_trials: int | None = None,
) -> Certificate:
    """Search for witness primes certifying weight k; return the certificate.

    Each trial draws a prime (uniformly below ``bound`` in ``random`` mode,
    from a generator seeded by the BLAKE2b digest of ``"seed:k"``;
    consecutively from 2 in ``consecutive`` mode, which sieves only below
    the Rosser-Schoenfeld bound on the ``max_trials``-th prime, or below
    ``bound`` if that is smaller), builds T2 mod p, takes its
    characteristic polynomial, skips non-squarefree reductions (they still
    count as trials), and classifies the pattern.  T2 is built mod each
    prime it tests, :func:`~maeda.qseries.max_block` primes at a time from
    the first draw on; no block reaches past ``max_trials`` or the primes
    below ``bound``, and the rest of a trial runs prime by prime in the
    order drawn.  The search stops once
    every required kind has a witness; ``max_trials`` (default 100 * d) turns
    a stuck search into a loud :class:`SearchExhausted` rather than a hang.

    Raises :class:`NothingToVerify` for weights with dim S_k = 0, and
    ValueError where k, mode or bound break a rule of :func:`rule_errors`.
    """
    started = time.perf_counter()
    errors = rule_errors(k, mode, bound)
    if errors:
        raise ValueError("; ".join(errors.values()))
    d = dim_cusp_forms(k)
    if d == 0:
        raise NothingToVerify(f"dim S_{k} = 0, nothing to verify")
    if max_trials is None:
        max_trials = 100 * d
    required = _required(d)

    if mode == "random":
        rng = random.Random(_weight_seed(seed, k))
        primes: Iterable[int] = (sample_prime(rng, bound) for _ in itertools.count())
        cert_seed: int | None = seed
    else:  # a finite stream: the search may run out of primes below the bound
        primes = map(int, sieve_primes(min(bound, _nth_prime_bound(max_trials))))
        cert_seed = None

    witnesses: dict[PrimeType, Witness] = {}
    trials = 0
    built = _built(k, itertools.islice(primes, max_trials))
    for trials, (p, matrix) in enumerate(built, start=1):
        pattern = _pattern_of(matrix, p)
        if pattern is not None:
            for kind in classify(pattern, d):
                witnesses.setdefault(kind, Witness(p, pattern, trials))
        if required <= witnesses.keys():
            break
    else:
        raise SearchExhausted(k, trials, required - witnesses.keys(), witnesses)

    duration_ms = round((time.perf_counter() - started) * 1000)
    return Certificate(
        weight=k,
        dimension=d,
        mode=mode,
        seed=cert_seed,
        prime_bound=bound,
        vacuous=(d == 1),
        witnesses=dict(sorted(witnesses.items(), key=lambda kv: kv[0].value)),
        trials_total=_trials_total(witnesses),
        duration_ms=duration_ms,
    )


def check_certificate(cert: Certificate) -> CheckResult:
    """Independently recheck every claim in a certificate.

    At each distinct recorded witness prime only, builds T2 mod p (all
    those primes in one block, unless :func:`~maeda.qseries.max_block` is
    smaller) and recomputes the characteristic polynomial, the pattern, and
    the classification: a handful of modular charpolys instead of a search.
    The header is checked against :func:`header_error` (a weight above
    :data:`MAX_WEIGHT` or a wrong dimension fails at once) and
    :func:`rule_errors`, the seed against the mode, and the
    trial totals against the witnesses.  Every witness's pattern size and
    prime are validated before any build; a prime that fails is reported
    and never built at.
    """
    error = header_error(cert)
    if error:
        return CheckResult(False, (error,))
    d = cert.dimension
    reasons = list(rule_errors(cert.weight, cert.mode, cert.prime_bound).values())
    if (cert.seed is None) != (cert.mode == "consecutive"):
        reasons.append(f"seed {cert.seed} does not fit mode {cert.mode!r}")
    if cert.vacuous != (d == 1):
        reasons.append("wrong vacuous flag")
    for kind in sorted(_required(d) - cert.witnesses.keys(), key=lambda t: t.value):
        reasons.append(f"missing witness for kind {kind}")
    if d == 1:
        for kind in (PrimeType.II, PrimeType.III):
            if kind in cert.witnesses:
                reasons.append(f"vacuous certificate carries a kind {kind} witness")
    if dict(cert.trials_total) != _trials_total(cert.witnesses):
        reasons.append("trials_total does not match the witness trials")

    valid: list[tuple[str, PrimeType, Witness]] = []
    for kind, witness in sorted(cert.witnesses.items(), key=lambda kv: kv[0].value):
        where = f"kind {kind} witness {witness.prime}"
        if witness.trial < 1:
            reasons.append(f"{where}: trial {witness.trial} below 1")
        if witness.pattern.size != d:
            reasons.append(f"{where}: {REASON_PATTERN_SIZE} {witness.pattern.size}, expected {d}")
        if witness.prime >= MAX_MODULUS:  # before is_prime, slow on huge numbers
            reasons.append(f"{where}: not below 2^20")
        elif not is_prime(witness.prime):
            reasons.append(f"{where}: composite")
        elif not 2 <= witness.prime < cert.prime_bound:
            reasons.append(f"{where}: outside prime bound {cert.prime_bound}")
        else:
            valid.append((where, kind, witness))

    distinct = list(dict.fromkeys(witness.prime for _, _, witness in valid))
    patterns = {  # None: reduction not squarefree
        p: _pattern_of(matrix, p) for p, matrix in _built(cert.weight, distinct)
    }
    for where, kind, witness in valid:
        pattern = patterns[witness.prime]
        if pattern is None:
            reasons.append(f"{where}: {REASON_NON_SQUAREFREE}")
            continue
        if pattern != witness.pattern:
            reasons.append(f"{where}: {REASON_PATTERN_MISMATCH}")
            continue
        if kind not in classify(pattern, d):
            reasons.append(f"{where}: {REASON_TYPE_MISMATCH}")
    return CheckResult(not reasons, tuple(reasons))


def covered_index(n: int) -> bool:
    """Whether certifying T2 on a weight also settles the operator T_n there.

    True for every index up to 10000, and for every prime that is at most
    4000000 or avoids +-1 modulo 5 or modulo 7.
    """
    if n < 2:
        raise ValueError("indices start at 2")
    if n <= 10_000:
        return True
    if not is_prime(n):
        return False
    return n <= 4_000_000 or n % 5 not in (1, 4) or n % 7 not in (1, 6)
