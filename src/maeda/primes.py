"""Prime sieving and deterministic primality testing."""

from __future__ import annotations

import functools
import math

import numpy as np

# Moduli for numpy arithmetic stay below this cap: a product of two residues
# is below 2^40, so sums of fewer than 2^23 such products fit in int64, and
# sums of fewer than 2^13 are exact in float64 (see maeda.ffpoly).
MAX_MODULUS = 1 << 20

# Witnesses proving primality for every n < 3.3 * 10^24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The first two alone prove it below this bound, the least strong
# pseudoprime to both bases 2 and 3 (Pomerance, Selfridge & Wagstaff, 1980):
# every modulus below MAX_MODULUS takes two tests instead of twelve
_MR_TWO_BASES_BOUND = 1_373_653


@functools.lru_cache(maxsize=8)
def sieve_primes(bound: int) -> np.ndarray:
    """All primes strictly below ``bound``, ascending, as a read-only int32 array.

    int32 holds every prime below 2^31, so a larger ``bound`` is refused with
    ValueError before anything is allocated.  The array is cached and shared,
    hence read-only.  Its elements are numpy int32, whose products and sums
    wrap: take ``int(primes[i])`` or ``primes.tolist()`` before any
    arithmetic, and wherever Python ints are needed (certificates,
    Fractions, float sums).
    """
    if bound > 1 << 31:
        raise ValueError(f"sieve bound {bound} above 2^31")
    if bound <= 2:
        primes = np.empty(0, dtype=np.int32)
    else:
        # odd numbers only: odd[i] stands for 2i + 1, and the odd multiples
        # of p from p^2 on are every p-th entry from p^2 // 2
        odd = np.ones(bound // 2, dtype=bool)
        odd[0] = False
        for i in range(1, (math.isqrt(bound - 1) + 1) // 2):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = False
        index = np.flatnonzero(odd)
        del odd
        # 2i + 1 written straight into the result: no temporary array
        primes = np.empty(len(index) + 1, dtype=np.int32)
        primes[0] = 2
        np.multiply(index, 2, out=primes[1:], casting="unsafe")
        del index
        primes[1:] += 1
    primes.flags.writeable = False
    return primes


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:  # trial division by the bases first
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:2] if n < _MR_TWO_BASES_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime below :data:`MAX_MODULUS`."""
    if not 2 <= p < MAX_MODULUS:
        raise ValueError(f"modulus must satisfy 2 <= p < 2^20, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
