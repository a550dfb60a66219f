"""Prime sieving and deterministic primality testing."""

from __future__ import annotations

import functools
import math

import numpy as np

# Moduli for numpy arithmetic stay below this cap: a product of two residues
# is below 2^40, so sums of fewer than 2^23 such products fit in int64.
MAX_MODULUS = 1 << 20

# Witnesses proving primality for every n < 3.3 * 10^24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=8)
def sieve_primes(bound: int) -> tuple[int, ...]:
    """All primes strictly below ``bound``, ascending."""
    if bound <= 2:
        return ()
    flags = np.ones(bound, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return tuple(np.flatnonzero(flags).tolist())


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def prime_count(bound: int) -> int:
    """Number of primes strictly below ``bound``."""
    return len(sieve_primes(bound))
