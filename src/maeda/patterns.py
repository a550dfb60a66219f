"""Multisets of part lengths, shared by polynomial factorizations and permutations.

The factorization pattern of a squarefree polynomial over F_p (degrees of its
irreducible factors, with multiplicities) and the cycle pattern of a
permutation (lengths of its disjoint cycles) have the same shape, and the two
are compared against each other throughout this package.  Both are represented
by :class:`Pattern`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


class PrimeType(Enum):
    """The four kinds of witness prime a squarefree reduction can provide."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Pattern:
    """Canonical multiset of positive part lengths with multiplicities.

    ``parts`` is a tuple of (length, multiplicity) pairs, strictly increasing
    in length, every multiplicity positive.  The empty pattern describes a
    degree-0 polynomial (or the permutation of zero letters).
    """

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 0
        for length, mult in self.parts:
            if length <= last:
                raise ValueError("parts must be strictly increasing in length")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            last = length

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Pattern":
        """Build from (length, multiplicity) pairs, merging repeats."""
        acc: Counter[int] = Counter()
        for length, mult in pairs:
            acc[int(length)] += int(mult)
        return cls(tuple(sorted(acc.items())))

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "Pattern":
        """Build from a plain iterable of part lengths."""
        return cls(tuple(sorted(Counter(int(n) for n in lengths).items())))

    @property
    def size(self) -> int:
        """Total weight: sum of length * multiplicity."""
        return sum(length * mult for length, mult in self.parts)

    def multiplicity(self, length: int) -> int:
        for ln, mult in self.parts:
            if ln == length:
                return mult
        return 0

    def lengths(self) -> Iterator[int]:
        """Distinct part lengths, ascending."""
        return (length for length, _ in self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "()"
        return " ".join(
            f"{length}^{mult}" if mult > 1 else str(length)
            for length, mult in self.parts
        )
