"""Macaulay binomial expansions, pseudopowers, and the growth-condition test.

The growth condition characterizes which positive integer sequences
(h_0, h_1, ..., h_e) occur as Hilbert functions of standard graded artinian
algebras (equivalently, as f-vectors of multicomplexes): h_0 = 1 and, for
every i >= 1, h_{i+1} <= pseudopower(h_i, i). The value of h_1 itself is
unconstrained.

Everything here is exact integer arithmetic; no floats are involved in any
validity decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

__all__ = [
    "HVector",
    "MacaulayExpansion",
    "ValidityReport",
    "binomial",
    "macaulay_expand",
    "pseudopower",
    "is_o_sequence",
]

REASON_BAD_H0 = "bad-h0"
REASON_ZERO_ENTRY = "zero-entry"
REASON_GROWTH = "growth-violation"


def binomial(m: int, k: int) -> int:
    """Exact binomial coefficient C(m, k); zero when k > m."""
    if m < 0 or k < 0:
        raise ValueError("binomial is defined for nonnegative arguments only")
    return math.comb(m, k)


@dataclass(frozen=True)
class HVector:
    """A candidate sequence (h_0, ..., h_e) in canonical form.

    Canonical form requires h_0 = 1 and every entry positive; the growth
    condition is NOT enforced here, so an HVector may still fail
    ``is_o_sequence``. Zero entries are rejected outright: a zero forces all
    later entries to zero, so canonical sequences simply stop at the last
    positive entry.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("an h-vector has at least the entry h_0 = 1")
        if self.entries[0] != 1:
            raise ValueError(f"h_0 must be 1, got {self.entries[0]}")
        if any(h < 1 for h in self.entries):
            raise ValueError("all entries must be positive")

    @property
    def top_degree(self) -> int:
        return len(self.entries) - 1

    @property
    def total(self) -> int:
        """Sum of all entries (the 'length' of the sequence)."""
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


@dataclass(frozen=True)
class MacaulayExpansion:
    """The degree-d binomial representation of a positive integer.

    ``terms`` is a sequence of (top_index, degree) pairs with degrees
    running consecutively from ``degree`` down to some j >= 1 and top
    indices strictly decreasing, top_index >= degree for every term.
    """

    degree: int
    terms: tuple[tuple[int, int], ...]

    def value(self) -> int:
        """Recompose the expanded integer."""
        return sum(binomial(m, k) for m, k in self.terms)

    def lift(self) -> int:
        """Raise every term by one: sum of C(top_index + 1, degree + 1)."""
        return sum(binomial(m + 1, k + 1) for m, k in self.terms)


def _largest_top_index(value: int, k: int) -> int:
    """Largest m with C(m, k) <= value, for value >= 1 and k >= 1."""
    if k == 1:
        return value
    # Gallop up from C(k, k) = 1 until C(m + step, k) > value, then halve the
    # step back down; C(m, k) <= value holds throughout.
    m, step = k, 1
    while math.comb(m + step, k) <= value:
        m += step
        step *= 2
    while step > 1:
        step //= 2
        if math.comb(m + step, k) <= value:
            m += step
    return m


def macaulay_expand(a: int, d: int) -> MacaulayExpansion:
    """Greedy degree-d binomial expansion of a positive integer.

    Picks the largest m with C(m, d) <= a, then recurses on the remainder
    at degree d - 1. The result is the unique representation
    a = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_j, j) with
    a_d > a_{d-1} > ... > a_j >= j >= 1.
    """
    if a <= 0:
        raise ValueError(f"cannot expand a={a}; need a >= 1")
    if d <= 0:
        raise ValueError(f"cannot expand at degree {d}; need d >= 1")
    terms: list[tuple[int, int]] = []
    rem, k = a, d
    while rem > 0:
        m = _largest_top_index(rem, k)
        terms.append((m, k))
        rem -= binomial(m, k)
        k -= 1
    return MacaulayExpansion(degree=d, terms=tuple(terms))


@lru_cache(maxsize=None)
def pseudopower(a: int, d: int) -> int:
    """The growth bound a^<d>: the largest admissible next value after a.

    Given h_d = a, Macaulay's condition allows h_{d+1} up to this value.
    Computed by lifting every term of the degree-d expansion of a. By
    convention the pseudopower of 0 is 0 (the expansion is empty), which
    makes the growth condition truncate sequences after a zero.
    """
    if d <= 0:
        raise ValueError(f"pseudopower needs degree d >= 1, got {d}")
    if a < 0:
        raise ValueError(f"pseudopower needs a >= 0, got {a}")
    if a == 0:
        return 0
    return macaulay_expand(a, d).lift()


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the O-sequence test.

    ``first_violation`` is only set for growth violations and names the
    index i at which h_{i+1} > pseudopower(h_i, i).
    """

    valid: bool
    first_violation: int | None = None
    reason: str | None = None


def is_o_sequence(candidate: Sequence[int]) -> ValidityReport:
    """Test whether an arbitrary integer sequence is an O-sequence.

    Valid means: nonempty, h_0 = 1, every entry >= 1, and the growth
    condition h_{i+1} <= pseudopower(h_i, i) holds for 1 <= i <= e - 1.
    All failures are reported, never raised.
    """
    entries = list(candidate)
    if not entries or entries[0] != 1:
        return ValidityReport(valid=False, reason=REASON_BAD_H0)
    if any(h < 1 for h in entries):
        return ValidityReport(valid=False, reason=REASON_ZERO_ENTRY)
    for i in range(1, len(entries) - 1):
        if entries[i + 1] > pseudopower(entries[i], i):
            return ValidityReport(valid=False, first_violation=i, reason=REASON_GROWTH)
    return ValidityReport(valid=True)
