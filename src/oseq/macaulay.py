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
from collections import namedtuple
from functools import lru_cache

TYPE_CHECKING = False  # typing.TYPE_CHECKING: no module imports typing, which imports re
if TYPE_CHECKING:  # annotations only
    from typing import Sequence

__all__ = [
    "HVector",
    "MacaulayExpansion",
    "ValidityReport",
    "macaulay_expand",
    "pseudopower",
    "is_o_sequence",
]

REASON_BAD_H0 = "bad-h0"
REASON_ZERO_ENTRY = "zero-entry"
REASON_GROWTH = "growth-violation"


def _canonical_fault(entries: Sequence[int]) -> str | None:
    """Why ``entries`` are not in canonical form (h_0 = 1, every entry >= 1), or None.

    REASON_BAD_H0 for an empty sequence or h_0 != 1, else REASON_ZERO_ENTRY
    for an entry below 1. One index and one ``min``, both run in C.
    """
    if not entries or entries[0] != 1:
        return REASON_BAD_H0
    if min(entries) < 1:
        return REASON_ZERO_ENTRY
    return None


class HVector:
    """A candidate sequence (h_0, ..., h_e) in canonical form.

    Canonical form requires h_0 = 1 and every entry positive; the growth
    condition is NOT enforced here, so an HVector may still fail
    ``is_o_sequence``. Zero entries are rejected outright: a zero forces all
    later entries to zero, so canonical sequences simply stop at the last
    positive entry. An HVector holds its entries as a tuple, is immutable,
    and compares and hashes by its entries.
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Sequence[int]) -> None:
        entries = tuple(entries)  # a tuple comes back as the same object
        if fault := _canonical_fault(entries):
            raise ValueError(
                "all entries must be positive" if fault == REASON_ZERO_ENTRY
                else f"h_0 must be 1, got {entries[0]}" if entries
                else "an h-vector has at least the entry h_0 = 1"
            )
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable HVector")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable HVector")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"HVector(entries={self.entries!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return self.__class__, (self.entries,)

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


class MacaulayExpansion(namedtuple("MacaulayExpansion", "degree terms")):
    """The degree-d binomial representation of a positive integer.

    ``terms`` is a sequence of (top_index, degree) pairs with degrees
    running consecutively from ``degree`` down to some j >= 1 and top
    indices strictly decreasing, top_index >= degree for every term.
    """

    __slots__ = ()

    degree: int
    terms: tuple[tuple[int, int], ...]

    def lift(self) -> int:
        """Raise every term by one: sum of C(top_index + 1, degree + 1)."""
        return sum(math.comb(m + 1, k + 1) for m, k in self.terms)


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
        rem -= math.comb(m, k)
        k -= 1
    return MacaulayExpansion(degree=d, terms=tuple(terms))


def _lift(a: int, d: int, enough: int | None = None) -> int:
    """a^<d> for a >= 0 and d >= 1, exact below ``enough`` when that is given.

    Once the remainder r is at most the degree k, the rest is r terms C(k, k)
    lifting to 1 each, so r is added with no search. Every term lifts to at
    least itself (C(m+1, k+1) >= C(m, k) for m >= k), so the loop stops once
    lifted + r reaches ``enough``: the result is exact when a^<d> < enough,
    else in [enough, a^<d>]. No validation, no memo: the census pass asks for
    each exact cap once, and ``is_o_sequence`` one bounded lift per step.
    """
    lifted, rem, k = 0, a, d
    while rem > k and (enough is None or lifted + rem < enough):
        m = _largest_top_index(rem, k)
        lifted += math.comb(m + 1, k + 1)
        rem -= math.comb(m, k)
        k -= 1
    return lifted + rem


@lru_cache(maxsize=None)
def pseudopower(a: int, d: int) -> int:
    """The growth bound a^<d>: the largest admissible next value after a.

    Given h_d = a, Macaulay's condition allows h_{d+1} up to this value.
    Computed by lifting every term of the degree-d expansion of a; by
    convention the pseudopower of 0 is 0 (the expansion is empty).

    The memo serves the one internal caller that asks for the same (a, d)
    again: the prefix walk ``census._prefix_heads``, behind both
    ``census.precritical_prefixes`` and the ``enumerate`` stream,
    ``census._osequence_blocks``. The census pass and ``is_o_sequence``
    call the same computation, ``_lift``, directly, and
    ``bounds.staircase_decompose`` needs no lift.
    """
    if d <= 0:
        raise ValueError(f"pseudopower needs degree d >= 1, got {d}")
    if a < 0:
        raise ValueError(f"pseudopower needs a >= 0, got {a}")
    return _lift(a, d)


class ValidityReport(
    namedtuple("ValidityReport", "valid first_violation reason", defaults=(None, None))
):
    """Outcome of the O-sequence test.

    ``first_violation`` is only set for growth violations and names the
    index i at which h_{i+1} > pseudopower(h_i, i).
    """

    __slots__ = ()

    valid: bool
    first_violation: int | None  # default None
    reason: str | None  # default None


def is_o_sequence(candidate: Sequence[int]) -> ValidityReport:
    """Test whether an arbitrary integer sequence is an O-sequence.

    Valid means: nonempty, h_0 = 1, every entry >= 1, and the growth
    condition h_{i+1} <= pseudopower(h_i, i) holds for 1 <= i <= e - 1.
    All failures are reported, never raised. Each step lifts h_i only until
    the lift reaches h_{i+1}, so a step that does not rise costs no search.
    """
    entries = list(candidate)
    if fault := _canonical_fault(entries):
        return ValidityReport(valid=False, reason=fault)
    for i in range(1, len(entries) - 1):
        if entries[i + 1] > _lift(entries[i], i, entries[i + 1]):
            return ValidityReport(valid=False, first_violation=i, reason=REASON_GROWTH)
    return ValidityReport(valid=True)
