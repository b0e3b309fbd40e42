"""Binomial expansion, pseudopower, and growth validation.

The pseudopower tests cross-check the closed-form machinery against a
brute-force model: monomial order ideals built level by level. That model
is slow but has no shared code with the implementation under test.
"""

from __future__ import annotations

import math
import threading
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oseq.macaulay import (
    REASON_BAD_H0,
    REASON_GROWTH,
    REASON_ZERO_ENTRY,
    HVector,
    MacaulayExpansion,
    _canonical_fault,
    _lift,
    is_o_sequence,
    macaulay_expand,
    pseudopower,
)

# ---------------------------------------------------------------------------
# macaulay_expand


def test_expand_worked_examples():
    assert macaulay_expand(1, 3).terms == ((3, 3),)
    assert macaulay_expand(5, 2).terms == ((3, 2), (2, 1))
    assert macaulay_expand(4, 2).terms == ((3, 2), (1, 1))


def test_expand_rejects_bad_arguments():
    with pytest.raises(ValueError):
        macaulay_expand(0, 3)
    with pytest.raises(ValueError):
        macaulay_expand(-2, 3)
    with pytest.raises(ValueError):
        macaulay_expand(5, 0)


def _assert_well_formed(expansion: MacaulayExpansion) -> None:
    terms = expansion.terms
    assert terms
    degrees = [k for _, k in terms]
    tops = [m for m, _ in terms]
    assert degrees[0] == expansion.degree
    assert degrees == list(range(expansion.degree, degrees[-1] - 1, -1))
    assert degrees[-1] >= 1
    for (m, k) in terms:
        assert m >= k
    for left, right in zip(tops, tops[1:]):
        assert left > right


@given(a=st.integers(min_value=1, max_value=10**6), d=st.integers(min_value=1, max_value=30))
def test_expand_reconstructs_input(a, d):
    expansion = macaulay_expand(a, d)
    _assert_well_formed(expansion)
    assert sum(math.comb(m, k) for m, k in expansion.terms) == a


@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("a", [10**15, 10**40])
def test_expand_huge_values(a, d):
    expansion = macaulay_expand(a, d)
    _assert_well_formed(expansion)
    assert sum(math.comb(m, k) for m, k in expansion.terms) == a
    rem = a
    for m, k in expansion.terms:
        assert math.comb(m, k) <= rem < math.comb(m + 1, k), (m, k)
        rem -= math.comb(m, k)


def all_expansions(d: int, limit: int) -> list[tuple[tuple[int, int], ...]]:
    """Every well-formed expansion at top degree d whose value is <= limit."""
    found: list[tuple[tuple[int, int], ...]] = []

    def rec(k: int, upper: int, terms: tuple[tuple[int, int], ...], val: int) -> None:
        if terms:
            found.append(terms)
        if k < 1:
            return
        m = k
        while m < upper:
            new_val = val + math.comb(m, k)
            if new_val > limit:
                break
            rec(k - 1, m, terms + ((m, k),), new_val)
            m += 1

    rec(d, limit + d + 2, (), 0)
    return found


def test_expansion_unique_and_complete_small():
    """At each degree the valid expansions hit every value exactly once."""
    limit = 300
    for d in range(1, 6):
        seen: dict[int, tuple] = {}
        for terms in all_expansions(d, limit):
            value = sum(math.comb(m, k) for m, k in terms)
            assert value not in seen, (d, value, terms, seen[value])
            seen[value] = terms
        assert set(seen) == set(range(1, limit + 1))
        for a, terms in seen.items():
            assert macaulay_expand(a, d).terms == terms


# ---------------------------------------------------------------------------
# pseudopower, checked against monomial order ideals


def monomials(nvars: int, degree: int):
    return combinations_with_replacement(range(nvars), degree)


def proper_divisors(mono: tuple[int, ...]):
    seen = set()
    for i in range(len(mono)):
        seen.add(mono[:i] + mono[i + 1 :])
    return seen


def max_next_level(a: int, d: int) -> int:
    """Most degree-(d+1) monomials sitting over some a monomials of degree d.

    a variables always suffice to realize the extremal configuration at
    these sizes; the search is over all a-subsets of the degree-d level.
    """
    nvars = a
    level = list(monomials(nvars, d))
    upper = list(monomials(nvars, d + 1))
    best = 0
    for chosen in combinations(level, a):
        chosen_set = set(chosen)
        grown = sum(1 for mono in upper if proper_divisors(mono) <= chosen_set)
        if grown > best:
            best = grown
    return best


def test_pseudopower_examples():
    assert pseudopower(0, 5) == 0
    assert pseudopower(1, 1) == 1
    assert pseudopower(1, 4) == 1
    assert pseudopower(2, 1) == 3
    assert pseudopower(5, 2) == 7


@pytest.mark.parametrize(
    "a,d",
    [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3)],
)
def test_pseudopower_matches_order_ideal_model(a, d):
    assert pseudopower(a, d) == max_next_level(a, d)


def test_pseudopower_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pseudopower(-1, 2)
    with pytest.raises(ValueError):
        pseudopower(3, 0)


@given(a=st.integers(min_value=0, max_value=2000), d=st.integers(min_value=1, max_value=25))
def test_pseudopower_inflationary_and_stable(a, d):
    lifted = pseudopower(a, d)
    assert lifted >= a
    if a <= d:
        assert lifted == a


@given(
    a=st.integers(min_value=0, max_value=2000),
    b=st.integers(min_value=0, max_value=2000),
    d=st.integers(min_value=1, max_value=25),
)
def test_pseudopower_monotone_in_value(a, b, d):
    if a > b:
        a, b = b, a
    assert pseudopower(a, d) <= pseudopower(b, d)


# 1, 100, 101, ..., 10098: an O-sequence whose every step rises, so that
# is_o_sequence searches at each entry; from degree 99 on, h_i = (i + 1) + 98.
RISING = (1,) + tuple(range(100, 10_099))


def test_pseudopower_adds_the_unit_tail_without_a_search(searches):
    # Once the remainder is at most the degree, every further term is C(k, k)
    # and lifts to 1. Counted in searches, not time, so the gate cannot flap.
    pseudopower.cache_clear()
    try:
        assert pseudopower(10**4, 10**4) == 10**4
        assert searches == []
        # Every step rises, so every entry is searched, and from degree 99 on the
        # unit tail of 98 terms is never searched term by term.
        assert is_o_sequence(RISING).valid
        assert len(searches) < 100_000
    finally:
        pseudopower.cache_clear()  # no entry computed through the spy outlives it


def test_is_o_sequence_leaves_the_pseudopower_memo_alone():
    # It asks for each (h_i, i) once, so a memo entry would only be kept, never hit.
    before = pseudopower.cache_info().currsize
    assert is_o_sequence(RISING).valid
    assert pseudopower.cache_info().currsize == before


@pytest.mark.parametrize(
    ("candidate", "lifts"),
    [
        ((1,) + (10**100,) * 800, 0),
        ((1, 3, 4, 4), 1),
        ((1,) + tuple(10**100 + i for i in range(400)), 399),
    ],
)
def test_is_o_sequence_lifts_only_where_a_step_rises(searches, candidate, lifts):
    # a^<i> >= a, so the bounded lift of a step that does not rise stops
    # before its first search, and a long run of huge equal entries costs none.
    # On a rising step of huge entries the first lifted term already passes
    # the next entry, so the lift stops after one search.
    assert is_o_sequence(candidate).valid
    assert len(searches) == lifts


@given(
    a=st.integers(min_value=0, max_value=10**12),
    d=st.integers(min_value=1, max_value=30),
    offset=st.integers(min_value=-2, max_value=2),
    other=st.integers(min_value=1, max_value=10**13),
)
def test_bounded_lift_decides_like_the_exact_lift(a, d, offset, other):
    exact = _lift(a, d)
    for enough in {1, a, a + 1, max(exact + offset, 1), other}:
        bounded = _lift(a, d, enough)
        assert (enough > bounded) == (enough > exact), (a, d, enough)
        assert bounded == exact if exact < enough else enough <= bounded <= exact


@given(a=st.integers(min_value=1, max_value=10**30), d=st.integers(min_value=1, max_value=60))
def test_pseudopower_is_the_lift_of_the_expansion(a, d):
    assert pseudopower(a, d) == macaulay_expand(a, d).lift()


def test_pseudopower_is_the_lift_of_the_expansion_on_small_values():
    for a in range(1, 400):
        for d in range(1, 40):
            assert pseudopower(a, d) == macaulay_expand(a, d).lift(), (a, d)


def test_pseudopower_thread_safety_smoke():
    """Concurrent calls agree with a fresh single-threaded pass."""
    pairs = [(a, d) for a in range(1, 40) for d in (1, 2, 3, 7)]
    expected = {pair: pseudopower(*pair) for pair in pairs}
    results: list[dict] = []

    def worker():
        results.append({pair: pseudopower(*pair) for pair in pairs})

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)


# ---------------------------------------------------------------------------
# HVector and validation


def test_hvector_basic_accessors():
    h = HVector((1, 3, 4, 4))
    assert len(h) == 4
    assert h[2] == 4
    assert h.top_degree == 3
    assert h.total == 12
    assert list(h) == [1, 3, 4, 4]


def test_hvector_rejects_malformed_entries():
    with pytest.raises(ValueError):
        HVector(())
    with pytest.raises(ValueError):
        HVector((2, 1))
    with pytest.raises(ValueError):
        HVector((1, 0, 1))


def test_hvector_built_from_a_list_holds_a_tuple():
    from_list, from_tuple = HVector([1, 2, 2]), HVector((1, 2, 2))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert from_list.entries == (1, 2, 2) and type(from_list.entries) is tuple
    assert repr(from_list) == "HVector(entries=(1, 2, 2))"
    entries = (1, 3, 4, 4)
    assert HVector(entries).entries is entries


def test_canonical_fault_decides_for_hvector_and_is_o_sequence():
    # The one canonical-form predicate: HVector accepts exactly what it
    # passes, and is_o_sequence reports its reason, or a reason of its own
    # (growth) only past it. (1, 1, 2) is canonical but no O-sequence.
    cases = [
        ((), REASON_BAD_H0),
        ((2,), REASON_BAD_H0),
        ((1, 0), REASON_ZERO_ENTRY),
        ((1, 2, 0, 1), REASON_ZERO_ENTRY),
        ((1, 1, 2), None),
        ((1, 3, 4, 4), None),
    ]
    for entries, fault in cases:
        assert _canonical_fault(entries) == fault, entries
        if fault is None:
            assert HVector(entries).entries == entries
            assert is_o_sequence(entries).reason in (None, REASON_GROWTH)
        else:
            with pytest.raises(ValueError):
                HVector(entries)
            assert is_o_sequence(entries).reason == fault


def test_validity_worked_examples():
    assert is_o_sequence((1,)).valid
    assert is_o_sequence((1, 3, 4, 4)).valid

    report = is_o_sequence((1, 1, 2))
    assert not report.valid
    assert report.reason == REASON_GROWTH
    assert report.first_violation == 1

    report = is_o_sequence((2, 1))
    assert not report.valid
    assert report.reason == REASON_BAD_H0

    report = is_o_sequence(())
    assert not report.valid
    assert report.reason == REASON_BAD_H0

    report = is_o_sequence((1, 2, 0, 1))
    assert not report.valid
    assert report.reason == REASON_ZERO_ENTRY


def test_first_violation_is_earliest():
    report = is_o_sequence((1, 2, 4, 9))
    assert not report.valid
    assert report.reason == REASON_GROWTH
    assert report.first_violation == 1


def test_degree_one_growth_is_unconstrained():
    for h1 in range(1, 12):
        assert is_o_sequence((1, h1)).valid


@given(
    h1=st.integers(min_value=1, max_value=9),
    tail=st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=6),
)
def test_nonincreasing_sequences_validate(h1, tail):
    entries = sorted([h1] + tail, reverse=True)
    assert is_o_sequence((1, *entries)).valid


# ---------------------------------------------------------------------------
# validity against the order-ideal model, exhaustively for small totals


def realizable(candidate: tuple[int, ...]) -> bool:
    """Can candidate be the level-size profile of a monomial order ideal?"""
    if not candidate or candidate[0] != 1 or any(h < 1 for h in candidate):
        return False
    if len(candidate) == 1:
        return True
    nvars = candidate[1]
    levels = candidate[2:]

    def extend(prev: set, idx: int) -> bool:
        if idx == len(levels):
            return True
        need = levels[idx]
        allowed = [m for m in monomials(nvars, idx + 2) if proper_divisors(m) <= prev]
        if len(allowed) < need:
            return False
        return any(extend(set(combo), idx + 1) for combo in combinations(allowed, need))

    return extend(set(monomials(nvars, 1)), 0)


def compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_validity_matches_order_ideal_model_exhaustively():
    checked = 0
    for total in range(1, 9):
        for tail in compositions(total - 1):
            candidate = (1, *tail)
            assert is_o_sequence(candidate).valid == realizable(candidate), candidate
            checked += 1
    assert checked == sum(2 ** max(total - 2, 0) for total in range(1, 9))
