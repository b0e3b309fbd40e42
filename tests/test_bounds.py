"""Bound verification, critical-index structure, and staircase profiles."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oseq.bounds
from oseq.bounds import (
    BoundsReport,
    StaircaseDecomposition,
    _staircase_step_holds,
    _staircase_sum,
    build_bounds_report,
    check_prefix_bound,
    critical_index,
    remark_profile,
    staircase_decompose,
    verify_tail_partition,
)
from oseq.census import CensusTable, enumerate_osequences
from oseq.cli import main
from oseq.errors import TheoremViolationError
from oseq.macaulay import HVector, pseudopower


def refuse_constant(name: str):
    """Fails a parse on NaN, Infinity or -Infinity, which json.loads accepts by default."""
    raise ValueError(f"non-finite JSON number {name}")


def test_critical_index_examples():
    assert critical_index(HVector((1,))) == 1
    assert critical_index(HVector((1, 1, 1))) == 1
    assert critical_index(HVector((1, 3, 2, 1))) == 2
    assert critical_index(HVector((1, 4))) == 2
    assert critical_index(HVector((1, 3, 4, 4))) == 4
    assert critical_index((1, 3, 2, 1)) == critical_index(HVector((1, 3, 2, 1))) == 2
    assert critical_index((1, 3, 4, 4)) == critical_index(HVector((1, 3, 4, 4))) == 4


def test_tail_and_prefix_examples():
    assert verify_tail_partition(HVector((1, 3, 2, 1)))
    assert verify_tail_partition(HVector((1, 4)))
    assert check_prefix_bound(HVector((1, 4)))  # j = 2 < sqrt(10)
    assert not verify_tail_partition(HVector((1, 1, 2)))


def test_structure_holds_across_small_census():
    for n in range(1, 13):
        for h in enumerate_osequences(n):
            assert verify_tail_partition(h), tuple(h)
            assert check_prefix_bound(h), tuple(h)


# ---------------------------------------------------------------------------
# staircase decomposition


def staircase_pairs(value: int, degree: int) -> list[tuple[int, int]]:
    """All (t, alpha) with value = (degree+1) + ... + (degree+1-t) + alpha."""
    pairs = []
    for t in range(degree):
        base = sum(range(degree + 1 - t, degree + 2))
        alpha = value - base
        if 0 <= alpha < degree - t:
            pairs.append((t, alpha))
    return pairs


def test_staircase_examples():
    assert staircase_decompose(7, 3) == StaircaseDecomposition(degree=3, t=1, alpha=0)
    assert staircase_decompose(6, 3) == StaircaseDecomposition(degree=3, t=0, alpha=2)
    assert staircase_decompose(9, 3) == StaircaseDecomposition(degree=3, t=2, alpha=0)
    assert staircase_decompose(3, 3) is None
    assert staircase_decompose(10, 3) is None
    assert staircase_decompose(4, 1) is None
    assert staircase_decompose(2, 1) == StaircaseDecomposition(degree=1, t=0, alpha=0)


def test_staircase_window_boundaries():
    for degree in range(1, 20):
        low = degree + 1
        high = (degree + 1) * (degree + 2) // 2 - 1
        assert staircase_decompose(low - 1, degree) is None
        assert staircase_decompose(high + 1, degree) is None
        assert staircase_decompose(low, degree) is not None
        assert staircase_decompose(high, degree) is not None


def test_staircase_matches_exhaustive_search():
    """The lifted pair is the one solution; outside the window there is none."""
    for degree in range(1, 30):
        top = (degree + 1) * (degree + 2) // 2 + 3
        for value in range(1, top + 1):
            pairs = staircase_pairs(value, degree)
            assert len(pairs) <= 1, (value, degree, pairs)
            decomp = staircase_decompose(value, degree)
            if pairs:
                assert decomp is not None
                assert (decomp.t, decomp.alpha) == pairs[0]
            else:
                assert decomp is None


@given(
    degree=st.integers(min_value=1, max_value=50),
    offset=st.integers(min_value=0, max_value=10**4),
)
def test_staircase_recomposes_in_range(degree, offset):
    low = degree + 1
    high = (degree + 1) * (degree + 2) // 2 - 1
    value = low + offset % (high - low + 1)
    decomp = staircase_decompose(value, degree)
    assert decomp is not None
    assert sum(range(degree - decomp.t + 1, degree + 2)) + decomp.alpha == value
    assert 0 <= decomp.alpha < degree - decomp.t
    assert 0 <= decomp.t <= degree - 1


def window_lemma_pairs(max_degree: int) -> int:
    """Check the window lemma for every x in the window at degree i <= max_degree.

    Every pre-critical next entry y (i + 2 <= y <= x^<i>) must follow x by
    ``_staircase_step_holds``; returns the number of (x, y) pairs checked.
    """
    pairs = 0
    for i in range(1, max_degree + 1):
        for x in range(i + 1, (i + 1) * (i + 2) // 2):
            previous = staircase_decompose(x, i)
            assert previous is not None, (x, i)
            for y in range(i + 2, pseudopower(x, i) + 1):
                assert _staircase_step_holds(previous, staircase_decompose(y, i + 1)), (x, y, i)
                pairs += 1
    return pairs


def test_window_lemma_holds_exhaustively_to_degree_25():
    assert window_lemma_pairs(25) == 315_315


def test_staircase_step_holds_examples():
    d = StaircaseDecomposition
    assert _staircase_step_holds(None, None)
    assert _staircase_step_holds(None, d(degree=2, t=1, alpha=0))
    assert _staircase_step_holds(d(degree=2, t=1, alpha=0), d(degree=3, t=1, alpha=0))
    assert _staircase_step_holds(d(degree=2, t=1, alpha=0), d(degree=3, t=0, alpha=2))
    assert not _staircase_step_holds(d(degree=2, t=1, alpha=0), None)
    assert not _staircase_step_holds(d(degree=2, t=0, alpha=1), d(degree=3, t=1, alpha=0))
    assert not _staircase_step_holds(d(degree=3, t=1, alpha=0), d(degree=4, t=1, alpha=1))


@pytest.mark.parametrize(
    ("name", "mutant"),
    [
        ("_staircase_sum", lambda degree, t: _staircase_sum(degree, t) + 1),
        ("_staircase_sum", lambda degree, t: _staircase_sum(degree, t) - 1),
        ("isqrt", lambda n: math.isqrt(n) + 1),
        ("isqrt", lambda n: math.isqrt(n) - 1),
        ("isqrt", lambda n: math.isqrt(n) + 2),
        ("isqrt", lambda n: math.isqrt(n) - 2),
    ],
    ids=["sum+1", "sum-1", "isqrt+1", "isqrt-1", "isqrt+2", "isqrt-2"],
)
def test_window_lemma_check_catches_an_off_by_one(monkeypatch, name, mutant):
    # the isqrt mutants move t in staircase_decompose's closed form only; the
    # check reads the true x^<i> for its range of y
    monkeypatch.setattr(oseq.bounds, name, mutant)
    with pytest.raises(AssertionError):
        window_lemma_pairs(25)


def test_staircase_closed_form_is_the_largest_t_below_the_value():
    # t is the largest t <= d - 1 with S(d, t) <= v, found here by a linear search
    for degree in range(1, 61):
        for value in range(degree + 1, (degree + 1) * (degree + 2) // 2):
            t = max(t for t in range(degree) if _staircase_sum(degree, t) <= value)
            expected = StaircaseDecomposition(degree, t, value - _staircase_sum(degree, t))
            assert staircase_decompose(value, degree) == expected, (value, degree)
        assert staircase_decompose(degree, degree) is None
        assert staircase_decompose((degree + 1) * (degree + 2) // 2, degree) is None
    assert staircase_decompose(10**100, 10**6) is None


def test_remark_profile_worked_example():
    report = remark_profile(HVector((1, 3, 4, 4)))
    assert report.critical_index == 4
    assert report.first_applicable_degree == 2
    by_degree = dict(report.decompositions)
    assert by_degree[1] is None
    assert (by_degree[2].t, by_degree[2].alpha) == (0, 1)
    assert (by_degree[3].t, by_degree[3].alpha) == (0, 0)


def test_remark_profile_refuses_a_non_o_sequence():
    # (1, 3, 3, 10) is canonical, but 10 > 3^<2> = 4: bad input, not a theorem violation
    with pytest.raises(ValueError) as excinfo:
        remark_profile(HVector((1, 3, 3, 10)))
    assert str(excinfo.value) == "1,3,3,10 is not an O-sequence: growth-violation at index 2"


@pytest.mark.parametrize(
    ("entries", "most"),
    [(tuple(10**100 + i for i in range(400)), 400), ((10**100,) * 400, 0)],
    ids=["rising", "flat"],
)
def test_remark_profile_on_huge_entries_searches_at_most_once_per_step(searches, entries, most):
    # The staircase is a closed form that returns None above its window, and
    # the growth test's bounded lift stops after one search on a rising step
    # and before any on a flat one.
    report = remark_profile(HVector((1,) + entries))
    assert report.critical_index == 401
    assert report.first_applicable_degree is None
    assert len(searches) <= most


def test_remark_profile_empty_window():
    report = remark_profile(HVector((1, 1, 1, 1)))
    assert report.critical_index == 1
    assert report.decompositions == ()
    assert report.first_applicable_degree is None


# ---------------------------------------------------------------------------
# bounds report


def test_bounds_report_small_range(census_table, partition_table):
    report = build_bounds_report(census_table, partition_table)
    assert isinstance(report, BoundsReport)
    assert len(report.records) == 60
    for r in report.records:
        assert r.lower <= r.count
        j_max = math.isqrt(2 * r.n - 1)
        upper = j_max * r.n ** (j_max - 1) * partition_table.p_values[r.n]
        assert r.count <= upper
        assert math.log(upper) <= r.log_upper  # J <= sqrt(2n): it implies the printed bound
    first = report.records[0]
    assert (first.n, first.count, first.lower) == (1, 1, 1)
    assert first.c1_emp == 0.0
    assert first.c2_emp is None


def test_bounds_envelopes_match_direct_computation(census_table, partition_table):
    report = build_bounds_report(census_table, partition_table)
    c1 = min(math.log(census_table.records[n]) / math.sqrt(n) for n in range(3, 61))
    c2 = max(
        math.log(census_table.records[n]) / (math.sqrt(n) * math.log(n))
        for n in range(3, 61)
    )
    assert report.c1_min == pytest.approx(c1, rel=1e-12)
    assert report.c2_max == pytest.approx(c2, rel=1e-12)
    assert report.c1_min > 0.0
    assert report.c2_max > 0.0


def test_bounds_report_rejects_planted_violation(partition_table):
    fake = CensusTable(records={1: 1, 2: 1, 3: 1}, max_n=3)
    with pytest.raises(TheoremViolationError, match="n=3"):
        build_bounds_report(fake, partition_table)


def test_bounds_report_rejects_planted_upper_violation(partition_table):
    fake = CensusTable(records={1: 1, 2: 10**10}, max_n=2)
    with pytest.raises(TheoremViolationError) as excinfo:
        build_bounds_report(fake, partition_table)
    assert str(excinfo.value) == (
        "upper bound L(n) <= J * n^(J-1) * p(n) failed at n=2, J=1: 10000000000 > 2"
    )


def test_bounds_report_upper_bound_is_exact(partition_table):
    # At n = 2, J = 1 and the bound is p(2) = 2, while the printed log bound
    # is ln 2 + ln 2 + 2 ln 2 = 2.77: a float check cannot tell 2 from 3.
    at_bound = build_bounds_report(CensusTable(records={1: 1, 2: 2}, max_n=2), partition_table)
    assert [r.count for r in at_bound.records] == [1, 2]
    assert math.log(3) < at_bound.records[1].log_upper
    with pytest.raises(TheoremViolationError) as excinfo:
        build_bounds_report(CensusTable(records={1: 1, 2: 3}, max_n=2), partition_table)
    assert str(excinfo.value) == "upper bound L(n) <= J * n^(J-1) * p(n) failed at n=2, J=1: 3 > 2"


def test_bounds_payload_shape(capsys):
    assert main(["bounds", "--max-n", "10", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
    assert payload["max_n"] == 10
    assert len(payload["records"]) == 10
    rec = payload["records"][4]
    assert rec["n"] == 5
    assert rec["L"] == "5"
    assert rec["p_lower"] == "5"
    assert isinstance(rec["log_upper"], float)
    assert rec["lower_ok"] is True and rec["upper_ok"] is True
    assert payload["records"][0]["c2_emp"] is None


def test_bounds_csv_shape(capsys):
    assert main(["bounds", "--max-n", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,L,p_lower,log_upper,c1_emp,c2_emp"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1" and first[2] == "1"
    assert first[5] == ""  # c2 undefined at n = 1
    assert float(lines[4].split(",")[3]) > 0
