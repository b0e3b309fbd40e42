"""Bound verification, critical-index structure, and staircase profiles."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oseq.bounds import (
    BoundsReport,
    StaircaseDecomposition,
    build_bounds_report,
    check_prefix_bound,
    critical_index,
    remark_profile,
    staircase_decompose,
    verify_tail_partition,
)
from oseq.census import CensusTable, build_census, enumerate_osequences
from oseq.cli import main
from oseq.errors import TheoremViolationError
from oseq.macaulay import HVector


def test_critical_index_examples():
    assert critical_index(HVector((1,))) == 1
    assert critical_index(HVector((1, 1, 1))) == 1
    assert critical_index(HVector((1, 3, 2, 1))) == 2
    assert critical_index(HVector((1, 4))) == 2
    assert critical_index(HVector((1, 3, 4, 4))) == 4


def test_tail_and_prefix_examples():
    assert verify_tail_partition(HVector((1, 3, 2, 1)))
    assert verify_tail_partition(HVector((1, 4)))
    assert check_prefix_bound(HVector((1, 4)))  # j = 2 < sqrt(10)
    assert not verify_tail_partition(HVector((1, 1, 2)))


def test_structure_holds_across_small_census(census_counter):
    for n in range(1, 13):
        for h in enumerate_osequences(n, counter=census_counter):
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
    """Greedy result is the one solution; outside the window there is none."""
    for degree in range(1, 13):
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
    assert decomp.value() == value
    assert 0 <= decomp.alpha < degree - decomp.t
    assert 0 <= decomp.t <= degree - 1


def test_remark_profile_worked_example():
    report = remark_profile(HVector((1, 3, 4, 4)))
    assert report.critical_index == 4
    assert report.first_applicable_degree == 2
    by_degree = dict(report.decompositions)
    assert by_degree[1] is None
    assert (by_degree[2].t, by_degree[2].alpha) == (0, 1)
    assert (by_degree[3].t, by_degree[3].alpha) == (0, 0)
    assert report.t_monotone
    assert report.alpha_monotone_within_t_plateaus


def test_remark_profile_empty_window():
    report = remark_profile(HVector((1, 1, 1, 1)))
    assert report.critical_index == 1
    assert report.decompositions == ()
    assert report.first_applicable_degree is None
    assert report.t_monotone
    assert report.alpha_monotone_within_t_plateaus


# ---------------------------------------------------------------------------
# bounds report


def test_bounds_report_small_range(census_table, partition_table):
    report = build_bounds_report(census_table, partition_table)
    assert isinstance(report, BoundsReport)
    assert len(report.records) == 60
    for r in report.records:
        assert r.lower_ok and r.upper_ok
        assert r.lower <= r.count
        assert math.log(r.count) <= r.log_upper + 1e-6 * abs(r.log_upper)
    first = report.records[0]
    assert (first.n, first.count, first.lower) == (1, 1, 1)
    assert first.c1_emp == 0.0
    assert first.c2_emp is None


def test_bounds_envelopes_match_direct_computation(census_table, partition_table):
    report = build_bounds_report(census_table, partition_table)
    c1 = min(math.log(census_table.count(n)) / math.sqrt(n) for n in range(3, 61))
    c2 = max(
        math.log(census_table.count(n)) / (math.sqrt(n) * math.log(n))
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


def test_bounds_payload_shape(capsys):
    assert main(["bounds", "--max-n", "10", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
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
