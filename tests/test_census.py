"""Counting and enumerating the sequences with a fixed entry total."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import Counter

import pytest

from oseq.census import (
    CensusCounter,
    CensusTable,
    brute_force_count,
    build_census,
    count_osequences,
    enumerate_osequences,
)
from oseq.cli import main
from oseq.errors import EnumerationCapError, ResourceLimitError
from oseq.macaulay import HVector, is_o_sequence

KNOWN_COUNTS = [1, 1, 2, 3, 5, 8, 12, 18, 27, 40, 57, 82]  # n = 1..12


def compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


def filtered_compositions(n: int) -> list[tuple[int, ...]]:
    out = [
        (1, *tail) for tail in compositions(n - 1) if is_o_sequence((1, *tail)).valid
    ]
    out.sort()
    return out


def test_small_counts():
    assert [count_osequences(n) for n in range(1, 6)] == [1, 1, 2, 3, 5]


def test_known_counts_through_twelve(census_counter):
    assert [census_counter.count(n) for n in range(1, 13)] == KNOWN_COUNTS
    assert census_counter.count(16) == 313


def test_counter_agrees_with_brute_force(census_counter):
    for n in range(1, 13):
        assert census_counter.count(n) == brute_force_count(n), n


def test_prefix_tail_oracle_through_60(census_table):
    # Every O-sequence splits at its critical index j into a prefix
    # (1, h_1, ..., h_{j-1}) with h_i > i and a tail that is any partition of
    # the rest into parts <= j, because x^<d> = x once x <= d. So
    # L(n) = sum over prefixes with entry sum s of P(n - s, parts <= j).
    # This shares no code with the census or Macaulay modules.
    limit = census_table.max_n

    @functools.cache
    def pseudopower(a: int, d: int) -> int:
        total = 0
        while a:
            m = d
            while math.comb(m + 1, d) <= a:
                m += 1
            a -= math.comb(m, d)
            total += math.comb(m + 1, d + 1)
            d -= 1
        return total

    prefixes: Counter[tuple[int, int]] = Counter()  # (s, j) -> number of prefixes
    stack = [(1, 0, 1)]  # (entry sum, top degree k, h_k) of a prefix
    while stack:
        s, k, last = stack.pop()
        prefixes[s, k + 1] += 1
        top = limit - s if k == 0 else min(limit - s, pseudopower(last, k))
        stack.extend((s + h, k + 1, h) for h in range(k + 2, top + 1))

    max_j = max(j for _, j in prefixes)
    bounded = [[1] * (max_j + 1)]  # bounded[r][j] = partitions of r into parts <= j
    for r in range(1, limit + 1):
        row = [0]
        for j in range(1, max_j + 1):
            row.append(row[-1] + (bounded[r - j][j] if r >= j else 0))
        bounded.append(row)

    oracle = [
        sum(c * bounded[n - s][j] for (s, j), c in prefixes.items() if s <= n)
        for n in range(1, limit + 1)
    ]
    assert oracle == [census_table.count(n) for n in range(1, limit + 1)]


def test_count_edge_cases():
    assert count_osequences(0) == 0
    with pytest.raises(ValueError):
        count_osequences(-1)


def test_counter_ceiling():
    counter = CensusCounter(ceiling=200)
    with pytest.raises(ResourceLimitError):
        counter.count(201)
    with pytest.raises(ValueError):
        CensusCounter(ceiling=0)


# Recorded from the memoized recursive counter that preceded the layered DP.
GOLDEN_L_1_TO_200_SHA256 = "c1e94ba988423d137d8f243fa383b88aa5e0fa8de20110f04b72b4feb295f423"
GOLDEN_L = {100: 7130804911, 200: 1975618316572817}


def test_census_goldens_through_200():
    table = build_census(200)
    digits = ",".join(str(table.records[n]) for n in range(1, 201))
    assert hashlib.sha256(digits.encode()).hexdigest() == GOLDEN_L_1_TO_200_SHA256
    for n, value in GOLDEN_L.items():
        assert table.records[n] == value
    counter = CensusCounter()
    for n in (200, 7, 150, 1):
        assert counter.count(n) == table.records[n], n


# Recorded from the layered counter whose tail regime read a separate
# bounded-partition table. Through 300 the top degree changes at 210, 231,
# 253, 276 and 300.
GOLDEN_L_1_TO_300_SHA256 = "ee98270b2cf1ad43012ea3ce28c097388db4d0522e8a3ed564ff4e116e98124d"


def test_census_goldens_through_300():
    table = build_census(300, ceiling=300)
    digits = ",".join(str(table.records[n]) for n in range(1, 301))
    assert hashlib.sha256(digits.encode()).hexdigest() == GOLDEN_L_1_TO_300_SHA256
    assert table.records[300] == 35460060249422695729


def test_top_layer_at_every_boundary():
    # A pass to N starts at the smallest degree D with (D + 1)(D + 2)/2 > N,
    # so the top layer moves at every triangular N: 1, 3, 6, ..., 78 here.
    one_pass = build_census(200)
    for n in range(1, 81):
        assert CensusCounter(ceiling=n).count(n) == one_pass.records[n], n


def test_brute_force_hard_cap():
    with pytest.raises(ResourceLimitError):
        brute_force_count(17)


def test_enumerate_smallest_cases():
    assert [tuple(h) for h in enumerate_osequences(1)] == [(1,)]
    assert [tuple(h) for h in enumerate_osequences(2)] == [(1, 1)]
    assert [tuple(h) for h in enumerate_osequences(4)] == [
        (1, 1, 1, 1),
        (1, 2, 1),
        (1, 3),
    ]


def test_enumerate_yields_hvectors_in_lex_order(census_counter):
    for n in range(1, 11):
        seen = list(enumerate_osequences(n, counter=census_counter))
        assert all(isinstance(h, HVector) for h in seen)
        tuples = [tuple(h) for h in seen]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)
        assert all(sum(t) == n for t in tuples)


def test_enumerate_matches_composition_filter(census_counter):
    for n in range(1, 13):
        expected = filtered_compositions(n)
        got = [tuple(h) for h in enumerate_osequences(n, counter=census_counter)]
        assert got == expected
        assert len(got) == census_counter.count(n)


def test_enumerate_cap_refusal(census_counter):
    with pytest.raises(EnumerationCapError) as excinfo:
        enumerate_osequences(12, cap=10, counter=census_counter)
    err = excinfo.value
    assert err.n == 12
    assert err.count == 82
    assert err.cap == 10
    assert isinstance(err, ResourceLimitError)


def test_enumerate_cap_checked_before_streaming():
    # the refusal happens at call time, not on first iteration
    with pytest.raises(EnumerationCapError):
        enumerate_osequences(10, cap=1)


class _OneSequenceCounter:
    """Reports one sequence of every length, so no census pass runs."""

    def count(self, n: int) -> int:
        return 1


def test_enumerate_has_no_recursion_depth_cliff():
    # The walk is one stack entry per entry of the sequence, not one frame.
    first = next(enumerate_osequences(3000, counter=_OneSequenceCounter()))
    assert first.entries == (1,) * 3000


def test_count_monotone_in_total(census_table):
    for n in range(1, census_table.max_n):
        assert census_table.count(n + 1) >= census_table.count(n)


def test_lower_bound_and_first_strict_excess(census_table, partition_table):
    for n in range(1, 41):
        assert census_table.count(n) >= partition_table.p(n - 1)
    first_strict = next(
        n for n in range(1, 41) if census_table.count(n) > partition_table.p(n - 1)
    )
    assert first_strict == 6
    assert census_table.count(6) == 8
    assert partition_table.p(5) == 7


def test_census_table_shape(census_table):
    assert isinstance(census_table, CensusTable)
    assert census_table.max_n == 60
    assert sorted(census_table.records) == list(range(1, 61))


def test_build_census_without_cache_matches(census_table):
    table = build_census(10)
    assert all(table.count(n) == census_table.count(n) for n in range(1, 11))


# ---------------------------------------------------------------------------
# a census file left by an older version is never read: the census is
# always recounted, whatever OSEQ_CACHE names


def census_csv_with_leftover_cache(capsys, monkeypatch, path, max_n: int) -> str:
    monkeypatch.setenv("OSEQ_CACHE", str(path))
    code = main(["census", "--max-n", str(max_n), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


def expected_csv(max_n: int) -> str:
    return "n,L\n" + "".join(f"{n},{KNOWN_COUNTS[n - 1]}\n" for n in range(1, max_n + 1))


def test_cache_missing_file_is_fine(capsys, monkeypatch, tmp_path):
    path = tmp_path / "absent.json"
    assert census_csv_with_leftover_cache(capsys, monkeypatch, path, 8) == expected_csv(8)
    assert not path.exists()


@pytest.mark.parametrize(
    "text",
    [
        "not json at all {",
        json.dumps([1, 2, 3]),
        json.dumps({"format": "something-else", "version": 1, "values": {}}),
        json.dumps({"format": "oseq-census", "version": 99, "values": {}}),
        json.dumps({"format": "oseq-census", "version": 1, "values": {"3": "two"}}),
        json.dumps({"format": "oseq-census", "version": 1, "values": ["3", "2"]}),
    ],
)
def test_cache_rejects_malformed_content(capsys, monkeypatch, tmp_path, text):
    path = tmp_path / "census.json"
    path.write_text(text, encoding="utf-8")
    assert census_csv_with_leftover_cache(capsys, monkeypatch, path, 12) == expected_csv(12)
    assert path.read_text(encoding="utf-8") == text


def test_build_census_survives_corrupt_cache(capsys, monkeypatch, tmp_path):
    path = tmp_path / "census.json"
    path.write_text("garbage", encoding="utf-8")
    assert census_csv_with_leftover_cache(capsys, monkeypatch, path, 6) == expected_csv(6)
    assert path.read_text(encoding="utf-8") == "garbage"
    table = build_census(6)
    assert [table.count(n) for n in range(1, 7)] == KNOWN_COUNTS[:6]
