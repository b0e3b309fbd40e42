"""Counting and enumerating the sequences with a fixed entry total."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import oseq.census
import oseq.macaulay
from oseq.bounds import build_bounds_report, staircase_decompose
from oseq.census import (
    _MAX_CENSUS_CEILING,
    CensusCounter,
    CensusTable,
    _fold_tails,
    _one_tuple,
    _osequence_blocks,
    _tails,
    build_census,
    count_osequences,
    enumerate_osequences,
    precritical_prefixes,
)
from oseq.cli import _SEQUENCE_ROW, main
from oseq.errors import EnumerationCapError, ResourceLimitError, TheoremViolationError
from oseq.macaulay import HVector, is_o_sequence, pseudopower
from oseq.partitions import build_partition_table

KNOWN_COUNTS = [1, 1, 2, 3, 5, 8, 12, 18, 27, 40, 57, 82]  # n = 1..12
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
README_PATH = SRC_DIR.parent / "README.md"


def test_small_counts():
    assert [count_osequences(n) for n in range(1, 6)] == [1, 1, 2, 3, 5]


def test_known_counts_through_twelve():
    assert [count_osequences(n) for n in range(1, 13)] == KNOWN_COUNTS
    assert count_osequences(16) == 313


def test_counter_agrees_with_brute_force(filtered_compositions):
    for n in range(1, 13):
        assert count_osequences(n) == len(filtered_compositions[n]), n


@functools.cache
def linear_lift(a: int, d: int) -> int:
    """a^<d> by the greedy expansion, each top index found by a linear search."""
    total = 0
    while a:
        m = d
        while math.comb(m + 1, d) <= a:
            m += 1
        a -= math.comb(m, d)
        total += math.comb(m + 1, d + 1)
        d -= 1
    return total


def test_prefix_tail_oracle_through_60(census_table):
    # Every O-sequence splits at its critical index j into a prefix
    # (1, h_1, ..., h_{j-1}) with h_i > i and a tail that is any partition of
    # the rest into parts <= j, because x^<d> = x once x <= d. So
    # L(n) = sum over prefixes with entry sum s of P(n - s, parts <= j).
    # This shares no code with the census or Macaulay modules.
    limit = census_table.max_n
    prefixes: Counter[tuple[int, int]] = Counter()  # (s, j) -> number of prefixes
    stack = [(1, 0, 1)]  # (entry sum, top degree k, h_k) of a prefix
    while stack:
        s, k, last = stack.pop()
        prefixes[s, k + 1] += 1
        top = limit - s if k == 0 else min(limit - s, linear_lift(last, k))
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
    assert oracle == [census_table.records[n] for n in range(1, limit + 1)]


def test_count_edge_cases():
    assert count_osequences(0) == 0
    with pytest.raises(ValueError):
        count_osequences(-1)


def no_pass(*args, **kwargs):
    """Stands in for a pass that a refusal must come before."""
    raise AssertionError("a pass started before the refusal")


def test_counter_ceiling(monkeypatch):
    # The maximum itself is counted and one more is refused, before any pass.
    passes = []
    monkeypatch.setattr(oseq.census, "_prefix_rows", lambda limit: passes.append(limit) or [])
    assert CensusCounter().count(_MAX_CENSUS_CEILING) == 0  # no prefix rows, no sequence
    assert passes == [_MAX_CENSUS_CEILING]
    monkeypatch.setattr(oseq.census, "_prefix_rows", no_pass)
    with pytest.raises(ResourceLimitError) as excinfo:
        CensusCounter().count(_MAX_CENSUS_CEILING + 1)
    assert str(excinfo.value) == "census length 6001 exceeds the maximum 6000"


def test_counter_hard_maximum(monkeypatch):
    # the census-to-2000 fixture needs at least 2000
    assert _MAX_CENSUS_CEILING >= 2000
    monkeypatch.setattr(oseq.census, "_prefix_rows", no_pass)
    for refused in (count_osequences, build_census, enumerate_osequences):
        with pytest.raises(ResourceLimitError, match="exceeds the maximum"):
            refused(_MAX_CENSUS_CEILING + 1)


def partitions_with_parts_at_most(n: int, j: int) -> int:
    """Brute force: list every partition of n into parts <= j."""
    if n == 0:
        return 1
    return sum(partitions_with_parts_at_most(n - part, part) for part in range(1, min(n, j) + 1))


@pytest.mark.parametrize("j", range(1, 9))
@pytest.mark.parametrize("s", [0, 4])
def test_fold_tails_completes_a_prefix_by_bounded_partitions(j, s):
    # N_j = x^s alone folds to the partitions of n - s into parts <= j. With
    # s = 0 every row spans the full width (the sweep's shape); otherwise the
    # rows are shorter and right-aligned, the first one empty (the census's).
    limit = 30
    if s == 0:
        rows = [[0] * (limit + 1) for _ in range(j - 1)] + [[1] + [0] * limit]
    else:
        rows = [[0] * i for i in range(j - 1)] + [[1] + [0] * (limit - s)]
    expected = [partitions_with_parts_at_most(n - s, j) if n >= s else 0 for n in range(limit + 1)]
    assert _fold_tails(rows, limit) == expected


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
# Recorded from the two-layer counter, before any replacement of it.
GOLDEN_L_1_TO_500_SHA256 = "7141d99e9c25ec20873dadfe4f8d22601a5d38fde14e9b5626674f972494b03d"
GOLDEN_L_1_TO_1000_SHA256 = "ce6572dde312e5d5f2ff5fc5d920df29852c69d1576c2df8e295a2b5ee2cbc79"
GOLDEN_L_1_TO_2000_SHA256 = "0edc27de19851bdb2bd890220737cb89ebbf95ddb98122188d1a89467d6861be"


@pytest.fixture(scope="module")
def census_to_2000():
    return build_census(2000)


def digest(table: CensusTable, max_n: int) -> str:
    digits = ",".join(str(table.records[n]) for n in range(1, max_n + 1))
    return hashlib.sha256(digits.encode()).hexdigest()


def test_census_goldens_through_300(census_to_2000):
    # One pass to 2000 checks every digest: the first values must not
    # depend on the limit of the pass that computed them.
    assert digest(census_to_2000, 300) == GOLDEN_L_1_TO_300_SHA256
    assert census_to_2000.records[300] == 35460060249422695729
    assert digest(census_to_2000, 500) == GOLDEN_L_1_TO_500_SHA256
    assert census_to_2000.records[500] == 235658810137767994036933820
    assert digest(census_to_2000, 1000) == GOLDEN_L_1_TO_1000_SHA256
    assert census_to_2000.records[1000] == 1096158383517729784038720034067846959294
    assert digest(census_to_2000, 2000) == GOLDEN_L_1_TO_2000_SHA256
    assert census_to_2000.records[2000] == (
        1214559288682243409115349935196359212780994640503288898009
    )


def growth_layer_oracle(limit: int) -> list[int]:
    """L(0..limit) by the growth condition at every degree, tail included.

    Layer i maps each last entry h = h_i to its row: row[s] counts the
    sequences (1, h_1, ..., h_i) with entry sum s. The caps h^<i> do not
    fall as h rises, so walking the entries from the largest down, the next
    entries y in (cap of the next smaller entry, cap of h] follow exactly
    the entries >= h, and take the sum of their rows shifted right by y.
    Unlike the census pass, this assumes nothing about a free tail.
    """
    counts = [0] * (limit + 1)
    counts[1] = 1  # the sequence (1)
    layer = {h: [0] * (1 + h) + [1] + [0] * (limit - 1 - h) for h in range(1, limit)}
    degree = 1
    while layer:
        following: dict[int, list[int]] = {}
        above = [0] * (limit + 1)  # the sum of the rows of the entries >= h
        present = sorted(layer, reverse=True)
        for h, smaller in itertools.zip_longest(present, present[1:]):
            above = list(map(operator.add, above, layer[h]))
            first = next(s for s, ways in enumerate(above) if ways)
            low = linear_lift(smaller, degree) if smaller else 0
            for y in range(low + 1, min(linear_lift(h, degree), limit - first) + 1):
                following[y] = [0] * y + above[: limit + 1 - y]
        counts = list(map(operator.add, counts, above))  # every row of the layer
        layer = following
        degree += 1
    return counts


def test_growth_layer_oracle_through_600(census_to_2000):
    # Checks the free-tail theorem and the census pass together: no split.
    assert growth_layer_oracle(600)[1:] == [census_to_2000.records[n] for n in range(1, 601)]


def ladder_width(need: int) -> int:
    """The smallest of 1, 2, 3, 4, 6, 8, 12, 16, 24, ... bytes that is >= need."""
    width = 1
    while width < need:
        width += max(1, width // 2) if width & (width - 1) == 0 else width // 3
    return width


def repack(row: int, length: int, old: int, new: int) -> int:
    """A packed row of ``length`` fields, moved from ``old`` to ``new`` bytes a field."""
    source = row.to_bytes(length * old, "little")
    target = bytearray(length * new)
    for k in range(min(old, new)):  # narrowing drops only zero bytes: new is wide enough
        target[k::new] = source[k::old]
    return int.from_bytes(target, "little")


def packed_growth_layer_oracle(limit: int) -> list[int]:
    """L(0..limit) by growth_layer_oracle's walk, with each row one int.

    A row is packed with ``width`` bytes a field, little-endian: field k,
    bytes [k * width, (k + 1) * width), counts the sum limit - k. Rows are
    thus right-aligned at the limit, so a sum of rows adds them as ints, and
    shifting a row right by y fields adds y to every entry sum and drops the
    sums past the limit. A row keeps its length beside it: one more than the
    index of its top field, which is never zero.

    A carry between fields cannot be seen afterwards, so the width is
    proven, not guessed. Each row of layer i + 1 is a snapshot of layer i's
    running sum, which only grows, so no field of layer i + 1's running sum
    exceeds (rows of layer i + 1) * (largest field of layer i's final sum).
    The width is that bound's byte count, taken from the ladder, and the
    rows are re-packed whenever it changes. Nothing is shared with oseq: the
    lift is the linear search above, and the packing is this test's own.
    """
    counts = [0] * (limit + 1)
    counts[1] = 1  # the sequence (1): layer 0, whose one field is 1
    width = ladder_width((1 + (limit - 1).bit_length() + 7) // 8)  # and layer 1 has limit - 1 rows
    layer = {h: (1 << 8 * width * (limit - 1 - h), limit - h) for h in range(1, limit)}
    degree = 1
    while layer:
        following: dict[int, tuple[int, int]] = {}
        above, length = 0, 0  # the sum of the rows of the entries >= h, and its length
        present = sorted(layer, reverse=True)
        for h, smaller in itertools.zip_longest(present, present[1:]):
            row, row_length = layer[h]
            above += row
            length = max(length, row_length)
            low = linear_lift(smaller, degree) if smaller else 0
            # field length - 1 holds the smallest sum, limit - (length - 1), so y <= length - 1
            for y in range(low + 1, min(linear_lift(h, degree), length - 1) + 1):
                following[y] = (above >> 8 * width * y, length - y)
        fields = above.to_bytes(length * width, "little")
        starts = range(0, len(fields), width)
        ways = [int.from_bytes(fields[k : k + width], "little") for k in starts]
        for k, count in enumerate(ways):  # every row of the layer
            counts[limit - k] += count
        need = (max(ways).bit_length() + len(following).bit_length() + 7) // 8
        if ladder_width(need) != width:
            old, width = width, ladder_width(need)
            following = {y: (repack(row, n, old, width), n) for y, (row, n) in following.items()}
        layer = following
        degree += 1
    return counts


def test_packed_growth_layer_oracle_through_2000():
    # The split-free oracle over the pinned range, which the list oracle is
    # too slow to reach; at small limits it must equal the list oracle.
    for limit in (2, 3, 10, 60):
        assert packed_growth_layer_oracle(limit) == growth_layer_oracle(limit), limit
    digits = ",".join(map(str, packed_growth_layer_oracle(2000)[1:]))
    assert hashlib.sha256(digits.encode()).hexdigest() == GOLDEN_L_1_TO_2000_SHA256


def test_pass_prunes_against_its_own_limit(census_to_2000):
    # A pass to N stops its prefix rows at sum N, so a pass to n must agree
    # with the pinned pass wherever the two cut differently: every small n,
    # around the triangular totals where the number of prefix lengths
    # changes, and just below 1000.
    assert digest(census_to_2000, 1000) == GOLDEN_L_1_TO_1000_SHA256
    around_triangular = [t + step for t in (210, 300, 406) for step in (-1, 0, 1)]
    for n in [*range(1, 121), *around_triangular, 999]:
        assert CensusCounter().count(n) == census_to_2000.records[n], n


def test_readme_growth_table_matches_the_bounds_report(census_to_2000):
    # the README's ln L(n)/sqrt(n) and ln L(n)/(sqrt(n) ln n) rows, as printed to 3 places
    report = build_bounds_report(census_to_2000, build_partition_table(2000))
    rows = re.findall(r"^\| (\d+) \| (\d+\.\d{3}) \| (\d+\.\d{3}) \|$", README_PATH.read_text(), re.M)
    assert [int(n) for n, _, _ in rows] == [200, 500, 1000, 2000]
    for n, c1, c2 in rows:
        record = report.records[int(n) - 1]
        assert (c1, c2) == (f"{record.c1_emp:.3f}", f"{record.c2_emp:.3f}"), n


def test_census_pass_does_not_use_the_pseudopower_memo():
    # the pass asks for each cap once, so the memo would only grow
    for count in (count_osequences, build_census):
        pseudopower.cache_clear()
        count(300)
        info = pseudopower.cache_info()
        assert (info.hits, info.misses) == (0, 0), count.__name__


def test_census_pass_lifts_through_the_one_lift(monkeypatch, census_to_2000):
    # the caps come from macaulay._lift, the loop behind pseudopower, and
    # the expansion records are never built
    calls = []

    def lift(a, d):
        calls.append((a, d))
        return oseq.macaulay._lift(a, d)

    def refuse(a, d):
        raise AssertionError("the census pass built an expansion")

    monkeypatch.setattr(oseq.census, "_lift", lift)
    monkeypatch.setattr(oseq.macaulay, "macaulay_expand", refuse)
    assert CensusCounter().count(60) == census_to_2000.records[60]
    assert calls and all(a > d >= 1 for a, d in calls)


def test_count_osequences_admits_1001(census_to_2000):
    # no setting is needed past 1000: the one limit is the census maximum
    assert count_osequences(1001) == census_to_2000.records[1001]


def test_top_layer_at_every_boundary():
    # (1, 2, ..., j) is the least prefix of length j, so the number of prefix
    # lengths a pass to N counts changes at every triangular N: 1, 3, 6, ...,
    # 78 here.
    one_pass = build_census(200)
    for n in range(1, 81):
        assert CensusCounter().count(n) == one_pass.records[n], n


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: next(precritical_prefixes(0)), StopIteration),
        # enumerate refuses at call time, before anything is iterated
        (lambda: enumerate_osequences(0), ValueError),
        (lambda: enumerate_osequences(3, cap=0), ValueError),
        (lambda: build_census(0), ValueError),
        (lambda: staircase_decompose(5, 0), ValueError),
        (lambda: build_bounds_report(CensusTable({}, 0), build_partition_table(3)), ValueError),
    ],
    ids=[
        "precritical_prefixes",
        "enumerate_n",
        "enumerate_cap",
        "build_census",
        "staircase_degree",
        "build_bounds_report",
    ],
)
def test_guards_on_empty_ranges(call, error):
    with pytest.raises(error):
        call()


def test_enumerate_smallest_cases():
    assert [tuple(h) for h in enumerate_osequences(1)] == [(1,)]
    assert [tuple(h) for h in enumerate_osequences(2)] == [(1, 1)]
    assert [tuple(h) for h in enumerate_osequences(4)] == [
        (1, 1, 1, 1),
        (1, 2, 1),
        (1, 3),
    ]


def test_enumerate_yields_hvectors_in_lex_order():
    # Sorted, unique, valid and as many as the census counts: the exact set,
    # across every boundary between one prefix's tails and the next prefix.
    for n in range(1, 25):
        seen = list(enumerate_osequences(n))
        assert all(isinstance(h, HVector) for h in seen)
        tuples = [tuple(h) for h in seen]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)
        assert len(seen) == count_osequences(n)
        assert all(sum(t) == n for t in tuples)
        assert all(is_o_sequence(t).valid for t in tuples)


def test_enumerate_matches_composition_filter(filtered_compositions):
    for n in range(1, 13):
        expected = filtered_compositions[n]
        got = [tuple(h) for h in enumerate_osequences(n)]
        assert got == expected
        assert len(got) == count_osequences(n)


def test_enumerate_cap_refusal():
    with pytest.raises(EnumerationCapError) as excinfo:
        enumerate_osequences(12, cap=10)
    err = excinfo.value
    assert err.n == 12
    assert err.count == 82
    assert err.cap == 10
    assert str(err) == "L(12) = 82 exceeds the streaming cap 10"
    assert isinstance(err, ResourceLimitError)


def test_enumerate_cap_checked_before_streaming():
    # the refusal happens at call time, not on first iteration
    with pytest.raises(EnumerationCapError):
        enumerate_osequences(10, cap=1)


def test_enumerate_has_no_recursion_depth_cliff(monkeypatch):
    # The walk is one stack entry per entry of the sequence, not one frame.
    # The counter reports one sequence of every length, so no census pass runs.
    monkeypatch.setattr(CensusCounter, "count", lambda self, n: 1)
    first = next(enumerate_osequences(3000))
    assert first.entries == (1,) * 3000


def test_tails_are_the_bounded_partitions_in_lex_order():
    # Oracle: every nonincreasing tuple of parts in 2..j (itertools lists
    # them), padded with 1s up to each total m, sorted.
    limit = 20
    for j in range(1, 9):
        oracle = {m: [] for m in range(limit + 1)}
        for r in range(limit // 2 + 1):
            for big in itertools.combinations_with_replacement(range(j, 1, -1), r):
                for m in range(sum(big), limit + 1):
                    oracle[m].append(big + (1,) * (m - sum(big)))
        for m in range(limit + 1):
            assert _tails(m, j, _one_tuple, ()) == sorted(oracle[m]), (m, j)
    assert _tails(0, 3, _one_tuple, ()) == [()]
    assert _tails(5, 1, _one_tuple, ()) == [(1, 1, 1, 1, 1)]
    assert _tails(3, 7, _one_tuple, ()) == [(1, 1, 1), (2, 1), (3,)]


@pytest.mark.parametrize("fmt", list(_SEQUENCE_ROW))
def test_tails_in_text_pieces_render_the_tuple_tails(fmt):
    # The CLI's pieces: each part after its separator, and the closing bracket.
    _, separator, closing = _SEQUENCE_ROW[fmt]
    for m in range(21):
        for j in range(1, 9):
            texts = _tails(m, j, lambda x: separator + str(x), closing)
            tuples = _tails(m, j, _one_tuple, ())
            assert texts == ["".join(separator + str(x) for x in t) + closing for t in tuples], (m, j)


def bad_entry_plants():
    """Walks and tail builders that render one entry below 1, as a bug would.

    Each maps to (name, fake, sequence, entry): the fake replaces
    ``oseq.census.<name>``, ``sequence`` is the bad sequence it renders
    first, and ``entry`` its bad entry. As an index into a list of entry
    texts, -1 would silently read the last one.
    """

    def pushed(limit, piece, start):
        yield start + piece(0), 2, 1

    def raised(limit, piece, start):
        yield start, 1, 1
        yield start + piece(2), 2, 3
        yield start + piece(-1), 2, 0

    return {
        "pushed prefix entry": ("_prefix_heads", pushed, (1, 0), 0),
        "raised prefix entry": ("_prefix_heads", raised, (1, -1), -1),
        "first tail part": ("_tails", lambda m, j, piece, end: [piece(0) * m + end], (1, 0), 0),
        "later tail part": (
            "_tails",
            lambda m, j, piece, end: [piece(1) * m + end, piece(2) + piece(-1) + end],
            (1, 2, -1),
            -1,
        ),
    }


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("plant", list(bad_entry_plants()))
def test_enumerate_checks_each_piece_on_the_cli_path(capsys, monkeypatch, plant, fmt):
    # A bad prefix entry, or a bad tail part, reaches no output in any format,
    # not even the json head: the block walk renders each entry by its lookup
    # in a table of 1..n, which the CLI path does not redo. The walk makes
    # every entry, so a bad one is a bug: `main` exits 3 and names it.
    target, fake, sequence, entry = bad_entry_plants()[plant]
    with pytest.raises(ValueError, match="all entries must be positive"):
        HVector(sequence)
    monkeypatch.setattr(f"oseq.census.{target}", fake)
    assert main(["enumerate", "--n", "5", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error (bug): the walk to n=5 built the entry {entry}\n"


class BuilderSpy:
    """Wraps the tail builder: records each key it is called with and the list it returns."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.build = oseq.census._tails
        monkeypatch.setattr(oseq.census, "_tails", self)

    def __call__(self, m, j, piece, end):
        tails = self.build(m, j, piece, end)
        self.calls.append(((j, m), tails))
        return tails


def test_enumerate_walk_builds_each_key_once(monkeypatch):
    # The walk keeps one list of tails per (j, m): the builder sees each key
    # once, and every prefix with that key gets the very list it returned.
    n = 20
    spy = BuilderSpy(monkeypatch)
    count, blocks = _osequence_blocks(n, count_osequences(n), _one_tuple, (1,), ())
    blocks = list(blocks)
    assert [head for head, _ in blocks] == list(precritical_prefixes(n))
    keys = [(len(head), n - sum(head)) for head, _ in blocks]
    assert [key for key, _ in spy.calls] == list(dict.fromkeys(keys))
    assert len(spy.calls) < len(keys)
    made = dict(spy.calls)
    for key, (_, tails) in zip(keys, blocks):
        assert tails is made[key]
        assert tails == spy.build(key[1], key[0], _one_tuple, ())
    assert sum(len(tails) for _, tails in blocks) == count


def test_enumerate_walk_yields_no_tails_that_fail_the_check(monkeypatch):
    # The builder renders a bad part for the second key, (2, 2): the first
    # block comes out, and no list is made or yielded for the bad key.
    spy = BuilderSpy(monkeypatch)
    build = spy.build
    spy.build = lambda m, j, piece, end: build(m, j, piece, end) if j == 1 else [piece(0) + end]
    _, blocks = _osequence_blocks(5, 5, _one_tuple, (1,), ())
    seen = []
    with pytest.raises(TheoremViolationError, match=r"^the walk to n=5 built the entry 0$"):
        seen.extend(blocks)
    assert seen == [((1,), [(1, 1, 1, 1)])]
    assert spy.calls == [((1, 4), [(1, 1, 1, 1)])]


def test_enumerate_text_stream_memory_is_bounded(monkeypatch):
    # The first 4 blocks of the n = 200 stream, in the CLI's table pieces,
    # with the census pass patched out as in the recursion-depth test. Their
    # largest key, (4, 190), has 51 488 tails, kept in text only: about 14 MiB
    # traced, against 55 MiB while each key's tuples were built first.
    monkeypatch.setattr(CensusCounter, "count", lambda self, n: 1)
    part = ["," + str(x) for x in range(201)]
    tracemalloc.start()
    try:
        _, blocks = _osequence_blocks(200, 1, part.__getitem__, "1", "")
        assert len(list(itertools.islice(blocks, 4))) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_enumerate_refuses_above_the_census_maximum_before_any_table(capsys):
    # The CLI's per-entry text tables hold n + 1 strings each; a refused
    # length must not build them.
    tracemalloc.start()
    try:
        code = main(["enumerate", "--n", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: census length 1000000 exceeds the maximum {_MAX_CENSUS_CEILING}\n"
    assert peak < 1 << 20


def test_enumerate_walk_bug_exits_three_without_a_traceback():
    # The same planted prefix, in a child process run as `python -m oseq.cli`.
    plant = (
        "import runpy, sys, oseq.census; "
        "oseq.census._prefix_heads = "
        "lambda limit, piece, start: ((start + piece(x), 2, 1) for x in [0]); "
        "sys.argv = ['oseq', 'enumerate', '--n', '5']; "
        "runpy.run_module('oseq.cli', run_name='__main__', alter_sys=True)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    done = subprocess.run([sys.executable, "-c", plant], env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "internal error (bug): the walk to n=5 built the entry 0\n"


def test_count_monotone_in_total(census_table):
    for n in range(1, census_table.max_n):
        assert census_table.records[n + 1] >= census_table.records[n]


def test_lower_bound_and_first_strict_excess(census_table, partition_table):
    for n in range(1, 41):
        assert census_table.records[n] >= partition_table.p_values[n - 1]
    first_strict = next(
        n for n in range(1, 41) if census_table.records[n] > partition_table.p_values[n - 1]
    )
    assert first_strict == 6
    assert census_table.records[6] == 8
    assert partition_table.p_values[5] == 7


def test_census_table_shape(census_table):
    assert isinstance(census_table, CensusTable)
    assert census_table.max_n == 60
    assert sorted(census_table.records) == list(range(1, 61))


def test_build_census_to_10_matches_the_pass_to_60(census_table):
    table = build_census(10)
    assert all(table.records[n] == census_table.records[n] for n in range(1, 11))


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
    assert [table.records[n] for n in range(1, 7)] == KNOWN_COUNTS[:6]
