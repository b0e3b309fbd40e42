"""Acceptance gate: ten release criteria, one test each.

Each test prints one [criterion N] PASS line on success (visible under
pytest -rA or -s); a failure reads as the usual assertion diff. Tolerances
are pinned here and nowhere else, so a change to them is loud.
"""

from __future__ import annotations

import json
import math
import random
import time

import jsonschema

from oseq.bounds import check_prefix_bound, staircase_decompose, verify_tail_partition
from oseq.census import count_osequences, enumerate_osequences
from oseq.cli import main
from oseq.macaulay import is_o_sequence, macaulay_expand, pseudopower
from oseq.partitions import build_partition_table, hardy_ramanujan

UPPER_SLACK = 1e-6


def refuse_constant(name: str):
    """Fails a parse on NaN, Infinity or -Infinity, which json.loads accepts by default."""
    raise ValueError(f"non-finite JSON number {name}")


def _ok(number: int, detail: str) -> None:
    print(f"[criterion {number}] PASS {detail}")


def test_criterion_01_counter_matches_brute_force(filtered_compositions):
    started = time.monotonic()
    for n in range(1, 13):
        assert count_osequences(n) == len(filtered_compositions[n]), n
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _ok(1, f"prefix-and-tail count == brute force for n = 1..12 in {elapsed:.2f}s")


def test_criterion_02_small_counts_against_oracle(filtered_compositions):
    oracle = [len(filtered_compositions[n]) for n in range(1, 6)]
    assert oracle == [1, 1, 2, 3, 5]
    assert [count_osequences(n) for n in range(1, 6)] == [1, 1, 2, 3, 5]
    _ok(2, "L(1..5) = (1, 1, 2, 3, 5), generate-and-test oracle agrees")


def test_criterion_03_partition_lower_bound(census_table, partition_table):
    for n in range(3, 61):
        assert partition_table.p_values[n - 1] <= census_table.records[n], n
    _ok(3, "p(n-1) <= L(n) exactly, n = 3..60")


def test_criterion_04_log_space_upper_bound(census_table, partition_table):
    for n in range(3, 61):
        root = math.sqrt(2.0 * n)
        bound = math.log(root) + math.log(partition_table.p_values[n]) + root * math.log(n)
        assert math.log(census_table.records[n]) <= bound + UPPER_SLACK * abs(bound), n
    _ok(4, f"ln L(n) within the log-space upper bound, n = 3..60, slack {UPPER_SLACK}")


def test_criterion_05_partition_recurrences_and_pq_pattern(partition_table):
    dp = [0] * 501
    dp[0] = 1
    for part in range(1, 501):
        for s in range(part, 501):
            dp[s] += dp[s - part]
    assert [partition_table.p_values[n] for n in range(501)] == dp

    p_values, q_values = partition_table.p_values, partition_table.q_values
    assert all(p_values[n - 1] >= q_values[n] for n in range(1, 501))
    assert [n for n in range(1, 501) if p_values[n - 1] == q_values[n]] == [1, 2, 3]
    _ok(5, "pentagonal recurrence == naive DP and p/q strictness pattern, n <= 500")


def test_criterion_06_asymptotic_ratio_window():
    table = build_partition_table(2000)
    ratios = {n: table.p_values[n] / hardy_ramanujan(n) for n in range(100, 2001)}
    for n, ratio in ratios.items():
        assert 0.85 <= ratio <= 1.05, (n, ratio)
    assert abs(ratios[2000] - 1.0) < abs(ratios[100] - 1.0)
    _ok(6, f"estimate ratio in [0.85, 1.05] on 100..2000, ratio(2000) = {ratios[2000]:.4f}")


def test_criterion_07_structure_sweep():
    checked = 0
    for n in range(1, 13):
        for h in enumerate_osequences(n):
            assert verify_tail_partition(h), tuple(h)
            assert check_prefix_bound(h), tuple(h)
            checked += 1
    assert checked == sum(count_osequences(n) for n in range(1, 13))
    _ok(7, f"tail nonincreasing and prefix bound hold for all {checked} sequences, n <= 12")


def test_criterion_08_expansion_and_pseudopower_laws():
    limit = 10**4

    def all_expansions(d):
        found = []

        def rec(k, upper, terms, val):
            if terms:
                found.append((val, terms))
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

    for d in range(1, 31):
        seen = {}
        for value, terms in all_expansions(d):
            assert value not in seen, (d, value)
            seen[value] = terms
        assert set(seen) == set(range(1, limit + 1))
        for a in range(1, limit + 1):
            assert macaulay_expand(a, d).terms == seen[a], (a, d)

    for d in (1, 2, 3, 5, 10, 30):
        previous = 0
        for a in range(0, limit + 1):
            lifted = pseudopower(a, d)
            assert lifted >= a
            assert lifted >= previous
            if a <= d:
                assert lifted == a
            previous = lifted

    rng = random.Random(20260817)
    for _ in range(1000):
        length = rng.randint(1, 29)
        tail = sorted((rng.randint(1, 40) for _ in range(length)), reverse=True)
        assert is_o_sequence((1, *tail)).valid
    _ok(8, "expansions unique and recompose for a <= 10^4, d <= 30; growth laws hold")


def test_criterion_09_staircase_decomposition():
    for degree in range(1, 51):
        low = degree + 1
        high = (degree + 1) * (degree + 2) // 2 - 1
        for value in range(low, high + 1):
            decomp = staircase_decompose(value, degree)
            assert decomp is not None, (value, degree)
            assert sum(range(degree - decomp.t + 1, degree + 2)) + decomp.alpha == value
            assert 0 <= decomp.alpha < degree - decomp.t
        assert staircase_decompose(low - 1, degree) is None
        assert staircase_decompose(high + 1, degree) is None

    for degree in range(1, 13):
        top = (degree + 1) * (degree + 2) // 2 + 2
        for value in range(1, top + 1):
            pairs = [
                (t, value - sum(range(degree + 1 - t, degree + 2)))
                for t in range(degree)
                if 0 <= value - sum(range(degree + 1 - t, degree + 2)) < degree - t
            ]
            assert len(pairs) <= 1
            decomp = staircase_decompose(value, degree)
            if pairs:
                assert (decomp.t, decomp.alpha) == pairs[0]
            else:
                assert decomp is None
    _ok(9, "staircase recomposition over i <= 50; greedy == exhaustive for i <= 12")


def test_criterion_10_bounds_cli_contract(capsys, schema_dir):
    runs = []
    for _ in range(2):
        code = main(["bounds", "--max-n", "40", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        runs.append(captured.out)
    assert runs[0] == runs[1]

    payload = json.loads(runs[0], parse_constant=refuse_constant)
    schema = json.loads((schema_dir / "bounds.schema.json").read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)
    assert payload["max_n"] == 40
    assert len(payload["records"]) == 40
    for record in payload["records"]:
        assert record["lower_ok"] is True
        assert record["upper_ok"] is True
        assert int(record["p_lower"]) <= int(record["L"])
    _ok(10, "bounds --max-n 40 --format json: schema-valid, bounds hold, byte-identical")
