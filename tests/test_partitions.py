"""Partition counts, the p/q inequality, and the asymptotic estimate."""

from __future__ import annotations

import hashlib
import math

import pytest

from oseq.cli import main
from oseq.errors import ResourceLimitError, TheoremViolationError
from oseq.partitions import (
    DEFAULT_TABLE_LIMIT,
    build_partition_table,
    check_pq_inequality,
    hardy_ramanujan,
)

P_PREFIX = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
Q_PREFIX = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]

# sha256 of the comma-joined decimal values p(0..10000) and q(0..10000),
# recorded from the earlier implementation (q by the 0/1 knapsack over parts).
GOLDEN_P_0_TO_10000_SHA256 = "47bcead18dd7cb418228880c94df90188ffd68dc3240ee0fafa729d83b20ad62"
GOLDEN_Q_0_TO_10000_SHA256 = "20b21c1bf2913476cd55989237475971f9afad67fdfc39c112c54469160bcf63"
GOLDEN_P_10000 = int(
    "36167251325636293988820471890953695495016030339315650422081868605887952568754066420592310556052906916435144"
)
GOLDEN_Q_10000 = int(
    "1122606574548038398976040173670530159089991444775125551802871247408332723840"
)


@pytest.fixture(scope="module")
def table_10000():
    return build_partition_table(10000)


def naive_partition_counts(limit: int) -> list[int]:
    """Unbounded coin-change pass, one part size at a time."""
    dp = [0] * (limit + 1)
    dp[0] = 1
    for part in range(1, limit + 1):
        for s in range(part, limit + 1):
            dp[s] += dp[s - part]
    return dp


def odd_part_counts(limit: int) -> list[int]:
    dp = [0] * (limit + 1)
    dp[0] = 1
    for part in range(1, limit + 1, 2):
        for s in range(part, limit + 1):
            dp[s] += dp[s - part]
    return dp


def gen_partitions(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in gen_partitions(n - first, first):
            yield (first, *rest)


def test_prefix_values(partition_table):
    assert [partition_table.p(n) for n in range(11)] == P_PREFIX
    assert [partition_table.q(n) for n in range(11)] == Q_PREFIX
    assert partition_table.p(100) == 190569292


def test_p_matches_coin_change_oracle(partition_table):
    oracle = naive_partition_counts(300)
    assert [partition_table.p(n) for n in range(301)] == oracle


def test_q_matches_odd_parts_identity(partition_table):
    # Euler: partitions into distinct parts and into odd parts are
    # equinumerous, and the odd-parts count comes from a different DP.
    oracle = odd_part_counts(300)
    assert [partition_table.q(n) for n in range(301)] == oracle


def test_q_matches_odd_parts_identity_through_2000(table_10000):
    # q is derived from p, so this oracle, which shares no code with p,
    # also guards q against a fault in the p recurrence.
    assert list(table_10000.q_values[:2001]) == odd_part_counts(2000)


def test_partition_goldens_through_10000(table_10000):
    for values, digest in (
        (table_10000.p_values, GOLDEN_P_0_TO_10000_SHA256),
        (table_10000.q_values, GOLDEN_Q_0_TO_10000_SHA256),
    ):
        digits = ",".join(str(v) for v in values)
        assert hashlib.sha256(digits.encode()).hexdigest() == digest
    assert table_10000.p(10000) == GOLDEN_P_10000
    assert table_10000.q(10000) == GOLDEN_Q_10000


def test_q_matches_direct_enumeration(partition_table):
    for n in range(16):
        distinct = sum(
            1 for parts in gen_partitions(n) if len(set(parts)) == len(parts)
        )
        assert partition_table.q(n) == distinct


def test_table_invariants(partition_table):
    limit = partition_table.limit
    assert len(partition_table.p_values) == limit + 1
    assert len(partition_table.q_values) == limit + 1
    for n in range(limit + 1):
        assert partition_table.p(n) >= partition_table.q(n) >= 1
    for n in range(limit):
        assert partition_table.p(n + 1) >= partition_table.p(n)
        assert partition_table.q(n + 1) >= partition_table.q(n)


def test_table_limit_guard():
    with pytest.raises(ValueError):
        build_partition_table(-1)
    with pytest.raises(ResourceLimitError):
        build_partition_table(DEFAULT_TABLE_LIMIT + 1)


def test_pq_inequality_examples(partition_table):
    checks = check_pq_inequality(500, table=partition_table)
    by_n = {c.n: c for c in checks}
    assert by_n[1].p_prev == 1 and by_n[1].q_n == 1 and not by_n[1].strict
    assert by_n[3].p_prev == 2 and by_n[3].q_n == 2 and not by_n[3].strict
    assert by_n[4].p_prev == 3 and by_n[4].q_n == 2 and by_n[4].strict


def test_pq_strictness_pattern(partition_table):
    """Equality for n <= 3, strict inequality from n = 4 on."""
    checks = check_pq_inequality(500, table=partition_table)
    assert len(checks) == 500
    for check in checks:
        assert check.p_prev >= check.q_n
        assert check.strict == (check.n >= 4)


def test_pq_strictness_pattern_through_10000(table_10000):
    checks = check_pq_inequality(10000, table=table_10000)
    assert len(checks) == 10000
    assert [c.n for c in checks if not c.strict] == [1, 2, 3]


def test_pq_check_builds_its_own_table():
    checks = check_pq_inequality(40)
    assert [c.strict for c in checks[:4]] == [False, False, False, True]


def test_hardy_ramanujan_at_one():
    est = hardy_ramanujan(1)
    expected = math.exp(math.pi * math.sqrt(2 / 3)) / (4 * math.sqrt(3))
    assert est.estimate == pytest.approx(expected, rel=1e-12)
    assert est.estimate == pytest.approx(1.8766704226053692, rel=1e-12)
    assert not est.log_space
    assert est.ratio is None


def test_hardy_ramanujan_ratio(partition_table):
    est = hardy_ramanujan(100, table=partition_table)
    assert est.ratio == pytest.approx(0.956284813845897, rel=1e-9)
    assert 0.90 <= est.ratio <= 1.00


def test_hardy_ramanujan_log_space_consistency(partition_table):
    plain = hardy_ramanujan(50, table=partition_table)
    logged = hardy_ramanujan(50, table=partition_table, log_space=True)
    assert logged.log_space
    assert math.exp(logged.estimate) == pytest.approx(plain.estimate, rel=1e-12)
    assert logged.ratio == pytest.approx(plain.ratio, rel=1e-12)


def test_hardy_ramanujan_overflow_behaviour():
    with pytest.raises(OverflowError, match="log_space"):
        hardy_ramanujan(10**6)
    est = hardy_ramanujan(10**6, log_space=True)
    assert est.log_space
    assert est.estimate > 2000
    assert est.ratio is None


def test_hardy_ramanujan_ratio_needs_coverage(partition_table):
    est = hardy_ramanujan(partition_table.limit + 10, table=partition_table, log_space=True)
    assert est.ratio is None
    with pytest.raises(ValueError):
        hardy_ramanujan(0)


def test_write_csv_exact_output(capsys):
    assert main(["partitions", "--max-n", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "n,p,q\n0,1,1\n1,1,1\n2,2,1\n3,3,2\n"


def test_pq_guard_trips_on_corrupt_table(partition_table):
    broken = build_partition_table(10)
    object.__setattr__(broken, "q_values", tuple([*broken.q_values[:5], 999, *broken.q_values[6:]]))
    with pytest.raises(TheoremViolationError):
        check_pq_inequality(10, table=broken)
