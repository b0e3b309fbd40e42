"""Partition counts, the p/q inequality, and the asymptotic estimate."""

from __future__ import annotations

import hashlib
import math
from operator import mul

import pytest

from oseq.cli import main
from oseq.errors import ResourceLimitError
from oseq.partitions import (
    DEFAULT_TABLE_LIMIT,
    _estimates,
    build_partition_table,
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
# the same digests of p(0..100000) and q(0..100000), recorded from the
# implementation that computed q by a second interpreted pentagonal loop
GOLDEN_P_0_TO_100000_SHA256 = "5efa38ed0915c4185b921962557be0ae6f7966407b8c2e754a5a178cc271997a"
GOLDEN_Q_0_TO_100000_SHA256 = "856c1bfd752821631ad18e2ad88597a40f239dd27e5f32e0f67c5c6757ae9a50"

# Sparse points up to the table limit, of both parities: P = Q P(x^2) at n
# reads q(r) only for r = n (mod 2).
SPARSE_N = (
    10001, 12345, 17389, 20000, 24999, 31415, 38000, 42001, 49999, 50000, 57121,
    63001, 65536, 71828, 77777, 82944, 88887, 93998, 99998, 99999, 100000,
)


@pytest.fixture(scope="module")
def table_100000():
    """The table at its advertised limit; the tests through 10 000 read its prefix."""
    return build_partition_table(DEFAULT_TABLE_LIMIT)


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
    assert [partition_table.p_values[n] for n in range(11)] == P_PREFIX
    assert [partition_table.q_values[n] for n in range(11)] == Q_PREFIX
    assert partition_table.p_values[100] == 190569292


def test_p_matches_coin_change_oracle(partition_table):
    oracle = naive_partition_counts(300)
    assert [partition_table.p_values[n] for n in range(301)] == oracle


def test_q_matches_odd_parts_identity(partition_table):
    # Euler: partitions into distinct parts and into odd parts are
    # equinumerous, and the odd-parts count comes from a different DP.
    oracle = odd_part_counts(300)
    assert [partition_table.q_values[n] for n in range(301)] == oracle


def test_q_matches_odd_parts_identity_through_2000(table_100000):
    # q is derived from p, so this oracle, which shares no code with p,
    # also guards q against a fault in the p recurrence.
    assert list(table_100000.q_values[:2001]) == odd_part_counts(2000)


def sha256_of_values(values) -> str:
    return hashlib.sha256(",".join(str(v) for v in values).encode()).hexdigest()


def test_partition_goldens_through_10000(table_100000):
    assert sha256_of_values(table_100000.p_values[:10001]) == GOLDEN_P_0_TO_10000_SHA256
    assert sha256_of_values(table_100000.q_values[:10001]) == GOLDEN_Q_0_TO_10000_SHA256
    assert table_100000.p_values[10000] == GOLDEN_P_10000
    assert table_100000.q_values[10000] == GOLDEN_Q_10000


def test_partition_goldens_through_100000(table_100000):
    assert table_100000.limit == len(table_100000.q_values) - 1 == 100000
    assert sha256_of_values(table_100000.p_values) == GOLDEN_P_0_TO_100000_SHA256
    assert sha256_of_values(table_100000.q_values) == GOLDEN_Q_0_TO_100000_SHA256


# Oracles that share no code with the pentagonal recurrence: Ramanujan's
# congruences, Euler's divisor-sum recurrence and P(x) = Q(x) P(x^2), the
# last tying q to p (Andrews, The Theory of Partitions). q is built as
# psi(x) P(x^2), so the last one checks P(x) = psi(x) P(x^2)^2 in effect.
# The two recurrences run at chosen points, the congruences at every n of
# their residue class.

RAMANUJAN_CONGRUENCES = [(5, 4), (7, 5), (11, 6)]


def ramanujan_misses(p_values, modulus: int, residue: int, start: int, stop: int) -> list[int]:
    """Every n in [start, stop) with n = residue (mod modulus) whose p(n) the modulus does not divide."""
    first = start + (residue - start) % modulus
    return [n for n in range(first, stop, modulus) if p_values[n] % modulus]


@pytest.mark.parametrize("modulus, residue", RAMANUJAN_CONGRUENCES)
def test_ramanujan_congruences_through_10000(table_100000, modulus, residue):
    assert ramanujan_misses(table_100000.p_values, modulus, residue, 0, 10001) == []


@pytest.mark.parametrize("modulus, residue", RAMANUJAN_CONGRUENCES)
def test_ramanujan_congruences_from_10001_to_100000(table_100000, modulus, residue):
    # one residue test per n is cheap, so this checks every n, not sparse ones
    assert ramanujan_misses(table_100000.p_values, modulus, residue, 10001, 100001) == []


def divisor_sums(limit: int) -> list[int]:
    """sigma(k) for k = 0..limit by a sieve over the divisors."""
    sigma = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            sigma[multiple] += d
    return sigma


def euler_holds(p_values, sigma, n: int) -> bool:
    """n p(n) = sum over 1 <= k <= n of sigma(k) p(n - k)."""
    return n * p_values[n] == sum(map(mul, sigma[1 : n + 1], reversed(p_values[:n])))


def p_is_q_times_p_of_half(p_values, q_values, n: int) -> bool:
    """P(x) = Q(x) P(x^2): p(n) = sum over 0 <= 2m <= n of q(n - 2m) p(m)."""
    return p_values[n] == sum(map(mul, q_values[n::-2], p_values[: n // 2 + 1]))


def test_euler_divisor_sum_recurrence_through_10000(table_100000):
    sigma = divisor_sums(10000)
    for n in (1, 2, 7, 60, 499, 1001, 2024, 4999, 7776, 9999, 10000):
        assert euler_holds(table_100000.p_values, sigma, n), n


def test_euler_divisor_sum_recurrence_sparse_through_100000(table_100000):
    sigma = divisor_sums(100000)
    for n in SPARSE_N:
        assert euler_holds(table_100000.p_values, sigma, n), n


def test_p_is_q_times_p_of_half_through_10000(table_100000):
    for n in (1, 2, 3, 10, 101, 500, 4097, 8192, 9999, 10000):
        assert p_is_q_times_p_of_half(table_100000.p_values, table_100000.q_values, n), n


def test_p_is_q_times_p_of_half_sparse_through_100000(table_100000):
    for n in SPARSE_N:
        assert p_is_q_times_p_of_half(table_100000.p_values, table_100000.q_values, n), n


def test_q_matches_direct_enumeration(partition_table):
    for n in range(16):
        distinct = sum(
            1 for parts in gen_partitions(n) if len(set(parts)) == len(parts)
        )
        assert partition_table.q_values[n] == distinct


def test_table_invariants(partition_table):
    limit = partition_table.limit
    assert len(partition_table.p_values) == limit + 1
    assert len(partition_table.q_values) == limit + 1
    for n in range(limit + 1):
        assert partition_table.p_values[n] >= partition_table.q_values[n] >= 1
    for n in range(limit):
        assert partition_table.p_values[n + 1] >= partition_table.p_values[n]
        assert partition_table.q_values[n + 1] >= partition_table.q_values[n]


@pytest.mark.parametrize(
    "limit",
    [0, 1, 2, 127, 128, 129, 254, 255, 256, 257, 383, 384, 385, 510, 511, 512, 513, 5000],
)
def test_block_edges_match_the_full_table(table_100000, limit):
    # Both tables fill in blocks of 128. p's blocks of n end at the multiples
    # of 128. q's blocks of half indices i, for q(2i) and q(2i + 1), end there
    # too, so the block that starts at i = 128k is first reached at n = 256k
    # (even n) and 256k + 1 (odd n), and the one before it ends at 256k - 2
    # and 256k - 1. A table that ends on, just before or just after an edge
    # is the full one's prefix.
    assert build_partition_table(limit) == (
        limit,
        table_100000.p_values[: limit + 1],
        table_100000.q_values[: limit + 1],
    )


def test_table_limit_guard():
    with pytest.raises(ValueError):
        build_partition_table(-1)
    with pytest.raises(ResourceLimitError):
        build_partition_table(DEFAULT_TABLE_LIMIT + 1)


def pq_equalities(table, limit: int) -> list[int]:
    """Every n in 1..limit with p(n-1) = q(n), after asserting p(n-1) >= q(n) at each."""
    p_values, q_values = table.p_values, table.q_values
    assert all(p_values[n - 1] >= q_values[n] for n in range(1, limit + 1))
    return [n for n in range(1, limit + 1) if p_values[n - 1] == q_values[n]]


def test_pq_inequality_examples(partition_table):
    p_values, q_values = partition_table.p_values, partition_table.q_values
    assert (p_values[0], q_values[1]) == (1, 1)
    assert (p_values[2], q_values[3]) == (2, 2)
    assert (p_values[3], q_values[4]) == (3, 2)


def test_pq_strictness_pattern(partition_table):
    """p(n-1) >= q(n), with equality exactly for n <= 3, through 500."""
    assert partition_table.limit == 500
    assert pq_equalities(partition_table, 500) == [1, 2, 3]


def test_pq_strictness_pattern_through_10000(table_100000):
    assert pq_equalities(table_100000, 10000) == [1, 2, 3]


def test_hardy_ramanujan_at_one():
    est = hardy_ramanujan(1)
    expected = math.exp(math.pi * math.sqrt(2 / 3)) / (4 * math.sqrt(3))
    assert est == pytest.approx(expected, rel=1e-12)
    assert est == pytest.approx(1.8766704226053692, rel=1e-12)
    with pytest.raises(ValueError):
        hardy_ramanujan(0)


def test_hardy_ramanujan_ratio(partition_table):
    ratio = partition_table.p_values[100] / hardy_ramanujan(100)
    assert ratio == pytest.approx(0.956284813845897, rel=1e-9)
    assert 0.90 <= ratio <= 1.00


def test_hardy_ramanujan_log_space_consistency():
    plain = hardy_ramanujan(50)
    logged = hardy_ramanujan(50, log_space=True)
    assert math.exp(logged) == pytest.approx(plain, rel=1e-12)


def test_hardy_ramanujan_overflow_behaviour():
    with pytest.raises(OverflowError, match="log_space"):
        hardy_ramanujan(10**6)
    assert hardy_ramanujan(10**6, log_space=True) > 2000


@pytest.mark.parametrize("log_space", [False, True], ids=["plain", "log-space"])
def test_estimate_loop_equals_hardy_ramanujan(log_space):
    # The CLI prints the loop's floats, so its estimates must be
    # hardy_ramanujan's to the bit, and its ratios p(n) / estimate.
    table = build_partition_table(2000)
    got = list(_estimates(table, log_space))
    expected = [hardy_ramanujan(n, log_space=log_space) for n in range(1, 2001)]
    assert [e.hex() for e, _ in got] == [e.hex() for e in expected]
    ratios = [table.p_values[n] / hardy_ramanujan(n) for n in range(1, 2001)]
    assert [r for _, r in got] == pytest.approx(ratios, rel=1e-12)


def test_write_csv_exact_output(capsys):
    assert main(["partitions", "--max-n", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "n,p,q\n0,1,1\n1,1,1\n2,2,1\n3,3,2\n"
