"""Exact integer partition counting and the Hardy-Ramanujan estimate.

p(n) counts all partitions of n, q(n) the partitions into distinct parts.
Tables are exact big integers: p comes from Euler's pentagonal-number
recurrence and q from p through the same pentagonal numbers, both in
O(n^1.5). The asymptotic estimate is the only place floating point appears,
and it offers a log-space mode so the pipeline stays total when
e^(pi*sqrt(2n/3)) would overflow a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ResourceLimitError, TheoremViolationError

__all__ = [
    "DEFAULT_TABLE_LIMIT",
    "PartitionTable",
    "AsymptoticEstimate",
    "PQCheck",
    "build_partition_table",
    "hardy_ramanujan",
    "check_pq_inequality",
]

DEFAULT_TABLE_LIMIT = 100_000


@dataclass(frozen=True)
class PartitionTable:
    """Exact values p(0..limit) and q(0..limit)."""

    limit: int
    p_values: tuple[int, ...]
    q_values: tuple[int, ...]

    def p(self, n: int) -> int:
        return self.p_values[n]

    def q(self, n: int) -> int:
        return self.q_values[n]


def _pentagonal_sum(
    padded: list[int],
    i: int,
    n: int,
    plus: list[tuple[int, int]],
    minus: list[tuple[int, int]],
) -> int:
    """Sum of padded[i - a] + padded[i - b] over the pairs (a, b) of ``plus``
    with a <= n, less the same sum over ``minus``; both lists ascend in a."""
    total = 0
    for a, b in plus:
        if a > n:
            break
        total += padded[i - a] + padded[i - b]
    for a, b in minus:
        if a > n:
            break
        total -= padded[i - a] + padded[i - b]
    return total


def build_partition_table(limit: int) -> PartitionTable:
    """Tabulate p and q up to ``limit`` in O(limit^1.5) big-integer additions.

    p uses Euler's pentagonal-number recurrence. q comes from p through the
    product identity prod(1 + x^k) = P(x) * E(x^2), where P is the
    generating function of p and E(x) = prod(1 - x^k) = sum over all
    integers k of (-1)^k x^(k(3k-1)/2), so

        q(n) = p(n) + sum_{k>=1} (-1)^k [p(n - k(3k-1)) + p(n - k(3k+1))].

    Refuses limits above ``DEFAULT_TABLE_LIMIT``.
    """
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    if limit > DEFAULT_TABLE_LIMIT:
        raise ResourceLimitError(
            f"partition table limit {limit} exceeds the configured maximum {DEFAULT_TABLE_LIMIT}"
        )

    # Generalised pentagonal pairs (k(3k-1)/2, k(3k+1)/2) for k >= 1, split by
    # the parity of k: odd k adds to p(n), even k subtracts.
    odd_pairs: list[tuple[int, int]] = []
    even_pairs: list[tuple[int, int]] = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        g = k * (3 * k - 1) // 2
        (odd_pairs if k % 2 else even_pairs).append((g, g + k))
        k += 1

    # padded[pad + n] = p(n) behind `pad` zeros, so a pair whose first offset
    # fits reads 0 for its second one instead of testing it (in both passes).
    pad = 2 * k
    padded = [0] * (pad + limit + 1)
    padded[pad] = 1
    for n in range(1, limit + 1):
        padded[pad + n] = _pentagonal_sum(padded, pad + n, n, odd_pairs, even_pairs)
    p = padded[pad:]

    # The E(x^2) factor: doubled offsets, and odd k now subtracts.
    odd_doubled = [(2 * g, 2 * g2) for g, g2 in odd_pairs]
    even_doubled = [(2 * g, 2 * g2) for g, g2 in even_pairs]
    q = [
        p[n] + _pentagonal_sum(padded, pad + n, n, even_doubled, odd_doubled)
        for n in range(limit + 1)
    ]

    return PartitionTable(limit=limit, p_values=tuple(p), q_values=tuple(q))


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Hardy-Ramanujan estimate for p(n), optionally in log space.

    ``ratio`` is p(n)/estimate when an exact table covering n was supplied;
    it is computed through logarithms so it stays finite even when the
    plain-space estimate would overflow.
    """

    n: int
    estimate: float
    log_space: bool
    ratio: float | None


def hardy_ramanujan(
    n: int,
    table: PartitionTable | None = None,
    log_space: bool = False,
) -> AsymptoticEstimate:
    """Evaluate the estimate (1/(4n*sqrt(3))) * e^(pi*sqrt(2n/3)).

    With ``log_space`` the natural log of that value is returned instead,
    which never overflows. Without it, an OverflowError is raised once the
    exponent exceeds double range.
    """
    if n < 1:
        raise ValueError(f"the estimate is defined for n >= 1, got {n}")
    log_estimate = math.pi * math.sqrt(2.0 * n / 3.0) - math.log(4.0 * n * math.sqrt(3.0))
    if log_space:
        estimate = log_estimate
    else:
        if log_estimate > math.log(1.7976931348623157e308):
            raise OverflowError(
                f"estimate for n={n} exceeds double range; use log_space"
            )
        estimate = math.exp(log_estimate)
    ratio: float | None = None
    if table is not None and n <= table.limit:
        # math.log on a big int keeps full magnitude, so this works for any n.
        ratio = math.exp(math.log(table.p_values[n]) - log_estimate)
    return AsymptoticEstimate(n=n, estimate=estimate, log_space=log_space, ratio=ratio)


class PQCheck(NamedTuple):
    n: int
    p_prev: int
    q_n: int
    strict: bool


def check_pq_inequality(limit: int, table: PartitionTable | None = None) -> list[PQCheck]:
    """Compare p(n-1) against q(n) for every 1 <= n <= limit.

    p(n-1) >= q(n) always, strictly exactly when n >= 4; both facts are
    theorems, so any violation raises TheoremViolationError (a bug, not
    bad input).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if table is None or table.limit < limit:
        table = build_partition_table(limit)
    results: list[PQCheck] = []
    for n in range(1, limit + 1):
        p_prev = table.p_values[n - 1]
        q_n = table.q_values[n]
        if p_prev < q_n:
            raise TheoremViolationError(
                f"p(n-1) >= q(n) failed at n={n}: {p_prev} < {q_n}", n=n
            )
        strict = p_prev > q_n
        if strict != (n >= 4):
            raise TheoremViolationError(
                f"strictness of p(n-1) > q(n) is wrong at n={n}: "
                f"p={p_prev}, q={q_n}", n=n
            )
        results.append(PQCheck(n=n, p_prev=p_prev, q_n=q_n, strict=strict))
    return results
