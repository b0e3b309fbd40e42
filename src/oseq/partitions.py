"""Exact integer partition counting and the Hardy-Ramanujan estimate.

p(n) counts all partitions of n, q(n) the partitions into distinct parts.
Tables are exact big integers, both from the generalised pentagonal numbers
in one blocked pass: p by Euler's recurrence, and q from p. The asymptotic
estimate is the only place floating point appears, and it offers a
log-space mode so the pipeline stays total when e^(pi*sqrt(2n/3)) would
overflow a double.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import Iterator, NamedTuple

from .errors import ResourceLimitError

__all__ = [
    "DEFAULT_TABLE_LIMIT",
    "PartitionTable",
    "build_partition_table",
    "hardy_ramanujan",
]

DEFAULT_TABLE_LIMIT = 100_000

# The most values of n per block. Blocks grow 1, 1, 2, 4, ... up to it, so
# none is longer than its start: offsets below its length (51 at the table
# limit) run n by n, and longer ones read only finished blocks, one slice
# pass each. Blocks also keep q's slices small: whole-table passes peaked
# at 57 MiB at 100 000, against 40 MiB (2-CPU x86, Python 3.11.7).
_BLOCK = 1024


class PartitionTable(NamedTuple):
    """Exact values p(0..limit) and q(0..limit)."""

    limit: int
    p_values: tuple[int, ...]
    q_values: tuple[int, ...]


def _check_table_limit(limit: int) -> None:
    """Refuse a partition table above ``DEFAULT_TABLE_LIMIT``, before any work."""
    if limit > DEFAULT_TABLE_LIMIT:
        raise ResourceLimitError(
            f"partition table limit {limit} exceeds the maximum {DEFAULT_TABLE_LIMIT}"
        )


def build_partition_table(limit: int) -> PartitionTable:
    """Tabulate p and q up to ``limit`` in O(limit^1.5) big-integer additions.

    Both come from the generalised pentagonal numbers g = k(3k-1)/2 and
    k(3k+1)/2, k >= 1. p uses Euler's recurrence, p(n) = sum over g of
    +-p(n - g), with + for odd k. q comes from p through the product
    identity prod(1 + x^k) = P(x) * E(x^2), where P is the generating
    function of p and E(x) = prod(1 - x^k) = sum over all integers k of
    (-1)^k x^(k(3k-1)/2), so

        q(n) = p(n) - sum over g of +-p(n - 2g), with the same signs.

    One pass walks blocks of n. In each block, every far offset (at least
    the block's length) adds p shifted by g with one ``map`` over the
    block's slice of p, the near offsets run n by n, and then q's block, a
    copy of p's, takes one ``map`` per doubled offset 2g.

    Refuses limits above ``DEFAULT_TABLE_LIMIT``.
    """
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    _check_table_limit(limit)

    # The pentagonal numbers, ascending, each with its sign in p's recurrence.
    pentagonal: list[tuple[int, bool]] = []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= limit:
        pentagonal += ((g, k % 2 == 1), (g + k, k % 2 == 1))
        k += 1
    signed = [(g, add if odd else sub) for g, odd in pentagonal]
    doubled = [(2 * g, sub if odd else add) for g, odd in pentagonal]

    p = [1] + [0] * limit
    q: list[int] = []
    start = 0
    while start <= limit:
        size = min(max(start, 1), _BLOCK)
        stop = min(start + size, limit + 1)
        for g, op in signed:
            if g >= stop:
                break
            if g >= size:
                low = max(start, g)
                p[low:stop] = map(op, p[low:stop], p[low - g : stop - g])
        plus = [g for g, odd in pentagonal if g < size and odd]
        minus = [g for g, odd in pentagonal if g < size and not odd]
        for n in range(start, stop):
            total = p[n]
            for g in plus:
                total += p[n - g]
            for g in minus:
                total -= p[n - g]
            p[n] = total
        q += p[start:stop]
        for a, op in doubled:
            if a >= stop:
                break
            low = max(start, a)
            q[low:stop] = map(op, q[low:stop], p[low - a : stop - a])
        start = stop

    return PartitionTable(limit=limit, p_values=tuple(p), q_values=tuple(q))


def _log_estimate(n: int) -> float:
    """ln((1/(4n*sqrt(3))) * e^(pi*sqrt(2n/3))), the Hardy-Ramanujan formula."""
    return math.pi * math.sqrt(2.0 * n / 3.0) - math.log(4.0 * n * math.sqrt(3.0))


def hardy_ramanujan(n: int, log_space: bool = False) -> float:
    """Evaluate the estimate (1/(4n*sqrt(3))) * e^(pi*sqrt(2n/3)) of p(n).

    With ``log_space`` the natural log of that value is returned instead,
    which never overflows. Without it, an OverflowError is raised once the
    exponent exceeds double range.
    """
    if n < 1:
        raise ValueError(f"the estimate is defined for n >= 1, got {n}")
    log_estimate = _log_estimate(n)
    if log_space:
        return log_estimate
    if log_estimate > math.log(1.7976931348623157e308):
        raise OverflowError(f"estimate for n={n} exceeds double range; use log_space")
    return math.exp(log_estimate)


def _estimates(table: PartitionTable, log_space: bool) -> Iterator[tuple[float, float]]:
    """``hardy_ramanujan(n, log_space)`` and the ratio p(n)/estimate, for n = 1..table.limit.

    The ratio goes through logarithms (``math.log`` keeps a big int's full
    magnitude), so it stays finite where the plain estimate would overflow.
    The estimate grows with n, so one ``hardy_ramanujan(table.limit)`` call
    decides whether every plain-space value fits a double; this loop checks
    nothing itself (``math.exp`` would raise OverflowError, never return inf).
    """
    p_values = table.p_values
    for n in range(1, table.limit + 1):
        log_estimate = _log_estimate(n)
        ratio = math.exp(math.log(p_values[n]) - log_estimate)
        yield (log_estimate if log_space else math.exp(log_estimate)), ratio
