"""Exact integer partition counting and the Hardy-Ramanujan estimate.

p(n) counts all partitions of n, q(n) the partitions into distinct parts.
Tables are exact big integers: p by Euler's pentagonal recurrence, and q
from p by Gauss's identity Q(x) = psi(x) P(x^2), 213 174 additions at 6000
against 351 868 signed ones by Q(x) = P(x) E(x^2). The asymptotic estimate
is the only place floating point appears, and it offers a log-space mode
so the pipeline stays total when e^(pi*sqrt(2n/3)) would overflow a double.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import sub

from .errors import ResourceLimitError

TYPE_CHECKING = False  # typing.TYPE_CHECKING: no module imports typing, which imports re
if TYPE_CHECKING:  # annotations only
    from typing import Iterator

__all__ = [
    "DEFAULT_TABLE_LIMIT",
    "PartitionTable",
    "build_partition_table",
    "hardy_ramanujan",
]

DEFAULT_TABLE_LIMIT = 100_000

# Values of n per block of p, and half indices per block of q. p ran slower
# with 16, within 3 % at 64-256. q holds one block of sums at a time: whole-
# table passes peaked at 58.5 MiB at 100 000, against 40.9-41.0 MiB for the
# whole run in these blocks (2-CPU x86, Python 3.11.7).
_BLOCK = 128


class PartitionTable(namedtuple("PartitionTable", "limit p_values q_values")):
    """Exact values p(0..limit) and q(0..limit)."""

    __slots__ = ()

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

    p uses Euler's recurrence over the generalised pentagonal numbers
    g = k(3k-1)/2 and k(3k+1)/2, k >= 1: p(n) = sum over g of +-p(n - g),
    with + for odd k. q uses Gauss's psi(x) = sum over k >= 0 of x^T_k,
    T_k = k(k+1)/2, = prod(1 - x^2m) / (1 - x^(2m-1)) and Euler's
    Q(x) = prod(1 + x^m) = prod 1 / (1 - x^(2m-1)), so Q(x) = psi(x) P(x^2):

        q(n) = sum over T_k <= n with T_k = n (mod 2) of p((n - T_k) / 2),

    213 174 additions at 6000, against 351 868 signed ones by Q(x) = P(x)
    E(x^2), E the pentagonal series. p sits after ``_BLOCK`` zeros that
    stand for p at negative n, and both tables fill in blocks of ``_BLOCK``.
    A block of p sums each offset g >= ``_BLOCK``, which reads only finished
    values, by one C-level ``map(sum, zip(...))`` per sign and runs the
    smaller g n by n; a block of q is one such sum over its shifts.

    Refuses limits above ``DEFAULT_TABLE_LIMIT``.
    """
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    _check_table_limit(limit)

    # The pentagonal numbers, ascending, each with its sign: 0 for +, 1 for -.
    pentagonal: list[tuple[int, int]] = []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= limit:
        pentagonal += ((g, 1 - k % 2), (g + k, 1 - k % 2))
        k += 1

    # p(n) is p[_BLOCK + n]; the zeros before it stand for p at negative n. No
    # slice below starts under index 0, where Python would wrap it silently: a
    # block of p reads p[start - g:] with start - g >= 1, since g < stop - _BLOCK
    # <= start, and a block of q reads p[_BLOCK + lo - s:] with s < hi <= lo +
    # _BLOCK.
    p = [0] * _BLOCK + [1] + [0] * limit
    for start in range(_BLOCK + 1, _BLOCK + limit + 1, _BLOCK):
        stop = min(start + _BLOCK, _BLOCK + limit + 1)
        near: tuple[list[int], list[int]] = ([], [])
        # p[start:stop], all zeros, gives each sign's sum at least one column.
        finished = ([p[start:stop]], [p[start:stop]])
        for g, sign in pentagonal:
            if g >= stop - _BLOCK:  # reads only the zeros before p(0)
                break
            if g < _BLOCK:
                near[sign].append(g)
            else:  # reads only values finished before the block
                finished[sign].append(p[start - g : stop - g])
        p[start:stop] = map(sub, *[map(sum, zip(*cols)) for cols in finished])
        for n in range(start, stop):
            total = p[n]
            for g in near[0]:
                total += p[n - g]
            for g in near[1]:
                total -= p[n - g]
            p[n] = total

    triangular = [k * (k + 1) // 2 for k in range((math.isqrt(8 * limit + 1) + 1) // 2)]
    q = [0] * (limit + 1)
    for r in (0, 1):
        # q(2i + r) = sum of p(i - s) over the shifts s = (T_k - r) / 2
        shifts = [(t - r) // 2 for t in triangular if t % 2 == r]
        half: list[int] = []
        length = (limit - r) // 2 + 1
        for lo in range(0, length, _BLOCK):
            hi = min(lo + _BLOCK, length)
            half += map(sum, zip(*[p[_BLOCK + lo - s : _BLOCK + hi - s] for s in shifts if s < hi]))
        q[r::2] = half

    del p[:_BLOCK]  # in place: a slice p[_BLOCK:] would copy the table once more
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
