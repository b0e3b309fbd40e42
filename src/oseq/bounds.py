"""Verification of the census bounds and of the per-sequence structure theorems.

For every computed length n the census count L(n) is squeezed between
p(n-1) and J * n^(J-1) * p(n), J = isqrt(2n - 1), both compared exactly on
big integers. The upper bound counts the paper's split: a critical index
j <= J (j^2 < 2n), j - 1 prefix entries of at most n each, and a partition
tail. As J <= sqrt(2n), it implies the log bound the report prints,
ln sqrt(2n) + ln p(n) + sqrt(2n) ln n. Both inequalities are theorems: a
violation is an implementation bug and raises, so no record stores a
pass/fail flag.

The per-sequence operations expose the structure behind the upper bound:
the critical index (first degree where the value drops to the degree or
below), the nonincreasing tail beyond it, and the staircase decomposition
of entries in the pre-critical window, whose (t, alpha) never rises from
one degree to the next (the window lemma at ``_staircase_step_holds``,
asserted the same way).
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import isqrt

from .errors import TheoremViolationError
from .macaulay import HVector, is_o_sequence

TYPE_CHECKING = False  # typing.TYPE_CHECKING: no module imports typing, which imports re
if TYPE_CHECKING:  # annotations only: importing bounds does not load partitions
    from typing import Sequence

    from .census import CensusTable
    from .partitions import PartitionTable

__all__ = [
    "BoundsRecord",
    "BoundsReport",
    "StaircaseDecomposition",
    "RemarkReport",
    "critical_index",
    "verify_tail_partition",
    "check_prefix_bound",
    "build_bounds_report",
    "staircase_decompose",
    "remark_profile",
]

def critical_index(h: HVector | Sequence[int]) -> int:
    """Smallest index i with h_i <= i, or e + 1 when no entry qualifies."""
    for i, value in enumerate(h):
        if value <= i:
            return i
    return len(h)


def verify_tail_partition(h: HVector) -> bool:
    """True iff the entries from the critical index onward are nonincreasing.

    For a validated O-sequence this is forced by the growth condition, so
    the tail always reads off an integer partition; False on a valid
    sequence would mean a bug.
    """
    j = critical_index(h)
    tail = h.entries[j:]
    return all(tail[k] >= tail[k + 1] for k in range(len(tail) - 1))


def check_prefix_bound(h: HVector) -> bool:
    """True iff the critical index j stays below sqrt(2n), n the entry sum.

    Decided exactly, as j^2 < 2n. Always true: h_i >= i + 1 below j, so
    2n >= 2(1 + ... + j) = j^2 + j > j^2.
    """
    j = critical_index(h)
    return j * j < 2 * h.total


class BoundsRecord(namedtuple("BoundsRecord", "n count lower log_upper c1_emp c2_emp")):
    """One length's count with its lower and upper bound data.

    Both bounds hold: ``build_bounds_report`` raises before it would build a
    record that breaks either. ``count`` is exact; ``lower`` is p(n-1).
    ``log_upper`` is ln sqrt(2n) + ln p(n) + sqrt(2n) * ln n (natural logs
    throughout), implied by the bound count <= J * n^(J-1) * p(n),
    J = isqrt(2n - 1), that the report checks. The empirical constants are
    ln(count)/sqrt(n) and ln(count)/(sqrt(n) * ln n); the latter is
    undefined at n = 1.
    """

    __slots__ = ()

    n: int
    count: int
    lower: int
    log_upper: float
    c1_emp: float | None
    c2_emp: float | None


class BoundsReport(namedtuple("BoundsReport", "records c1_min c2_max")):
    __slots__ = ()

    records: tuple[BoundsRecord, ...]
    c1_min: float | None
    c2_max: float | None


def build_bounds_report(census: CensusTable, partitions: PartitionTable) -> BoundsReport:
    """Check both bounds for every n covered by census and partition tables.

    Both are compared exactly on big integers: p(n-1) <= L(n) <= J *
    n^(J-1) * p(n), J = isqrt(2n - 1), equality at n = 1. The upper bound
    implies ``log_upper``, which is computed only to be printed. The
    empirical constant envelopes are taken over n >= 3, where the count
    first exceeds 1.
    """
    max_n = min(census.max_n, partitions.limit)
    if max_n < 1:
        raise ValueError("census and partition tables must share a range n >= 1")
    records: list[BoundsRecord] = []
    for n in range(1, max_n + 1):
        count = census.records[n]
        lower = partitions.p_values[n - 1]
        p_n = partitions.p_values[n]
        if lower > count:
            raise TheoremViolationError(
                f"lower bound p(n-1) <= count failed at n={n}: {lower} > {count}"
            )
        j_max = isqrt(2 * n - 1)  # the largest j with j^2 < 2n
        upper = j_max * n ** (j_max - 1) * p_n
        if count > upper:
            raise TheoremViolationError(
                f"upper bound L(n) <= J * n^(J-1) * p(n) failed at n={n}, J={j_max}: "
                f"{count} > {upper}"
            )
        root = math.sqrt(2.0 * n)
        log_upper = math.log(root) + math.log(p_n) + root * math.log(n)
        log_count = math.log(count)
        c1 = log_count / math.sqrt(n)
        c2 = log_count / (math.sqrt(n) * math.log(n)) if n >= 2 else None
        records.append(BoundsRecord(n, count, lower, log_upper, c1, c2))
    tail = [r for r in records if r.n >= 3]
    c1_min = min((r.c1_emp for r in tail), default=None)
    c2_max = max((r.c2_emp for r in tail), default=None)
    return BoundsReport(records=tuple(records), c1_min=c1_min, c2_max=c2_max)


class StaircaseDecomposition(namedtuple("StaircaseDecomposition", "degree t alpha")):
    """h_i written as (i+1) + i + ... + (i-t+1) plus a remainder alpha.

    Equivalently a sum of t + 1 consecutive binomials C(m+1, m) starting at
    m = i, with 0 <= alpha < i - t. Defined only for i + 1 <= h_i <=
    (i+1)(i+2)/2 - 1; outside that window no (t, alpha) pair exists.
    """

    __slots__ = ()

    degree: int
    t: int
    alpha: int


def _staircase_sum(degree: int, t: int) -> int:
    # (degree+1) + degree + ... + (degree-t+1), i.e. t+1 consecutive integers
    return (t + 1) * (2 * degree + 2 - t) // 2


def staircase_decompose(value: int, degree: int) -> StaircaseDecomposition | None:
    """The staircase decomposition of one entry, or None when out of range.

    In the window d < v < C(d+2, 2), t is the largest t <= d - 1 with
    S(d, t) <= v. Solving that quadratic with the ceiling of its root gives
    t with no search, and v^<d> = v + t + 1: the expansion is t + 1 terms
    C(k+1, k), each lifting one higher, and alpha terms C(k, k).
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not degree < value < (degree + 1) * (degree + 2) // 2:
        return None
    t = (2 * degree - isqrt((2 * degree + 3) ** 2 - 8 * value - 1)) // 2
    alpha = value - _staircase_sum(degree, t)
    if not (0 <= t <= degree - 1 and 0 <= alpha < degree - t):
        return None
    return StaircaseDecomposition(degree=degree, t=t, alpha=alpha)


def _staircase_step_holds(
    previous: StaircaseDecomposition | None, current: StaircaseDecomposition | None
) -> bool:
    """The window lemma for one step: ``current`` at degree i + 1 follows ``previous`` at i.

    Write S(d, t) = (d+1) + d + ... + (d-t+1) and let x = S(i, t) + alpha be
    in the window at degree i. Then x^<i> = x + t + 1 = S(i+1, t) + alpha,
    and S(i+1, t+1) - S(i+1, t) = i + 1 - t > alpha. So every pre-critical
    next entry y (i + 2 <= y <= x^<i>) is in the window at degree i + 1, and
    (t_y, alpha_y) <= (t, alpha) lexicographically, the order of the values
    in one window. The window is absorbing, t never rises, and alpha never
    rises while t stays; only where the window starts depends on the sequence.
    """
    return previous is None or (
        current is not None and (current.t, current.alpha) <= (previous.t, previous.alpha)
    )


class RemarkReport(
    namedtuple("RemarkReport", "decompositions first_applicable_degree critical_index")
):
    """Staircase profile of the pre-critical window of one sequence.

    ``decompositions`` holds one (degree, decomposition-or-None) pair for
    every degree in [1, j-1], j the critical index. Along them t never
    increases, and alpha never increases while t stays the same:
    ``remark_profile`` asserts this by the window lemma and raises on a
    violation.
    """

    __slots__ = ()

    decompositions: tuple[tuple[int, StaircaseDecomposition | None], ...]
    first_applicable_degree: int | None
    critical_index: int


def remark_profile(h: HVector) -> RemarkReport:
    """Decompose every pre-critical entry and assert the window lemma between degrees.

    The lemma holds for O-sequences only, so ``h`` must pass ``is_o_sequence``:
    any other sequence is refused with ValueError, naming the reason and index.
    """
    report = is_o_sequence(h.entries)
    if not report.valid:
        seq = ",".join(map(str, h.entries))
        raise ValueError(
            f"{seq} is not an O-sequence: {report.reason} at index {report.first_violation}"
        )
    return _staircase_profile(h.entries)


def _staircase_profile(entries: tuple[int, ...]) -> RemarkReport:
    """``remark_profile`` of entries that already passed ``is_o_sequence``."""
    j = critical_index(entries)
    decomps = tuple((i, staircase_decompose(entries[i], i)) for i in range(1, j))
    for (_, previous), (i, current) in zip(decomps, decomps[1:]):
        if not _staircase_step_holds(previous, current):
            seq = ",".join(map(str, entries))
            raise TheoremViolationError(
                f"staircase window lemma failed at degree {i} of {seq}: {current} follows {previous}"
            )
    return RemarkReport(
        decompositions=decomps,
        first_applicable_degree=next((i for i, d in decomps if d is not None), None),
        critical_index=j,
    )
