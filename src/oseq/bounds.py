"""Verification of the census bounds and per-sequence structure diagnostics.

For every computed length n the census count is squeezed between the exact
partition number p(n-1) (big-integer comparison) and the product
sqrt(2n) * p(n) * n^sqrt(2n), checked in log space. Both inequalities are
theorems: a violation is an implementation bug and raises.

The per-sequence operations expose the structure behind the upper bound:
the critical index (first degree where the value drops to the degree or
below), the nonincreasing tail beyond it, and the staircase decomposition
of entries in the pre-critical window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .census import CensusTable
from .errors import TheoremViolationError
from .macaulay import HVector
from .partitions import PartitionTable

__all__ = [
    "UPPER_BOUND_RELATIVE_SLACK",
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

# The log-space upper bound is astronomically loose; this slack only absorbs
# floating-point error in the comparison itself.
UPPER_BOUND_RELATIVE_SLACK = 1e-6


def critical_index(h: HVector) -> int:
    """Smallest index i with h_i <= i, or e + 1 when no entry qualifies."""
    for i, value in enumerate(h.entries):
        if value <= i:
            return i
    return h.top_degree + 1


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
    """True iff the critical index stays below sqrt(2n), n the entry sum."""
    return critical_index(h) < math.sqrt(2.0 * h.total)


@dataclass(frozen=True)
class BoundsRecord:
    """One length's count with its lower and upper bound data.

    ``count`` is exact; ``lower`` is p(n-1). ``log_upper`` is
    ln sqrt(2n) + ln p(n) + sqrt(2n) * ln n, natural logs throughout.
    The empirical constants are ln(count)/sqrt(n) and
    ln(count)/(sqrt(n) * ln n); the latter is undefined at n = 1.
    """

    n: int
    count: int
    lower: int
    log_upper: float
    c1_emp: float | None
    c2_emp: float | None
    lower_ok: bool
    upper_ok: bool


@dataclass(frozen=True)
class BoundsReport:
    records: tuple[BoundsRecord, ...]
    c1_min: float | None
    c2_max: float | None


def build_bounds_report(census: CensusTable, partitions: PartitionTable) -> BoundsReport:
    """Check both bounds for every n covered by census and partition tables.

    The lower bound is compared exactly on big integers. The upper bound is
    compared in log space: math.log of a big integer keeps the full
    magnitude (digit count plus refined mantissa), and
    ``UPPER_BOUND_RELATIVE_SLACK`` is relative to the bound. The empirical
    constant envelopes are taken over n >= 3, where the count first exceeds 1.
    """
    max_n = min(census.max_n, partitions.limit)
    if max_n < 1:
        raise ValueError("census and partition tables must share a range n >= 1")
    records: list[BoundsRecord] = []
    for n in range(1, max_n + 1):
        count = census.records[n]
        lower = partitions.p_values[n - 1]
        log_count = math.log(count)
        root = math.sqrt(2.0 * n)
        log_upper = math.log(root) + math.log(partitions.p_values[n]) + root * math.log(n)
        lower_ok = lower <= count
        upper_ok = log_count <= log_upper + UPPER_BOUND_RELATIVE_SLACK * abs(log_upper)
        if not lower_ok:
            raise TheoremViolationError(
                f"lower bound p(n-1) <= count failed at n={n}: {lower} > {count}", n=n
            )
        if not upper_ok:
            raise TheoremViolationError(
                f"log-space upper bound failed at n={n}: "
                f"ln count {log_count} > {log_upper}", n=n
            )
        c1 = log_count / math.sqrt(n)
        c2 = log_count / (math.sqrt(n) * math.log(n)) if n >= 2 else None
        records.append(
            BoundsRecord(
                n=n,
                count=count,
                lower=lower,
                log_upper=log_upper,
                c1_emp=c1,
                c2_emp=c2,
                lower_ok=lower_ok,
                upper_ok=upper_ok,
            )
        )
    tail = [r for r in records if r.n >= 3]
    c1_min = min((r.c1_emp for r in tail), default=None)
    c2_max = max((r.c2_emp for r in tail), default=None)
    return BoundsReport(records=tuple(records), c1_min=c1_min, c2_max=c2_max)


@dataclass(frozen=True)
class StaircaseDecomposition:
    """h_i written as (i+1) + i + ... + (i-t+1) plus a remainder alpha.

    Equivalently a sum of t + 1 consecutive binomials C(m+1, m) starting at
    m = i, with 0 <= alpha < i - t. Defined only for i + 1 <= h_i <=
    (i+1)(i+2)/2 - 1; outside that window no (t, alpha) pair exists.
    """

    degree: int
    t: int
    alpha: int

    def value(self) -> int:
        first = self.degree + 1
        return sum(range(first - self.t, first + 1)) + self.alpha


def _staircase_sum(degree: int, t: int) -> int:
    # (degree+1) + degree + ... + (degree-t+1), i.e. t+1 consecutive integers
    return (t + 1) * (2 * degree + 2 - t) // 2


def staircase_decompose(value: int, degree: int) -> StaircaseDecomposition | None:
    """Greedy maximal-t decomposition of one entry, or None when out of range.

    Takes the largest t with the staircase sum <= value and degree - t >= 1;
    the remainder must then fall below degree - t. The admissible windows
    for consecutive t values tile [degree+1, (degree+1)(degree+2)/2 - 1]
    without overlap, so the greedy pair is the only one.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if value <= degree:
        return None
    t = 0
    while t + 1 <= degree - 1 and _staircase_sum(degree, t + 1) <= value:
        t += 1
    alpha = value - _staircase_sum(degree, t)
    if alpha >= degree - t:
        return None
    return StaircaseDecomposition(degree=degree, t=t, alpha=alpha)


@dataclass(frozen=True)
class RemarkReport:
    """Staircase profile of the pre-critical window of one sequence.

    ``decompositions`` holds one (degree, decomposition-or-None) pair for
    every degree in [1, j-1], j the critical index. The monotonicity flags
    are diagnostics computed over the degrees where the decomposition is
    defined: t should never increase, and alpha should never increase while
    t stays constant. They are reported, not asserted; the guaranteed
    window is asymptotic and not pinned down at small n.
    """

    decompositions: tuple[tuple[int, StaircaseDecomposition | None], ...]
    t_monotone: bool
    alpha_monotone_within_t_plateaus: bool
    first_applicable_degree: int | None
    critical_index: int


def remark_profile(h: HVector) -> RemarkReport:
    """Decompose every pre-critical entry and grade the monotonicity."""
    j = critical_index(h)
    decomps: list[tuple[int, StaircaseDecomposition | None]] = []
    for i in range(1, j):
        decomps.append((i, staircase_decompose(h.entries[i], i)))
    defined = [d for _, d in decomps if d is not None]
    t_monotone = all(a.t >= b.t for a, b in zip(defined, defined[1:]))
    alpha_monotone = all(
        a.alpha >= b.alpha for a, b in zip(defined, defined[1:]) if a.t == b.t
    )
    first_degree = next((i for i, d in decomps if d is not None), None)
    return RemarkReport(
        decompositions=tuple(decomps),
        t_monotone=t_monotone,
        alpha_monotone_within_t_plateaus=alpha_monotone,
        first_applicable_degree=first_degree,
        critical_index=j,
    )
