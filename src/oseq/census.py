"""Exact census of O-sequences by length.

count_osequences(n) is the number of sequences (1, h_1, ..., h_e) with all
entries >= 1, summing to n, that satisfy the growth condition.

The counter is a bottom-up dynamic program over degrees. Write F(d, x, r)
for the number of ways to finish a sequence with h_d = x and r still to
place, and G_d(r)[b] = sum of F(d, y, r - y) over 1 <= y <= b, with
G_d(0) = [1] read as 1 at every index (nothing left to place ends the
sequence). Then:

* F(d, x, r) = G_{d+1}(r)[min(r, x^<d>)], one lookup into the next layer;
* once x <= d the growth condition stops binding (every later value is
  nonincreasing), so F(d, x, r) is the number of partitions of r into
  parts <= x, which is G_d(r)[x]: the layer's own earlier row;
* L(n) = G_1(n - 1)[n - 1] for n >= 1, so one pass yields every L(1..N).

A value h_d > d forces h_i > i for every earlier i, so the entries through
degree d sum to at least (d + 1)(d + 2)/2. Layers therefore start at the
smallest D with (D + 1)(D + 2)/2 > N, where no value above the degree is
reachable, layer d only needs r <= N - d(d + 1)/2, and only two layers are
held at a time.

An independent generate-and-test oracle (every composition, filtered by the
validity test) cross-checks the counter at desk scale; the two share no
code besides ``is_o_sequence``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .errors import EnumerationCapError, ResourceLimitError
from .macaulay import HVector, is_o_sequence, pseudopower

__all__ = [
    "DEFAULT_CENSUS_CEILING",
    "DEFAULT_STREAM_CAP",
    "BRUTE_FORCE_CAP",
    "CensusCounter",
    "CensusTable",
    "count_osequences",
    "enumerate_osequences",
    "brute_force_count",
    "build_census",
]

DEFAULT_CENSUS_CEILING = 200
DEFAULT_STREAM_CAP = 100_000
BRUTE_FORCE_CAP = 16


class CensusCounter:
    """Counter of L(n) for every n up to ``ceiling``, reusable across lengths.

    By convention no sequence sums to 0 (h_0 = 1 is mandatory), so
    ``count(0)`` is 0. The first request beyond the lengths already counted
    recounts every length up to it in one pass (at least doubling the range
    covered, up to the ceiling); later requests within that range are table
    lookups.
    """

    def __init__(self, ceiling: int = DEFAULT_CENSUS_CEILING) -> None:
        if ceiling < 1:
            raise ValueError("ceiling must be positive")
        self.ceiling = ceiling
        self._counts = [0]  # _counts[n] = L(n)

    def count(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"length must be nonnegative, got {n}")
        if n > self.ceiling:
            raise ResourceLimitError(
                f"census length {n} exceeds the configured ceiling {self.ceiling}"
            )
        have = len(self._counts) - 1
        if n > have:
            self._counts = self._count_through(min(self.ceiling, max(n, 2 * have)))
        return self._counts[n]

    def _count_through(self, limit: int) -> list[int]:
        """L(0..limit) by the layered pass described in the module docstring."""
        top_degree = 1
        while (top_degree + 1) * (top_degree + 2) // 2 <= limit:
            top_degree += 1
        upper: list[list[int]] = []  # G_{d+1}, indexed [r][b]
        for d in range(top_degree, 0, -1):
            top = limit - d * (d + 1) // 2
            # Growth caps of the values above the degree; capping at ``top``
            # changes no lookup, since every lookup is at most r.
            caps = [min(top, pseudopower(y, d)) for y in range(d + 1, top + 1)]
            # Rows are padded to d + 1 entries, so row s read at y <= d is the
            # number of partitions of s into parts <= y.
            layer = [[1] * (d + 1)]
            for r in range(1, top + 1):
                terms = [layer[r - y][y] for y in range(1, min(d, r) + 1)]
                # In the top layer r <= d, so no value above the degree is reachable.
                terms += [
                    upper[r - y][min(r - y, cap)] for y, cap in zip(range(d + 1, r + 1), caps)
                ]
                row = [0, *accumulate(terms)]
                row += [row[-1]] * (d + 1 - len(row))
                layer.append(row)
            upper = layer
        return [0] + [upper[n - 1][n - 1] for n in range(1, limit + 1)]


def count_osequences(n: int, ceiling: int = DEFAULT_CENSUS_CEILING) -> int:
    """Exact number of O-sequences of length n, refused above ``ceiling``."""
    return CensusCounter(ceiling=ceiling).count(n)


def enumerate_osequences(
    n: int,
    cap: int = DEFAULT_STREAM_CAP,
    counter: CensusCounter | None = None,
) -> Iterator[HVector]:
    """Yield every O-sequence of length n, in lexicographic entry order.

    The exact count is computed first, by ``counter`` (a fresh counter with
    the default ceiling when none is given); if it exceeds ``cap`` the
    stream is refused with an EnumerationCapError carrying the count. No
    sequence of a fixed length is a prefix of another, so ascending choice
    of each next entry yields plain lexicographic order.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if cap < 1:
        raise ValueError("cap must be positive")
    if counter is None:
        counter = CensusCounter()
    total = counter.count(n)
    if total > cap:
        raise EnumerationCapError(n=n, count=total, cap=cap)

    def walk() -> Iterator[HVector]:
        # Explicit stack, so no length hits the recursion limit. bounds[i] is
        # the largest value allowed for prefix[i + 1]; every value from 1 up to
        # it can be completed (x^<d> >= x), so each step down takes 1 and a
        # sequence is complete exactly when nothing remains to place.
        prefix, bounds, remaining = [1], [], n - 1
        while True:
            while remaining:
                degree = len(prefix) - 1
                bound = pseudopower(prefix[-1], degree) if degree else remaining
                bounds.append(min(remaining, bound))
                prefix.append(1)
                remaining -= 1
            yield HVector(tuple(prefix))
            # Drop every entry already at its bound, then raise the deepest one left.
            while bounds and prefix[-1] == bounds[-1]:
                remaining += prefix.pop()
                bounds.pop()
            if not bounds:
                return
            prefix[-1] += 1
            remaining -= 1

    return walk()


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def brute_force_count(n: int) -> int:
    """Count by generating every 1-prefixed composition and filtering.

    Independent oracle for the layered counter; the 2^(n-2) compositions
    keep this to desk scale, so lengths above ``BRUTE_FORCE_CAP`` are refused.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if n > BRUTE_FORCE_CAP:
        raise ResourceLimitError(
            f"brute-force counting of length {n} refused (hard cap {BRUTE_FORCE_CAP})"
        )
    return sum(
        1 for tail in _compositions(n - 1) if is_o_sequence((1,) + tail).valid
    )


@dataclass(frozen=True)
class CensusTable:
    """Computed counts for every length 1..max_n."""

    records: dict[int, int]
    max_n: int

    def count(self, n: int) -> int:
        return self.records[n]


def build_census(max_n: int, ceiling: int = DEFAULT_CENSUS_CEILING) -> CensusTable:
    """Compute counts for every length 1..max_n in one pass, refused above ``ceiling``."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    counter = CensusCounter(ceiling=ceiling)
    counter.count(max_n)  # a fresh counter counts every length through max_n at once
    counts = counter._counts
    return CensusTable(records={n: counts[n] for n in range(1, max_n + 1)}, max_n=max_n)
