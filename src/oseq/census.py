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
reachable, and layer d only needs r <= N - d(d + 1)/2.

Most cells of a row need not be stored:

* Lazy rows. Let T_d(r) = G_d(r)[r] be the total of row r, and y_0(r) the
  least y > d with y + y^<d> >= r. From y_0(r) on the cap no longer binds,
  so F(d, y, r - y) = T_{d+1}(r - y). y_0(r) never decreases as r grows,
  so one pointer per layer finds it, and the caps y^<d> are listed as it
  advances. Row r stores G_d(r)[0..k] with k = min(r, y_0(r) - 1), which
  is at least min(d, r), so every partition-tail lookup lands on a stored
  cell. With S_{d+1}(i) = T_{d+1}(0) + ... + T_{d+1}(i - 1), the row total
  is T_d(r) = G_d(r)[k] + S_{d+1}(r - k), and a cell b > k is
  T_d(r) - S_{d+1}(r - b). While layer d is built, the pass keeps the rows
  and totals of layer d + 1 and the prefix sums of layers d + 1 and d + 2.
* Reachability. Let m(d, y) be the least h_0 + ... + h_{d-1} of a valid
  prefix with h_d = y: m(1, y) = 1, and m(d, y) = m(d - 1, x) + x for the
  least x with x^<d-1> >= y. Only m(d, 1) = d; for instance m(5, 5) = 15.
  A sequence of total at most N reaches row r of layer d only with
  h_d <= B_d(r) = max{y : m(d, y) + r <= N}, so k is cut to B_d(r), but
  never below min(d, r), and the y_0 pointer, with the caps it lists, stops
  just past B_d(r). A cut row's total is wrong, but no lookup reads
  it, nor any difference of prefix sums that spans it. The pruning follows
  the limit N of the pass, so a pass counts through exactly the length it
  is asked for.

An independent generate-and-test oracle (every composition, filtered by the
validity test) cross-checks the counter at desk scale; the two share no
code besides ``is_o_sequence``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, count
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
    "precritical_prefixes",
    "brute_force_count",
    "build_census",
]

DEFAULT_CENSUS_CEILING = 1000
DEFAULT_STREAM_CAP = 100_000
BRUTE_FORCE_CAP = 16


class CensusCounter:
    """Counter of L(n) for every n up to ``ceiling``, reusable across lengths.

    By convention no sequence sums to 0 (h_0 = 1 is mandatory), so
    ``count(0)`` is 0. A request beyond the lengths already counted recounts
    every length up to exactly that one in one pass; later requests within
    that range are table lookups. The pass stores only the cells a sequence
    of total at most its limit can reach, so it does not count further
    ahead than asked.
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
        if n >= len(self._counts):
            self._counts = self._count_through(n)
        return self._counts[n]

    def _count_through(self, limit: int) -> list[int]:
        """L(0..limit) by the layered pass described in the module docstring."""
        top_degree = 1
        while (top_degree + 1) * (top_degree + 2) // 2 <= limit:
            top_degree += 1
        # caps[d][y] = y^<d>, listed only as far as a pointer has needed it.
        caps = [list(range(d + 1)) for d in range(top_degree + 1)]
        floors = _prefix_floors(limit, caps)
        upper: list[list[int]] = []  # stored cells of G_{d+1}, indexed [s][b]
        upper_totals: list[int] = []  # T_{d+1}
        upper_sums = [0]  # S_{d+1}: upper_sums[i] = T_{d+1}(0) + ... + T_{d+1}(i - 1)
        upper2_sums = [0]  # S_{d+2}
        for d in range(top_degree, 0, -1):
            top = limit - d * (d + 1) // 2
            cap, floor = caps[d], floors[d]
            y0 = d + 1  # the pointer for y_0(r)
            layer, totals = [[1]], [1]
            for r in range(1, top + 1):
                reach = max(d, bisect_right(floor, limit - r))  # B_d(r), at least d
                while y0 <= reach:
                    if y0 == len(cap):
                        cap.append(pseudopower(y0, d))
                    if y0 + cap[y0] >= r:
                        break
                    y0 += 1
                k = min(r, y0 - 1, reach)
                terms = [layer[r - y][min(y, r - y)] for y in range(1, min(d, r) + 1)]
                # Below y_0 the cap binds: y^<d> < r - y, so F(d, y, r - y) is
                # G_{d+1}(r - y)[y^<d>], stored or answered lazily.
                terms += [
                    row[c] if c < len(row := upper[s]) else upper_totals[s] - upper2_sums[s - c]
                    for s, c in zip(range(r - d - 1, r - k - 1, -1), cap[d + 1 : k + 1])
                ]
                row = [0, *accumulate(terms)]
                layer.append(row)
                totals.append(row[k] + upper_sums[r - k])
            upper, upper_totals = layer, totals
            upper2_sums, upper_sums = upper_sums, [0, *accumulate(totals)]
        return [0, *upper_totals]


def _prefix_floors(limit: int, caps: list[list[int]]) -> list[list[int]]:
    """floors[d][y - 1] = m(d, y) for every y with m(d, y) + y <= limit.

    m(d, y) is the least h_0 + ... + h_{d-1} of a valid prefix with h_d = y:
    m(1, y) = 1, and m(d, y) = m(d - 1, x) + x for the least x with
    x^<d-1> >= y, since x^<d-1> and m(d - 1, x) + x both grow with x.
    ``caps`` is extended as the search for x needs it.
    """
    floors = [[], [1] * (limit - 1)]
    for d in range(2, len(caps)):
        below, cap, floor = floors[d - 1], caps[d - 1], []
        x = 1
        for y in count(1):
            while cap[x] < y and x < len(below):
                x += 1
                if x == len(cap):
                    cap.append(pseudopower(x, d - 1))
            if cap[x] < y or below[x - 1] + x + y > limit:
                break
            floor.append(below[x - 1] + x)
        floors.append(floor)
    return floors


def count_osequences(n: int, ceiling: int = DEFAULT_CENSUS_CEILING) -> int:
    """Exact number of O-sequences of length n, refused above ``ceiling``."""
    return CensusCounter(ceiling=ceiling).count(n)


def precritical_prefixes(limit: int) -> Iterator[tuple[int, ...]]:
    """Yield every pre-critical prefix with entry sum at most ``limit``.

    A pre-critical prefix is (1, h_1, ..., h_{j-1}) with h_i > i for every
    i >= 1; its length j is the critical index of every sequence that
    extends it by a tail of values <= j. Prefixes come in preorder, which
    is lexicographic order: a prefix of length j and sum s, then its
    children x = j + 1 .. min(pseudopower(h_{j-1}, j - 1), limit - s) with
    theirs, the bound being limit - s alone for j = 1.
    """
    if limit < 1:
        return
    # Explicit stack, so no depth hits the recursion limit. bounds[i] is the
    # largest value allowed for prefix[i + 1].
    prefix, bounds, total = [1], [], 1
    while True:
        yield tuple(prefix)
        j = len(prefix)
        room = limit - total
        if room > j:
            bound = min(room, pseudopower(prefix[-1], j - 1)) if j > 1 else room
            if bound > j:
                bounds.append(bound)
                prefix.append(j + 1)
                total += j + 1
                continue
        # Drop every entry already at its bound, then raise the deepest one left.
        while bounds and prefix[-1] == bounds[-1]:
            total -= prefix.pop()
            bounds.pop()
        if not bounds:
            return
        prefix[-1] += 1
        total += 1


def enumerate_osequences(
    n: int,
    cap: int = DEFAULT_STREAM_CAP,
    counter: CensusCounter | None = None,
) -> Iterator[HVector]:
    """Yield every O-sequence of length n, in lexicographic entry order.

    The exact count is computed first, by ``counter`` (a fresh counter with
    the default ceiling when none is given); if it exceeds ``cap`` the
    stream is refused with an EnumerationCapError carrying the count.

    Every O-sequence is a pre-critical prefix of some length j and sum s
    followed by a partition of n - s into parts <= j, because x^<d> = x
    once x <= d. So the stream walks ``precritical_prefixes(n)`` and, at
    each prefix, yields the prefix followed by every such partition in
    ascending lexicographic order before moving on to the prefix's
    children, whose next entry exceeds j. That is plain lexicographic
    order over the whole stream.
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
        for prefix in precritical_prefixes(n):
            j = len(prefix)
            seq = [*prefix, *[1] * (n - sum(prefix))]
            yield HVector(tuple(seq))
            while len(seq) > j:
                # Successor of the tail: pop trailing entries until one can rise
                # by 1 and stay <= its left neighbour (<= j for the first tail
                # entry), raise it and refill what it leaves behind with 1s.
                rest = seq.pop()
                while len(seq) > j and seq[-1] == (seq[-2] if len(seq) > j + 1 else j):
                    rest += seq.pop()
                if len(seq) == j:
                    break
                seq[-1] += 1
                seq += [1] * (rest - 1)
                yield HVector(tuple(seq))

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
    records = {n: counter.count(n) for n in range(1, max_n + 1)}
    return CensusTable(records=records, max_n=max_n)
