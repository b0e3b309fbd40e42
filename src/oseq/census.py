"""Exact census of O-sequences by length.

count_osequences(n) is the number of sequences (1, h_1, ..., h_e) with all
entries >= 1, summing to n, that satisfy the growth condition.

Every such sequence splits at its critical index j, the least i with
h_i <= i, into a pre-critical prefix (1, h_1, ..., h_{j-1}) with h_i > i
and a tail h_j >= h_{j+1} >= ... with h_j <= j. The tail is free: h_j <= j
<= h_{j-1}^<j-1>, and x^<d> = x once x <= d. So with N_j(s) the number of
pre-critical prefixes of length j and entry sum s,

    sum over n of L(n) x^n = sum over j of N_j(x) / ((1 - x)(1 - x^2)...(1 - x^j)).

The pass builds N_j forward over j. A prefix of length j ending in x
takes any next entry y with j < y <= x^<j-1> (any y > 1 when j = 1). Since
x^<j-1> grows with x, y follows exactly the prefixes whose last entry is at
least the least x with y <= x^<j-1>, so one running sum of the rows, from
the largest x down, gives every y its row. The prefix (1, 2, ..., j) has the
least sum, j(j + 1)/2, so j < sqrt(2n). The tails are then folded in by
Horner's rule, dividing by 1 - x^j from the longest prefix length down.
Sums stop at the limit of the pass, so a pass to N is exact for every
n <= N.

Enumeration walks the same split, rendering as it goes (text for the CLI,
tuples for the library): a prefix's head is its parent's plus one entry,
and the partitions of the rest m into parts <= j are built once per (j, m),
already rendered, and shared as a block by every prefix with that key.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import isqrt
from operator import add, itemgetter

from .errors import EnumerationCapError, ResourceLimitError, TheoremViolationError
from .macaulay import HVector, _lift, pseudopower

TYPE_CHECKING = False  # typing.TYPE_CHECKING: no module imports typing, which imports re
if TYPE_CHECKING:  # annotations only
    from typing import Callable, Iterator, TypeVar

    _P = TypeVar("_P", str, "tuple[int, ...]")  # what the enumerate walk renders a sequence as

__all__ = [
    "DEFAULT_STREAM_CAP",
    "CensusCounter",
    "CensusTable",
    "count_osequences",
    "enumerate_osequences",
    "precritical_prefixes",
    "build_census",
]

# The largest census length any pass counts. A pass to N holds about N^2
# cells: `oseq count --n 6000` took 14.6 and 14.7 s, and `oseq census
# --max-n 6000 --format csv` 12.6 and 13.9 s, each peaking at 370 MiB
# (launch to exit, peak RSS from os.wait4; 2-CPU x86, Python 3.11.7).
_MAX_CENSUS_CEILING = 6000
DEFAULT_STREAM_CAP = 100_000


class CensusCounter:
    """Counter of L(n) for every n up to the census maximum, reusable across lengths.

    By convention no sequence sums to 0 (h_0 = 1 is mandatory), so
    ``count(0)`` is 0. A request beyond the lengths already counted recounts
    every length up to exactly that one in one prefix-and-tail pass; later
    requests within that range are table lookups. A length above
    ``_MAX_CENSUS_CEILING`` is refused with ResourceLimitError before any pass.
    """

    # A class, and a cache, because the benchmark's tracer times `count` by name:
    # `build_census` and the sweep read all their lengths from one pass through it.
    def __init__(self) -> None:
        self._counts: list[int] = []  # _counts[n] = L(n)

    def count(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"length must be nonnegative, got {n}")
        if n > _MAX_CENSUS_CEILING:
            raise ResourceLimitError(f"census length {n} exceeds the maximum {_MAX_CENSUS_CEILING}")
        if n >= len(self._counts):
            self._counts = _fold_tails(_prefix_rows(n), n)
        return self._counts[n]


def _prefix_rows(limit: int) -> list[list[int]]:
    """N_j for j = 1, 2, ...: the pre-critical prefixes of length j and sum <= ``limit``, by sum."""
    # The prefixes of length j as (cap, row) in ascending last entry x, where
    # cap = x^<j-1> bounds the next entry (any entry may follow (1)). A row
    # is right-aligned: row[-1 - i] counts the prefixes of sum limit - i, so
    # the row of (1) has length limit, empty at limit 0.
    layer = [(limit, ([1] + [0] * limit)[:limit])]
    prefix_counts = []  # N_j for j = 1, 2, ..., right-aligned like the rows
    j = 1
    while layer:
        run: list[int] = []  # the sum of the rows of x and every larger x
        next_layer = []
        while layer:  # from the largest x down, freeing each row once added
            cap, row = layer.pop()
            lead = len(row) - len(run)
            run = row[:lead] + list(map(add, row[lead:], run))
            # The y whose least admissible x is this one lie above the cap
            # of the next smaller x, or above j for the smallest x.
            low = layer[-1][0] if layer else j
            for y in range(min(cap, len(run) - 1), low, -1):
                next_layer.append((_lift(y, j), run[:-y]))  # sums raised by y
        prefix_counts.append(run)
        next_layer.reverse()
        layer = next_layer
        j += 1
    return prefix_counts


def _fold_tails(prefix_counts: list[list[int]], limit: int) -> list[int]:
    """Coefficients 0..limit of sum over j of N_j(x) / ((1 - x)(1 - x^2)...(1 - x^j)).

    ``prefix_counts[j - 1]`` is N_j as a right-aligned row: entry -1 - i counts
    sum limit - i, so a row of length limit + 1 is indexed by the sum itself.
    Horner's rule: add N_j, then divide by 1 - x^j, from the longest j down.
    """
    counts = [0] * (limit + 1)
    for j in range(len(prefix_counts), 0, -1):
        offset = limit + 1 - len(prefix_counts[j - 1])
        counts[offset:] = map(add, counts[offset:], prefix_counts[j - 1])
        for n in range(j, limit + 1):
            counts[n] += counts[n - j]
    return counts


def count_osequences(n: int) -> int:
    """Exact number of O-sequences of length n, refused above the census maximum."""
    return CensusCounter().count(n)


def precritical_prefixes(limit: int) -> Iterator[tuple[int, ...]]:
    """Yield every pre-critical prefix with entry sum at most ``limit``.

    A pre-critical prefix is (1, h_1, ..., h_{j-1}) with h_i > i for every
    i >= 1; its length j is the critical index of every sequence that
    extends it by a tail of values <= j. Prefixes come in preorder, which
    is lexicographic order: a prefix of length j and sum s, then its
    children x = j + 1 .. min(pseudopower(h_{j-1}, j - 1), limit - s) with
    theirs, the bound being limit - s alone for j = 1.
    """
    return map(itemgetter(0), _prefix_heads(limit, _one_tuple, (1,)))


def _one_tuple(x: int) -> tuple[int]:
    return (x,)


def _prefix_heads(
    limit: int, piece: Callable[[int], _P], start: _P
) -> Iterator[tuple[_P, int, int]]:
    """Each prefix of ``precritical_prefixes(limit)``, in order, as ``(head, j, s)``:
    its length j, its sum s, and its head, its parent's head + ``piece(h_{j-1})``."""
    if limit < 1:
        return
    yield start, 1, 1
    # Explicit stack, no recursion. Per prefix: its children's entries, their length, its head, sum.
    stack = [(iter(range(2, limit)), 2, start, 1)]
    while stack:
        children, j, parent, total = stack[-1]
        for x in children:
            head = parent + piece(x)
            s = total + x
            yield head, j, s
            if limit - s > j:  # x >= j, so pseudopower(x, j - 1) > j too
                bound = min(pseudopower(x, j - 1), limit - s)
                stack.append((iter(range(j + 1, bound + 1)), j + 1, head, s))
                break
        else:
            stack.pop()


def _tails(m: int, j: int, piece: Callable[[int], _P], end: _P) -> list[_P]:
    """Every partition a_1 >= a_2 >= ... of m into parts <= j, in ascending lexicographic
    order, as ``piece(a_1) + piece(a_2) + ... + end``: those with c parts j, ascending c,
    each followed by a partition of m - c*j into parts < j. Parts <= 2 are closed-form.
    """
    j = min(j, m)
    if j < 2:
        return [piece(1) * m + end]
    parts = list(map(piece, range(1, j + 1)))  # parts[k - 1] renders a part k
    ones = list(map(add, map(parts[0].__mul__, range(m + 1)), repeat(end)))
    twos = list(map(parts[1].__mul__, range(m // 2 + 1)))
    if j == 2:  # c twos and m - 2c ones, for each c
        return list(map(add, twos, ones[m::-2]))
    rows: list[_P] = []

    def fill(m: int, j: int, head: _P) -> None:  # head + each partition of m, 2 < j <= m
        for rest in range(m, -1, -j):
            if j > 3 and rest > 2:
                fill(rest, min(j - 1, rest), head)
            else:  # parts <= 2 are left, as for j = 2
                rows.extend(map(head.__add__, map(add, twos, ones[rest::-2])))
            head += parts[j - 1]

    fill(m, j, end[:0])  # from an empty head
    return rows


def _osequence_blocks(
    n: int, cap: int, piece: Callable[[int], _P], start: _P, end: _P
) -> tuple[int, Iterator[tuple[_P, list[_P]]]]:
    """L(n) and a stream of every O-sequence of length n as blocks ``(head, tails)``.

    The heads follow ``_prefix_heads(n, piece, start)``; the tails of a prefix
    of length j and sum s, ``_tails(n - s, j, piece, end)``, are built once per
    (j, s) and shared by every prefix with that key. ``head + tail`` over the
    blocks, then their tails, renders every O-sequence of length n in lexicographic
    order. ``piece`` renders each x in 1..n once, before the walk; the walk makes
    every entry, so one outside 1..n is a bug, raised as a TheoremViolationError.
    A count above ``cap`` is refused at call time with an EnumerationCapError.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if cap < 1:
        raise ValueError("cap must be positive")
    total = count_osequences(n)
    if total > cap:
        raise EnumerationCapError(n=n, count=total, cap=cap)

    def walk() -> Iterator[tuple[_P, list[_P]]]:
        # A walk to n makes only entries in 1..n, each rendered once here: the
        # lookup of any other entry is a bug in the walk.
        pieces = {x: piece(x) for x in range(1, n + 1)}
        # built[s][j] are the tails of key (j, s); j(j + 1)/2 <= s, so j <= isqrt(2n).
        built: list[list[list[_P] | None]] = [[None] * (isqrt(2 * n) + 1) for _ in range(n + 1)]
        try:
            for head, j, s in _prefix_heads(n, pieces.__getitem__, start):
                tails = built[s][j]
                if tails is None:
                    tails = built[s][j] = _tails(n - s, j, pieces.__getitem__, end)
                yield head, tails
        except KeyError as bad:  # str(bad) is the entry
            raise TheoremViolationError(f"the walk to n={n} built the entry {bad}") from None

    return total, walk()


def enumerate_osequences(n: int, cap: int = DEFAULT_STREAM_CAP) -> Iterator[HVector]:
    """Yield every O-sequence of length n, in lexicographic entry order.

    The exact count is computed first; if it exceeds ``cap`` the stream is
    refused with an EnumerationCapError carrying the count.

    Every O-sequence is a pre-critical prefix of some length j and sum s
    followed by a partition of n - s into parts <= j, because x^<d> = x
    once x <= d. So the stream walks ``precritical_prefixes(n)`` and yields
    each prefix followed by every such partition in ascending lexicographic
    order before its children, whose next entry exceeds j: the blocks of
    ``_osequence_blocks`` with one-tuples as pieces, flattened.
    """
    _, blocks = _osequence_blocks(n, cap, _one_tuple, (1,), ())
    return (HVector(head + tail) for head, tails in blocks for tail in tails)


class CensusTable(namedtuple("CensusTable", "records max_n")):
    """Computed counts for every length 1..max_n."""

    __slots__ = ()

    records: dict[int, int]
    max_n: int


def build_census(max_n: int) -> CensusTable:
    """Compute counts for every length 1..max_n in one pass, refused above the census maximum."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    counter = CensusCounter()
    counter.count(max_n)  # a fresh counter counts every length through max_n at once
    records = {n: counter.count(n) for n in range(1, max_n + 1)}
    return CensusTable(records=records, max_n=max_n)
