"""Exact census of O-sequences by length.

count_osequences(n) is the number of sequences (1, h_1, ..., h_e) with all
entries >= 1, summing to n, that satisfy the growth condition.

Every such sequence splits at its critical index j, the least i with
h_i <= i, into a pre-critical prefix (1, h_1, ..., h_{j-1}) with h_i > i
and a tail h_j >= h_{j+1} >= ... with h_j <= j. The tail is free: h_j <= j
<= h_{j-1}^<j-1>, and x^<d> = x once x <= d. So with N_j(s) the number of
pre-critical prefixes of length j and entry sum s,

    sum over n of L(n) x^n = sum over j of N_j(x) / ((1 - x)(1 - x^2)...(1 - x^j)).

The counter builds N_j forward over j. A prefix of length j ending in x
takes any next entry y with j < y <= x^<j-1> (any y > 1 when j = 1). Since
x^<j-1> grows with x, y follows exactly the prefixes whose last entry is at
least the least x with y <= x^<j-1>, so one running sum of the rows, from
the largest x down, gives every y its row. The prefix (1, 2, ..., j) has the
least sum, j(j + 1)/2, so j < sqrt(2n). The tails are then folded in by
Horner's rule, dividing by 1 - x^j from the longest prefix length down.
Sums stop at the limit of the pass, so a pass to N is exact for every
n <= N.

Enumeration walks the same split: each pre-critical prefix is followed by
every partition of the rest into parts <= j. Those partitions depend only on
(j, m), m the rest, so one call builds each such list once, checks it, keeps
only what its caller's render function makes of it, and streams that as a
block with every prefix that shares the key; the CLI renders each prefix
and each tail once, by block, rather than each sequence entry by entry.
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import Callable, Iterator, NamedTuple, TypeVar

from .errors import EnumerationCapError, ResourceLimitError, TheoremViolationError
from .macaulay import HVector, _canonical_fault, _lift, pseudopower

__all__ = [
    "DEFAULT_STREAM_CAP",
    "CensusCounter",
    "CensusTable",
    "count_osequences",
    "enumerate_osequences",
    "precritical_prefixes",
    "build_census",
]

# The largest census length any counter counts. A pass to N holds about N^2
# cells: `oseq count --n 6000` took 14.6 and 14.7 s, and `oseq census
# --max-n 6000 --format csv` 12.6 and 13.9 s, each peaking at 370 MiB
# (launch to exit, peak RSS from os.wait4; 2-CPU x86, Python 3.11.7).
_MAX_CENSUS_CEILING = 6000
DEFAULT_STREAM_CAP = 100_000
_Rendered = TypeVar("_Rendered")


class CensusCounter:
    """Counter of L(n) for every n up to the census maximum, reusable across lengths.

    By convention no sequence sums to 0 (h_0 = 1 is mandatory), so
    ``count(0)`` is 0. A request beyond the lengths already counted recounts
    every length up to exactly that one in one prefix-and-tail pass; later
    requests within that range are table lookups. A length above
    ``_MAX_CENSUS_CEILING`` is refused with ResourceLimitError before any pass.
    """

    def __init__(self) -> None:
        self._counts = [0]  # _counts[n] = L(n)

    def count(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"length must be nonnegative, got {n}")
        if n > _MAX_CENSUS_CEILING:
            raise ResourceLimitError(f"census length {n} exceeds the maximum {_MAX_CENSUS_CEILING}")
        if n >= len(self._counts):
            self._counts = self._count_through(n)
        return self._counts[n]

    def _count_through(self, limit: int) -> list[int]:
        """L(0..limit): count the pre-critical prefixes, then fold in their tails."""
        # The prefixes of length j as (cap, row) in ascending last entry x, where
        # cap = x^<j-1> bounds the next entry (any entry may follow (1)). A row
        # is right-aligned: row[-1 - i] counts the prefixes of sum limit - i.
        layer = [(limit, [1] + [0] * (limit - 1))]
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
        return _fold_tails(prefix_counts, limit)


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


def _tails(m: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Every partition of m into parts <= j, in ascending lexicographic order.

    Each partition is a nonincreasing tuple; m = 0 has the one empty partition.
    """
    seq = [1] * m
    tails = [tuple(seq)]
    while seq:
        # Successor: pop trailing entries until one can rise by 1 and stay
        # <= its left neighbour (<= j for the first entry), raise it and
        # refill what it leaves behind with 1s.
        rest = seq.pop()
        while seq and seq[-1] == (seq[-2] if len(seq) > 1 else j):
            rest += seq.pop()
        if not seq:
            break
        seq[-1] += 1
        seq += [1] * (rest - 1)
        tails.append(tuple(seq))
    return tuple(tails)


def _osequence_blocks(
    n: int, cap: int, render: Callable[[tuple[tuple[int, ...], ...]], _Rendered]
) -> tuple[int, Iterator[tuple[tuple[int, ...], _Rendered]]]:
    """L(n) and a stream of every O-sequence of length n as blocks ``(prefix, render(tails))``.

    The blocks follow ``precritical_prefixes(n)``; ``tails`` lists, by
    ``_tails``, the partitions of m = n - sum(prefix) into parts <= j =
    len(prefix), so ``prefix + tail`` over the blocks in order, then over
    their tails, is every O-sequence of length n in lexicographic order.
    Each tuple of tails is built, checked and passed to ``render`` once per
    (j, m) in one call; only the result is kept, and every prefix with that
    key gets that same object. A piece out of canonical form
    (``_canonical_fault``) is a bug, raised as a TheoremViolationError naming
    it, at the cost of one ``min`` over each prefix and one over the entries
    of each tuple of tails, in C: after a canonical prefix, a tail keeps the
    form exactly when (1, its smallest entry) has it.

    The exact count is computed first, once; if it exceeds ``cap`` the
    stream is refused with an EnumerationCapError carrying the count, at
    call time, before anything is iterated.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if cap < 1:
        raise ValueError("cap must be positive")
    total = count_osequences(n)
    if total > cap:
        raise EnumerationCapError(n=n, count=total, cap=cap)

    def walk() -> Iterator[tuple[tuple[int, ...], _Rendered]]:
        built: dict[tuple[int, int], _Rendered] = {}
        for prefix in precritical_prefixes(n):
            if fault := _canonical_fault(prefix):
                raise TheoremViolationError(f"the walk to n={n} built the prefix {prefix} ({fault})")
            key = (len(prefix), n - sum(prefix))
            if key not in built:
                tails = _tails(key[1], key[0])
                if fault := _canonical_fault((1, min(chain.from_iterable(tails), default=1))):
                    tail = next(t for t in tails if _canonical_fault((1, *t)))
                    raise TheoremViolationError(f"the walk to n={n} built the tail {tail} ({fault})")
                built[key] = render(tails)
            yield prefix, built[key]

    return total, walk()


def enumerate_osequences(n: int, cap: int = DEFAULT_STREAM_CAP) -> Iterator[HVector]:
    """Yield every O-sequence of length n, in lexicographic entry order.

    The exact count is computed first; if it exceeds ``cap`` the stream is
    refused with an EnumerationCapError carrying the count.

    Every O-sequence is a pre-critical prefix of some length j and sum s
    followed by a partition of n - s into parts <= j, because x^<d> = x
    once x <= d. So the stream walks ``precritical_prefixes(n)`` and, at
    each prefix, yields the prefix followed by every such partition in
    ascending lexicographic order before moving on to the prefix's
    children, whose next entry exceeds j. That is plain lexicographic
    order over the whole stream: the flattening of ``_osequence_blocks``,
    each tuple of tails kept as built and shared by every prefix of its key.
    """
    _, blocks = _osequence_blocks(n, cap, lambda tails: tails)
    return (HVector(prefix + tail) for prefix, tails in blocks for tail in tails)


class CensusTable(NamedTuple):
    """Computed counts for every length 1..max_n."""

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
