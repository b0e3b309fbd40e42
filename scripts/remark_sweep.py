"""Structural sweep over every O-sequence with a small entry total.

Usage:
    python scripts/remark_sweep.py --max-n 12

For each total n this reports L(n) and the share of sequences that pass each
structure check: a nonincreasing tail after the critical index, a critical
index below sqrt(2n), and the two halves of the staircase window lemma that
``remark_profile`` asserts (t never rises, and alpha never rises while t
stays). All four are theorems, so every column reads 100.0%.

No sequence is visited. Every O-sequence is a pre-critical prefix of length
j and sum s followed by a partition of n - s into parts <= j. One walk over
the prefixes to --max-n asserts the three prefix checks ("prefix ok" is
j^2 < 2s <= 2n; the staircase columns hold when each prefix's last
decomposition follows its parent's by the window lemma in ``oseq.bounds``)
and counts N_j(s), and the census's tail fold turns the counts into per-n
sequence counts. The tail is a partition by construction; what backs "tail
ok" instead is that the folded totals equal the census count L(n), whose
prefixes come from its rows, not from this walk. Any failure is a bug: the
script names the prefix or n on stderr and exits 3.
"""

from __future__ import annotations

import atexit
import gc
import sys

from oseq.bounds import StaircaseDecomposition, _staircase_step_holds, staircase_decompose
from oseq.census import CensusCounter, _fold_tails, precritical_prefixes
from oseq.errors import ResourceLimitError
from oseq.macaulay import _canonical_fault

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing
if TYPE_CHECKING:  # annotations only: argparse loads for help and usage errors
    import argparse


def _bug(message: str) -> int:
    print(f"remark_sweep: {message}", file=sys.stderr)
    return 3


def _parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=12, dest="max_n")
    return parser


def _read_max_n(argv: list[str]) -> int | None:
    """--max-n from ``[]`` or ``["--max-n", digits]``, as argparse reads it; None
    for any other command line, which argparse reads or refuses itself."""
    if not argv:
        return 12
    if len(argv) == 2 and argv[0] == "--max-n" and argv[1].isascii() and argv[1].isdigit():
        try:
            return int(argv[1])
        except ValueError:  # over the digit limit: argparse names the bad value
            pass
    return None


def main() -> int:
    max_n = _read_max_n(sys.argv[1:])
    if max_n is None:
        parser = _parser()
        max_n = parser.parse_args().max_n
        if max_n < 0:
            parser.error("--max-n must be >= 0")

    counter = CensusCounter()
    try:
        counter.count(max_n)  # one pass through --max-n; the loop below reads it back
    except ResourceLimitError as exc:
        _parser().error(str(exc))
    rows: list[list[int]] = []  # rows[j - 1][s] = N_j(s)
    # decomps[j]: the decomposition of the last entry of the current length-j prefix
    decomps: list[StaircaseDecomposition | None] = [None]
    for prefix in precritical_prefixes(max_n):
        if fault := _canonical_fault(prefix):
            return _bug(f"the prefix {prefix} is not in canonical form ({fault})")
        j, s = len(prefix), sum(prefix)
        del decomps[j:]
        d = staircase_decompose(prefix[-1], j - 1) if j > 1 else None
        if not _staircase_step_holds(decomps[-1], d):
            return _bug(f"the prefix {prefix} breaks the staircase window lemma")
        if j * j >= 2 * s:
            return _bug(f"the prefix {prefix} breaks the prefix bound j^2 < 2s")
        decomps.append(d)
        if len(rows) < j:  # preorder: the first prefix of length j follows one of j - 1
            rows.append([0] * (max_n + 1))
        rows[j - 1][s] += 1
    totals = _fold_tails(rows, max_n)

    header = (
        f"{'n':>3} {'L(n)':>8} {'tail ok':>8} {'prefix ok':>9} "
        f"{'t monotone':>11} {'alpha monotone':>15}"
    )
    print(header)
    ok = "100.0%"  # every sequence passed every check, or the loop has returned
    for n in range(1, max_n + 1):
        total = totals[n]
        if total != counter.count(n):
            return _bug(
                f"the prefix weights sum to {total} at n={n}, "
                f"but the census counts {counter.count(n)}"
            )
        print(f"{n:>3} {total:>8} {ok:>8} {ok:>9} {ok:>11} {ok:>15}")
    return 0


if __name__ == "__main__":
    # The exit then skips its full collections over the frozen heap, as oseq.cli's does.
    atexit.register(gc.freeze)
    sys.exit(main())
