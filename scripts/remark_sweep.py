"""Structural sweep over every O-sequence with a small entry total.

Usage:
    python scripts/remark_sweep.py --max-n 12

For each total n this reports L(n), how many sequences satisfy the two
structure checks (nonincreasing tail after the critical index, critical
index below sqrt(2n)) and how often the staircase monotonicity diagnostics
hold on the pre-critical window. The structure checks are theorems and
should sit at 100%; the staircase flags are only guaranteed asymptotically,
so their rates are the interesting output.

No sequence is visited. Every O-sequence is a pre-critical prefix of length
j and sum s followed by a partition of n - s into parts <= j, and every
column but "tail ok" tests the prefix alone ("prefix ok" is j^2 < 2s <= 2n).
So one walk over the prefixes to --max-n counts N_j(s) for all prefixes and
for those passing each prefix column, and the census's tail fold turns each
family into per-n sequence counts. The tail is a partition by construction;
what backs "tail ok" instead is that the folded totals equal the census
count L(n), whose prefixes come from its rows, not from this walk. A
mismatch is a bug: the script names n on stderr and exits 3.

The staircase flags of a prefix are those of its parent (the prefix less its
last entry) updated by one decomposition, of that last entry. The walk is in
preorder, so the parent's state is the top of a stack indexed by prefix
length: its last defined (t, alpha) and its two flags. A new defined pair
keeps "t monotone" when t does not rise from the last one, and "alpha
monotone" when alpha does not rise while t stays the same, which is what
``remark_profile`` grades over the whole window.
"""

from __future__ import annotations

import argparse
import sys

from oseq.bounds import StaircaseDecomposition, staircase_decompose
from oseq.census import CensusCounter, _fold_tails, precritical_prefixes
from oseq.errors import ResourceLimitError
from oseq.macaulay import HVector


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=12, dest="max_n")
    args = parser.parse_args()
    if args.max_n < 0:
        parser.error("--max-n must be >= 0")

    counter = CensusCounter()
    try:
        counter.count(args.max_n)  # one pass through --max-n; the loop below reads it back
    except ResourceLimitError as exc:
        parser.error(str(exc))
    # N_j(s) rows, indexed by s: every prefix, then those with each prefix flag
    families: tuple[list[list[int]], ...] = ([], [], [], [])
    everything, prefix_ok, t_monotone, alpha_monotone = families
    # states[j - 1] is the state of the current prefix of length j: its last
    # defined staircase decomposition (None if none is) and its two flags
    states: list[tuple[StaircaseDecomposition | None, bool, bool]] = []
    for prefix in precritical_prefixes(args.max_n):
        HVector(prefix)  # canonical form, or ValueError
        j, s = len(prefix), sum(prefix)
        del states[j - 1 :]
        last, t_ok, alpha_ok = states[-1] if states else (None, True, True)
        d = staircase_decompose(prefix[-1], j - 1) if j > 1 else None
        if d is not None:
            if last is not None:
                t_ok = t_ok and last.t >= d.t
                alpha_ok = alpha_ok and (last.t != d.t or last.alpha >= d.alpha)
            last = d
        states.append((last, t_ok, alpha_ok))
        if len(everything) < j:  # preorder: the first prefix of length j follows one of j - 1
            for rows in families:
                rows.append([0] * (args.max_n + 1))
        everything[j - 1][s] += 1
        prefix_ok[j - 1][s] += j * j < 2 * s
        t_monotone[j - 1][s] += t_ok
        alpha_monotone[j - 1][s] += alpha_ok
    totals, prefix_oks, t_oks, alpha_oks = (_fold_tails(rows, args.max_n) for rows in families)

    header = (
        f"{'n':>3} {'L(n)':>8} {'tail ok':>8} {'prefix ok':>9} "
        f"{'t monotone':>11} {'alpha monotone':>15}"
    )
    print(header)
    for n in range(1, args.max_n + 1):
        total = totals[n]
        if total != counter.count(n):
            print(
                f"remark_sweep: the prefix weights sum to {total} at n={n}, "
                f"but the census counts {counter.count(n)}",
                file=sys.stderr,
            )
            return 3

        def pct(k: int) -> str:
            return f"{100.0 * k / total:>6.1f}%"

        print(
            f"{n:>3} {total:>8} {pct(total):>8} {pct(prefix_oks[n]):>9} "
            f"{pct(t_oks[n]):>11} {pct(alpha_oks[n]):>15}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
