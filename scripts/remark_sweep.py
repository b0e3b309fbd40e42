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
column but "tail ok" depends only on the prefix and n. So one walk over the
prefixes to --max-n groups them by (s, j, staircase flags), and each group
counts P(n - s, parts <= j) sequences of total n. The tail is a partition by
construction; what backs "tail ok" instead is that the weights sum to the
census count L(n). A mismatch is a bug: the script names n on stderr and
exits 3.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter

from oseq.bounds import remark_profile
from oseq.census import CensusCounter, precritical_prefixes
from oseq.macaulay import HVector


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=12, dest="max_n")
    args = parser.parse_args()
    if args.max_n < 0:
        parser.error("--max-n must be >= 0")

    counter = CensusCounter(ceiling=max(args.max_n, 1))
    counter.count(args.max_n)  # one pass through --max-n; the loop below reads it back
    groups: Counter[tuple[int, int, bool, bool]] = Counter()
    for prefix in precritical_prefixes(args.max_n):
        profile = remark_profile(HVector(prefix))
        groups[
            sum(prefix), len(prefix), profile.t_monotone, profile.alpha_monotone_within_t_plateaus
        ] += 1

    # bounded[r][j] = partitions of r into parts <= j
    max_j = max((j for _, j, _, _ in groups), default=0)
    bounded = [[1] * (max_j + 1)]
    for r in range(1, args.max_n + 1):
        row = [0]
        for j in range(1, max_j + 1):
            row.append(row[-1] + (bounded[r - j][j] if r >= j else 0))
        bounded.append(row)

    header = (
        f"{'n':>3} {'L(n)':>8} {'tail ok':>8} {'prefix ok':>9} "
        f"{'t monotone':>11} {'alpha monotone':>15}"
    )
    print(header)
    for n in range(1, args.max_n + 1):
        total = prefix_ok = t_ok = alpha_ok = 0
        root = math.sqrt(2.0 * n)
        for (s, j, t_flag, alpha_flag), prefixes in groups.items():
            if s > n:
                continue
            weight = prefixes * bounded[n - s][j]
            total += weight
            prefix_ok += weight * (j < root)
            t_ok += weight * t_flag
            alpha_ok += weight * alpha_flag
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
            f"{n:>3} {total:>8} {pct(total):>8} {pct(prefix_ok):>9} "
            f"{pct(t_ok):>11} {pct(alpha_ok):>15}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
