"""Sweep the count bounds over a range of totals and print the envelope.

Usage:
    python scripts/bounds_sweep.py --max-n 60 [--csv PATH] [--json PATH]

The table shows, for every n, the exact count L(n), the partition lower
bound p(n-1), and the log-space upper bound; the final line reports the
empirical constants ln L / sqrt(n) (minimized) and ln L / (sqrt(n) ln n)
(maximized) over n >= 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from oseq.bounds import bounds_report_payload, build_bounds_report, write_bounds_csv
from oseq.census import build_census
from oseq.partitions import build_partition_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=60, dest="max_n")
    parser.add_argument("--csv", help="also write the table to this CSV file")
    parser.add_argument("--json", help="also write the full payload to this JSON file")
    args = parser.parse_args()

    census = build_census(args.max_n)
    partitions = build_partition_table(args.max_n)
    report = build_bounds_report(census, partitions)

    print(f"{'n':>4} {'L(n)':>26} {'p(n-1)':>26} {'log upper':>12}")
    for r in report.records:
        print(f"{r.n:>4} {r.count:>26} {r.lower:>26} {r.log_upper:>12.4f}")
    print(
        f"empirical envelope over n >= 3..{args.max_n}: "
        f"c1 >= {report.c1_min:.6f}, c2 <= {report.c2_max:.6f}"
    )

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as stream:
            write_bounds_csv(report, stream)
        print(f"wrote {args.csv}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(bounds_report_payload(report), stream, indent=1)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
