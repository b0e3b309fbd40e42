"""Command-line front end.

Subcommands: check, count, enumerate, census, bounds, partitions, remark.
Output formats: table (human), csv, json (machine; big integers as decimal
strings, schemas shipped under schemas/). Each runner describes its output
once, and ``_render`` writes it in the chosen format, streaming long record
lists in chunks. Exit codes: 0 success, 1 invalid input sequence, 2
resource-limit refusal or bad usage, 3 theorem-backed invariant violation
(always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Iterable, Iterator

from .bounds import build_bounds_report, remark_profile
from .census import (
    DEFAULT_CENSUS_CEILING,
    DEFAULT_STREAM_CAP,
    CensusCounter,
    build_census,
    count_osequences,
    enumerate_osequences,
)
from .errors import EnumerationCapError, ResourceLimitError, TheoremViolationError
from .macaulay import HVector, is_o_sequence
from .partitions import build_partition_table, hardy_ramanujan

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_INTERNAL = 3

# Lines or records per write. One write per record made `enumerate --n 38`
# about 50 % slower in json and 20 % in table format; one write for
# everything holds the whole output in memory.
_CHUNK = 4096


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer sequence, got {text!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oseq",
        description="Count, validate, and bound O-sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            dest="fmt",
        )

    def add_cap(p: argparse.ArgumentParser, what: str, default: int) -> None:
        p.add_argument("--cap", type=int, metavar="K", default=default, help=what)

    p = sub.add_parser("check", help="validate a candidate sequence")
    p.add_argument("sequence", type=_parse_sequence, help="comma-separated entries, e.g. 1,3,4,4")
    add_format(p)

    p = sub.add_parser("count", help="exact number of O-sequences of length n")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    add_cap(p, "census length ceiling", DEFAULT_CENSUS_CEILING)

    p = sub.add_parser("enumerate", help="list every O-sequence of length n")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    add_cap(p, "refuse to stream more than K sequences", DEFAULT_STREAM_CAP)

    p = sub.add_parser("census", help="counts for every length up to max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p)
    add_cap(p, "census length ceiling", DEFAULT_CENSUS_CEILING)

    p = sub.add_parser("bounds", help="verify both count bounds up to max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p)
    add_cap(p, "census length ceiling", DEFAULT_CENSUS_CEILING)

    p = sub.add_parser("partitions", help="exact p/q table up to max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p)
    p.add_argument(
        "--log-space",
        action="store_true",
        help="report the asymptotic estimate as a natural log (never overflows)",
    )

    p = sub.add_parser("remark", help="staircase profile of one sequence")
    p.add_argument("sequence", type=_parse_sequence, help="comma-separated entries")
    add_format(p)

    return parser


@dataclass(frozen=True)
class _Output:
    """What one command prints, in every format.

    ``head`` holds the JSON top-level fields. With a ``key``, ``records``
    follow them in JSON as a list under that key and are the CSV rows;
    without one, ``head`` is the single CSV row. ``columns`` names the CSV
    cells, read from each dict record; a record that is not a dict is its
    row's one cell. ``lines`` is the table. ``records`` and ``lines`` may
    be generators: only the one the format needs is consumed.
    """

    head: dict[str, Any]
    columns: tuple[str, ...]
    lines: Iterable[str]
    key: str | None = None
    records: Iterable[Any] = ()


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(map(str, value))
    return str(value)


def _chunks(items: Iterable[Any]) -> Iterator[list[Any]]:
    items = iter(items)
    while chunk := list(islice(items, _CHUNK)):
        yield chunk


def _json(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _render(output: _Output, fmt: str) -> None:
    """Write ``output`` to stdout as a table, csv or json."""
    write = sys.stdout.write
    if fmt == "json":
        if output.key is None:
            write(_json(output.head) + "\n")
            return
        # the head with an empty list under the key, cut open before its "]}"
        write(_json({**output.head, output.key: []})[:-2])
        separator = ""
        for chunk in _chunks(output.records):
            write(separator + _json(chunk)[1:-1])
            separator = ","
        write("]}\n")
        return
    if fmt == "csv":
        columns = output.columns
        rows = output.records if output.key is not None else [output.head]
        lines = chain(
            [",".join(columns)],
            (
                ",".join(_cell(row.get(c)) for c in columns) if isinstance(row, dict) else _cell(row)
                for row in rows
            ),
        )
    else:
        lines = output.lines
    for chunk in _chunks(lines):
        write("\n".join(chunk) + "\n")


def _run_check(args: argparse.Namespace) -> int:
    report = is_o_sequence(args.sequence)
    seq = ",".join(map(str, args.sequence))
    if report.valid:
        line = f"{seq} is a valid O-sequence"
    elif report.first_violation is not None:
        line = f"{seq} is NOT an O-sequence: growth violation at index {report.first_violation}"
    else:
        line = f"{seq} is NOT an O-sequence: {report.reason}"
    head: dict[str, Any] = {"sequence": list(args.sequence), "valid": report.valid}
    if report.reason is not None:
        head["reason"] = report.reason
    if report.first_violation is not None:
        head["first_violation"] = report.first_violation
    _render(_Output(head, ("sequence", "valid", "reason", "first_violation"), [line]), args.fmt)
    return EXIT_OK if report.valid else EXIT_INVALID


def _run_count(args: argparse.Namespace) -> int:
    count = count_osequences(args.n, ceiling=args.cap)
    _render(_Output({"n": args.n, "L": str(count)}, ("n", "L"), [f"L({args.n}) = {count}"]), args.fmt)
    return EXIT_OK


def _run_enumerate(args: argparse.Namespace) -> int:
    counter = CensusCounter()
    sequences = enumerate_osequences(args.n, cap=args.cap, counter=counter)
    output = _Output(
        head={"n": args.n, "count": str(counter.count(args.n))},
        columns=("sequence",),
        lines=(",".join(map(str, h.entries)) for h in sequences),
        key="sequences",
        records=(h.entries for h in sequences),
    )
    _render(output, args.fmt)
    return EXIT_OK


def _run_census(args: argparse.Namespace) -> int:
    table = build_census(args.max_n, ceiling=args.cap)
    lengths = range(1, table.max_n + 1)
    n_width = len(str(table.max_n))
    width = len(str(table.records[table.max_n]))
    output = _Output(
        head={"max_n": table.max_n},
        columns=("n", "L"),
        lines=(f"L({n:>{n_width}}) = {table.records[n]:>{width}}" for n in lengths),
        key="records",
        records=({"n": n, "L": str(table.records[n])} for n in lengths),
    )
    _render(output, args.fmt)
    return EXIT_OK


def _run_bounds(args: argparse.Namespace) -> int:
    census = build_census(args.max_n, ceiling=args.cap)
    report = build_bounds_report(census, build_partition_table(args.max_n))
    rows = report.records
    lines = chain(
        [f"{'n':>4} {'L':>24} {'p(n-1)':>24} {'log_upper':>12} {'ok':>2}"],
        (
            f"{r.n:>4} {r.count:>24} {r.lower:>24} {r.log_upper:>12.4f} "
            f"{'yy' if r.lower_ok and r.upper_ok else '!!':>2}"
            for r in rows
        ),
        [f"empirical envelope: c1 >= {report.c1_min}, c2 <= {report.c2_max}"],
    )
    records = (
        {
            "n": r.n,
            "L": str(r.count),
            "p_lower": str(r.lower),
            "log_upper": r.log_upper,
            "c1_emp": r.c1_emp,
            "c2_emp": r.c2_emp,
            "lower_ok": r.lower_ok,
            "upper_ok": r.upper_ok,
        }
        for r in rows
    )
    output = _Output(
        head={"max_n": rows[-1].n, "c1_min": report.c1_min, "c2_max": report.c2_max},
        columns=("n", "L", "p_lower", "log_upper", "c1_emp", "c2_emp"),
        lines=lines,
        key="records",
        records=records,
    )
    _render(output, args.fmt)
    return EXIT_OK


def _run_partitions(args: argparse.Namespace) -> int:
    # Only table and json print the estimate; csv has no column for it, so
    # it neither computes the estimate nor refuses on its overflow.
    estimated = args.fmt != "csv"
    # The estimate grows with n, so if it fits at max_n it fits for every
    # row: check it before the table is built rather than after.
    if estimated:
        try:
            hardy_ramanujan(args.max_n, log_space=args.log_space)
        except OverflowError:
            raise OverflowError(
                f"the estimate for n={args.max_n} exceeds double range; use --log-space"
            ) from None
    table = build_partition_table(args.max_n)

    def rows():
        for n in range(table.limit + 1):
            est = hardy_ramanujan(n, table=table, log_space=args.log_space) if n and estimated else None
            yield n, table.p_values[n], table.q_values[n], est

    label = "ln(estimate)" if args.log_space else "estimate"
    lines = chain(
        [f"{'n':>6} {'p':>24} {'q':>24} {label:>16} {'ratio':>10}"],
        (
            f"{n:>6} {p:>24} {q:>24}" + (f" {e.estimate:>16.6g} {e.ratio:>10.6f}" if e else "")
            for n, p, q, e in rows()
        ),
    )
    records = (
        {"n": n, "p": str(p), "q": str(q)}
        | ({"hr_estimate": e.estimate, "hr_ratio": e.ratio} if e else {})
        for n, p, q, e in rows()
    )
    output = _Output(
        head={"limit": table.limit, "log_space": args.log_space},
        columns=("n", "p", "q"),
        lines=lines,
        key="records",
        records=records,
    )
    _render(output, args.fmt)
    return EXIT_OK


def _run_remark(args: argparse.Namespace) -> int:
    seq = ",".join(map(str, args.sequence))
    validity = is_o_sequence(args.sequence)
    if not validity.valid:
        print(f"{seq} is NOT an O-sequence ({validity.reason}); no profile computed")
        return EXIT_INVALID
    profile = remark_profile(HVector(args.sequence))
    decomps = [
        {"degree": degree, "in_range": False}
        if d is None
        else {"degree": degree, "in_range": True, "t": d.t, "alpha": d.alpha}
        for degree, d in profile.decompositions
    ]
    lines = [
        f"sequence: {seq}",
        f"critical index: {profile.critical_index}",
        *(
            f"  degree {r['degree']}: t = {r['t']}, alpha = {r['alpha']}"
            if r["in_range"]
            else f"  degree {r['degree']}: out of range"
            for r in decomps
        ),
        f"t nonincreasing: {profile.t_monotone}",
        f"alpha nonincreasing on t-plateaus: {profile.alpha_monotone_within_t_plateaus}",
    ]
    head = {
        "sequence": list(args.sequence),
        "critical_index": profile.critical_index,
        "first_applicable_degree": profile.first_applicable_degree,
        "t_monotone": profile.t_monotone,
        "alpha_monotone_within_t_plateaus": profile.alpha_monotone_within_t_plateaus,
    }
    output = _Output(head, ("degree", "in_range", "t", "alpha"), lines, "decompositions", decomps)
    _render(output, args.fmt)
    return EXIT_OK


_RUNNERS = {
    "check": _run_check,
    "count": _run_count,
    "enumerate": _run_enumerate,
    "census": _run_census,
    "bounds": _run_bounds,
    "partitions": _run_partitions,
    "remark": _run_remark,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed invocation and map failures to exit codes."""
    for field in ("n", "max_n"):
        value = getattr(args, field, None)
        if value is not None and value < 1:
            print(f"error: --{field.replace('_', '-')} must be >= 1", file=sys.stderr)
            return EXIT_RESOURCE
    if getattr(args, "cap", 1) < 1:
        print("error: --cap must be >= 1", file=sys.stderr)
        return EXIT_RESOURCE
    try:
        return _RUNNERS[args.command](args)
    except EnumerationCapError as exc:
        print(
            f"error: L({exc.n}) = {exc.count} exceeds the streaming cap {exc.cap}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except (ResourceLimitError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TheoremViolationError as exc:
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
