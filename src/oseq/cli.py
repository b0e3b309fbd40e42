"""Command-line front end.

Subcommands: check, count, enumerate, census, bounds, partitions, remark.
Output formats: table (human), csv, json (machine; big integers as decimal
strings, schemas shipped under schemas/). Exit codes: 0 success, 1 invalid
input sequence, 2 resource-limit refusal or bad usage, 3 theorem-backed
invariant violation (always a bug).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass

from .bounds import bounds_report_payload, build_bounds_report, remark_profile, write_bounds_csv
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


@dataclass
class RunConfig:
    command: str
    fmt: str = "table"
    n: int | None = None
    max_n: int | None = None
    sequence: tuple[int, ...] | None = None
    stream_cap: int = DEFAULT_STREAM_CAP
    census_ceiling: int = DEFAULT_CENSUS_CEILING
    log_space: bool = False


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

    def add_cap(p: argparse.ArgumentParser, what: str) -> None:
        p.add_argument("--cap", type=int, metavar="K", help=what)

    p = sub.add_parser("check", help="validate a candidate sequence")
    p.add_argument("sequence", type=_parse_sequence, help="comma-separated entries, e.g. 1,3,4,4")
    add_format(p)

    p = sub.add_parser("count", help="exact number of O-sequences of length n")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    add_cap(p, "census length ceiling")

    p = sub.add_parser("enumerate", help="list every O-sequence of length n")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    add_cap(p, "refuse to stream more than K sequences")

    p = sub.add_parser("census", help="counts for every length up to max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p)
    add_cap(p, "census length ceiling")

    p = sub.add_parser("bounds", help="verify both count bounds up to max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p)
    add_cap(p, "census length ceiling")

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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command, fmt=getattr(args, "fmt", "table"))
    config.n = getattr(args, "n", None)
    config.max_n = getattr(args, "max_n", None)
    config.sequence = getattr(args, "sequence", None)
    config.log_space = getattr(args, "log_space", False)
    cap = getattr(args, "cap", None)
    if cap is not None:
        if args.command == "enumerate":
            config.stream_cap = cap
        else:
            config.census_ceiling = cap
    return config


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(payload: dict) -> None:
    _emit(json.dumps(payload, separators=(",", ":"), allow_nan=False))


def _csv_text(write_rows) -> str:
    buf = io.StringIO()
    write_rows(buf)
    return buf.getvalue()


def _run_check(config: RunConfig) -> int:
    report = is_o_sequence(config.sequence)
    if config.fmt == "json":
        payload: dict = {"sequence": list(config.sequence), "valid": report.valid}
        if report.reason is not None:
            payload["reason"] = report.reason
        if report.first_violation is not None:
            payload["first_violation"] = report.first_violation
        _emit_json(payload)
    elif config.fmt == "csv":
        seq = " ".join(str(x) for x in config.sequence)
        reason = report.reason or ""
        violation = "" if report.first_violation is None else str(report.first_violation)
        _emit(
            "sequence,valid,reason,first_violation\n"
            f"{seq},{str(report.valid).lower()},{reason},{violation}"
        )
    else:
        seq = ",".join(str(x) for x in config.sequence)
        if report.valid:
            _emit(f"{seq} is a valid O-sequence")
        elif report.first_violation is not None:
            i = report.first_violation
            _emit(f"{seq} is NOT an O-sequence: growth violation at index {i}")
        else:
            _emit(f"{seq} is NOT an O-sequence: {report.reason}")
    return EXIT_OK if report.valid else EXIT_INVALID


def _run_count(config: RunConfig) -> int:
    count = count_osequences(config.n, ceiling=config.census_ceiling)
    if config.fmt == "json":
        _emit_json({"n": config.n, "L": str(count)})
    elif config.fmt == "csv":
        _emit(f"n,L\n{config.n},{count}")
    else:
        _emit(f"L({config.n}) = {count}")
    return EXIT_OK


def _run_enumerate(config: RunConfig) -> int:
    sequences = [list(h.entries) for h in enumerate_osequences(config.n, cap=config.stream_cap)]
    if config.fmt == "json":
        _emit_json({"n": config.n, "count": str(len(sequences)), "sequences": sequences})
    elif config.fmt == "csv":
        lines = ["sequence"] + [" ".join(str(x) for x in seq) for seq in sequences]
        _emit("\n".join(lines))
    else:
        _emit("\n".join(",".join(str(x) for x in seq) for seq in sequences))
    return EXIT_OK


def _run_census(config: RunConfig) -> int:
    table = build_census(config.max_n, ceiling=config.census_ceiling)
    if config.fmt == "json":
        records = [{"n": n, "L": str(table.records[n])} for n in range(1, table.max_n + 1)]
        _emit_json({"max_n": table.max_n, "records": records})
    elif config.fmt == "csv":
        lines = ["n,L"] + [f"{n},{table.records[n]}" for n in range(1, table.max_n + 1)]
        _emit("\n".join(lines))
    else:
        width = len(str(table.records[table.max_n]))
        _emit(
            "\n".join(
                f"L({n:>{len(str(table.max_n))}}) = {table.records[n]:>{width}}"
                for n in range(1, table.max_n + 1)
            )
        )
    return EXIT_OK


def _run_bounds(config: RunConfig) -> int:
    census = build_census(config.max_n, ceiling=config.census_ceiling)
    partitions = build_partition_table(config.max_n)
    report = build_bounds_report(census, partitions)
    if config.fmt == "json":
        _emit_json(bounds_report_payload(report))
    elif config.fmt == "csv":
        _emit(_csv_text(lambda buf: write_bounds_csv(report, buf)))
    else:
        lines = [f"{'n':>4} {'L':>24} {'p(n-1)':>24} {'log_upper':>12} {'ok':>2}"]
        for r in report.records:
            ok = "yy" if (r.lower_ok and r.upper_ok) else "!!"
            lines.append(f"{r.n:>4} {r.count:>24} {r.lower:>24} {r.log_upper:>12.4f} {ok:>2}")
        lines.append(f"empirical envelope: c1 >= {report.c1_min}, c2 <= {report.c2_max}")
        _emit("\n".join(lines))
    return EXIT_OK


def _run_partitions(config: RunConfig) -> int:
    # The estimate grows with n, so if it fits at max_n it fits for every
    # row: check it before the table is built rather than after.
    try:
        hardy_ramanujan(config.max_n, log_space=config.log_space)
    except OverflowError:
        print(
            f"error: the estimate for n={config.max_n} exceeds double range; "
            "use --log-space",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    table = build_partition_table(config.max_n)
    estimates = {
        n: hardy_ramanujan(n, table=table, log_space=config.log_space)
        for n in range(1, table.limit + 1)
    }
    if config.fmt == "json":
        records = []
        for n in range(table.limit + 1):
            record: dict = {"n": n, "p": str(table.p_values[n]), "q": str(table.q_values[n])}
            if n >= 1:
                record["hr_estimate"] = estimates[n].estimate
                record["hr_ratio"] = estimates[n].ratio
            records.append(record)
        _emit_json({"limit": table.limit, "log_space": config.log_space, "records": records})
    elif config.fmt == "csv":
        _emit(_csv_text(table.write_csv))
    else:
        label = "ln(estimate)" if config.log_space else "estimate"
        lines = [f"{'n':>6} {'p':>24} {'q':>24} {label:>16} {'ratio':>10}"]
        for n in range(table.limit + 1):
            if n == 0:
                lines.append(f"{n:>6} {table.p_values[n]:>24} {table.q_values[n]:>24}")
                continue
            est = estimates[n]
            lines.append(
                f"{n:>6} {table.p_values[n]:>24} {table.q_values[n]:>24} "
                f"{est.estimate:>16.6g} {est.ratio:>10.6f}"
            )
        _emit("\n".join(lines))
    return EXIT_OK


def _run_remark(config: RunConfig) -> int:
    validity = is_o_sequence(config.sequence)
    if not validity.valid:
        seq = ",".join(str(x) for x in config.sequence)
        _emit(f"{seq} is NOT an O-sequence ({validity.reason}); no profile computed")
        return EXIT_INVALID
    profile = remark_profile(HVector(tuple(config.sequence)))
    if config.fmt == "json":
        decomps = []
        for degree, d in profile.decompositions:
            if d is None:
                decomps.append({"degree": degree, "in_range": False})
            else:
                decomps.append({"degree": degree, "in_range": True, "t": d.t, "alpha": d.alpha})
        _emit_json(
            {
                "sequence": list(config.sequence),
                "critical_index": profile.critical_index,
                "first_applicable_degree": profile.first_applicable_degree,
                "t_monotone": profile.t_monotone,
                "alpha_monotone_within_t_plateaus": profile.alpha_monotone_within_t_plateaus,
                "decompositions": decomps,
            }
        )
    elif config.fmt == "csv":
        lines = ["degree,in_range,t,alpha"]
        for degree, d in profile.decompositions:
            if d is None:
                lines.append(f"{degree},false,,")
            else:
                lines.append(f"{degree},true,{d.t},{d.alpha}")
        _emit("\n".join(lines))
    else:
        lines = [
            f"sequence: {','.join(str(x) for x in config.sequence)}",
            f"critical index: {profile.critical_index}",
        ]
        for degree, d in profile.decompositions:
            if d is None:
                lines.append(f"  degree {degree}: out of range")
            else:
                lines.append(f"  degree {degree}: t = {d.t}, alpha = {d.alpha}")
        lines.append(f"t nonincreasing: {profile.t_monotone}")
        lines.append(
            f"alpha nonincreasing on t-plateaus: {profile.alpha_monotone_within_t_plateaus}"
        )
        _emit("\n".join(lines))
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


def run(config: RunConfig) -> int:
    """Dispatch one configured invocation and map failures to exit codes."""
    for field in ("n", "max_n"):
        value = getattr(config, field)
        if value is not None and value < 1:
            print(f"error: --{field.replace('_', '-')} must be >= 1", file=sys.stderr)
            return EXIT_RESOURCE
    if config.stream_cap < 1 or config.census_ceiling < 1:
        print("error: --cap must be >= 1", file=sys.stderr)
        return EXIT_RESOURCE
    try:
        return _RUNNERS[config.command](config)
    except EnumerationCapError as exc:
        print(
            f"error: L({exc.n}) = {exc.count} exceeds the streaming cap {exc.cap}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TheoremViolationError as exc:
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
