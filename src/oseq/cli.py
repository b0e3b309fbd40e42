"""Command-line front end.

Subcommands: check, count, enumerate, census, bounds, partitions, remark.
Output formats: table (human), csv, json (machine; big integers as decimal
strings, schemas shipped under schemas/). Each runner writes every row
once, as text in the chosen format, and its json head's fields as text too;
``_render`` only frames them: it writes the rows in chunks, and in json
after the head, as a list under one key. Exit codes: 0 success; 1 invalid
input sequence (``check``, and ``remark``, which then prints what ``check``
prints); 2 resource-limit refusal, bad usage, or output that cannot be
written (a full disk, or stdout closed by the caller with ``>&-``: one
``error: cannot write output:`` line); 3 theorem-backed invariant
violation, such as a failed bound or an entry outside 1..n built by the
enumerate walk (always a bug); 141 stdout closed by its reader before the
output ended (``| head``), with nothing on stderr. A closed or unwritable
stderr loses its line, never the exit code. ``census``, ``macaulay``,
``bounds`` and ``partitions`` are imported by the runners that use them, so
a job loads only what it runs: ``partitions`` loads neither ``census`` nor
``macaulay``, and ``check`` does not load ``census``. One table,
``_COMMANDS``, declares every subcommand's arguments. A well-formed command
line is read from it directly, so it loads neither ``argparse`` nor the
``gettext`` and ``locale`` that argparse brings; ``argparse`` builds its
parser from the same table only for help and for a command line that the
direct reader leaves to it, such as a usage error. Only a refused sequence
entry loads ``re``. Importing the module registers ``gc.freeze`` as an exit
hook, so that a process that ran the CLI skips the interpreter's final full
collections; ``main`` itself leaves the heap as it finds it.
"""

from __future__ import annotations

import atexit
import errno
import gc
import os
import sys
from itertools import chain, islice, starmap
from types import SimpleNamespace

from .errors import ResourceLimitError, TheoremViolationError

TYPE_CHECKING = False  # typing.TYPE_CHECKING: no module imports typing, which imports re
if TYPE_CHECKING:  # annotations only: argparse loads for help and usage errors,
    # and the runners import macaulay when they run
    import argparse
    from typing import Any, Iterable, Iterator

    from .macaulay import ValidityReport

    Args = argparse.Namespace | SimpleNamespace  # what main hands a runner

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # as a shell reports a death by SIGPIPE (128 + 13)

# Lines or records per write. One write per record made `enumerate --n 38`
# about 50 % slower in json and 20 % in table format; one write for
# everything holds the whole output in memory. An enumerate record is a
# whole prefix block of up to hundreds of rows: with 4096 of them per write
# the child of `enumerate --n 40` peaked at 22.2 MiB (table) and 22.9 MiB
# (json), with 256 at 17.2 and 17.4 MiB, against 17.5 MiB one row per record
# (2-CPU x86, Python 3.11.7, peak RSS from os.wait4).
_CHUNK = 256


def _parse_sequence(text: str) -> tuple[int, ...]:
    entries = []
    for i, part in enumerate(text.split(",")):
        try:
            entries.append(int(part))
        except ValueError:
            # A well-formed literal that int() refuses is over the digit limit,
            # which guards against quadratic-time conversion: name the entry,
            # and do not echo an argument that may be kilobytes long. Only a
            # refused entry loads re, so no well-formed command line does.
            import argparse
            import re

            # an integer literal as int() reads one in base 10, without the whitespace
            if re.fullmatch(r"[+-]?\d+(?:_\d+)*", part.strip()):
                digits = sum(map(str.isdecimal, part))
                raise argparse.ArgumentTypeError(
                    f"h_{i} has {digits} digits, over Python's limit of "
                    f"{sys.get_int_max_str_digits()} for integer string conversion"
                )
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated integer sequence, got {text!r}"
            )
    return tuple(entries)


def _chunks(items: Iterable[str]) -> Iterator[list[str]]:
    items = iter(items)
    while chunk := list(islice(items, _CHUNK)):
        yield chunk


def _null(value: int | float | None) -> str:
    """A JSON number that may be missing: its repr, or null."""
    return "null" if value is None else repr(value)


def _render(fmt: str, head: str, rows: Iterable[str], key: str | None = None) -> None:
    """Write what one command prints to stdout as a table, csv or json.

    ``rows`` are text already in ``fmt``: table lines, CSV lines with the
    header first, or JSON values. A row may hold several, joined by the
    format's row separator (a newline, or a comma in JSON). JSON writes
    ``head``, its fields as JSON text, then, with a ``key``, the rows as a
    list under that key; without one, ``head`` alone, leaving rows unread.
    """
    write = sys.stdout.write
    if fmt != "json":
        for chunk in _chunks(rows):
            write("\n".join(chunk) + "\n")
    elif key is None:
        write("{" + head + "}\n")
    else:
        texts = map(",".join, _chunks(rows))
        # The head goes out with the first chunk, so rows that fail first leave stdout empty.
        write(f'{{{head},"{key}":[' + next(texts, ""))
        for text in texts:
            write("," + text)
        write("]}\n")


def _run_check(args: Args) -> int:
    from .macaulay import is_o_sequence

    return _write_check(args, is_o_sequence(args.sequence))


def _write_check(args: Args, report: ValidityReport) -> int:
    """Write ``check``'s record of ``report``, the validity of ``args.sequence``."""
    seq = ",".join(map(str, args.sequence))
    # Every head's strings are decimal digits or a REASON_* constant: none needs escaping.
    head = f'"sequence":[{seq}],"valid":{str(report.valid).lower()}'
    if report.reason is not None:
        head += f',"reason":"{report.reason}"'
    if report.first_violation is not None:
        head += f',"first_violation":{report.first_violation}'
    if args.fmt == "csv":
        violation = "" if report.first_violation is None else report.first_violation
        cells = (seq.replace(",", " "), str(report.valid).lower(), report.reason or "", violation)
        rows = ["sequence,valid,reason,first_violation", ",".join(map(str, cells))]
    elif report.valid:
        rows = [f"{seq} is a valid O-sequence"]
    elif report.first_violation is not None:
        rows = [f"{seq} is NOT an O-sequence: growth violation at index {report.first_violation}"]
    else:
        rows = [f"{seq} is NOT an O-sequence: {report.reason}"]
    _render(args.fmt, head, rows)
    return EXIT_OK if report.valid else EXIT_INVALID


def _run_count(args: Args) -> int:
    from .census import count_osequences

    count = count_osequences(args.n)
    rows = ["n,L", f"{args.n},{count}"] if args.fmt == "csv" else [f"L({args.n}) = {count}"]
    _render(args.fmt, f'"n":{args.n},"L":"{count}"', rows)
    return EXIT_OK


# How one sequence is written as a row: opening bracket, separator, closing bracket.
_SEQUENCE_ROW = {"table": ("", ",", ""), "csv": ("", " ", ""), "json": ("[", ",", "]")}


def _run_enumerate(args: Args) -> int:
    from .census import DEFAULT_STREAM_CAP, _osequence_blocks

    cap = DEFAULT_STREAM_CAP if args.cap is None else args.cap
    opening, separator, closing = _SEQUENCE_ROW[args.fmt]
    joiner = "," if args.fmt == "json" else "\n"  # between rows, as _render joins them
    # Each entry after h_0 is rendered once per run, after its separator.
    count, blocks = _osequence_blocks(
        args.n, cap, lambda x: separator + str(x), opening + "1", closing
    )
    # One row per block: the prefix's text before each of its tails'.
    rows = (head + (joiner + head).join(tails) for head, tails in blocks)
    if args.fmt == "csv":
        rows = chain(["sequence"], rows)
    _render(args.fmt, f'"n":{args.n},"count":"{count}"', rows, "sequences")
    return EXIT_OK


# How a census row is written, from (n, L(n), width of n, width of L).
_CENSUS_ROW = {
    "table": "L({0:>{2}}) = {1:>{3}}",
    "csv": "{},{}",
    "json": '{{"n":{},"L":"{}"}}',
}


def _run_census(args: Args) -> int:
    from .census import build_census

    table = build_census(args.max_n)
    row = _CENSUS_ROW[args.fmt].format
    n_width, width = len(str(table.max_n)), len(str(table.records[table.max_n]))
    rows = (row(n, table.records[n], n_width, width) for n in range(1, table.max_n + 1))
    if args.fmt == "csv":
        rows = chain(["n,L"], rows)
    _render(args.fmt, f'"max_n":{table.max_n}', rows, "records")
    return EXIT_OK


# How a bounds row is written: row 1, whose c2_emp is null, and then rows
# 2..max_n, from a BoundsRecord (n, L, p(n-1), log_upper, c1_emp, c2_emp).
# The report raises on a failed bound, so every row passes both ("yy").
_BOUNDS_ROW = {
    "table": ("{:>4} {:>24} {:>24} {:>12.4f} yy",) * 2,
    "csv": ("{},{},{},{!r},{!r},", "{},{},{},{!r},{!r},{!r}"),
    "json": (
        '{{"n":{},"L":"{}","p_lower":"{}","log_upper":{!r},"c1_emp":{!r},"c2_emp":null,'
        '"lower_ok":true,"upper_ok":true}}',
        '{{"n":{},"L":"{}","p_lower":"{}","log_upper":{!r},"c1_emp":{!r},"c2_emp":{!r},'
        '"lower_ok":true,"upper_ok":true}}',
    ),
}


def _run_bounds(args: Args) -> int:
    from .bounds import build_bounds_report
    from .census import build_census
    from .partitions import build_partition_table

    # build_census refuses a length above the census maximum (6000) before
    # its pass. That maximum is below the partition table's limit (100 000),
    # so the table, built second, never refuses here.
    census = build_census(args.max_n)
    report = build_bounds_report(census, build_partition_table(args.max_n))
    first, row = (template.format for template in _BOUNDS_ROW[args.fmt])
    # The logs are of positive integers, so every float is finite, and a
    # json float is its repr.
    rows = chain([first(*report.records[0])], starmap(row, report.records[1:]))
    c1_min, c2_max = _null(report.c1_min), _null(report.c2_max)
    envelope = f"c1 >= {c1_min}, c2 <= {c2_max}" if args.max_n >= 3 else "none (needs max-n >= 3)"
    if args.fmt == "table":
        rows = chain(
            [f"{'n':>4} {'L':>24} {'p(n-1)':>24} {'log_upper':>12} {'ok':>2}"],
            rows,
            [f"empirical envelope: {envelope}"],
        )
    elif args.fmt == "csv":
        rows = chain(["n,L,p_lower,log_upper,c1_emp,c2_emp"], rows)
    head = f'"max_n":{report.records[-1].n},"c1_min":{c1_min},"c2_max":{c2_max}'
    _render(args.fmt, head, rows, "records")
    return EXIT_OK


# How a partitions row is written: row 0, which has no estimate, and then
# rows 1..limit, from (n, p, q, estimate, ratio). csv prints no estimate.
_PARTITIONS_ROW = {
    "table": ("{:>6} {:>24} {:>24}", "{:>6} {:>24} {:>24} {:>16.6g} {:>10.6f}"),
    "csv": ("{},{},{}", "{},{},{}"),
    "json": (
        '{{"n":{},"p":"{}","q":"{}"}}',
        '{{"n":{},"p":"{}","q":"{}","hr_estimate":{!r},"hr_ratio":{!r}}}',
    ),
}


def _run_partitions(args: Args) -> int:
    from .partitions import _check_table_limit, _estimates, build_partition_table, hardy_ramanujan

    # The limit first: above it, --log-space would not get past the build.
    _check_table_limit(args.max_n)
    # Only table and json print the estimate; csv has no column for it, so
    # it neither computes the estimate nor refuses on its overflow.
    estimated = args.fmt != "csv"
    # The estimate grows with n, so if it fits at max_n it fits for every
    # row: check it before the table is built rather than after.
    if estimated:
        try:
            hardy_ramanujan(args.max_n, log_space=args.log_space)
        except OverflowError:
            raise ResourceLimitError(
                f"the estimate for n={args.max_n} exceeds double range; use --log-space"
            ) from None
    table = build_partition_table(args.max_n)

    # A json float is its repr; an estimate that overflows was refused above.
    first, row = (template.format for template in _PARTITIONS_ROW[args.fmt])
    rows = zip(range(table.limit + 1), table.p_values, table.q_values)
    lead = [first(*next(rows))]
    if args.fmt == "table":
        label = "ln(estimate)" if args.log_space else "estimate"
        lead.insert(0, f"{'n':>6} {'p':>24} {'q':>24} {label:>16} {'ratio':>10}")
    elif args.fmt == "csv":
        lead.insert(0, "n,p,q")
    if estimated:
        rest = (row(*r, *e) for r, e in zip(rows, _estimates(table, args.log_space)))
    else:
        rest = (row(*r) for r in rows)
    head = f'"limit":{table.limit},"log_space":{str(args.log_space).lower()}'
    _render(args.fmt, head, chain(lead, rest), "records")
    return EXIT_OK


# How a remark row is written: a degree out of the staircase window, from
# its degree, and one in it, from (degree, t, alpha).
_REMARK_ROW = {
    "table": ("  degree {}: out of range", "  degree {}: t = {}, alpha = {}"),
    "csv": ("{},false,,", "{},true,{},{}"),
    "json": (
        '{{"degree":{},"in_range":false}}',
        '{{"degree":{},"in_range":true,"t":{},"alpha":{}}}',
    ),
}


def _run_remark(args: Args) -> int:
    from .bounds import _staircase_profile
    from .macaulay import is_o_sequence

    # A sequence that fails the validity test gets check's record in the chosen
    # format; a failed window lemma is TheoremViolationError (exit 3).
    report = is_o_sequence(args.sequence)
    if not report.valid:
        return _write_check(args, report)
    profile = _staircase_profile(args.sequence)
    outside, inside = _REMARK_ROW[args.fmt]
    rows = [
        outside.format(degree) if d is None else inside.format(degree, d.t, d.alpha)
        for degree, d in profile.decompositions
    ]
    if args.fmt == "table":
        rows = [
            f"sequence: {','.join(map(str, args.sequence))}",
            f"critical index: {profile.critical_index}",
            *rows,
            "t nonincreasing: True",
            "alpha nonincreasing on t-plateaus: True",
        ]
    elif args.fmt == "csv":
        rows.insert(0, "degree,in_range,t,alpha")
    head = (
        f'"sequence":[{",".join(map(str, args.sequence))}],'
        f'"critical_index":{profile.critical_index},'
        f'"first_applicable_degree":{_null(profile.first_applicable_degree)},'
        '"t_monotone":true,"alpha_monotone_within_t_plateaus":true'
    )
    _render(args.fmt, head, rows, "decompositions")
    return EXIT_OK


# Each subcommand's arguments, declared once and read two ways: build_parser
# hands them to argparse, and _read_argv reads a well-formed command line
# with them alone. An argument is a flag or positional name and the keywords
# add_argument takes for it; each subcommand lists them in --help's order.
_FORMAT = ("--format", dict(choices=("table", "csv", "json"), default="table", dest="fmt"))
_N = ("--n", dict(type=int, required=True))
_MAX_N = ("--max-n", dict(type=int, required=True))
_CAP = ("--cap", dict(type=int, metavar="K", help="refuse to stream more than K sequences"))
_LOG_SPACE = (
    "--log-space",
    dict(
        action="store_true",
        default=False,
        help="report the asymptotic estimate as a natural log (never overflows)",
    ),
)


def _sequence(help_text: str) -> tuple[str, dict[str, Any]]:
    return ("sequence", dict(type=_parse_sequence, help=help_text))


# name -> (help, runner, arguments)
_COMMANDS = {
    "check": (
        "validate a candidate sequence",
        _run_check,
        (_sequence("comma-separated entries, e.g. 1,3,4,4"), _FORMAT),
    ),
    "count": ("exact number of O-sequences of length n", _run_count, (_N, _FORMAT)),
    "enumerate": ("list every O-sequence of length n", _run_enumerate, (_N, _FORMAT, _CAP)),
    "census": ("counts for every length up to max-n", _run_census, (_MAX_N, _FORMAT)),
    "bounds": ("verify both count bounds up to max-n", _run_bounds, (_MAX_N, _FORMAT)),
    "partitions": ("exact p/q table up to max-n", _run_partitions, (_MAX_N, _FORMAT, _LOG_SPACE)),
    "remark": (
        "staircase profile of one sequence",
        _run_remark,
        (_sequence("comma-separated entries"), _FORMAT),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="oseq",
        description="Count, validate, and bound O-sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, run, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(run=run)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """Read a well-formed command line as argparse would, without argparse.

    Well-formed is: a subcommand's exact name, then each of its options at
    most once, as its exact flag and a separate value (a bare flag for
    ``--log-space``), and its one positional if it has one; no value or
    positional starts with ``-``; every value converts, and every required
    option is there. The namespace then equals what
    ``build_parser().parse_args(argv)`` returns. Anything else returns None
    and is left to argparse, which prints help or the usage error as it
    always has: ``-h``, an abbreviated flag, ``--n=5``, a repeated option,
    ``--``, a negative number, a bad value.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, run, arguments = _COMMANDS[argv[0]]
    specs = dict(arguments)
    positionals = (name for name in specs if not name.startswith("-"))
    texts: dict[str, str | None] = {}  # argument -> its text, None for a bare flag
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            if token not in specs or token in texts:
                return None
            name, text = token, None if "action" in specs[token] else next(tokens, "-")
        else:
            name, text = next(positionals, None), token
            if name is None:
                return None
        if text is not None and text.startswith("-"):
            return None
        texts[name] = text
    values: dict[str, Any] = {"command": argv[0], "run": run}
    for name, spec in arguments:
        dest = spec.get("dest", name.lstrip("-").replace("-", "_"))
        if name not in texts:
            if spec.get("required", not name.startswith("-")):
                return None
            values[dest] = spec.get("default")
        elif texts[name] is None:  # a bare flag stores True
            values[dest] = True
        else:
            try:
                value = spec.get("type", str)(texts[name])
            except Exception:  # argparse converts it again and reports the refusal
                return None
            if value not in spec.get("choices", (value,)):
                return None
            values[dest] = value
    return SimpleNamespace(**values)


def _to_devnull(stream: Any) -> None:
    """Point a stream that failed a write at devnull: its buffer keeps what
    failed, and the interpreter's final flush would fail on it and exit 120."""
    try:
        fd = stream.fileno()
    except OSError:  # a writer in this process may have no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _fail(code: int, message: str) -> int:
    """Write the failure's stderr line and return ``code``; a lost line changes no code."""
    try:
        if sys.stderr is not None:  # closed (`2>&-`): print(file=None) would use stdout
            print(message, file=sys.stderr)
    except OSError:  # `2>/dev/full`: the line is lost, and stays in the buffer
        _to_devnull(sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """Parse, run and flush; each failure becomes one exit code and its stderr line."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        if sys.stdout is None:  # the caller closed fd 1 (`>&-`)
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        try:
            for field in ("n", "max_n", "cap"):
                value = getattr(args, field, None)
                if value is not None and value < 1:
                    raise ResourceLimitError(f"--{field.replace('_', '-')} must be >= 1")
            code = args.run(args)
        except ResourceLimitError as exc:
            code = _fail(EXIT_RESOURCE, f"error: {exc}")
        except TheoremViolationError as exc:
            code = _fail(EXIT_INTERNAL, f"internal error (bug): {exc}")
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):  # the reader has gone (`| head`)
            return EXIT_BROKEN_PIPE
        return _fail(EXIT_RESOURCE, f"error: cannot write output: {exc.strerror}")
    return code


# While it tears the modules down, the interpreter's exit runs full cyclic
# collections over every tracked object, every loaded module included. atexit
# hooks run before them, and a frozen object is in the permanent generation,
# which they skip. Deallocation by reference count, the final flushes of
# stdout and stderr and every other atexit hook still run. Registered on
# import, not called in main, so that `python -m oseq.cli` and the console
# script, which imports main, both get it, and an in-process caller keeps a
# normal heap until its own exit.
atexit.register(gc.freeze)


if __name__ == "__main__":
    sys.exit(main())
