"""End-to-end CLI runs, in process via main(argv).

Every JSON emission is validated against the shipped schema for its
subcommand, and the machine formats are checked for byte determinism.
"""

from __future__ import annotations

import contextlib
import errno
import gc
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import runpy
import shlex
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oseq.census
from oseq.bounds import (
    StaircaseDecomposition,
    check_prefix_bound,
    remark_profile,
    verify_tail_partition,
)
from oseq.census import (
    _MAX_CENSUS_CEILING,
    CensusCounter,
    CensusTable,
    _one_tuple,
    _tails,
    enumerate_osequences,
    precritical_prefixes,
)
from oseq.cli import (
    _BOUNDS_ROW,
    _CENSUS_ROW,
    _FORMAT,
    _PARTITIONS_ROW,
    _REMARK_ROW,
    _SEQUENCE_ROW,
    _read_argv,
    _render,
    build_parser,
    main,
)
from oseq.errors import TheoremViolationError
from oseq.macaulay import is_o_sequence
from oseq.partitions import DEFAULT_TABLE_LIMIT, build_partition_table

KNOWN_COUNTS = [1, 1, 2, 3, 5, 8, 12, 18, 27, 40, 57, 82]


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(schema_dir, name: str) -> dict:
    return json.loads((schema_dir / f"{name}.schema.json").read_text(encoding="utf-8"))


def refuse_constant(name: str):
    """Fails a parse on NaN, Infinity or -Infinity, which json.loads accepts by default."""
    raise ValueError(f"non-finite JSON number {name}")


def check_json(schema_dir, name: str, out: str) -> dict:
    payload = json.loads(out, parse_constant=refuse_constant)
    jsonschema.validate(payload, load_schema(schema_dir, name))
    return payload


def no_pass(*args, **kwargs):
    """Stands in for a pass that a refusal must come before."""
    raise AssertionError("a pass started before the refusal")


# ---------------------------------------------------------------------------
# count / check / enumerate


def test_count_json_exact(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "5", "--format", "json")
    assert code == 0
    assert out == '{"n":5,"L":"5"}\n'
    assert err == ""


def test_count_table(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "12")
    assert code == 0
    assert out == "L(12) = 82\n"


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--format", "csv")
    assert code == 0
    assert out == "n,L\n6,8\n"


def test_check_valid_and_invalid(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "check", "1,3,4,4", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "check", out)
    assert payload == {"sequence": [1, 3, 4, 4], "valid": True}

    code, out, _ = run_cli(capsys, "check", "1,1,2", "--format", "json")
    assert code == 1
    payload = check_json(schema_dir, "check", out)
    assert payload == {
        "sequence": [1, 1, 2],
        "valid": False,
        "reason": "growth-violation",
        "first_violation": 1,
    }

    code, out, _ = run_cli(capsys, "check", "2,1", "--format", "json")
    assert code == 1
    payload = check_json(schema_dir, "check", out)
    assert payload["reason"] == "bad-h0"


def test_check_table_message(capsys):
    code, out, _ = run_cli(capsys, "check", "1,2,3")
    assert code == 0
    assert "valid O-sequence" in out
    code, out, _ = run_cli(capsys, "check", "1,1,5")
    assert code == 1
    assert "NOT" in out and "index 1" in out


def test_check_huge_entries(capsys):
    code, out, err = run_cli(capsys, "check", "1,60000000,1000000000000000,1")
    assert (code, err) == (0, "")
    assert out == "1,60000000,1000000000000000,1 is a valid O-sequence\n"


def test_check_rejects_unparsable_sequence(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "1,x,3"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "oseq check: error: argument sequence: "
        "expected a comma-separated integer sequence, got '1,x,3'"
    )


@pytest.mark.parametrize("command", ["check", "remark"])
def test_an_entry_over_the_digit_limit_is_named_not_echoed(capsys, command):
    # int() refuses a literal longer than sys.get_int_max_str_digits(); the
    # refusal names that limit and the entry instead of echoing the argument.
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as excinfo:
        main([command, "1,3," + "9" * (limit + 1)])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        f"oseq {command}: error: argument sequence: h_2 has {limit + 1} digits, "
        f"over Python's limit of {limit} for integer string conversion"
    )
    assert len(err) < 200


def test_enumerate_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "enumerate", out)
    assert payload == {
        "n": 4,
        "count": "3",
        "sequences": [[1, 1, 1, 1], [1, 2, 1], [1, 3]],
    }


def test_enumerate_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert out == "1,1,1,1\n1,2,1\n1,3\n"


def test_enumerate_streams_before_the_last_sequence(monkeypatch):
    total = 10_000
    pulled = []

    def many(n, cap, piece, start, end):
        def blocks():
            head, tails = start + piece(n - 1), [end]
            for i in range(total):
                pulled.append(i)
                yield head, tails

        return total, blocks()

    writes = []

    class Spy(io.StringIO):
        def write(self, text):
            writes.append(len(pulled))
            return super().write(text)

    spy = Spy()
    monkeypatch.setattr("oseq.census._osequence_blocks", many)
    monkeypatch.setattr(sys, "stdout", spy)
    assert main(["enumerate", "--n", "3"]) == 0
    assert writes and writes[0] < total
    assert spy.getvalue() == "1,2\n" * total


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_enumerate_blocks_survive_chunk_boundaries(capsys, monkeypatch, fmt):
    # Each record is a whole prefix block; a write of 1 or 3 of them must
    # join them with the same row separator a block uses inside.
    argv = ("enumerate", "--n", "12", "--format", fmt)
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = json.loads(expected, parse_constant=refuse_constant)["sequences"] if fmt == "json" else expected.splitlines()[fmt == "csv" :]
    assert len(rows) == KNOWN_COUNTS[11]
    for chunk in (1, 3):
        monkeypatch.setattr("oseq.cli._CHUNK", chunk)
        assert run_cli(capsys, *argv) == (0, expected, ""), chunk


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_enumerate_row_text_matches_str_per_entry(capsys, monkeypatch, fmt):
    # Every prefix to 20, and every tail of _tails(m, j) for m <= 20 and
    # j <= 8 (the empty tail included), rendered as one block each from the
    # pieces the CLI passes, must read as str() of every entry would write it.
    opening, separator, closing = {
        "table": ("", ",", ""), "csv": ("", " ", ""), "json": ("[", ",", "]")
    }[fmt]
    prefixes = list(precritical_prefixes(20))
    tuples = [_tails(m, j, _one_tuple, ()) for m in range(21) for j in range(1, 9)]
    blocks = [(prefix, [()]) for prefix in prefixes] + [((1,), tails) for tails in tuples]
    count = sum(len(tails) for _, tails in blocks)

    def rendered(n, cap, piece, start, end):
        def text(entries):
            return "".join(map(piece, entries))

        return count, ((start + text(p[1:]), [text(t) + end for t in tails]) for p, tails in blocks)

    monkeypatch.setattr("oseq.census._osequence_blocks", rendered)
    code, out, err = run_cli(capsys, "enumerate", "--n", "20", "--format", fmt)
    assert (code, err) == (0, "")
    rows = [
        opening + separator.join(map(str, prefix))
        + (separator + separator.join(map(str, tail)) if tail else "") + closing
        for prefix, tails in blocks
        for tail in tails
    ]
    if fmt == "json":
        assert out == f'{{"n":20,"count":"{count}","sequences":[' + ",".join(rows) + "]}\n"
    else:
        assert out == "sequence\n" * (fmt == "csv") + "".join(row + "\n" for row in rows)


def test_json_head_waits_for_the_first_record_but_not_for_a_missing_one(capsys):
    def rows():
        assert capsys.readouterr().out == ""  # nothing written before the first row
        yield "1"

    _render("json", '"n":1', rows(), key="xs")
    assert capsys.readouterr().out == '{"n":1,"xs":[1]}\n'
    _render("json", '"n":1', iter(()), key="xs")
    assert capsys.readouterr().out == '{"n":1,"xs":[]}\n'
    unread = iter(["1"])
    _render("json", '"n":1,"valid":true', unread)  # without a key, the head alone
    assert capsys.readouterr().out == '{"n":1,"valid":true}\n'
    assert list(unread) == ["1"]


def test_every_row_table_has_a_row_for_each_format_and_no_other():
    formats = _FORMAT[1]["choices"]
    for rows in (_SEQUENCE_ROW, _CENSUS_ROW, _BOUNDS_ROW, _PARTITIONS_ROW, _REMARK_ROW):
        assert tuple(rows) == formats


def test_the_json_checks_refuse_non_finite_numbers(schema_dir):
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match="non-finite"):
            check_json(schema_dir, "count", f'{{"n":1,"L":{constant}}}')


def _growth_bound(a: int, d: int) -> int:
    """a^<d>, from the greedy binomial expansion of a in degree d."""
    bound = 0
    while a and d:
        top = d
        while math.comb(top + 1, d) <= a:
            top += 1
        a -= math.comb(top, d)
        bound += math.comb(top + 1, d + 1)
        d -= 1
    return bound


def test_enumerate_table_matches_filtered_compositions(capsys):
    # Independent of the prefix walk: every 1-prefixed composition of n, cut
    # at each subset of the inner points, kept when each entry obeys the
    # growth bound of the one before it.
    for n in range(1, 15):
        expected = []
        for r in range(n):
            for cuts in itertools.combinations(range(2, n), r):
                seq = [b - a for a, b in itertools.pairwise(sorted({0, 1, *cuts, n}))]
                if all(seq[i + 1] <= _growth_bound(seq[i], i) for i in range(1, len(seq) - 1)):
                    expected.append(tuple(seq))
        code, out, err = run_cli(capsys, "enumerate", "--n", str(n))
        assert (code, err) == (0, "")
        assert out == "".join(",".join(map(str, seq)) + "\n" for seq in sorted(expected)), n


def test_enumerate_cap_refusal(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "12", "--cap", "10")
    assert code == 2
    assert out == ""
    assert "L(12) = 82 exceeds the streaming cap 10" in err


# ---------------------------------------------------------------------------
# census, caching


def test_census_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "census", "--max-n", "8", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "census", out)
    assert payload["max_n"] == 8
    assert [r["L"] for r in payload["records"]] == [str(c) for c in KNOWN_COUNTS[:8]]


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,L\n1,1\n2,1\n3,2\n"


def test_census_admits_201_with_L200_pinned(capsys):
    code, out, err = run_cli(capsys, "census", "--max-n", "201", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 202
    assert lines[200] == "200,1975618316572817"


def test_count_admits_1001_without_a_flag(capsys):
    # the value is the pass to 2000's, whose digest tests/test_census.py pins
    code, out, err = run_cli(capsys, "count", "--n", "1001")
    assert (code, err) == (0, "")
    assert out == "L(1001) = 1152342045738373762983822041162799351249\n"


@pytest.mark.parametrize(
    "argv",
    [("count", "--n"), ("census", "--max-n"), ("bounds", "--max-n"), ("enumerate", "--n")],
    ids=["count", "census", "bounds", "enumerate"],
)
def test_ceiling_above_the_hard_maximum_exits_two_before_any_pass(capsys, monkeypatch, argv):
    monkeypatch.setattr(oseq.census, "_prefix_rows", no_pass)
    monkeypatch.setattr("oseq.partitions.build_partition_table", no_pass)
    code, out, err = run_cli(capsys, *argv, str(_MAX_CENSUS_CEILING + 1))
    assert (code, out) == (2, "")
    assert err == "error: census length 6001 exceeds the maximum 6000\n"


def test_census_ignores_planted_cache_file(capsys, tmp_path, monkeypatch):
    # the census is always recounted: neither an option nor the former
    # environment variable can feed it stored values
    path = tmp_path / "cache.json"
    path.write_text('{"format": "oseq-census", "version": 1, "values": {"3": "777"}}')
    monkeypatch.setenv("OSEQ_CACHE", str(path))
    code, out, _ = run_cli(capsys, "census", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,L\n1,1\n2,1\n3,2\n"
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "--max-n", "3", "--cache", str(path)])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_census_cache_env_var(capsys, tmp_path, monkeypatch):
    # the former cache variable neither changes the output nor writes a file
    code, bare, _ = run_cli(capsys, "census", "--max-n", "6", "--format", "json")
    assert code == 0
    path = tmp_path / "from-env.json"
    monkeypatch.setenv("OSEQ_CACHE", str(path))
    code, with_env, err = run_cli(capsys, "census", "--max-n", "6", "--format", "json")
    assert code == 0 and err == ""
    assert with_env == bare
    assert not path.exists()


# ---------------------------------------------------------------------------
# bounds


def test_bounds_json_schema_and_determinism(capsys, schema_dir):
    code, first, err = run_cli(capsys, "bounds", "--max-n", "20", "--format", "json")
    assert code == 0 and err == ""
    payload = check_json(schema_dir, "bounds", first)
    assert payload["max_n"] == 20
    assert all(r["lower_ok"] and r["upper_ok"] for r in payload["records"])
    for flag in ("lower_ok", "upper_ok"):  # theorems: the schema admits only true
        record = {**payload["records"][-1], flag: False}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**payload, "records": [record]}, load_schema(schema_dir, "bounds"))
    code, second, _ = run_cli(capsys, "bounds", "--max-n", "20", "--format", "json")
    assert code == 0
    assert first == second


def test_bounds_csv_header(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--max-n", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,L,p_lower,log_upper,c1_emp,c2_emp"
    assert len(lines) == 6


def test_bounds_table_envelope_line(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--max-n", "10")
    assert code == 0
    assert out.splitlines()[-1].startswith("empirical envelope: c1 >= ")
    for max_n in ("1", "2"):  # the envelope is taken over n >= 3
        code, out, _ = run_cli(capsys, "bounds", "--max-n", max_n)
        assert (code, out.splitlines()[-1]) == (0, "empirical envelope: none (needs max-n >= 3)")


def test_theorem_violation_exits_three(capsys, monkeypatch):
    # A census below p(n-1) can only come from a bug, and says so on stderr.
    fake = CensusTable(records={1: 1, 2: 1, 3: 1}, max_n=3)
    monkeypatch.setattr("oseq.census.build_census", lambda max_n: fake)
    code, out, err = run_cli(capsys, "bounds", "--max-n", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error (bug): lower bound p(n-1) <= count failed at n=3: 2 > 1\n"


def test_upper_bound_violation_exits_three(capsys, monkeypatch):
    # L(2) = 3 is one above the exact bound J * n^(J-1) * p(n) = 2 at n = 2.
    fake = CensusTable(records={1: 1, 2: 3}, max_n=2)
    monkeypatch.setattr("oseq.census.build_census", lambda max_n: fake)
    code, out, err = run_cli(capsys, "bounds", "--max-n", "2")
    assert code == 3
    assert out == ""
    assert err == (
        "internal error (bug): upper bound L(n) <= J * n^(J-1) * p(n) failed at n=2, J=1: 3 > 2\n"
    )


def test_stray_overflow_error_is_not_a_refusal(monkeypatch):
    # Exit 2 is for refusals the code states; an OverflowError from anywhere
    # else is a bug, so it propagates instead of exiting 2.
    def overflow(max_n):
        raise OverflowError("planted")

    monkeypatch.setattr("oseq.census.build_census", overflow)
    with pytest.raises(OverflowError, match="planted"):
        main(["bounds", "--max-n", "5"])


SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
# Children run with default stdio buffering: an unwritable stream then keeps
# its line in the buffer until the interpreter's final flush, as it would for
# a user, and PYTHONUNBUFFERED in this environment would hide that flush.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": str(SRC_DIR),
}


def cli_child(*argv: str, stdout, stderr=subprocess.PIPE) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "oseq.cli", *argv], env=CHILD_ENV, stdout=stdout, stderr=stderr
    )


def test_closed_pipe_exits_141_quietly():
    # `oseq enumerate --n 40 --cap 10000000 | head -1`: the reader takes one
    # line and quits long before the stream ends.
    child = cli_child("enumerate", "--n", "40", "--cap", "10000000", stdout=subprocess.PIPE)
    assert child.stdout.readline() == b",".join([b"1"] * 40) + b"\n"
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_disk_exits_two_with_one_line():
    with open("/dev/full", "wb") as full:
        child = cli_child("check", "1,3,4,4", stdout=full)
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (
        2,
        b"error: cannot write output: No space left on device\n",
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stderr_keeps_the_refusal_code():
    # The refusal line is lost on the full stderr; the code is still the refusal's.
    with open("/dev/full", "wb") as full:
        child = cli_child("count", "--n", "0", stdout=subprocess.PIPE, stderr=full)
        out, _ = child.communicate(timeout=60)
    assert (child.returncode, out) == (2, b"")


def closed_fd_child(*argv: str, fd: int) -> subprocess.CompletedProcess:
    # `oseq ... >&-` (fd 1) or `oseq ... 2>&-` (fd 2): the interpreter starts
    # with that descriptor closed, so its sys.stdout or sys.stderr is None.
    script = f'exec "$@" {fd}>&-'
    return subprocess.run(
        ["sh", "-c", script, "sh", sys.executable, "-m", "oseq.cli", *argv],
        env=CHILD_ENV,
        capture_output=True,
        timeout=60,
    )


def test_closed_stdout_exits_two_with_one_line():
    done = closed_fd_child("check", "1,3,4,4", fd=1)
    assert (done.returncode, done.stderr) == (
        2,
        f"error: cannot write output: {os.strerror(errno.EBADF)}\n".encode(),
    )


def test_closed_stderr_leaves_stdout_clean():
    # print(file=None) writes to stdout, so the lost refusal line must not go there.
    done = closed_fd_child("count", "--n", "0", fd=2)
    assert (done.returncode, done.stdout) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_bug_line_precedes_the_failed_final_flush():
    # A runner that has buffered a row and then hits a bug: its line goes to
    # stderr, and stdout's final flush on the full disk then adds its own.
    script = (
        "import sys, oseq.census, oseq.cli as cli\n"
        "from oseq.errors import TheoremViolationError\n"
        "def planted(n):\n"
        "    print('1')\n"
        "    raise TheoremViolationError('planted')\n"
        "oseq.census.count_osequences = planted\n"
        "sys.exit(cli.main(['count', '--n', '1']))\n"
    )
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-c", script], env=CHILD_ENV, stdout=full, stderr=subprocess.PIPE,
            timeout=60,
        )
    assert (done.returncode, done.stderr) == (
        2,
        b"internal error (bug): planted\nerror: cannot write output: No space left on device\n",
    )


class FullWriter(io.StringIO):
    """A writer in this process, with no descriptor, on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_unwritable_stderr_keeps_the_bug_code(capsys, monkeypatch):
    fake = CensusTable(records={1: 1, 2: 1, 3: 1}, max_n=3)
    monkeypatch.setattr("oseq.census.build_census", lambda max_n: fake)
    monkeypatch.setattr(sys, "stderr", FullWriter())
    assert main(["bounds", "--max-n", "3"]) == 3
    assert capsys.readouterr().out == ""


def test_unwritable_stdout_without_a_descriptor_exits_two(monkeypatch):
    # There is no fd 1 to point at devnull, so the write failure is only reported.
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", FullWriter())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["check", "1"]) == 2
    assert err.getvalue() == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_lost_stderr_lines_leave_no_descriptor_open(monkeypatch):
    monkeypatch.setattr(sys, "stderr", FullWriter())
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        assert main(["count", "--n", "0"]) == 2
    assert len(os.listdir("/proc/self/fd")) == before


def test_bounds_refuses_both_limits_before_any_pass(capsys, monkeypatch):
    # over both limits, the census maximum is named and neither pass starts
    monkeypatch.setattr(oseq.census, "_prefix_rows", no_pass)
    monkeypatch.setattr("oseq.partitions.build_partition_table", no_pass)
    code, out, err = run_cli(capsys, "bounds", "--max-n", "100001")
    assert (code, out) == (2, "")
    assert err == "error: census length 100001 exceeds the maximum 6000\n"


def test_census_maximum_is_below_the_table_limit():
    # bounds counts the census first and relies on this: every length the
    # census admits, the partition table admits too
    assert _MAX_CENSUS_CEILING <= DEFAULT_TABLE_LIMIT


# ---------------------------------------------------------------------------
# partitions


def test_partitions_csv_exact(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,p,q\n0,1,1\n1,1,1\n2,2,1\n3,3,2\n"


def test_partitions_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "partitions", "--max-n", "10", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "partitions", out)
    assert payload["limit"] == 10
    assert not payload["log_space"]
    assert payload["records"][0] == {"n": 0, "p": "1", "q": "1"}
    rec = payload["records"][10]
    assert rec["p"] == "42" and rec["q"] == "10"
    assert rec["hr_ratio"] is not None


def test_partitions_log_space(capsys, schema_dir):
    import math

    code, plain_out, _ = run_cli(capsys, "partitions", "--max-n", "5", "--format", "json")
    assert code == 0
    code, log_out, _ = run_cli(
        capsys, "partitions", "--max-n", "5", "--format", "json", "--log-space"
    )
    assert code == 0
    plain = check_json(schema_dir, "partitions", plain_out)
    logged = check_json(schema_dir, "partitions", log_out)
    assert logged["log_space"]
    plain_est = plain["records"][5]["hr_estimate"]
    log_est = logged["records"][5]["hr_estimate"]
    assert math.exp(log_est) == pytest.approx(plain_est, rel=1e-12)


@pytest.mark.parametrize(
    "extra",
    [("--log-space",), ("--format", "csv"), ("--format", "table"), ("--format", "json")],
    ids=["log-space", "csv", "table", "json"],
)
def test_partitions_above_the_table_maximum_exits_two(capsys, extra):
    # The limit is checked first: the estimate at 100001 would overflow a
    # double too, but --log-space would not get past the limit.
    code, out, err = run_cli(capsys, "partitions", "--max-n", str(DEFAULT_TABLE_LIMIT + 1), *extra)
    assert (code, out) == (2, "")
    assert err == "error: partition table limit 100001 exceeds the maximum 100000\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_partitions_overflow_refused_before_the_table(capsys, monkeypatch, fmt):
    def no_table(*args, **kwargs):
        raise AssertionError("the table is built before the overflow check")

    monkeypatch.setattr("oseq.partitions.build_partition_table", no_table)
    code, out, err = run_cli(capsys, "partitions", "--max-n", "100000", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: the estimate for n=100000 exceeds double range; use --log-space\n"


def test_partitions_csv_needs_no_estimate(capsys, monkeypatch):
    # csv prints n,p,q only, so an estimate that would overflow is no reason
    # to refuse; the stub table keeps the run small
    def no_estimate(*args, **kwargs):
        raise AssertionError("csv computed the estimate")

    monkeypatch.setattr("oseq.partitions.hardy_ramanujan", no_estimate)
    monkeypatch.setattr("oseq.partitions.build_partition_table", lambda n: build_partition_table(3))
    code, out, err = run_cli(capsys, "partitions", "--max-n", "79446", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == "n,p,q\n0,1,1\n1,1,1\n2,2,1\n3,3,2\n"


def test_partitions_table_smoke(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--max-n", "4")
    assert code == 0
    assert out.splitlines()[0].split() == ["n", "p", "q", "estimate", "ratio"]


# ---------------------------------------------------------------------------
# remark


def test_remark_json(capsys, schema_dir):
    code, out, _ = run_cli(capsys, "remark", "1,3,4,4", "--format", "json")
    assert code == 0
    payload = check_json(schema_dir, "remark", out)
    assert payload == {
        "sequence": [1, 3, 4, 4],
        "critical_index": 4,
        "first_applicable_degree": 2,
        "t_monotone": True,
        "alpha_monotone_within_t_plateaus": True,
        "decompositions": [
            {"degree": 1, "in_range": False},
            {"degree": 2, "in_range": True, "t": 0, "alpha": 1},
            {"degree": 3, "in_range": True, "t": 0, "alpha": 0},
        ],
    }
    for flag in ("t_monotone", "alpha_monotone_within_t_plateaus"):  # theorems: only true
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**payload, flag: False}, load_schema(schema_dir, "remark"))


def test_remark_rejects_invalid_sequence(capsys, schema_dir):
    code, out, err = run_cli(capsys, "remark", "1,1,2", "--format", "json")
    assert (code, err) == (1, "")
    assert check_json(schema_dir, "check", out) == {
        "sequence": [1, 1, 2],
        "valid": False,
        "reason": "growth-violation",
        "first_violation": 1,
    }


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("sequence", ["1,1,2", "2", "1,0"])
def test_remark_refuses_exactly_as_check(capsys, sequence, fmt):
    checked = run_cli(capsys, "check", sequence, "--format", fmt)
    assert checked[0] == 1
    assert run_cli(capsys, "remark", sequence, "--format", fmt) == checked


@pytest.mark.parametrize(
    ("sequence", "code"), [("1,3,4,4", 0), ("1,1,2", 1), ("2", 1), ("1,0", 1)]
)
def test_remark_validates_once(capsys, monkeypatch, sequence, code):
    # One spy under both names the validity test is reached by: the CLI's
    # import of oseq.macaulay and remark_profile's own. A refusal, too, is
    # written from the one report.
    calls = []

    def spy(candidate):
        calls.append(tuple(candidate))
        return is_o_sequence(candidate)

    monkeypatch.setattr("oseq.macaulay.is_o_sequence", spy)
    monkeypatch.setattr("oseq.bounds.is_o_sequence", spy)
    got, _, err = run_cli(capsys, "remark", sequence)
    assert (got, err) == (code, "")
    assert calls == [tuple(map(int, sequence.split(",")))]


def test_remark_does_not_mistake_a_bug_for_a_refusal(capsys, monkeypatch):
    # Only the two refusals become check's record: a ValueError from the
    # staircase pass on a valid sequence is a bug and leaves main as it is.
    def broken(value, degree):
        raise ValueError("planted")

    monkeypatch.setattr("oseq.bounds.staircase_decompose", broken)
    with pytest.raises(ValueError, match="planted"):
        main(["remark", "1,3,4,4"])
    assert capsys.readouterr().out == ""


def test_remark_csv(capsys):
    code, out, _ = run_cli(capsys, "remark", "1,3,4,4", "--format", "csv")
    assert code == 0
    assert out == "degree,in_range,t,alpha\n1,false,,\n2,true,0,1\n3,true,0,0\n"


# ---------------------------------------------------------------------------
# every subcommand in every format, byte for byte


# (argv, exit code, sha256 of stdout), recorded from the per-runner writers
# that preceded the shared renderer
PINNED_OUTPUTS = [
    ("check 1,1,2 --format table", 1, "1dbd6bd31517f695bff28bac9fd9a7be32a45895c0211c2c92bbea297d5a1903"),
    ("check 1,1,2 --format csv", 1, "19e9e3cbef7d508f6d00a177b47bd9e773a06cf909d3410b0285478de56b8fef"),
    ("check 1,1,2 --format json", 1, "174f09ca3761e5f0c76d6883334fefaf6be3fec57b36a285e41407693a1d7451"),
    ("count --n 6 --format table", 0, "bb13725ab50d21fab38d02add6344e921b3af5b2152ad74cd481c28ed9bc5808"),
    ("count --n 6 --format csv", 0, "8b4fc734f9ff2351b9c27cff7a89cabf09413080b76c9a4cc9095b33ceff9414"),
    ("count --n 6 --format json", 0, "1e51a4aa7660198ab191793a08e3554eaae3d2a5e3210046f5af7135f49d4e90"),
    ("enumerate --n 5 --format table", 0, "0e4167ffe836356b1c28bd39f420d88868f409f2970f9ad521984279cb37a08c"),
    ("enumerate --n 5 --format csv", 0, "0a4ffc31048c1fc01004ef82493fd24087c00570048fc11979ad88a9edb50e77"),
    ("enumerate --n 5 --format json", 0, "254d4f36ad5780ec76c2b1e49e088136b1dd33aa2874c8acbdaed5b3ee80a5ce"),
    ("enumerate --n 30 --format table", 0, "6afe19a62b584e6f41c65dfa954b0413fe57ebb624a0423ce43dcdb00e2cc745"),
    ("enumerate --n 30 --format csv", 0, "0045096a3f5b45e10e3678e58a3fcbbfc71acb8af76c33869be64aa995faae3f"),
    ("enumerate --n 30 --format json", 0, "ef44323f3d77094b06b678a05816f465505766e4533e46c551f8d8ca6f8c6273"),
    # the largest sequence-stream job, recorded from the walk that built an
    # HVector per piece and the rows that called str() per entry
    ("enumerate --n 40 --cap 10000000 --format table", 0, "7767afb157ce156c89acbf7d54b5f656fd271584a7b7903f1eb83ea3ffa4c4dc"),
    ("enumerate --n 40 --cap 10000000 --format csv", 0, "487471db5efef291bf79fa0f8ba6431d7fa9dc9634b65ce1ea0a17f148bb17e2"),
    ("enumerate --n 40 --cap 10000000 --format json", 0, "be68026fed8b74841654d7e65874cff2b19224756453462a06f0545fc4d52605"),
    ("census --max-n 12 --format table", 0, "0338ce6550e7a136c22fe2df41f0442b72b972b858c7dd896e6553a6d9dc0cbd"),
    ("census --max-n 12 --format csv", 0, "edb302ba60935432adf9742d027a13a3c03433045b5f710dfb00a27f62f310b8"),
    ("census --max-n 12 --format json", 0, "3b6c09901aac748f2bcc56e5a0b0f3482e6adf89c7b4b87a4c043aecc826fc7a"),
    ("bounds --max-n 12 --format table", 0, "5bbf3debf92981359c68bc179d546e6b9f2e8e00c8b12e95e6b89b92862e238f"),
    ("bounds --max-n 12 --format csv", 0, "5b28f36a1471bed245df4cca876e496e717cb8c496c664a98e367915c9bfa5c3"),
    ("bounds --max-n 12 --format json", 0, "e00ab51047c414628e58d8c84057d182513af8dffb8e23a29bb7870ca92d00c6"),
    ("partitions --max-n 12 --format table", 0, "7a74f51c4e583f6c9d6e81cdf7027c78c3232a640d04e2d526470b867153e630"),
    ("partitions --max-n 12 --format csv", 0, "d61a588e13e65b23e4147ca471c66f2cda9bdc4257948b3de1d8136c86a286d5"),
    ("partitions --max-n 12 --format json", 0, "582408293afb9a7a2834263283899db444cdb5dafd88e9159b00be0f00589f72"),
    ("partitions --max-n 12 --log-space --format table", 0, "25949d0b2d9b5542922ed827da41fd750e9596bd2514786a4b6ada1a414ddbdf"),
    ("partitions --max-n 12 --log-space --format csv", 0, "d61a588e13e65b23e4147ca471c66f2cda9bdc4257948b3de1d8136c86a286d5"),
    ("partitions --max-n 12 --log-space --format json", 0, "82bff1cec3da4216459dd8e6e027b71e71ae1d8b9f82a671a53ef8bfc110947f"),
    # recorded from the renderer that built an estimate record and a dict per row
    ("partitions --max-n 500 --format table", 0, "9292390b0d2bdc586776df6bbdc6779c445f15ffccffaffdf35c4664843e510d"),
    ("partitions --max-n 500 --format csv", 0, "4d9844a3314b74b3d0e0e3649cf8489638bddfdacfa14f12202bfa49760482a0"),
    ("partitions --max-n 500 --format json", 0, "aeb9628d131702c17377368cb50e75e3e3f082890daadcff3a02bce800824be0"),
    ("partitions --max-n 500 --log-space --format table", 0, "f5a805b9181ffebbfd19ae4df54e1f04353e8b62e3c9888def8acc4dfef980b8"),
    ("partitions --max-n 500 --log-space --format csv", 0, "4d9844a3314b74b3d0e0e3649cf8489638bddfdacfa14f12202bfa49760482a0"),
    ("partitions --max-n 500 --log-space --format json", 0, "e7872c6f1968a45e6958ff93b6740ab7e6b0e45e88e287899c74aed74c3bf2ef"),
    # the largest partition-tables job, recorded from the pass that built q's
    # block as a copy of p's and added one doubled pentagonal offset per map
    ("partitions --max-n 6000 --format table", 0, "b6390a4fa03ccf3535e825b64c634a0ded308cce0dcf2a057ebeb56263703142"),
    ("partitions --max-n 6000 --format csv", 0, "cb7c939a88ad9390d5a1c599ac9f387d6b4e965213dd2843adef931b39dfa2cf"),
    ("partitions --max-n 6000 --format json", 0, "53b3ab83e4254db2bb54f57911124c6db109fabf0d28a774849987380998271b"),
    ("partitions --max-n 6000 --log-space --format json", 0, "8af31e3af12aed727eaa530d8be56f00e94281565a51bb44522e1895ecf3dc43"),
    ("remark 1,3,6,10,15,21,7,3 --format table", 0, "fd5bccf6c654263855f94305b7340e4de2575856aa961ec25156afe7364b5937"),
    ("remark 1,3,6,10,15,21,7,3 --format csv", 0, "75b885f1fe4f538ad8aaf9ab0565f1cc58377b1bc0fbcd82a4731027cefe1e6b"),
    ("remark 1,3,6,10,15,21,7,3 --format json", 0, "13934eeaf5aafd0b558647b7e8fb46787a68e066519dfa25ed22ee781fb89ef1"),
    # an invalid sequence: remark prints what check prints, recorded from check
    ("remark 1,1,2 --format table", 1, "1dbd6bd31517f695bff28bac9fd9a7be32a45895c0211c2c92bbea297d5a1903"),
    ("remark 1,1,2 --format csv", 1, "19e9e3cbef7d508f6d00a177b47bd9e773a06cf909d3410b0285478de56b8fef"),
    ("remark 1,1,2 --format json", 1, "174f09ca3761e5f0c76d6883334fefaf6be3fec57b36a285e41407693a1d7451"),
    # recorded from the records that stored the bound and staircase flags:
    # no envelope (n < 3), a null c2_emp (n = 1) and an empty staircase window
    ("bounds --max-n 2 --format csv", 0, "6f57d8f518dc24adb80bc310fee375a57d1aa67ea365b1fb682dec6a76cdb4f3"),
    ("bounds --max-n 2 --format json", 0, "0f59e36e88c9148934ca69043b4fd4844afb4a21fc8cb3719d1ecd945d5f7f40"),
    ("remark 1 --format table", 0, "b459243c817e39a9d8a40cfa7204d8915ae64f6f7404e48e98c3f008f8b52d88"),
    ("remark 1 --format csv", 0, "63b52098bf3773249decdc67bc2b3522babf9f192af5d145f162bf90c3929d2d"),
    ("remark 1 --format json", 0, "fc931d3a9cf05efe878a17bf5de6bdc7340adb31540cfca61f8b201a7ab09f14"),
    # recorded from the renderer that wrote dict records through a cell
    # function and json.dumps: a valid check, a bad start (no index), a zero
    # entry, the one-row census and bounds, and 1000 rows of bounds floats
    ("check 1,3,4,4 --format table", 0, "814f4cda04d76f4945ecfaa72eef2aa5042654ae2d29111fe00e30500025796c"),
    ("check 1,3,4,4 --format csv", 0, "27f6d0b86470e96f610eaddf3185e23e09ae56165cfebbefe91a4503f452c54d"),
    ("check 1,3,4,4 --format json", 0, "e2e6dfd4ac5a3e44113f5457afadecc277455abfa949c6de141bfdd389355994"),
    ("check 2,1 --format table", 1, "eeefd8c7c53a4801a4463b4b44b8a49eb04a8a81e21e835e66f6ba5a7242cc51"),
    ("check 2,1 --format csv", 1, "4050cfc4dc25283f872945a8b9130689996c5076974c35b5a90f4e528619b457"),
    ("check 2,1 --format json", 1, "2517c65c494f36056e899ae799fca7462bada6caf7320a73cb2b278a1c0d9137"),
    ("check 1,2,0 --format table", 1, "ef95ba5d98e728c9939ac43e6d47dc34cbbdc88c09bb8090ed7abe754379bae2"),
    ("check 1,2,0 --format csv", 1, "959879d89c7b3611e53d038d71d278ae833d48475777d509686e320e54115638"),
    ("check 1,2,0 --format json", 1, "4f5579c2ccbf58f4f4b2a3d4d1de9c22780555a9d517ea946c1b4a28009e6638"),
    ("bounds --max-n 1 --format csv", 0, "73998a951594d87da0a8c2832734f74855af85366f965f1cf4ec7223b2a07646"),
    ("bounds --max-n 1 --format json", 0, "e213476cb01d95550afaafe3f2edb363df76668a389f87dad4366614ab6915cb"),
    ("census --max-n 1 --format table", 0, "b845f6d84abc033f00978933a3008dc88ef7a176b7dcc3df24f3b842aae00cc5"),
    ("census --max-n 1 --format csv", 0, "ba02e1c1a1f04eed45e6c5380691bba2704684e11f874d4aada36e5a86aac87b"),
    ("census --max-n 1 --format json", 0, "209a05116007a09a8690fecd7cec831ba5751ec8e33b65467d6836aa105bea43"),
    ("bounds --max-n 1000 --format csv", 0, "d207fa1deac48f789eb56b69c03112a0c7c1b4f069a7964c4fc4397b563849ab"),
    ("bounds --max-n 1000 --format json", 0, "ce31a4e4959bedd8609d546df9a5067f8ee4bd4f2b60a2bdc97ff602c892e8c2"),
    # re-pinned when the table without an envelope stopped printing None:
    # the rows are the old bytes, and only the envelope line changed
    ("bounds --max-n 2 --format table", 0, "9e0694300261430650642aebc2ce74b0af702a41e619e8d2ef2089219d9778e9"),
    ("bounds --max-n 1 --format table", 0, "11bf35fbe370ecb891bf116a57dd17f6aac2037ee7d7d10dd91497f69d3fd2ea"),
]


@pytest.mark.parametrize(("argv", "code", "digest"), PINNED_OUTPUTS)
def test_every_output_is_pinned(capsys, argv, code, digest):
    got_code, out, err = run_cli(capsys, *argv.split())
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


SWEEP_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "remark_sweep.py"

# (--max-n, sha256 of stdout), recorded from the sweep that visited every sequence
PINNED_SWEEPS = [
    (0, "58b8b7f905e0b2827744f84ae4751ebf3bfa35c8f298442b29a846007247366b"),
    (1, "31fa3597c71120c75c0972d15c4113acb51122f5e898ddd73d33ae581ee9ec84"),
    (12, "7ad70dc56cb0143b279bdfd7d2eadd0e137f0609f584f535ae5d604c7149548e"),
    (40, "53d25fd5db7cc5b93fe4c82d8e977a7aa36c81c2e59a5a9ec0072ddff7aa1640"),
    # recorded from the sweep that ran remark_profile on every prefix
    (50, "063f825b92cb4e808d9d9d0c825171c24c1d9bd103ddd144e00164b47b5c0fb4"),
]


def run_sweep(max_n: int) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run(
        [sys.executable, str(SWEEP_PATH), "--max-n", str(max_n)],
        cwd=SWEEP_PATH.parent.parent, env=env, capture_output=True, check=True,
    )


def test_remark_sweep_output_is_pinned():
    # The sweep script is a benchmark job, so its bytes are pinned.
    for max_n, digest in PINNED_SWEEPS:
        done = run_sweep(max_n)
        assert hashlib.sha256(done.stdout).hexdigest() == digest, max_n
        assert done.stderr == b""


# job (the arguments after the interpreter) -> its exit code
TRACED_JOBS = {
    ("-m", "oseq.cli", "bounds", "--max-n", "20", "--format", "csv"): 0,
    ("-m", "oseq.cli", "count", "--n", "0"): 2,
    ("scripts/remark_sweep.py", "--max-n", "12"): 0,
}


@pytest.mark.parametrize("job", list(TRACED_JOBS), ids=lambda job: " ".join(job[:3]))
def test_tracer_runs_a_job_as_the_plain_cli_does(job):
    # perfbench/tracer.py wraps functions of the package by name, so a name it
    # reads that is renamed or deleted would stop every traced benchmark run.
    # It writes its report once the job's SystemExit returns to it, so a job
    # that left by os._exit would lose the report.
    env = {**os.environ, "PYTHONPATH": "src"}
    plain, traced = (
        subprocess.run(
            [sys.executable, *tracer, *job],
            cwd=SWEEP_PATH.parent.parent, env=env, capture_output=True, text=True,
        )
        for tracer in ((), ("perfbench/tracer.py",))
    )
    code = TRACED_JOBS[job]
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    *lines, report = traced.stderr.splitlines(keepends=True)
    assert "".join(lines) == plain.stderr
    assert (plain.returncode, json.loads(report)["exit"]) == (code, code)


def test_remark_sweep_refuses_negative_max_n():
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(
        [sys.executable, str(SWEEP_PATH), "--max-n", "-3"],
        cwd=SWEEP_PATH.parent.parent, env=env, capture_output=True,
    )
    assert done.returncode == 2
    assert done.stdout == b""
    assert b"--max-n must be >= 0" in done.stderr


def test_remark_sweep_refuses_a_ceiling_above_the_hard_maximum(capsys, monkeypatch):
    monkeypatch.setattr(oseq.census, "_prefix_rows", no_pass)
    monkeypatch.setattr(sys, "argv", [str(SWEEP_PATH), "--max-n", str(_MAX_CENSUS_CEILING + 1)])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SWEEP_PATH), run_name="__main__")
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: census length 6001 exceeds the maximum 6000\n")


def per_sequence_sweep(max_n: int) -> str:
    """Reference sweep: the per-sequence loop the script ran before it weighted prefixes."""
    lines = [
        f"{'n':>3} {'L(n)':>8} {'tail ok':>8} {'prefix ok':>9} "
        f"{'t monotone':>11} {'alpha monotone':>15}"
    ]
    for n in range(1, max_n + 1):
        total = tail_ok = prefix_ok = staircase_ok = 0
        for h in enumerate_osequences(n, cap=10**7):
            total += 1
            tail_ok += verify_tail_partition(h)
            prefix_ok += check_prefix_bound(h)
            try:
                remark_profile(h)  # raises where the window lemma fails
            except TheoremViolationError:
                continue
            staircase_ok += 1

        def pct(k: int) -> str:
            return f"{100.0 * k / total:>6.1f}%"

        lines.append(
            f"{n:>3} {total:>8} {pct(tail_ok):>8} {pct(prefix_ok):>9} "
            f"{pct(staircase_ok):>11} {pct(staircase_ok):>15}"
        )
    return "".join(line + "\n" for line in lines)


def test_remark_sweep_matches_per_sequence_sweep():
    assert run_sweep(16).stdout.decode("utf-8") == per_sequence_sweep(16)


def test_remark_sweep_exits_three_when_weights_miss_the_census(capsys, monkeypatch):
    count = CensusCounter.count
    monkeypatch.setattr(CensusCounter, "count", lambda self, n: count(self, n) + 1)
    monkeypatch.setattr(sys, "argv", [str(SWEEP_PATH), "--max-n", "5"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SWEEP_PATH), run_name="__main__")
    assert excinfo.value.code == 3
    err = capsys.readouterr().err
    assert "n=1" in err


def test_every_program_makes_one_pass(capsys, monkeypatch):
    # Each program counts through its limit once and reads every length it
    # needs from that one pass.
    passes = []
    prefix_rows = oseq.census._prefix_rows

    def spy(limit):
        passes.append(limit)
        return prefix_rows(limit)

    monkeypatch.setattr(oseq.census, "_prefix_rows", spy)
    for *argv, limit in [("count", "--n", "20"), ("census", "--max-n", "20"),
                         ("bounds", "--max-n", "20"), ("enumerate", "--n", "12")]:
        passes.clear()
        assert run_cli(capsys, *argv, limit)[0] == 0, argv
        assert passes == [int(limit)], argv
    passes.clear()
    monkeypatch.setattr(sys, "argv", [str(SWEEP_PATH), "--max-n", "12"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SWEEP_PATH), run_name="__main__")
    assert (excinfo.value.code, passes) == (0, [12])


def test_remark_sweep_exits_three_when_the_walk_drops_a_prefix(capsys, monkeypatch):
    # The census counts its prefixes by rows, not by the walk, so a prefix the
    # walk loses shows up as a mismatch at its sum: (1, 2) first completes n=3.
    walk = oseq.census.precritical_prefixes
    monkeypatch.setattr(
        oseq.census, "precritical_prefixes", lambda limit: (p for p in walk(limit) if p != (1, 2))
    )
    monkeypatch.setattr(sys, "argv", [str(SWEEP_PATH), "--max-n", "5"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SWEEP_PATH), run_name="__main__")
    assert excinfo.value.code == 3
    err = capsys.readouterr().err
    assert "n=3" in err


def test_remark_sweep_exits_three_on_a_non_canonical_prefix(capsys, monkeypatch):
    # (1, 0, 4) passes a test of h_0 alone.
    monkeypatch.setattr(oseq.census, "precritical_prefixes", lambda limit: iter([(1, 0, 4)]))
    monkeypatch.setattr(sys, "argv", [str(SWEEP_PATH), "--max-n", "5"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SWEEP_PATH), run_name="__main__")
    assert excinfo.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "remark_sweep: the prefix (1, 0, 4) is not in canonical form (zero-entry)\n"


def rising_t(value: int, degree: int) -> StaircaseDecomposition:
    """A planted fault: every entry decomposes, with t = degree - 1, so t rises."""
    return StaircaseDecomposition(degree=degree, t=degree - 1, alpha=0)


def test_remark_exits_three_when_t_rises(capsys, monkeypatch):
    monkeypatch.setattr("oseq.bounds.staircase_decompose", rising_t)
    code, out, err = run_cli(capsys, "remark", "1,3,6,10,15,21,7,3")
    assert (code, out) == (3, "")
    assert err.startswith("internal error (bug): staircase window lemma failed at degree 2 of 1,3,6,10,15,21,7,3")


def test_remark_sweep_exits_three_when_t_rises(capsys, monkeypatch):
    monkeypatch.setattr("oseq.bounds.staircase_decompose", rising_t)
    monkeypatch.setattr(sys, "argv", [str(SWEEP_PATH), "--max-n", "12"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SWEEP_PATH), run_name="__main__")
    assert excinfo.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "remark_sweep: the prefix (1, 2, 3) breaks the staircase window lemma\n"


def test_remark_sweep_exits_three_on_the_prefix_bound(capsys, monkeypatch):
    # (1, 1) is not pre-critical: j = 2 and s = 2 break j^2 < 2s
    monkeypatch.setattr(oseq.census, "precritical_prefixes", lambda limit: iter([(1,), (1, 1)]))
    monkeypatch.setattr(sys, "argv", [str(SWEEP_PATH), "--max-n", "5"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SWEEP_PATH), run_name="__main__")
    assert excinfo.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "remark_sweep: the prefix (1, 1) breaks the prefix bound j^2 < 2s\n"


# ---------------------------------------------------------------------------
# start-up


def run_python(code: str, *argv: str, site: bool = True) -> subprocess.CompletedProcess:
    """``python -c code argv...`` in a fresh interpreter, from the repository
    root; ``python -S`` without ``site``."""
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run(
        [sys.executable, *(() if site else ("-S",)), "-c", code, *argv],
        cwd=SWEEP_PATH.parent.parent, env=env, capture_output=True, text=True,
    )


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # Start-up cost: dataclasses imports inspect, which imports ast, dis and tokenize.
    done = run_python("import oseq.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"


def test_importing_the_package_loads_no_module():
    done = run_python("import oseq, sys; print(sorted(m for m in sys.modules if m.startswith('oseq.')))")
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def test_importing_the_cli_from_the_package_loads_only_what_it_imports():
    # The import system reads oseq.cli before it loads the submodule, which
    # must not load every library module to bind the public names.
    code = "from oseq import cli; import sys; print(sorted(m for m in sys.modules if m.startswith('oseq.')))"
    done = run_python(code)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "['oseq.cli', 'oseq.errors']\n")


def loaded_after(job: str, *argv: str) -> tuple[int, list[str]]:
    """A job's exit code, and which of argparse, json, locale, oseq.bounds,
    oseq.census, oseq.macaulay and oseq.partitions it has loaded when its
    process exits."""
    done = run_python(
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sorted({'argparse', 'json', 'locale', 'oseq.bounds',"
        " 'oseq.census', 'oseq.macaulay', 'oseq.partitions'} & set(sys.modules)), file=sys.stderr))\n"
        + job,
        *argv,
    )
    return done.returncode, done.stderr.splitlines()[-1].split()


CLI_JOB = "runpy.run_module('oseq.cli', run_name='__main__', alter_sys=True)"

# argv -> what the job loads of the modules loaded_after reports
JOB_LOADS = {
    ("check", "1"): ["oseq.macaulay"],
    ("count", "--n", "5"): ["oseq.census", "oseq.macaulay"],
    ("enumerate", "--n", "5"): ["oseq.census", "oseq.macaulay"],
    ("partitions", "--max-n", "5", "--format", "csv"): ["oseq.partitions"],
    ("partitions", "--max-n", "5", "--format", "json"): ["oseq.partitions"],
    ("census", "--max-n", "5"): ["oseq.census", "oseq.macaulay"],
    ("bounds", "--max-n", "5"): ["oseq.bounds", "oseq.census", "oseq.macaulay", "oseq.partitions"],
    ("remark", "1,3,4,4"): ["oseq.bounds", "oseq.macaulay"],
    ("enumerate", "--n", "5", "--format", "json"): ["oseq.census", "oseq.macaulay"],
}


@pytest.mark.parametrize("argv", list(JOB_LOADS))
def test_cli_jobs_load_only_what_they_run(argv):
    code, loaded = loaded_after(CLI_JOB, *argv)
    assert (code, loaded) == (0, JOB_LOADS[argv])
    # a well-formed command line is read without argparse, which brings locale
    assert not {"argparse", "locale"} & set(loaded)


@pytest.mark.parametrize(("argv", "code"), [(("count", "--help"), 0), (("count", "--n", "x"), 2)])
def test_help_and_usage_errors_load_argparse(argv, code):
    got, loaded = loaded_after(CLI_JOB, *argv)
    assert got == code
    assert "argparse" in loaded


SWEEP_JOB = f"runpy.run_path({str(SWEEP_PATH)!r}, run_name='__main__')"


# A well-formed sweep line loads no argparse; --help builds the parser.
@pytest.mark.parametrize(
    ("argv", "argparse_loaded"),
    [((), []), (("--max-n", "5"), []), (("--help",), ["argparse", "locale"])],
    ids=["default", "max-n", "help"],
)
def test_remark_sweep_leaves_out_partitions(argv, argparse_loaded):
    loaded = argparse_loaded + ["oseq.bounds", "oseq.census", "oseq.macaulay"]
    assert loaded_after(SWEEP_JOB, *argv) == (0, loaded)


# site can load re and typing itself (a .pth file may import them), which would
# hide what the package loads; so these children run without site.
@pytest.mark.parametrize("argv", list(JOB_LOADS))
def test_well_formed_commands_load_neither_re_nor_typing(argv):
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted({'json', 're', 'typing'} & set(sys.modules)),"
        " file=sys.stderr))\n"
    )
    done = run_python(probe + CLI_JOB, *argv, site=False)
    assert (done.returncode, done.stderr) == (0, "[]\n")


DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    ("entry", "message"),
    [
        ("x", "expected a comma-separated integer sequence, got '1,x'"),
        (
            "9" * (DIGIT_LIMIT + 1),
            f"h_1 has {DIGIT_LIMIT + 1} digits, over Python's limit of {DIGIT_LIMIT} "
            "for integer string conversion",
        ),
    ],
    ids=["not-an-integer", "over-the-digit-limit"],
)
def test_a_refused_entry_still_names_its_fault_without_site(entry, message):
    # re, which tells an over-long literal from a malformed one, loads only here.
    done = run_python("import runpy\n" + CLI_JOB, "check", f"1,{entry}", site=False)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "usage: oseq check [-h] [--format {table,csv,json}] sequence\n"
        f"oseq check: error: argument sequence: {message}\n"
    )


# ---------------------------------------------------------------------------
# exit


# atexit runs its hooks last in, first out, so this probe, registered before
# the job, runs after the job's own hooks and reads what they left.
FREEZE_PROBE = "import atexit, gc, runpy, sys\natexit.register(lambda: print(gc.get_freeze_count() > 0))\n"


@pytest.mark.parametrize(
    ("job", "argv", "frozen"),
    [
        (CLI_JOB, ("count", "--n", "5"), True),
        ("from oseq.cli import main; sys.exit(main())", ("count", "--n", "5"), True),  # console script
        (SWEEP_JOB, ("--max-n", "5"), True),
        ("from oseq.census import count_osequences; count_osequences(5)", (), False),
    ],
    ids=["python -m oseq.cli", "console script", "remark_sweep.py", "library"],
)
def test_every_program_freezes_its_heap_at_exit(job, argv, frozen):
    # A frozen heap is in the permanent generation, which the interpreter's
    # final collections skip. The library alone registers nothing.
    done = run_python(FREEZE_PROBE + job, *argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == str(frozen)


def test_main_leaves_the_heap_unfrozen(capsys):
    # An in-process caller keeps a normal heap until its own exit.
    before = gc.get_freeze_count()
    assert run_cli(capsys, "count", "--n", "5") == (0, "L(5) = 5\n", "")
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "listing",
    ["from oseq import *\nnames = set(globals())", "names = set(dir(oseq))"],
    ids=["star-import", "dir"],
)
def test_lazy_package_still_lists_every_name(listing):
    # Each listing is the first thing to touch the package, so it has to load the modules itself.
    done = run_python(f"import oseq\n{listing}\nprint(sorted(set(oseq.__all__) - names))")
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "0"),
        ("count", "--n", "-3"),
        ("census", "--max-n", "0"),
        ("enumerate", "--n", "2", "--cap", "0"),
        # --cap is the stream cap of enumerate alone
        ("count", "--n", "5", "--cap", "5"),
        ("census", "--max-n", "5", "--cap", "5"),
        ("bounds", "--max-n", "5", "--cap", "5"),
    ],
)
def test_bad_usage_exits_two(capsys, argv):
    # a bad value is refused by the runner, an unknown option by argparse
    try:
        code, message = main(list(argv)), "must be >= 1"
    except SystemExit as exc:
        code, message = exc.code, "unrecognized arguments: --cap 5"
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err


README_PATH = SWEEP_PATH.parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Every ``oseq ...`` command in the README: code block lines and inline code spans."""
    text = README_PATH.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```", text, re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("oseq ")]
    return lines + re.findall(r"`(oseq\s[^`]*)`", text)


def test_every_readme_command_parses(capsys):
    # a flag taken out of the CLI has to leave the docs too
    commands = readme_commands()
    assert len(commands) >= 7  # the CLI block alone has seven
    refused = []
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            refused.append(command)
    capsys.readouterr()
    assert refused == []


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the command line without argparse


# (command, sha256 of `oseq [command] --help` at 80 columns), recorded from the
# parser whose subcommands each made their own add_argument calls
PINNED_HELP = [
    ("", "0f030185e9606f84eff692d99d8edbc45ffc061d43f8a14a74579b7c8986a396"),
    ("check", "1fb4b9933ec6a7bfbad050062b2816ac00c16b51e60bb07f310e79875dc5e5ef"),
    ("count", "5096fe96b871b19643135bc0a5ed3c97b1bc3e6772d204a29e82ad9bbf2f00a6"),
    ("enumerate", "9430b96f1bfab8ce7078dba87a17c8ecb0c3661d3526c2fd96ba507ee854c8c0"),
    ("census", "f30ad26fc810d551ffbc83e64c7e4f4094cee7b520ec24ab11be205cc767d50a"),
    ("bounds", "cb0cfd5d1b0ff5bf25b77c68fada0eac1abb2833053c2713b20a9855858c92de"),
    ("partitions", "4b2750440fb31f8bb7620e944ad5a4455adf05ab895ab689cf5132f56137d3f6"),
    ("remark", "abd31640cbc2c52686efd0aa7d9086c60edcfb9e904329a8b9a3d414f8a7f71f"),
]


@pytest.mark.parametrize(("command", "digest"), PINNED_HELP)
def test_help_is_pinned(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([*command.split(), "--help"])
    out, err = capsys.readouterr()
    assert (excinfo.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def parsed_by_argparse(argv: list[str]) -> dict | None:
    """``vars()`` of what argparse makes of ``argv``, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("argv", [argv for argv, _, _ in PINNED_OUTPUTS])
def test_well_formed_commands_are_read_as_argparse_reads_them(argv):
    read = _read_argv(argv.split())
    assert read is not None
    assert vars(read) == parsed_by_argparse(argv.split())


@pytest.mark.parametrize(
    "argv",
    [
        "-h",
        "count --help",
        "census --max 5",  # an abbreviation
        "count --n=5",
        "count --n 5 --n 6",  # a repeated option
        "count --n 5 --",
        "count --n -3",  # a negative number
        "count --n -1_0",  # one that argparse takes for a flag
        "check -1",
        "count --n x",
        "check 1,x",
        "count --n 5 --format bogus",
        "count",  # a required option missing
        "check",
        "check 1 2",
        "frobnicate --n 5",
    ],
)
def test_read_argv_leaves_the_rest_to_argparse(argv):
    assert _read_argv(argv.split()) is None


COMMAND_NAMES = ["check", "count", "enumerate", "census", "bounds", "partitions", "remark"]

# Pieces of a command line: every flag with a value and without one, an
# unknown command, abbreviations, attached values, help, "--", and values
# that convert, that do not, that are out of range or look like flags
# ("-1_0" converts, but argparse takes it for a flag).
ARGV_PIECES = [
    *([name] for name in COMMAND_NAMES),
    ["frobnicate"], ["che"],
    ["--n", "5"], ["--max-n", "5"], ["--cap", "3"], ["--format", "json"], ["--format", "csv"],
    ["--n", "x"], ["--n", "-1_0"], ["--max-n", "-3"], ["--format", "bogus"],
    ["--log-space"], ["--n"], ["--max-n"], ["--cap"], ["--format"],
    ["--max", "5"], ["--form", "csv"], ["--log"], ["--n=5"], ["--format=json"],
    ["-h"], ["--help"], ["--"],
    ["5"], ["-3"], ["0"], ["x"], ["1,3,4,4"], ["1,x"], ["json"], ["bogus"], [""],
]


# What a command needs, so that well-formed command lines are drawn often.
REQUIRED_PIECES = [[], ["--n", "5"], ["--max-n", "5"], ["1,3,4,4"]]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(COMMAND_NAMES + ["-h", "frobnicate"]),
    st.sampled_from(REQUIRED_PIECES),
    st.lists(st.sampled_from(ARGV_PIECES), max_size=4),
)
def test_read_argv_agrees_with_argparse(command, required, pieces):
    argv = [command, *required, *itertools.chain.from_iterable(pieces)]
    read, parsed = _read_argv(argv), parsed_by_argparse(argv)
    if read is not None:
        assert vars(read) == parsed
    if parsed is None:  # argparse printed help or a usage error and exited
        assert read is None
