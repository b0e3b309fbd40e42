"""Output checks: golden stdout digests plus oracles independent of oseq.

Every job's stdout must match the sha256 recorded by ``record_goldens.py``.
On top of that, the printed values are checked against oracles that share
no code with the program:

* L(n) for n <= 16 by generate-and-test over all compositions;
* p(n) and q(n) for n <= ORACLE_MAX_N by coin-change recurrences (q counts
  partitions into odd parts, which Euler showed equal distinct parts);
* every other printed L(n), and the line count of ``enumerate``, against
  the golden counts.

So a tampered golden file does not hide a wrong answer on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from jobs import Job

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
BRUTE_FORCE_MAX_N = 16
ORACLE_MAX_N = 500


@dataclass(frozen=True)
class Golden:
    counts: list[int]
    digests: dict[str, str]


def load_golden(path: Path = GOLDEN_PATH) -> Golden:
    data = json.loads(path.read_text(encoding="utf-8"))
    return Golden(counts=[int(c) for c in data["counts"]], digests=dict(data["digests"]))


def _growth_bound(a: int, d: int) -> int:
    """a^<d>: lift each term of the greedy degree-d binomial expansion of a."""
    bound = 0
    while a > 0 and d > 0:
        top = d
        while math.comb(top + 1, d) <= a:
            top += 1
        a -= math.comb(top, d)
        bound += math.comb(top + 1, d + 1)
        d -= 1
    return bound


def _is_o_sequence(h: tuple[int, ...]) -> bool:
    return all(h[i + 1] <= _growth_bound(h[i], i) for i in range(1, len(h) - 1))


@lru_cache(maxsize=1)
def brute_force_counts() -> list[int]:
    """[L(0), ..., L(16)] by testing every composition (h_1, ..., h_e) of n - 1."""
    counts = [0, 1]
    for n in range(2, BRUTE_FORCE_MAX_N + 1):
        total = n - 1
        found = 0
        for k in range(total):
            for cuts in combinations(range(1, total), k):
                edges = (0, *cuts, total)
                tail = tuple(b - a for a, b in zip(edges, edges[1:]))
                found += _is_o_sequence((1, *tail))
        counts.append(found)
    return counts


@lru_cache(maxsize=1)
def partition_counts() -> tuple[list[int], list[int]]:
    """(p, q) for 0..ORACLE_MAX_N, by coin change over all parts and over odd parts."""
    p = [1] + [0] * ORACLE_MAX_N
    q = [1] + [0] * ORACLE_MAX_N
    for part in range(1, ORACLE_MAX_N + 1):
        for s in range(part, ORACLE_MAX_N + 1):
            p[s] += p[s - part]
            if part % 2:
                q[s] += q[s - part]
    return p, q


def _rows(text: str, fmt: str) -> list[list[str]]:
    """Data rows of a table (whitespace-split, header dropped) or csv output."""
    lines = text.splitlines()
    if fmt == "csv":
        return [line.split(",") for line in lines[1:]]
    return [line.split() for line in lines[1:]]


def parse_values(job: Job, text: str) -> dict[str, dict[int, int]]:
    """The exact series a job prints, keyed by name ("L", "p", "q", "lines").

    Raises ValueError, KeyError or IndexError on output it cannot read.
    """
    kind, fmt = job.kind, job.fmt
    if kind in ("count", "census"):
        if fmt == "json":
            data = json.loads(text)
            records = [data] if kind == "count" else data["records"]
            return {"L": {int(r["n"]): int(r["L"]) for r in records}}
        if fmt == "csv":
            return {"L": {int(r[0]): int(r[1]) for r in _rows(text, fmt)}}
        found = re.findall(r"^L\(\s*(\d+)\) = \s*(\d+)$", text, re.M)
        return {"L": {int(n): int(v) for n, v in found}}
    if kind == "bounds":
        if fmt == "json":
            records = json.loads(text)["records"]
            if not all(r["lower_ok"] and r["upper_ok"] for r in records):
                raise ValueError("a bound is reported as failed")
            rows = [(r["n"], r["L"], r["p_lower"]) for r in records]
        else:
            rows = _rows(text, fmt)
            if fmt == "table":
                if rows.pop()[0] != "empirical" or any(r[4] != "yy" for r in rows):
                    raise ValueError("a bound is reported as failed")
        return {
            "L": {int(r[0]): int(r[1]) for r in rows},
            "p": {int(r[0]) - 1: int(r[2]) for r in rows},
        }
    if kind == "partitions":
        if fmt == "json":
            rows = [(r["n"], r["p"], r["q"]) for r in json.loads(text)["records"]]
        else:
            rows = _rows(text, fmt)
        return {
            "p": {int(r[0]): int(r[1]) for r in rows},
            "q": {int(r[0]): int(r[2]) for r in rows},
        }
    if kind == "enumerate":
        if fmt == "json":
            data = json.loads(text)
            if int(data["count"]) != len(data["sequences"]):
                raise ValueError("count field disagrees with the sequence list")
            return {"lines": {job.size: len(data["sequences"])}}
        lines = text.splitlines()
        return {"lines": {job.size: len(lines) - (fmt == "csv")}}
    if kind == "remark_sweep":
        rows = _rows(text, "table")
        if any(r[2] != "100.0%" or r[3] != "100.0%" for r in rows):
            raise ValueError("a structure theorem holds on fewer than all sequences")
        return {"L": {int(r[0]): int(r[1]) for r in rows}}
    if kind == "check":
        if text != f"{job.size} is a valid O-sequence\n":
            raise ValueError("unexpected check verdict")
        return {}
    raise ValueError(f"no parser for job kind {kind!r}")


def _expected_sizes(job: Job) -> dict[str, range]:
    """The indices each series must cover exactly."""
    n = job.size
    if job.kind == "count":
        return {"L": range(n, n + 1)}
    if job.kind in ("census", "remark_sweep"):
        return {"L": range(1, n + 1)}
    if job.kind == "bounds":
        return {"L": range(1, n + 1), "p": range(0, n)}
    if job.kind == "partitions":
        return {"p": range(0, n + 1), "q": range(0, n + 1)}
    if job.kind == "enumerate":
        return {"lines": range(n, n + 1)}
    return {}


def _lookup(table: list[int], n: int) -> int | None:
    return table[n] if 0 <= n < len(table) else None


def oracle_problems(job: Job, values: dict[str, dict[int, int]], golden: Golden) -> list[str]:
    """Disagreements between the printed values and the independent oracles."""
    problems = []
    for name, indices in _expected_sizes(job).items():
        if sorted(values.get(name, {})) != list(indices):
            problems.append(f"{name} does not cover {indices.start}..{indices.stop - 1}")
    brute = brute_force_counts()
    p_ref, q_ref = partition_counts()
    references = {
        "L": lambda n: _lookup(brute if n <= BRUTE_FORCE_MAX_N else golden.counts, n),
        "lines": lambda n: _lookup(golden.counts, n),
        "p": lambda n: _lookup(p_ref, n),
        "q": lambda n: _lookup(q_ref, n),
    }
    for name, series in values.items():
        for n, value in series.items():
            expected = references[name](n)
            if expected is not None and value != expected:
                problems.append(f"{name}({n}) = {value}, oracle says {expected}")
                break
    return problems


def check_output(job: Job, returncode: int, stdout: bytes, golden: Golden) -> list[str]:
    """Every reason the job's result is wrong; empty when it is right."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    expected = golden.digests.get(job.key)
    if expected is None:
        problems.append("no golden digest for this job")
    elif hashlib.sha256(stdout).hexdigest() != expected:
        problems.append("stdout differs from the golden digest")
    try:
        values = parse_values(job, stdout.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    return problems + oracle_problems(job, values, golden)
