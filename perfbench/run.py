"""End-to-end and per-layer benchmark of the oseq command-line tool.

Usage (from the repository root):
    python3 perfbench/run.py --workload theorem-sweep --seed 1 --seconds 36 --trace 0

Workloads (see ``jobs.py``): ``theorem-sweep``, ``partition-tables`` and
``sequence-stream``. One closed-loop client runs one job at a time, each a
fresh ``python -m oseq.cli ...`` (or ``scripts/remark_sweep.py``) process,
exactly as a user runs it; the machine this was tuned on has 2 cores, so
jobs never overlap. Each round runs every size of the workload's grid once
(twice on sequence-stream), in an order and with formats drawn from
``--seed``; another round starts only while it is expected to end within
``--seconds``. Job metrics are taken per round and their median reported.
Every job's stdout is drained and checked (``check.py``); a wrong answer,
non-zero exit or timeout counts as failed.

``--trace 0`` prints the end-to-end metrics:
  setup_s      median wall time of ``oseq check 1`` (interpreter start,
               ``import oseq``, argparse), over several runs before measuring
  job_s.p50    median job wall time, spawn to exit with stdout drained
  job_s.tail   the highest percentile with at least 10 jobs beyond it
  work_per_s   work units per second of job time; the unit is the
               workload's: census_n_per_s, table_rows_per_s, sequences_per_s
  peak_rss_mb  largest peak RSS of any job, from ``os.wait4``
The times are scaled to a fixed machine speed: before every job a reference
program that uses nothing of the repository runs as a child process too, and
every time is multiplied by REFERENCE_NOMINAL_S over the reference's median
time in this run. The unscaled times are printed as well. ``failed_frac``
is printed too; the result line carries it as ``failed`` / ``attempted``.

``--trace 1`` runs each job twice, plainly and under ``tracer.py``, which
times calls into the public functions of ``macaulay``, ``partitions``,
``census``, ``bounds`` and ``cli``, and prints the per-layer metrics: mean
seconds or counts per job, and each span's self time as a percentage of the
traced job time. It writes every job's spans and counts to
``perfbench/out/<workload>-seed<seed>.json`` and reports the tracing
overhead, traced against plain job time.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from check import GOLDEN_PATH, Golden, check_output, load_golden
from jobs import ROOT, SETUP_JOB, WORKLOADS, Job, Workload, child_env, job_work, spawn

SETUP_REPEATS = 9
TAIL_BEYOND = 10
TRACE_DIR = Path(__file__).resolve().parent / "out"

# A fixed pure-Python program that uses nothing of the repository, run as a
# child process before every untraced job. Its median wall time gauges the
# machine's speed during the run. On the 2-core machine the benchmark was
# tuned on, that speed drifted by a quarter or more within minutes;
# expressing the times at the speed where the reference takes
# REFERENCE_NOMINAL_S lowered the run-to-run spread of most time metrics, by
# up to two thirds.
REFERENCE_ARGS = [
    "-I", "-S", "-c",
    "p = [1] + [0] * 600\n"
    "for part in range(1, 601):\n"
    "    for s in range(part, 601):\n"
    "        p[s] += p[s - part]\n"
    "memo = {}\n"
    "for i in range(60000):\n"
    "    memo[i % 251, i % 241] = memo.get((i % 241, i % 251), 0) + p[i % 600]\n",
]
REFERENCE_NOMINAL_S = 0.1

# Parts of a traced job's wall time, from _phases; "spans" is split further
# into the spans recorded by tracer.py, each reported as a share of job time.
PHASES = ("proc.startup", "trace.bookkeeping", "proc.import", "cli.self", "spans", "proc.exit")
COUNT_NAMES = ("census.sequences", "macaulay.pseudopower.hits", "macaulay.pseudopower.misses")
SPAN_NAMES = (
    "census.build_census",
    "census.count",
    "census.enumerate",
    "partitions.build_partition_table",
    "partitions.hardy_ramanujan",
    "bounds.build_bounds_report",
    "bounds.anatomy",
)


@dataclass
class JobResult:
    job: Job
    wall_s: float
    maxrss_kb: int
    stdout_bytes: int
    problems: list[str]
    phases: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict[str, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def _phases(report: dict, spawned_at: float, reaped_at: float) -> dict[str, float]:
    """Split a traced job's wall time into parts that add up to it exactly."""
    in_spans = sum(record[2] for record in report["spans"].values())
    return {
        "proc.startup": report["t_enter"] - spawned_at,
        "trace.bookkeeping": (report["t_import"] - report["t_enter"])
        + (report["t_start"] - report["t_imported"]),
        "proc.import": report["t_imported"] - report["t_import"],
        "cli.self": report["t_end"] - report["t_start"] - in_spans,
        "spans": in_spans,
        "proc.exit": reaped_at - report["t_end"],
    }


def run_job(job: Job, env: dict[str, str], golden: Golden, traced: bool = False) -> JobResult:
    args = ["perfbench/tracer.py", *job.args()] if traced else job.args()
    done = spawn(args, env)
    problems = check_output(job, done.returncode, done.stdout, golden)
    if done.timed_out:
        problems.insert(0, "timed out")
    result = JobResult(job, done.wall_s, done.maxrss_kb, len(done.stdout), problems)
    if traced:
        try:
            report = json.loads(done.stderr.decode("utf-8").splitlines()[-1])
            result.phases = _phases(report, done.spawned_at, done.reaped_at)
        except (ValueError, IndexError, KeyError) as exc:
            result.problems.append(f"no trace report: {exc!r}")
        else:
            result.spans = {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in report["spans"].items()
            }
            result.counts = report["counts"]
    if problems:
        print(f"FAILED {job.key}: {'; '.join(problems)}", file=sys.stderr)
    return result


def run_reference(env: dict[str, str]) -> float:
    """Wall time of one run of the reference program."""
    done = spawn(REFERENCE_ARGS, env)
    if done.returncode != 0:
        raise RuntimeError(f"the reference program failed: {done.stderr.decode(errors='replace')}")
    return done.wall_s


def measure(
    workload: Workload, seed: int, seconds: float, run: Callable[[Job, bool], JobResult], trace: bool
) -> tuple[list[list[JobResult]], list[JobResult], float]:
    """Run whole rounds of the workload while the next round fits in ``seconds``.

    Returns the plain results of each round, the traced results (empty
    without ``trace``) and the measured time. With ``trace`` each job runs
    plainly and traced, alternating which goes first.
    """
    plain: list[list[JobResult]] = []
    traced: list[JobResult] = []
    start = time.perf_counter()
    longest = 0.0
    for jobs in workload.rounds(seed):
        round_start = time.perf_counter()
        plain.append([])
        for index, job in enumerate(jobs):
            order = (False, True) if (len(plain) + index) % 2 else (True, False)
            for with_trace in order if trace else (False,):
                (traced if with_trace else plain[-1]).append(run(job, with_trace))
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            return plain, traced, now - start
    raise AssertionError("rounds() is endless")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Under 2 * TAIL_BEYOND + 2 samples no percentile above the median has that
    many beyond it, and the upper median is returned.
    """
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(
    workload: Workload,
    setup: list[JobResult],
    rounds: list[list[JobResult]],
    references: list[float],
    golden: Golden,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """End-to-end metrics, times scaled to the reference program's nominal speed.

    Job metrics are taken per round, whose size is fixed, so the tail is
    always the same percentile; the median over the rounds is reported.
    """
    reference_s = statistics.median(references)
    scale = REFERENCE_NOMINAL_S / reference_s
    per_round = []
    for results in rounds:
        walls = [r.wall_s for r in results]
        tail_s, tail_pct = tail(walls)
        work = sum(job_work(r.job, golden.counts) for r in results)
        per_round.append((statistics.median(walls), tail_s, work / sum(walls)))
    p50, tail_s, work_per_s = (statistics.median(column) for column in zip(*per_round))
    setup_s = statistics.median(r.wall_s for r in setup)
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "job_s.p50": (p50 * scale, "s"),
        "job_s.tail": (tail_s * scale, "s"),
        "work_per_s": (work_per_s / scale, "1/s"),
        "peak_rss_mb": (max(r.maxrss_kb for results in rounds for r in results) / 1024.0, "MiB"),
    }
    notes = [
        f"job_s.tail is p{tail_pct:.1f} of the {len(rounds[0])} jobs of a round; "
        f"job metrics are medians over {len(rounds)} rounds",
        f"work_per_s is {workload.work_name}: {workload.work_doc}",
        f"times are scaled by {scale:.4f}: the reference program took {reference_s:.4f} s "
        f"(median of {len(references)}), nominally {REFERENCE_NOMINAL_S} s",
        f"unscaled: setup_s {setup_s:.6f} s, job_s.p50 {p50:.6f} s, job_s.tail {tail_s:.6f} s, "
        f"work_per_s {work_per_s:.6f} 1/s",
    ]
    return metrics, notes


def per_layer(
    plain: list[JobResult], traced: list[JobResult]
) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics of the traced jobs, and the summary written to the trace file.

    Times and counts are means per traced job; a ``.pct`` metric is a self
    time as a share of all traced job time. The phases (see ``_phases``)
    and the spans in SPAN_NAMES together make up that time, so the shares
    add up to 100 less the tracer's own bookkeeping.
    """
    jobs = len(traced)
    traced_wall = sum(r.wall_s for r in traced)
    plain_wall = sum(r.wall_s for r in plain)
    phase = {name: sum(r.phases.get(name, 0.0) for r in traced) for name in PHASES}
    span_self = {name: sum(r.spans.get(name, {}).get("self_s", 0.0) for r in traced) for name in SPAN_NAMES}
    span_total = {name: sum(r.spans.get(name, {}).get("total_s", 0.0) for r in traced) for name in SPAN_NAMES}
    count = {name: sum(r.counts.get(name, 0) for r in traced) for name in COUNT_NAMES}
    hits, misses = count["macaulay.pseudopower.hits"], count["macaulay.pseudopower.misses"]
    process = phase["proc.startup"] + phase["proc.import"] + phase["proc.exit"]
    metrics: dict[str, tuple[float, str]] = {
        "proc.startup.s": (phase["proc.startup"] / jobs, "s"),
        "proc.import.s": (phase["proc.import"] / jobs, "s"),
        "cli.self.s": (phase["cli.self"] / jobs, "s"),
        "cli.stdout_bytes": (sum(r.stdout_bytes for r in traced) / jobs, "count"),
        "census.sequences": (count["census.sequences"] / jobs, "count"),
        "macaulay.pseudopower.calls": ((hits + misses) / jobs, "count"),
        "macaulay.pseudopower.misses": (misses / jobs, "count"),
        "macaulay.pseudopower.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "proc.pct": (100.0 * process / traced_wall, "%"),
        "cli.self.pct": (100.0 * phase["cli.self"] / traced_wall, "%"),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.pct"] = (100.0 * span_self[name] / traced_wall, "%")
    accounted = sum(phase.values()) - phase["spans"] + sum(span_self.values())
    summary = {
        "jobs": jobs,
        "plain_job_s_total": plain_wall,
        "traced_job_s_total": traced_wall,
        "tracing_overhead_frac": traced_wall / plain_wall - 1.0,
        "accounted_frac": accounted / traced_wall,
        "phase_s_per_job": {name: value / jobs for name, value in phase.items()},
        "span_self_s_per_job": {name: value / jobs for name, value in span_self.items()},
        "span_total_s_per_job": {name: value / jobs for name, value in span_total.items()},
    }
    return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oseq" / "cli.py").is_file():
        print(f"error: no oseq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not GOLDEN_PATH.is_file():
        print(f"error: missing {GOLDEN_PATH}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = load_golden()
    env = child_env()

    references: list[float] = []

    def run(job: Job, traced: bool = False) -> JobResult:
        if not args.trace:
            references.append(run_reference(env))
        return run_job(job, env, golden, traced)

    # The first job fills the bytecode caches; users pay that once, not per run.
    warmup = run(SETUP_JOB)
    setup = [run(SETUP_JOB) for _ in range(SETUP_REPEATS)]
    rounds, traced, elapsed = measure(workload, args.seed, args.seconds, run, bool(args.trace))
    plain = [r for results in rounds for r in results]
    everything = [warmup] + setup + plain + traced
    failed = sum(1 for r in everything if r.problems)

    print(
        f"workload {workload.name}, seed {args.seed}: {len(plain)} jobs in {len(rounds)} rounds, "
        f"{elapsed:.1f} s, one closed-loop client"
    )
    if args.trace:
        metrics, summary = per_layer(plain, traced)
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
        jobs = [
            {
                "job": r.job.key,
                "wall_s": r.wall_s,
                "maxrss_kb": r.maxrss_kb,
                "stdout_bytes": r.stdout_bytes,
                "phases": r.phases,
                "spans": r.spans,
                "counts": r.counts,
            }
            for r in traced
        ]
        payload = {"workload": workload.name, "seed": args.seed, "summary": summary, "jobs": jobs}
        out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        notes = [
            f"{name + '.s':<38} self {summary['span_self_s_per_job'][name]:.6f} s, "
            f"total {summary['span_total_s_per_job'][name]:.6f} s per job"
            for name in SPAN_NAMES
        ]
        notes += [
            f"traced {summary['traced_job_s_total']:.2f} s against plain "
            f"{summary['plain_job_s_total']:.2f} s: tracing overhead "
            f"{100 * summary['tracing_overhead_frac']:+.1f}%",
            f"phases and spans account for {100 * summary['accounted_frac']:.2f}% of traced job time",
            f"spans and counts written to {out.relative_to(ROOT)}",
        ]
    else:
        metrics, notes = end_to_end(workload, setup, rounds, references, golden)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6f} {unit}")
    print(f"  {'failed_frac':<34} {failed / len(everything):14.6f} ({failed} of {len(everything)} jobs)")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
