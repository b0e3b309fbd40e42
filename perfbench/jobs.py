"""Benchmark jobs, the workloads that schedule them, and the child-process runner.

A job is one ``oseq`` invocation as a user types it: ``python -m oseq.cli ...``
or ``python scripts/remark_sweep.py ...``, run from the repository root with
``PYTHONPATH=src``. Each workload draws its job sizes from a fixed grid, so
that every job the benchmark can run has a golden stdout digest (see
``record_goldens.py``).
"""

from __future__ import annotations

import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("table", "csv", "json")
ENUMERATE_CAP = 10_000_000
JOB_TIMEOUT_S = 60.0

# Size flag of each CLI subcommand the benchmark runs.
_SIZE_FLAG = {
    "count": "--n",
    "enumerate": "--n",
    "census": "--max-n",
    "bounds": "--max-n",
    "partitions": "--max-n",
}


@dataclass(frozen=True)
class Job:
    """One program invocation: a subcommand (or the sweep script), a size and a format."""

    kind: str
    size: int
    fmt: str | None = None

    def args(self) -> list[str]:
        """Arguments after the interpreter, e.g. ``-m oseq.cli count --n 120 --format csv``."""
        if self.kind == "check":
            return ["-m", "oseq.cli", "check", str(self.size)]
        if self.kind == "remark_sweep":
            return ["scripts/remark_sweep.py", "--max-n", str(self.size)]
        args = ["-m", "oseq.cli", self.kind, _SIZE_FLAG[self.kind], str(self.size)]
        if self.kind == "enumerate":
            args += ["--cap", str(ENUMERATE_CAP)]
        return args + ["--format", self.fmt]

    @property
    def key(self) -> str:
        """Stable name of the job, used to look up its golden digest."""
        args = self.args()
        return " ".join(args[2:] if args[0] == "-m" else args)


SETUP_JOB = Job("check", 1)


@dataclass(frozen=True)
class Workload:
    """A grid of job kinds and sizes, and the unit its throughput is counted in.

    A round runs every size of the grid ``passes`` times.
    """

    name: str
    work_name: str
    work_doc: str
    grid: tuple[tuple[str, tuple[int, ...]], ...]
    passes: int = 1

    def domain(self) -> list[Job]:
        """Every job this workload can schedule, for any seed."""
        jobs = []
        for kind, sizes in self.grid:
            fmts = (None,) if kind == "remark_sweep" else FORMATS
            jobs += [Job(kind, size, fmt) for size in sizes for fmt in fmts]
        return sorted(jobs, key=lambda j: j.key)

    def rounds(self, seed: int) -> Iterator[list[Job]]:
        """Endless rounds of jobs drawn from ``seed``.

        Each pass over the grid runs every size once. Drawing sizes without
        replacement keeps the mix of sizes, and so the job-time
        distribution, the same for every seed; the seed picks the order of
        jobs and which size gets which format. Within a pass a kind's sizes
        rotate through the formats, and each size moves on to the next
        format every pass. The kinds are interleaved evenly.
        """
        rng = random.Random(f"{self.name}:{seed}")
        offset = rng.randrange(len(FORMATS))
        for rnd in range(sys.maxsize):
            round_jobs = []
            for npass in range(rnd * self.passes, (rnd + 1) * self.passes):
                ranked = []
                for rank, (kind, sizes) in enumerate(self.grid):
                    jobs = []
                    for i, size in enumerate(sizes):
                        fmt = None if kind == "remark_sweep" else FORMATS[(i + npass + offset) % len(FORMATS)]
                        jobs.append(Job(kind, size, fmt))
                    rng.shuffle(jobs)
                    ranked += [((i + 0.5) / len(jobs), rank, job) for i, job in enumerate(jobs)]
                round_jobs += [job for *_, job in sorted(ranked, key=lambda r: r[:2])]
            yield round_jobs


_THEOREM_SIZES = tuple(range(100, 201, 10))

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's main computation: the census does nearly all the work.
        # 200 is DEFAULT_CENSUS_CEILING, so every job runs at the seed commit.
        Workload(
            name="theorem-sweep",
            work_name="census_n_per_s",
            work_doc="sum of N over jobs / sum of job wall time",
            grid=(("count", _THEOREM_SIZES), ("census", _THEOREM_SIZES), ("bounds", _THEOREM_SIZES)),
        ),
        # The quadratic q table does nearly all the work; the census none.
        Workload(
            name="partition-tables",
            work_name="table_rows_per_s",
            work_doc="sum of N+1 over jobs / sum of job wall time",
            grid=(("partitions", tuple(range(2000, 6001, 160))),),
        ),
        # Walks enumerate_osequences (count(m) is under 1% of a job), checks
        # the anatomy of each sequence and renders them all.
        Workload(
            name="sequence-stream",
            work_name="sequences_per_s",
            work_doc="sequences streamed or swept / sum of job wall time",
            grid=(("enumerate", tuple(range(30, 41))), ("remark_sweep", tuple(range(24, 31)))),
            passes=2,
        ),
    )
}


def job_work(job: Job, counts: list[int]) -> int:
    """Work units a job completes; ``counts[n]`` is L(n) from the goldens."""
    if job.kind == "partitions":
        return job.size + 1
    if job.kind == "enumerate":
        return counts[job.size]
    if job.kind == "remark_sweep":
        return sum(counts[1 : job.size + 1])
    return job.size


def child_env() -> dict[str, str]:
    """The environment of every job: ``PYTHONPATH=src`` and no census cache.

    ``OSEQ_CACHE`` is removed (and ``--cache`` never passed) because a cache
    hit turns a census into a file read, and the loader trusts what it reads.
    """
    env = {k: v for k, v in os.environ.items() if k != "OSEQ_CACHE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Completed:
    """What the parent saw of one child: wall time, exit status, output and peak RSS."""

    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    timed_out: bool
    spawned_at: float
    reaped_at: float


def spawn(args: list[str], env: dict[str, str], timeout: float = JOB_TIMEOUT_S) -> Completed:
    """Run ``python <args>`` from the repository root, draining stdout and stderr.

    Wall time runs from spawn to exit with both pipes drained. The child is
    reaped with ``os.wait4`` to read its own peak RSS. A child that outlives
    ``timeout`` is killed and reported as timed out.
    """
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    deadline = spawned_at + timeout
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0 and not timed_out:
                    proc.kill()
                    timed_out = True
                for key, _ in sel.select(timeout=max(remaining, 0.1)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    reaped_at = time.perf_counter()
    return Completed(
        wall_s=reaped_at - spawned_at,
        returncode=proc.returncode,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        maxrss_kb=usage.ru_maxrss,
        timed_out=timed_out,
        spawned_at=spawned_at,
        reaped_at=reaped_at,
    )
