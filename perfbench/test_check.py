"""The benchmark's output check must catch wrong answers, not pass them silently.

Run from the repository root:
    python3 -m pytest perfbench/test_check.py -q
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from check import Golden, check_output, load_golden
from jobs import SETUP_JOB, WORKLOADS, Job, child_env, spawn
from run import REFERENCE_NOMINAL_S, JobResult, end_to_end, run_job, tail

JOBS = (
    Job("count", 100, "json"),
    Job("census", 100, "table"),
    Job("census", 100, "csv"),
    Job("bounds", 100, "csv"),
    Job("partitions", 2000, "table"),
    Job("enumerate", 30, "csv"),
    Job("remark_sweep", 24),
)


@pytest.fixture(scope="module")
def golden() -> Golden:
    return load_golden()


@pytest.fixture(scope="module")
def outputs() -> dict[Job, bytes]:
    env = child_env()
    done = {job: spawn(job.args(), env) for job in JOBS}
    assert all(d.returncode == 0 for d in done.values())
    return {job: d.stdout for job, d in done.items()}


def _with_digest(golden: Golden, job: Job, stdout: bytes) -> Golden:
    """A golden file tampered so that ``stdout`` matches its digest."""
    digests = dict(golden.digests, **{job.key: hashlib.sha256(stdout).hexdigest()})
    return Golden(counts=golden.counts, digests=digests)


def test_goldens_cover_every_job_of_every_workload(golden):
    for workload in WORKLOADS.values():
        assert all(job.key in golden.digests for job in workload.domain()), workload.name
    assert SETUP_JOB.key in golden.digests


def test_rounds_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        first = list(itertools.islice(workload.rounds(7), 4))
        assert first == list(itertools.islice(workload.rounds(7), 4))
        assert first != list(itertools.islice(workload.rounds(8), 4))
        assert set(itertools.chain(*first)) <= set(workload.domain())


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.key)
def test_correct_output_passes(job, outputs, golden):
    assert check_output(job, 0, outputs[job], golden) == []


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.key)
def test_corrupted_stdout_fails(job, outputs, golden):
    text = outputs[job].decode()
    # Change the last digit of the output: a wrong value, same layout.
    last = max(i for i, ch in enumerate(text) if ch.isdigit())
    wrong = (text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1 :]).encode()
    assert check_output(job, 0, wrong, golden)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.key)
def test_corrupted_golden_fails(job, outputs, golden):
    bad = Golden(counts=golden.counts, digests=dict(golden.digests, **{job.key: "0" * 64}))
    assert check_output(job, 0, outputs[job], bad) == ["stdout differs from the golden digest"]


def test_nonzero_exit_fails(outputs, golden):
    job = JOBS[0]
    assert check_output(job, 3, outputs[job], golden) == ["exit code 3"]


@pytest.mark.parametrize(
    ("job", "old", "new"),
    [
        (Job("census", 100, "csv"), "\n5,5\n", "\n5,6\n"),
        (Job("count", 100, "json"), '"L":"', '"L":"1'),
        (Job("bounds", 100, "csv"), "\n12,82,", "\n12,83,"),
        (Job("partitions", 2000, "table"), "\n     7                       15 ", "\n     7                       16 "),
        (Job("remark_sweep", 24), "\n 12       82 ", "\n 12       81 "),
    ],
    ids=["census-brute-force", "count-golden-L", "bounds-brute-force", "partitions-p-oracle", "sweep-brute-force"],
)
def test_wrong_value_with_a_matching_golden_is_caught_by_the_oracles(job, old, new, outputs, golden):
    text = outputs[job].decode()
    assert text.count(old) == 1
    wrong = text.replace(old, new).encode()
    problems = check_output(job, 0, wrong, _with_digest(golden, job, wrong))
    assert problems and "oracle" in problems[0]


def test_rows_outside_the_oracles_range_fail_without_crashing(outputs, golden):
    job = Job("census", 100, "csv")
    wrong = outputs[job] + b"-3,1\n900,1\n"
    assert check_output(job, 0, wrong, _with_digest(golden, job, wrong)) == ["L does not cover 1..100"]


def test_dropped_sequence_with_a_matching_golden_is_caught(outputs, golden):
    job = Job("enumerate", 30, "csv")
    wrong = outputs[job].split(b"\n", 2)
    wrong = wrong[0] + b"\n" + wrong[2]
    assert check_output(job, 0, wrong, _with_digest(golden, job, wrong))


def test_a_failed_job_is_reported_by_the_runner(golden):
    job = Job("count", 100, "csv")
    bad = Golden(counts=golden.counts, digests=dict(golden.digests, **{job.key: "0" * 64}))
    assert run_job(job, child_env(), bad).problems
    assert run_job(job, child_env(), golden).problems == []


def test_traced_job_prints_the_same_stdout_and_reports_spans(golden):
    job = Job("bounds", 100, "json")
    result = run_job(job, child_env(), golden, traced=True)
    assert result.problems == []
    assert {"census.build_census", "census.count", "bounds.build_bounds_report"} <= set(result.spans)
    assert result.wall_s == pytest.approx(sum(result.phases.values()), rel=1e-9)


def test_tail_has_ten_samples_beyond_it_and_never_undercuts_the_median():
    assert tail([float(x) for x in range(40)]) == (29.0, 75.0)
    assert tail([float(x) for x in range(18)]) == (9.0, 100.0 * 10 / 18)


def test_times_are_scaled_to_the_reference_speed(golden):
    job = Job("count", 100, "csv")
    setup = [JobResult(SETUP_JOB, 0.2, 1024, 10, [])]
    results = [JobResult(job, 1.0, 2048, 10, []), JobResult(job, 3.0, 4096, 10, [])]
    metrics, _ = end_to_end(WORKLOADS["theorem-sweep"], setup, [results], [2 * REFERENCE_NOMINAL_S], golden)
    assert metrics["setup_s"] == (pytest.approx(0.1), "s")
    assert metrics["job_s.p50"] == (pytest.approx(1.0), "s")
    assert metrics["work_per_s"] == (pytest.approx(200 / 4.0 * 2), "1/s")
    assert metrics["peak_rss_mb"] == (4.0, "MiB")
