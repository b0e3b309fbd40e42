"""Record the golden stdout digests of every job the benchmark can run.

Usage (from the repository root):
    python3 perfbench/record_goldens.py

Runs each job of every workload's domain once, two at a time, and writes
``perfbench/golden.json``: the sha256 of each job's stdout and the exact
counts L(1..200) printed by ``census --max-n 200 --format json``. The
goldens pin the outputs of the commit they were recorded at; rerun this only
when an output change is intended. Before writing, the counts are checked
against the benchmark's own brute-force oracle.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from check import GOLDEN_PATH, brute_force_counts
from jobs import SETUP_JOB, WORKLOADS, Job, child_env, spawn

CENSUS_JOB = Job("census", 200, "json")


def main() -> int:
    jobs = sorted({SETUP_JOB, CENSUS_JOB}.union(*(w.domain() for w in WORKLOADS.values())), key=lambda j: j.key)
    env = child_env()
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda job: spawn(job.args(), env), jobs))
    digests = {}
    for job, result in zip(jobs, done):
        if result.returncode != 0:
            print(f"error: {job.key} exited with {result.returncode}", file=sys.stderr)
            return 1
        digests[job.key] = hashlib.sha256(result.stdout).hexdigest()
        print(f"{result.wall_s:7.3f} s {job.key}", file=sys.stderr)
    census = json.loads(done[jobs.index(CENSUS_JOB)].stdout)
    counts = [0] + [int(r["L"]) for r in census["records"]]
    brute = brute_force_counts()
    if counts[: len(brute)] != brute:
        print("error: census disagrees with the brute-force oracle", file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    golden = {
        "recorded_at": commit or "unknown",
        "counts": [str(c) for c in counts],
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
