"""Run one oseq job with timers around the public functions of each module.

Usage (from the repository root, with PYTHONPATH=src):
    python3 perfbench/tracer.py -m oseq.cli bounds --max-n 150 --format csv
    python3 perfbench/tracer.py scripts/remark_sweep.py --max-n 24

The arguments are those the job gets after the interpreter. The job runs in
this process exactly as ``python <args>`` would run it, after the tracer has
replaced the public functions below with timed wrappers. The program itself
is not changed. When the job ends, one JSON line goes to stderr: the time
stamps of the job's phases (``time.perf_counter``, which is the system-wide
CLOCK_MONOTONIC on Linux, so the parent can place them against its own
spawn and reap times) and, per span name, the number of calls, their total
time and their self time (total minus the time of spans nested inside).
"""

import time

T_ENTER = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Span aggregates per name, with self time from a stack of open spans."""

    def __init__(self) -> None:
        self.open_child_time = [0.0]
        self.spans: dict[str, list] = {}
        self.sequences = 0

    def enter(self) -> float:
        self.open_child_time.append(0.0)
        return time.perf_counter()

    def leave(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        children = self.open_child_time.pop()
        self.open_child_time[-1] += duration
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration
        record[2] += duration - children

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(name, start)

        return traced

    def wrap_stream(self, name: str, fn):
        """Time the call and every ``next`` on the iterator it returns."""

        def stream(iterator):
            while True:
                start = self.enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.leave(name, start)
                self.sequences += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return stream(self.wrap(name, fn)(*args, **kwargs))

        return traced


def install(tracer: Tracer) -> None:
    """Replace the traced public functions in their defining modules.

    The CLI and the sweep script import these names when they start, which
    happens after this, so they pick up the wrappers.
    """
    import oseq.bounds as bounds
    import oseq.census as census
    import oseq.partitions as partitions

    census.CensusCounter.count = tracer.wrap("census.count", census.CensusCounter.count)
    census.build_census = tracer.wrap("census.build_census", census.build_census)
    census.enumerate_osequences = tracer.wrap_stream("census.enumerate", census.enumerate_osequences)
    partitions.build_partition_table = tracer.wrap(
        "partitions.build_partition_table", partitions.build_partition_table
    )
    partitions.hardy_ramanujan = tracer.wrap("partitions.hardy_ramanujan", partitions.hardy_ramanujan)
    bounds.build_bounds_report = tracer.wrap("bounds.build_bounds_report", bounds.build_bounds_report)
    for name in ("remark_profile", "verify_tail_partition", "check_prefix_bound"):
        setattr(bounds, name, tracer.wrap("bounds.anatomy", getattr(bounds, name)))


def run(args: list[str]) -> int:
    """Run ``python <args>`` in this process and return its exit code."""
    try:
        if args[0] == "-m":
            sys.argv = args[1:]
            runpy.run_module(args[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(args)
            runpy.run_path(args[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main() -> int:
    t_import = time.perf_counter()
    import oseq  # noqa: F401
    from oseq.macaulay import pseudopower

    t_imported = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    t_start = time.perf_counter()
    code = run(sys.argv[1:])
    sys.stdout.flush()
    t_end = time.perf_counter()
    cache = pseudopower.cache_info()
    report = {
        "exit": code,
        "t_enter": T_ENTER,
        "t_import": t_import,
        "t_imported": t_imported,
        "t_start": t_start,
        "t_end": t_end,
        "spans": tracer.spans,
        "counts": {
            "census.sequences": tracer.sequences,
            "macaulay.pseudopower.hits": cache.hits,
            "macaulay.pseudopower.misses": cache.misses,
        },
    }
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
