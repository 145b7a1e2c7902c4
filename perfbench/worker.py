"""One benchmark process: set gmpkit up, run a workload, write a result file.

Started by ``run.py`` in one of three modes:

* ``--probe``: import and configure gmpkit, report how long that took.
* ``--prepare``: simulate the study that the reanalysis workload reads.
* default: run whole rounds of ``--workload`` until ``--seconds`` would be
  exceeded (at least one round), or with ``--trace 1`` one traced round of
  every workload, and report the measurements.

Only the standard library is imported before the set-up time is taken, so
a probe and a measuring process pay the same set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


MB = 2**20


def rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def set_up(src: Path, t_spawn: float) -> float:
    """Import and configure gmpkit from ``src``; seconds since the spawn."""
    sys.path.insert(0, str(src))
    import gmpkit
    import gmpkit.cli  # noqa: F401 - the CLI workloads enter here
    from gmpkit.config import default_config

    default_config()
    elapsed = time.time() - t_spawn
    if not Path(gmpkit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"gmpkit imported from {gmpkit.__file__}, not from {src}")
    return elapsed


def measure(workload, seconds: float) -> dict:
    """Whole rounds until the next one would end after ``seconds``."""
    from tracing import IoCounters
    from workloads import Meter

    meter = Meter(IoCounters())
    walls, written = [], []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        seconds_before, bytes_before = meter.seconds, meter.bytes_written
        result = workload.run_round(meter)
        walls.append(meter.seconds - seconds_before)
        written.append(meter.bytes_written - bytes_before)
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    peak = rss_mb()
    problems += workload.deferred_problems()
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak,
            "bytes_written_mb": statistics.median(written) / MB,
        },
        "round_walls": walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def profile(work: Path, seed: int, smoke: bool, trace_file: Path) -> dict:
    """One traced round of each workload; the reanalysis re-reads study_all's output."""
    from tracing import IoCounters, Tracer
    from workloads import CohortNumerics, ControllerSweep, Meter, Reanalysis, StudyAll

    io = IoCounters()
    tracer = Tracer(io)
    tracer.install()
    meter = Meter(io)
    metrics: dict[str, float] = {}
    counts = {"trials_simulated": 0, "trials_analyzed": 0, "files_written": 0, "cosim_steps": 0}
    attempted = failed = 0
    problems: list[str] = []
    study_all = StudyAll(work, seed, smoke)
    steps = (
        (study_all, lambda: study_all.run_round(meter, keep=True)),
        (Reanalysis(work, seed, smoke), None),
        (CohortNumerics(work, seed, smoke), None),
        (ControllerSweep(work, seed, smoke), None),
    )
    for workload, call in steps:
        before = meter.seconds
        result = call() if call else workload.run_round(meter)
        metrics[f"profile.{workload.name}.wall_s"] = meter.seconds - before
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        for key, value in result.counts.items():
            counts[key] += value
    shutil.rmtree(study_all.out, ignore_errors=True)
    for workload, _ in steps:
        problems += workload.deferred_problems()
    metrics.update(tracer.layer_metrics())
    metrics.update({f"work.{key}": value for key, value in counts.items()})
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_file)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.time() at the spawn")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    setup_s = set_up(args.src, args.t0)
    doc = {"setup_s": setup_s, "rss_after_import_mb": rss_mb()}
    if args.prepare:
        from workloads import Reanalysis

        Reanalysis(args.work, args.seed, args.smoke).prepare(jobs=2)
    elif args.trace:
        doc.update(profile(args.work, args.seed, args.smoke, args.trace_file))
    elif not args.probe:
        from workloads import WORKLOADS

        doc.update(measure(WORKLOADS[args.workload](args.work, args.seed, args.smoke), args.seconds))
    args.result.write_text(json.dumps(doc))
    if args.probe:
        # interpreter teardown is not set-up; skipping it shortens the run
        os._exit(0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
