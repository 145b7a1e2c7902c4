#!/usr/bin/env python3
"""Run one gmpkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study_all --seed 1 --seconds 10 --trace 0

Run from the root of a gmpkit checkout; gmpkit is imported from its
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Progress and check failures go to standard
error. Every process runs with ``--jobs 1`` and one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("study_all", "reanalysis", "cohort_numerics", "controller_sweep")
SETUP_PROBES = 5            # plus the measuring process itself: six set-ups per run
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD)
    return env


def run_worker(work: Path, deadline: float, *args: str) -> dict:
    """Start worker.py, wait for it, return the result file it wrote."""
    result = work / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--work", str(work),
           "--result", str(result), "--t0", repr(time.time()), *args]
    # The worker's own output goes to stderr, so stdout carries only the result.
    # A process group of its own lets a kill reach the simulation pool it may start.
    proc = subprocess.Popen(cmd, env=child_env(), stdout=sys.stderr, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the {RUN_LIMIT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited {code}")
    return json.loads(result.read_text())


def import_times(deadline: float) -> dict[str, float]:
    """Cumulative import seconds of gmpkit and scipy.signal, from ``-X importtime``."""
    env = child_env()
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gmpkit"],
                          env=env, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"import gmpkit failed: {proc.stderr.strip()[-500:]}")
    # Lines come children first; indentation gives the nesting. scipy's lazy
    # submodule loading leaves scipy.signal without a line of its own, so its
    # cost is the sum over the outermost scipy.signal.* imports.
    pending: list[dict] = []
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if not (line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit()):
            continue
        depth = len(fields[2]) - len(fields[2].lstrip())
        node = {"depth": depth, "name": fields[2].strip(), "s": int(fields[1]) / 1e6, "children": []}
        while pending and pending[-1]["depth"] > depth:
            node["children"].append(pending.pop())
        pending.append(node)

    def signal_seconds(node: dict) -> float:
        if node["name"] == "scipy.signal" or node["name"].startswith("scipy.signal."):
            return node["s"]
        return sum(signal_seconds(child) for child in node["children"])

    gmpkit = next(node for node in pending if node["name"] == "gmpkit")
    return {"setup.import_gmpkit_s": gmpkit["s"],
            "setup.import_scipy_signal_s": signal_seconds(gmpkit)}


def run(args, spec: dict, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    if args.trace:
        doc = run_worker(work, deadline, "--trace", "1", "--trace-file",
                         str(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"),
                         *common)
        values = dict(doc["metrics"], **import_times(deadline))
        values["setup.rss_after_import_mb"] = doc["rss_after_import_mb"]
        wanted = spec["per_layer"]
    else:
        setups = [run_worker(work, deadline, "--probe")["setup_s"] for _ in range(SETUP_PROBES)]
        if args.workload == "reanalysis":
            # its set-up ends before it starts the simulation pool, so it counts too
            setups.append(run_worker(work, deadline, "--prepare", *common)["setup_s"])
        doc = run_worker(work, deadline, "--workload", args.workload,
                         "--seconds", str(args.seconds), *common)
        print(f"{args.workload}: rounds took {doc['round_walls']} s", file=sys.stderr)
        values = dict(doc["metrics"], setup_s=statistics.median(setups + [doc["setup_s"]]))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    for problem in doc["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        # a failed operation skips its checks, so it cannot count as correct
        "correct": not doc["problems"] and doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def seed_type(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers (numpy SeedSequence entropy)")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_type, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    # a terminated run still stops its workers and deletes its output
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "gmpkit" / "__init__.py").is_file():
        print(f"error: no gmpkit source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, spec, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
