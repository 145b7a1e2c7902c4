#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarize the spread.

    python3 perfbench/figures.py --runs 10 --first-seed 1

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each end-to-end metric the median of the runs and the spread between their
quartiles as a share of the median (``statistics.quantiles(values, n=4)``),
the figure the bounds in BENCHMARK.json are set against. Each run's result
line is appended to ``.perfbench/figures.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    log = ROOT / ".perfbench" / "figures.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    shares: dict[str, set] = {w: set() for w in workloads}
    # workloads alternate within each seed, so slow spells of the host fall on all of them
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            started = time.time()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            elapsed = time.time() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                     "start": started, "elapsed_s": elapsed, "result": result}) + "\n")
            shares[workload].add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.0f} s, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr, flush=True)
            if not result["correct"]:
                print(proc.stderr[-2000:], file=sys.stderr)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("| workload | metric | median | quartile spread / median | bound |")
    print("| --- | --- | --- | --- | --- |")
    for workload in workloads:
        for metric in metrics:
            runs = values[workload].get(metric["name"], [])
            if len(runs) < 2:
                continue
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"| {workload} | {metric['name']} | {median:.4g} {metric['unit']} | {spread:.2%} | "
                  f"{metric.get('bound', '')} |")
        print(f"| {workload} | failed share | {sorted(shares[workload])} | | |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
