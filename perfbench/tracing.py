"""Per-layer spans for the traced benchmark run.

The traced run rebinds gmpkit's public functions, in memory only, in every
``gmpkit.*`` namespace that holds them, so calls made inside the program
(``save_trial_csv`` calling ``write_csv``, ``estimate_eop`` calling
``pct_mvc``) are recorded as well as the benchmark's own calls. No file of
the program is changed. Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# (module, function, which /proc/self/io counter its span charges as bytes)
TRACED = (
    ("study", "simulate_study", None),
    ("study", "analyze_study", None),
    ("study", "stats_study", None),
    ("study", "stabilize_study", None),
    ("biomech", "simulate_trial", None),
    ("biomech", "save_trial_csv", "wchar"),
    ("biomech", "load_trial_csv", "rchar"),
    ("signals", "write_csv", "wchar"),
    ("signals", "read_csv", "rchar"),
    ("signals", "rms", None),
    ("emg", "synthesize_emg", None),
    ("emg", "estimate_mvc", None),
    ("emg", "pct_mvc", None),
    ("passivity", "estimate_eop", None),
    ("passivity", "energy_ledger", None),
    ("gmp", "build_map", None),
    ("gmp", "median_map", None),
    ("gmp", "lookup", None),
    ("gmp", "save_map_json", "wchar"),
    ("gmp", "load_map_json", "rchar"),
    ("stats", "wilcoxon_signed_rank", None),
    ("stats", "ks_normality", None),
    ("stabilizer", "run_interconnection", None),
)


class IoCounters:
    """Bytes this process has read and written, from /proc/self/io.

    Reading the file itself adds to ``rchar``; those bytes are subtracted,
    so a difference of two readings counts only the program's own I/O.
    """

    def __init__(self) -> None:
        self._own_reads = 0

    def read(self) -> dict[str, int]:
        fd = os.open("/proc/self/io", os.O_RDONLY)
        try:
            raw = os.read(fd, 4096)
        finally:
            os.close(fd)
        counts = {}
        for line in raw.decode().splitlines():
            key, _, value = line.partition(":")
            counts[key] = int(value)
        counts["rchar"] -= self._own_reads
        self._own_reads += len(raw)
        return counts


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, io: IoCounters) -> None:
        self.io = io
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            before = self.io.read()[counter] if counter else 0
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                after = self.io.read()[counter] if counter else 0
                self._stack.pop()
                span.update(start=t0, end=t1, cpu=cpu1 - cpu0, bytes=after - before)

        return traced

    def install(self) -> None:
        """Rebind every traced function in each loaded gmpkit namespace."""
        modules = [m for n, m in sys.modules.items() if n == "gmpkit" or n.startswith("gmpkit.")]
        for module_name, func_name, counter in TRACED:
            original = getattr(sys.modules[f"gmpkit.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s, p50_ms, p90_ms, wait_s and bytes per function."""
        by_name: dict[str, list[dict]] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)
        metrics = {}
        for module_name, func_name, counter in TRACED:
            name = f"{module_name}.{func_name}"
            spans = by_name.get(name, [])
            durations = np.array([s["end"] - s["start"] for s in spans])
            metrics[f"{name}.calls"] = len(spans)
            metrics[f"{name}.total_s"] = float(durations.sum())
            metrics[f"{name}.p50_ms"] = float(np.percentile(durations, 50) * 1e3) if spans else 0.0
            metrics[f"{name}.p90_ms"] = float(np.percentile(durations, 90) * 1e3) if spans else 0.0
            metrics[f"{name}.wait_s"] = float(sum(s["end"] - s["start"] - s["cpu"] for s in spans))
            if counter:
                metrics[f"{name}.bytes"] = sum(s["bytes"] for s in spans)
        return metrics

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
