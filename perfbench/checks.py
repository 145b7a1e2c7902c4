"""Correctness checks made apart from gmpkit.

Each check recomputes what the program reported with code of its own: the
closed-form EoP of the limb model, scipy.stats, numpy energy sums over the
recorded signals and a walk of the output directory. A check returns a list
of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path

import numpy as np

EOP_REL_TOL = 0.01          # map cell against the closed form
STATS_REL_TOL = 1e-9        # report against scipy.stats
PASSIVITY_TOL_J = 1e-9
INJECTION_TOL_J = 1e-12
GROUP_CODES = {("relaxed", "low"): "LR", ("stiff", "low"): "LS",
               ("relaxed", "high"): "HR", ("stiff", "high"): "HS"}


def closed_form_eop(params: dict, direction: int, activation: float, frequency: float) -> float:
    """Steady-state EoP of the limb model: g*b0 + g*b_m / (1 + (g*b_m*w/k_m)^2)."""
    g = params["direction_gains"][direction]
    b_m = params["maxwell_damping_base"] + params["maxwell_damping_gain"] * activation
    omega = 2.0 * math.pi * frequency
    maxwell = g * b_m / (1.0 + (g * b_m * omega / params["maxwell_stiffness"]) ** 2) if b_m > 0 else 0.0
    return g * params["base_damping"] + maxwell


def check_maps(maps: dict, params: dict, targets: dict, frequencies: dict) -> list[str]:
    """Per-subject map cells against the closed form, and low > high per cell.

    ``maps`` holds, per subject, ``{(direction, activation_label, hz): xi}``;
    ``targets`` maps activation labels to %MVC targets and ``frequencies``
    frequency labels to Hz.
    """
    problems = []
    low, high = frequencies["low"], frequencies["high"]
    for subject, cells in sorted(maps.items()):
        if len(cells) != 8 * len(targets) * len(frequencies):
            problems.append(f"{subject}: map has {len(cells)} cells")
            continue
        for (direction, activation, hz), xi in cells.items():
            ref = closed_form_eop(params[subject], direction, targets[activation], hz)
            if not abs(xi - ref) <= EOP_REL_TOL * ref:
                problems.append(f"{subject} d{direction} {activation} {hz} Hz: xi {xi} vs {ref}")
        for direction in range(8):
            for activation in targets:
                if not cells[(direction, activation, low)] > cells[(direction, activation, high)]:
                    problems.append(f"{subject} d{direction} {activation}: low EoP <= high EoP")
    return problems


def read_estimates_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {"subject": r["subject"], "direction": int(r["direction"]),
             "activation": r["activation"], "frequency": r["frequency"],
             "xi": float(r["xi"]), "pct_mvc": float(r["pct_mvc"])}
            for r in csv.DictReader(fh)
        ]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=STATS_REL_TOL, abs_tol=1e-12)


def check_stats(report: dict, rows: list[dict]) -> list[str]:
    """KS, Wilcoxon and slope values of a stats report against scipy.stats.

    ``rows`` are the per-cell estimates the report was computed from.
    """
    from scipy import stats as sps

    problems = []
    subjects = sorted({r["subject"] for r in rows})
    by_cell = {(GROUP_CODES[(r["activation"], r["frequency"])], r["subject"], r["direction"]): r["xi"]
               for r in rows}
    pairing = [(s, d) for s in subjects for d in sorted({r["direction"] for r in rows})]
    groups = {code: np.array([by_cell[(code, s, d)] for s, d in pairing])
              for code in GROUP_CODES.values()}

    for code, values in groups.items():
        doc = report["groups"][code]["ks_normality"]
        z = (values - values.mean()) / values.std(ddof=1)
        ref = sps.kstest(z, "norm", method="asymp")
        if not (_close(doc.get("statistic", math.nan), ref.statistic)
                and _close(doc.get("p_value", math.nan), ref.pvalue)):
            problems.append(f"KS {code}: {doc} vs scipy D={ref.statistic} p={ref.pvalue}")

    def wilcoxon(name, doc, a, b, alternative):
        d = a - b
        ranks = sps.rankdata(np.abs(d))
        w_plus = float(ranks[d > 0].sum())
        method = "exact" if len(d) <= 12 else "approx"
        ref = sps.wilcoxon(a, b, alternative=alternative, method=method, correction=True)
        if not (doc.get("n") == len(d) and _close(doc.get("statistic", math.nan), w_plus)
                and _close(doc.get("p_value", math.nan), ref.pvalue)):
            problems.append(f"Wilcoxon {name}: {doc} vs W+={w_plus} p={ref.pvalue}")

    for name, doc in report["contrasts"].items():
        wilcoxon(name, doc, groups[doc["group_a"]], groups[doc["group_b"]], "two-sided")

    slopes = {label: [] for label in ("low", "high")}
    for subject in subjects:
        for label in slopes:
            pts = [(r["pct_mvc"], r["xi"]) for r in rows
                   if r["subject"] == subject and r["frequency"] == label]
            x, y = np.array(pts).T
            slope = float(np.polyfit(x, y, 1)[0])
            reported = report["slopes"]["per_subject"][subject][label]["slope"]
            if not math.isclose(reported, slope, rel_tol=1e-7):
                problems.append(f"slope {subject} {label}: {reported} vs {slope}")
            slopes[label].append(reported)
    contrast = report["slopes"]["contrast"]
    wilcoxon("slope_low_vs_high", contrast, np.array(slopes["low"]), np.array(slopes["high"]),
             contrast["sidedness"])
    return problems


def min_port_energy(force: np.ndarray, velocity: np.ndarray, rate: float) -> float:
    """Minimum over time of the trapezoidal integral of f . v."""
    power = np.sum(force * velocity, axis=1)
    energy = np.cumsum(0.5 / rate * (power[1:] + power[:-1]))
    return float(min(0.0, energy.min()))


def cosim_ledger(velocity, force_field, alpha, budget_rate: float, rate: float) -> tuple[float, float]:
    """(min observer W, injected energy) recomputed from a co-simulation record.

    W(t) sums the energy absorbed by the field port, the credited EoP budget
    and the controller's dissipation, step by step as the observer does.
    """
    h = 1.0 / rate
    v_sq = velocity * velocity
    injected = alpha * v_sq * h
    w = np.cumsum(-force_field * velocity * h + budget_rate * v_sq * h + injected)
    return float(w.min()), float(injected.sum())


def check_cosim_pair(label: str, baseline: tuple, with_map: tuple, amplitude: float,
                     n_samples: int) -> list[str]:
    """Both runs bounded with W >= -tol, and the map never adds injection.

    Each run is ``(velocity, force_field, alpha, budget_rate, rate)``.
    """
    problems = []
    injected = []
    for tag, (velocity, force_field, alpha, budget, rate) in (("baseline", baseline),
                                                             ("with_map", with_map)):
        if len(velocity) != n_samples or not np.all(np.abs(velocity) <= 1e3 * amplitude):
            problems.append(f"{label} {tag}: unbounded ({len(velocity)}/{n_samples} samples)")
        min_w, joules = cosim_ledger(velocity, force_field, alpha, budget, rate)
        if min_w < -PASSIVITY_TOL_J:
            problems.append(f"{label} {tag}: observer W reaches {min_w}")
        injected.append(joules)
    if injected[1] > injected[0] + INJECTION_TOL_J:
        problems.append(f"{label}: with map injects {injected[1]} J > {injected[0]} J")
    return problems


def tree_size(*paths) -> tuple[int, int]:
    """(bytes, files) of the given files and of the files under the given directories."""
    total = files = 0
    for path in map(Path, paths):
        found = [path] if path.is_file() else [Path(d) / n for d, _, ns in os.walk(path) for n in ns]
        total += sum(p.stat().st_size for p in found)
        files += len(found)
    return total, files


def check_written(bytes_written: int, *paths) -> list[str]:
    """The bytes the process wrote equal the size of what it left on disk."""
    on_disk = tree_size(*paths)[0]
    if bytes_written != on_disk:
        return [f"wrote {bytes_written} bytes, {', '.join(map(str, paths))} hold {on_disk}"]
    return []
