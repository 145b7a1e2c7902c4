"""The benchmark's four workloads.

A workload runs whole rounds of the same operations. ``run_round`` times
only the calls into gmpkit, through a :class:`Meter`, and checks the round's
outputs between those calls; checks that need scipy.stats are kept for
``deferred_problems``, which runs after the measurement so that importing
scipy.stats does not count toward the peak RSS.

Every call goes through a gmpkit module attribute (``biomech.simulate_trial``,
not a name imported here), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gmpkit import biomech, cli, config as gconfig, emg, gmp, passivity, signals, stabilizer, study

import checks

# study_all and reanalysis: the paper's full grid (5 subjects x 2 frequencies x
# 2 co-activation targets x 8 directions) with trials cut from 10 s to 5 s.
# The estimator keeps the last 3 s, which start after the 0.5 s activation
# lag has settled. Over seeds 0-49 the worst map cell then misses the closed
# form by 0.84%; with 4 s trials and a 2 s window it reaches 1.01% (seed 24),
# and with a window starting at 1 s, 1.8%.
STUDY_DURATION_S = 5.0
STUDY_WINDOW_S = 3.0
SMOKE_SUBJECTS = 2
SMOKE_DURATION_S = 2.0


class Meter:
    """Wall time and bytes written, summed over the timed gmpkit calls."""

    def __init__(self, io_counters) -> None:
        self.io = io_counters
        self.seconds = 0.0
        self.bytes_written = 0

    @contextlib.contextmanager
    def timed(self):
        w0 = self.io.read()["wchar"]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0
            self.bytes_written += self.io.read()["wchar"] - w0


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


class CliFailure(Exception):
    pass


def _cli(argv: list[str]) -> int:
    """``gmpkit <argv>``; returns 0, a nonzero exit code raises."""
    # The CLI's progress lines go to memory, so they add no bytes written.
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise CliFailure(f"gmpkit {argv[0]} exited {code}")
    return code


def _attempt(result: RoundResult, label: str, call):
    """Run one operation and return its value; an exception counts it as failed."""
    result.attempted += 1
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - a failed operation is reported, not fatal
        print(f"failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        result.failed += 1
        return None


class Workload:
    """Keeps each round's stats report for the scipy-based check."""

    name = ""

    def __init__(self) -> None:
        self.stats_cases: list[tuple[dict, list[dict]]] = []

    def deferred_problems(self) -> list[str]:
        return [p for report, rows in self.stats_cases for p in checks.check_stats(report, rows)]


def _study_ini(seed: int, smoke: bool) -> str:
    duration, window = (SMOKE_DURATION_S, SMOKE_DURATION_S / 2) if smoke else (
        STUDY_DURATION_S, STUDY_WINDOW_S)
    subjects = SMOKE_SUBJECTS if smoke else 5
    return (
        f"[cohort]\nsubjects = {subjects}\nseed = {seed}\n"
        f"[protocol]\nduration_s = {duration}\nanalysis_window_s = {window}\n"
        f"[stabilizer]\nduration_s = {duration}\nseed = {seed}\n"
    )


def _study_dir_checks(out: Path) -> tuple[list[str], dict, list[dict]]:
    """Map-cell checks on an analyzed study; returns (problems, report, rows)."""
    manifest = json.loads((out / "manifest.json").read_text())
    protocol = manifest["config"]["protocol"]
    targets = {"relaxed": protocol["relaxed_target"], "stiff": protocol["stiff_target"]}
    frequencies = dict(zip(("low", "high"), protocol["frequencies"]))
    params = {s["subject_id"]: s["params"] for s in manifest["subjects"]}
    maps = {}
    for subject in params:
        doc = json.loads((out / "analysis" / f"gmp_{subject}.json").read_text())
        maps[subject] = {(c["dir"], c["activation"], c["frequency"]): c["xi"] for c in doc["cells"]}
    problems = checks.check_maps(maps, params, targets, frequencies)
    report = json.loads((out / "stats" / "report.json").read_text())
    rows = checks.read_estimates_csv(out / "analysis" / "eop_estimates.csv")
    if len(rows) != sum(len(s["trials"]) for s in manifest["subjects"]):
        problems.append(f"{len(rows)} estimates for {len(manifest['subjects'])} subjects")
    return problems, report, rows


def _stabilize_checks(out: Path) -> tuple[list[str], int]:
    """Recompute the stabilize stage's ledgers from its trajectory files."""
    manifest = json.loads((out / "manifest.json").read_text())
    scenario = manifest["config"]["stabilizer"]
    rate = manifest["config"]["rates"]["robot_hz"]
    summary = json.loads((out / "stabilize" / "summary.json").read_text())
    runs = []
    for tag, budget in (("baseline", 0.0), ("with_map", summary["with_map"]["eop_budget"])):
        traj = np.loadtxt(out / "stabilize" / f"{tag}_trajectory.csv", delimiter=",", skiprows=1)
        runs.append((traj[:, 2], traj[:, 3], traj[:, 5], budget, rate))
    n_samples = round(scenario["duration_s"] * rate) + 1
    problems = checks.check_cosim_pair("stabilize", runs[0], runs[1], scenario["amplitude_m"], n_samples)
    return problems, len(runs[0][0]) + len(runs[1][0])


class StudyAll(Workload):
    """``gmpkit all`` on the full grid: simulate, write, read back, analyze, stats, stabilize."""

    name = "study_all"

    def __init__(self, work: Path, seed: int, smoke: bool) -> None:
        super().__init__()
        self.seed = seed
        self.ini = work / "study.ini"
        self.ini.write_text(_study_ini(seed, smoke))
        self.out = work / "study"

    def argv(self, command: str) -> list[str]:
        return [command, "--config", str(self.ini), "--out", str(self.out)]

    def run_round(self, meter: Meter, keep: bool = False) -> RoundResult:
        result = RoundResult()
        before = meter.bytes_written
        with meter.timed():
            code = _attempt(result, "gmpkit all", lambda: _cli(
                self.argv("all") + ["--jobs", "1", "--seed", str(self.seed)]))
        if code is not None:
            problems, report, rows = _study_dir_checks(self.out)
            stab_problems, steps = _stabilize_checks(self.out)
            problems += checks.check_written(meter.bytes_written - before, self.out)
            files = checks.tree_size(self.out)[1]
            result.problems += problems + stab_problems
            self.stats_cases.append((report, rows))
            result.counts = {"trials_simulated": len(rows), "trials_analyzed": len(rows),
                             "files_written": files, "cosim_steps": steps}
        if not keep:
            shutil.rmtree(self.out, ignore_errors=True)
        return result


class Reanalysis(StudyAll):
    """``gmpkit analyze`` then ``gmpkit stats`` over a study simulated beforehand."""

    name = "reanalysis"

    def prepare(self, jobs: int) -> None:
        """Simulate the study to re-analyze; not part of any measurement."""
        _cli(self.argv("simulate") + ["--jobs", str(jobs), "--seed", str(self.seed)])

    def run_round(self, meter: Meter) -> RoundResult:
        result = RoundResult()
        before = meter.bytes_written
        for command in ("analyze", "stats"):
            with meter.timed():
                code = _attempt(result, f"gmpkit {command}", lambda: _cli(self.argv(command)))
            if code is None:
                return result
        problems, report, rows = _study_dir_checks(self.out)
        problems += checks.check_written(meter.bytes_written - before,
                                         self.out / "analysis", self.out / "stats")
        files = checks.tree_size(self.out / "analysis", self.out / "stats")[1]
        result.problems += problems
        self.stats_cases.append((report, rows))
        result.counts = {"trials_analyzed": len(rows), "files_written": files}
        return result


class CohortNumerics(Workload):
    """The default protocol in memory: cohort, MVC, 160 trials, EoP, maps, stats."""

    name = "cohort_numerics"

    def __init__(self, work: Path, seed: int, smoke: bool) -> None:
        super().__init__()
        config = gconfig.default_config()
        if smoke:
            config = replace(config, cohort=replace(config.cohort, subjects=SMOKE_SUBJECTS),
                             protocol=replace(config.protocol, duration_s=SMOKE_DURATION_S,
                                              analysis_window_s=SMOKE_DURATION_S / 2))
        self.config = config
        self.seed = seed
        self.map_path = work / "cohort_median.json"

    def run_round(self, meter: Meter) -> RoundResult:
        cfg, protocol, seed = self.config, self.config.protocol, self.seed
        result = RoundResult()
        window = signals.Window(protocol.duration_s - protocol.analysis_window_s, protocol.duration_s)
        plan = [(t["frequency_label"], t["frequency_hz"], t["activation_label"], t["target_pct_mvc"])
                for t in study.protocol_plan(cfg)]
        with meter.timed():
            cohort = biomech.make_cohort(cfg.cohort.subjects, cfg.cohort.jitter, seed, cfg.limb)
        estimates, maps = [], {}
        min_energy = 0.0
        for s_idx, subject in enumerate(cohort):
            with meter.timed():
                recordings = [
                    emg.synthesize_emg(study._constant_activation_signal(cfg, study.MVC_DURATION_S),
                                       subject.mvc_rms,
                                       np.random.SeedSequence((seed, s_idx, 90, rep)),
                                       rate=cfg.rates.emg_hz)
                    for rep in range(study.MVC_REPETITIONS)
                ]
                cal = emg.estimate_mvc(recordings, cfg.emg.rms_window_s, cfg.emg.rms_stride_s)
            subject_estimates = []
            for t_idx, (f_label, hz, a_label, target) in enumerate(plan):
                for direction in range(protocol.directions):
                    def trial_op():
                        spec = biomech.PerturbationSpec(hz, protocol.amplitude_m, direction,
                                                        protocol.duration_s)
                        trial = biomech.simulate_trial(
                            subject.params, spec, biomech.ActivationProfile(target),
                            np.random.SeedSequence((seed, s_idx, t_idx, direction)),
                            rate=cfg.rates.robot_hz, mvc_rms=subject.mvc_rms,
                            emg_rate=cfg.rates.emg_hz, subject_id=subject.subject_id,
                            activation_label=a_label, frequency_label=f_label)
                        est = passivity.estimate_eop(
                            trial, window, cal=cal, feedback_channels=cfg.emg.feedback_channels,
                            rms_window=cfg.emg.rms_window_s, rms_stride=cfg.emg.rms_stride_s)
                        verdict = passivity.is_passive(passivity.energy_ledger(trial.force, trial.velocity))
                        return trial, est, verdict
                    with meter.timed():
                        done = _attempt(result, f"{subject.subject_id} {f_label} {a_label} d{direction}",
                                        trial_op)
                    if done is None:
                        continue
                    trial, est, verdict = done
                    energy = checks.min_port_energy(trial.force.data, trial.velocity.data,
                                                    trial.force.sample_rate)
                    min_energy = min(min_energy, energy)
                    if not verdict.passive:
                        result.problems.append(f"{est.subject_id}: program verdict not passive")
                    subject_estimates.append(est)
            estimates.extend(subject_estimates)
            with meter.timed():
                maps[subject.subject_id] = gmp.build_map(subject_estimates, subject.subject_id)
        if min_energy < -checks.PASSIVITY_TOL_J:
            result.problems.append(f"a trial's port energy reaches {min_energy} J")
        before = meter.bytes_written
        with meter.timed():
            median = gmp.median_map(list(maps.values()))
            report = study.stats_study(estimates, out_dir=None)
            gmp.save_map_json(median, self.map_path)
        result.problems += checks.check_written(meter.bytes_written - before, self.map_path)

        params = {s.subject_id: {k: getattr(s.params, k) for k in (
            "base_damping", "maxwell_damping_base", "maxwell_damping_gain", "maxwell_stiffness",
            "direction_gains")} for s in cohort}
        cells = {sid: {(d, a, m.frequencies[f]): est.xi for (d, a, f), est in m.cells.items()}
                 for sid, m in maps.items()}
        result.problems += checks.check_maps(
            cells, params, {"relaxed": protocol.relaxed_target, "stiff": protocol.stiff_target},
            dict(gconfig.frequency_labels(protocol)))
        rows = [{"subject": e.subject_id, "direction": e.direction_index, "activation": e.activation_label,
                 "frequency": e.frequency_label, "xi": e.xi, "pct_mvc": e.mean_pct_mvc} for e in estimates]
        self.stats_cases.append((report, rows))
        result.counts = {"trials_simulated": len(estimates), "trials_analyzed": len(estimates),
                         "files_written": 1}
        return result


class ControllerSweep(Workload):
    """``run_interconnection`` over 64 scenarios, each with and without a GMP map.

    The map is built from the closed-form EoP of the limb (through
    ``build_map``), saved and loaded back as the stabilize command does, so
    the sweep does not depend on the estimator.
    """

    name = "controller_sweep"

    def __init__(self, work: Path, seed: int, smoke: bool) -> None:
        super().__init__()
        self.config = gconfig.default_config()
        self.seed = seed
        self.duration = 1.0 if smoke else self.config.stabilizer.duration_s
        self.map_path = work / "analytic_map.json"

    def run_round(self, meter: Meter) -> RoundResult:
        cfg, scenario = self.config, self.config.stabilizer
        result = RoundResult()
        targets = (("relaxed", cfg.protocol.relaxed_target), ("stiff", cfg.protocol.stiff_target))
        frequencies = gconfig.frequency_labels(cfg.protocol)
        fields = (stabilizer.ForceFieldSpec("negative-damping", b_f=scenario.field_damping),
                  stabilizer.ForceFieldSpec("delayed-spring", gain=scenario.spring_gain,
                                            delay=scenario.spring_delay_s))
        before = meter.bytes_written
        with meter.timed():
            limb = cfg.limb
            estimates = []
            for direction in range(8):
                for a_label, target in targets:
                    for f_label, hz in frequencies:
                        xi = biomech.analytic_eop(limb, direction, target, hz)
                        estimates.append(passivity.EopEstimate(
                            "analytic", direction, a_label, f_label, xi, target, xi, 1.0, None, hz))
            gmp.save_map_json(gmp.build_map(estimates, "analytic"), self.map_path)
            gmp_map = gmp.load_map_json(self.map_path)
        result.problems += checks.check_written(meter.bytes_written - before, self.map_path)
        rate = cfg.rates.robot_hz
        n_samples = round(self.duration * rate) + 1
        steps = 0
        for field_spec in fields:
            for direction in range(8):
                for _, target in targets:
                    for _, hz in frequencies:
                        spec = biomech.PerturbationSpec(hz, scenario.amplitude_m, direction, self.duration)
                        runs = []
                        for with_map in (None, gmp_map):
                            with meter.timed():
                                run = _attempt(result, f"{field_spec.kind} d{direction} {target} {hz}",
                                               lambda: stabilizer.run_interconnection(
                                                   limb, field_spec, spec,
                                                   biomech.ActivationProfile(target), with_map,
                                                   self.duration, rate, self.seed,
                                                   scenario.safety_factor))
                            if run is not None:
                                runs.append((run.velocity, run.force_field, run.alpha,
                                             run.budget_rate, rate))
                                steps += len(run.times)
                        if len(runs) == 2:
                            result.problems += checks.check_cosim_pair(
                                f"{field_spec.kind} d{direction} {target} {hz} Hz",
                                runs[0], runs[1], scenario.amplitude_m, n_samples)
        result.counts = {"cosim_steps": steps, "files_written": 1}
        return result


WORKLOADS = {cls.name: cls for cls in (StudyAll, Reanalysis, CohortNumerics, ControllerSweep)}
