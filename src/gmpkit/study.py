"""End-to-end study pipeline: simulate, analyze, stats, stabilize.

Owns the on-disk layout of a run:

    out/
      manifest.json                         run manifest, schema 5
      mvc/<subject>_rep<k>_emg.npy          MVC calibration EMG, (n, 4) float32
      trials/<subject>_<test>_d<i>.npy      force/velocity fx, fy, vx, vy, (n, 4) float32
      trials/<subject>_<test>_d<i>_emg.npy  EMG at its native rate, (n, 4) float32
      analysis/eop_estimates.csv            one row per estimated cell
      analysis/gmp_<subject>.json           per-subject GMP maps
      analysis/gmp_median.json              cohort median map
      analysis/spider_<subject>.csv         spoke-plot data, also spider_median.csv
      analysis/summary.json                 trial counts, complete maps, warnings
      stats/report.json, stats/report.csv   statistical report
      stabilize/summary.json                the scenario and each run's verdict and energies
      stabilize/<run>_trajectory.csv        per run (baseline, with_map): motion, forces, alpha
      stabilize/<run>_ledger.csv            per run: field, injected and observer energies

A stage removes the outputs of its own that this run does not write: the
median map when no map is complete, the with_map files when there is no
map.

The protocol's tests and their order (LR, LS, HR, HS: low or high
frequency, relaxed or stiff co-activation) come from ``biomech.TESTS``,
and so do the test codes in trial names, the stats groups and contrasts,
and the spider columns.

Everything is deterministic for a fixed (config, seed): per-trial random
streams are derived from the identity of the trial, not from execution
order, so parallel workers produce byte-identical files. The .npy arrays
hold float32 samples only; their dtype, rates, start time and channel
labels are stored once, under "streams" in the manifest, and their lengths
follow from the config (``biomech.stored_samples``). File names follow
from the subject and trial ids (``mvc_files``, ``trial_files``).

The manifest keeps a copy of the simulated config, without ``[output]``;
the cohort seed is its ``[cohort] seed``. ``analyze`` reads that copy back
with the reader of a config file (``config.config_from_sections``), so it
passes the same checks. Its streams, ``tests``, subject ids and trial ids
(``trial_plan``) must be what the config gives, each subject's ``params``
and ``mvc_rms_true`` values that ``make_cohort`` can draw for it, each
subject's ``test_order`` an order of the ``tests`` codes, and
``toolkit_version`` a string. Any disagreement, or a key the schema does
not have, at the top level or in a subject entry, is a ``DataError`` that
names the manifest. ``analyze`` calibrates each subject's %MVC on its
``mvc/`` recordings (``subject_calibration``), so no calibrated level is
stored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from .biomech import (
    ACTIVATION_LABELS,
    DEFAULT_MVC_RMS_MV,
    FREQUENCY_LABELS,
    JITTERED_PARAMS,
    N_DIRECTIONS,
    SAMPLE_DTYPE,
    TESTS,
    ActivationProfile,
    PerturbationSpec,
    Subject,
    TrialCondition,
    cohort_subject_id,
    jitter_range,
    load_samples,
    load_trial_csv,
    make_cohort,
    save_trial_csv,
    simulate_trial,
    stored_samples,
    trial_streams,
)
from .config import EmgConfig, ScenarioConfig, StudyConfig, config_from_sections, frequency_labels, json_setting
from .emg import MVC_DURATION_S, MVC_RISE_S, MvcCalibration, estimate_mvc, synthesize_emg
from .errors import ConfigError, DataError, DegenerateSampleError, MapRangeError, json_field, json_value
from .gmp import GmpMap, build_map, fit_trend, load_map_json, lookup, median_map, save_map_json, save_spider_csv
from .passivity import EopEstimate, estimate_eop, estimates_to_csv
from .signals import SampledSignal, Window, write_csv
from .stabilizer import ForceFieldSpec, dissipation_savings, run_interconnection
from .stats import PairedSample, box_summary, ks_normality, wilcoxon_signed_rank

SCHEMA_VERSION = 5

MVC_REPETITIONS = 2

# the keys of the manifest (simulate_study) and of a subject's entry (_simulate_subject)
_MANIFEST_KEYS = {"toolkit_version", "schema_version", "config", "streams", "tests", "subjects"}
_SUBJECT_KEYS = {"subject_id", "params", "mvc_rms_true", "test_order", "trials"}


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def protocol_plan(config: StudyConfig) -> list[dict]:
    """The tests of ``biomech.TESTS`` at the protocol's frequencies, with their targets."""
    hz = dict(frequency_labels(config.protocol))
    target = dict(zip(ACTIVATION_LABELS, (config.protocol.relaxed_target, config.protocol.stiff_target)))
    return [
        {"code": code, "activation_label": act, "frequency_label": freq,
         "frequency_hz": hz[freq], "target_pct_mvc": target[act]}
        for code, act, freq in TESTS
        if freq in hz
    ]


def mvc_files(subject_id: str) -> list[str]:
    """A subject's MVC recording files, relative to the study dir, one per repetition."""
    return [f"mvc/{subject_id}_rep{rep + 1}_emg.npy" for rep in range(MVC_REPETITIONS)]


def trial_files(trial_id: str) -> tuple[str, str]:
    """The robot and EMG array files of a trial, relative to the study dir."""
    return f"trials/{trial_id}.npy", f"trials/{trial_id}_emg.npy"


def trial_plan(config: StudyConfig, subject_id: str) -> list[tuple[int, str, TrialCondition, PerturbationSpec]]:
    """A subject's trials in simulation order: ``(test_idx, trial_id, condition, spec)``."""
    protocol = config.protocol
    return [
        (test_idx, f"{subject_id}_{test['code']}_d{direction}",
         TrialCondition(direction, test["activation_label"], test["frequency_label"]),
         PerturbationSpec(test["frequency_hz"], protocol.amplitude_m, direction, protocol.duration_s))
        for test_idx, test in enumerate(protocol_plan(config))
        for direction in range(N_DIRECTIONS)
    ]


# -- simulate ---------------------------------------------------------------


def _simulate_subject(config: StudyConfig, subject: Subject, subject_idx: int, out_dir: str) -> dict:
    seed, out = config.cohort.seed, Path(out_dir)
    plan = protocol_plan(config)

    # stage 1: two maximum-effort recordings, which analyze calibrates %MVC on
    for rep, rel in enumerate(mvc_files(subject.subject_id)):
        act_signal = _constant_activation_signal(config, MVC_DURATION_S)
        rec = synthesize_emg(
            act_signal,
            subject.mvc_rms,
            np.random.SeedSequence((seed, subject_idx, 90, rep)),
            rate=config.rates.emg_hz,
        )
        np.save(out / rel, rec.data.astype(SAMPLE_DTYPE))  # stored as the trial EMG is

    # stage 2: the four tests in randomized order, eight directions each
    order_rng = np.random.default_rng(np.random.SeedSequence((seed, subject_idx, 91)))
    order = [plan[i]["code"] for i in order_rng.permutation(len(plan))]

    trials = trial_plan(config, subject.subject_id)
    for test_idx, trial_id, condition, spec in trials:
        trial = simulate_trial(
            subject.params,
            spec,
            ActivationProfile(target_pct_mvc=plan[test_idx]["target_pct_mvc"]),
            np.random.SeedSequence((seed, subject_idx, test_idx, condition.direction_index)),
            rate=config.rates.robot_hz,
            mvc_rms=subject.mvc_rms,
            emg_rate=config.rates.emg_hz,
            subject_id=subject.subject_id,
            activation_label=condition.activation_label,
            frequency_label=condition.frequency_label,
        )
        save_trial_csv(trial, *(out / rel for rel in trial_files(trial_id)))
    return {
        "subject_id": subject.subject_id,
        "params": asdict(subject.params),
        "mvc_rms_true": list(subject.mvc_rms),
        "test_order": order,
        "trials": [trial_id for _, trial_id, _, _ in trials],
    }


def _constant_activation_signal(config: StudyConfig, duration: float) -> SampledSignal:
    rate = config.rates.robot_hz
    n = round(duration * rate) + 1
    t = np.arange(n) / rate
    # quick first-order rise to full effort, held for the rest of the window
    a = 1.0 - np.exp(-t / MVC_RISE_S)
    return SampledSignal(rate, 0.0, ("a",), a)


def simulate_study(config: StudyConfig, out_dir) -> dict:
    """Run the full protocol for the whole cohort; returns the manifest."""
    config.validate()
    out = Path(out_dir)
    cohort = make_cohort(
        n_subjects=config.cohort.subjects,
        jitter=config.cohort.jitter,
        seed=config.cohort.seed,
        base=config.limb,
    )
    (out / "mvc").mkdir(parents=True, exist_ok=True)
    (out / "trials").mkdir(parents=True, exist_ok=True)

    tasks = [(config, subject, idx, str(out)) for idx, subject in enumerate(cohort)]
    # a pool starts all its workers at once, so it gets no more than there are subjects
    workers = min(config.output.jobs, len(tasks))
    if workers > 1:
        # imported here: the pool machinery costs a serial run ~20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            subject_docs = list(pool.map(_simulate_subject, *zip(*tasks)))
    else:
        subject_docs = [_simulate_subject(*task) for task in tasks]

    manifest = {
        "toolkit_version": __version__,
        "schema_version": SCHEMA_VERSION,
        # [output] (where and with how many workers) does not shape the study
        "config": {k: v for k, v in asdict(config).items() if k != "output"},
        "streams": trial_streams(config.rates.robot_hz, config.rates.emg_hz),
        "tests": protocol_plan(config),
        "subjects": subject_docs,
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def load_manifest(out_dir) -> dict:
    """The study's manifest as parsed JSON; one that does not parse is a ``DataError``.

    ``analyze_study`` reads what it needs through ``_read_manifest``.
    """
    path = Path(out_dir) / "manifest.json"
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataError(f"cannot read manifest {path}: {exc}") from None


def _check_listed(source: str, what: str, listed: list, expected: list) -> None:
    """A DataError naming the first entry where ``listed`` differs from ``expected``."""
    for i, (entry, planned) in enumerate(zip_longest(listed, expected)):
        if entry != planned:
            raise DataError(f"{source}: {what} {i} is {entry!r}, where its config gives {planned!r}")


def _check_drawn(where: str, subject: dict, config: StudyConfig) -> None:
    """A DataError unless a subject's ``params`` and ``mvc_rms_true`` are ones ``make_cohort`` can draw.

    That is: the config's ``[limb]``, with each of ``JITTERED_PARAMS`` and
    each true MVC level within its ``jitter_range``. The subject's own draw
    is not recomputed: importing numpy.random for it would add about 6 MB,
    13%, to the peak resident memory of ``analyze`` on a 5-subject study.
    """
    params = json_field(where, subject, "params", dict)
    mvc_true = json_field(where, subject, "mvc_rms_true", list)
    limb = asdict(config.limb)
    if sorted(params) != sorted(limb) or params["direction_gains"] != list(limb["direction_gains"]):
        raise DataError(f"{where}: params {params!r} are not the config's [limb] with {', '.join(JITTERED_PARAMS)} "
                        f"jittered")
    if len(mvc_true) != len(DEFAULT_MVC_RMS_MV):
        raise DataError(f"{where}: mvc_rms_true needs {len(DEFAULT_MVC_RMS_MV)} levels, got {mvc_true!r}")
    drawn = [(f"params {name}", params[name], limb[name]) for name in JITTERED_PARAMS]
    drawn += [(f"mvc_rms_true {i}", level, DEFAULT_MVC_RMS_MV[i]) for i, level in enumerate(mvc_true)]
    for what, value, base in drawn:
        low, high = jitter_range(base, config.cohort.jitter)
        if not low <= json_value(where, what, value, float) <= high:
            raise DataError(f"{where}: {what} = {value!r} is outside [{low!r}, {high!r}], the values the "
                            f"config's cohort draws from")


def _read_manifest(manifest, path) -> tuple[StudyConfig, dict, list]:
    """What ``analyze_study`` reads from a parsed manifest, typed and checked.

    Returns ``(config, streams, subjects)``:

    - the simulated config, read as a config file is
      (``config.config_from_sections``), with every key but ``[output]``'s
      required;
    - the streams, which must be ``trial_streams`` of the config's rates;
    - per subject ``(subject_id, trial_plan(config, subject_id))``, once
      ``tests``, the subject ids and its ``trials`` match the config, its
      ``params`` and ``mvc_rms_true`` are ones the config's cohort can draw
      (``_check_drawn``), its ``test_order`` is an order of the ``tests``
      codes and its entry has no key but ``_SUBJECT_KEYS``.

    The manifest must have no key but ``_MANIFEST_KEYS``, and
    ``toolkit_version`` must be a string.

    Any fault is a ``DataError`` whose message starts with ``manifest <path>: ``.
    """
    source = f"manifest {path}"
    if not isinstance(manifest, dict):
        raise DataError(f"{source}: expected a JSON object, got {type(manifest).__name__}")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"{source}: schema version {version} is not supported (this gmpkit reads "
            f"schema {SCHEMA_VERSION}); re-run simulate"
        )
    unknown = sorted(set(manifest) - _MANIFEST_KEYS)
    if unknown:
        raise DataError(f"{source}: unknown key {unknown[0]!r}")
    sections = json_field(source, manifest, "config", dict)
    try:
        config = config_from_sections(sections, source, json_setting)
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    # simulate writes every key but [output]'s; one left out must not read as its default
    missing = [f"[{name}] {key}" for name, doc in asdict(config).items() if name != "output"
               for key in doc if key not in sections.get(name, {})]
    if missing:
        raise DataError(f"{source}: config lacks {', '.join(missing)}")
    json_field(source, manifest, "toolkit_version", str)
    rates = config.rates
    streams = trial_streams(rates.robot_hz, rates.emg_hz)
    if json_field(source, manifest, "streams", dict) != streams:
        raise DataError(f"{source}: streams {manifest['streams']} do not match the config's [rates] "
                        f"robot_hz = {rates.robot_hz}, emg_hz = {rates.emg_hz} and the schema's "
                        f"dtype {SAMPLE_DTYPE}")
    tests = protocol_plan(config)
    _check_listed(source, "test", json_field(source, manifest, "tests", list), tests)
    codes = [test["code"] for test in tests]
    docs = json_field(source, manifest, "subjects", list)
    subject_ids = [json_field(source, subject, "subject_id", str) for subject in docs]
    _check_listed(source, "subject", subject_ids, [cohort_subject_id(i) for i in range(config.cohort.subjects)])
    subjects = []
    for subject_id, subject in zip(subject_ids, docs):
        unknown = sorted(set(subject) - _SUBJECT_KEYS)
        if unknown:
            raise DataError(f"{source}: subject {subject_id}: unknown key {unknown[0]!r}")
        _check_drawn(f"{source}: subject {subject_id}", subject, config)
        order = json_field(source, subject, "test_order", list)
        if len(order) != len(codes) or any(code not in order for code in codes):
            raise DataError(f"{source}: subject {subject_id}: test_order {order!r} "
                            f"is not an order of the tests {codes}")
        plan = trial_plan(config, subject_id)
        _check_listed(source, f"subject {subject_id}: trial", json_field(source, subject, "trials", list),
                      [trial_id for _, trial_id, _, _ in plan])
        subjects.append((subject_id, plan))
    return config, streams, subjects


def subject_calibration(out_dir, subject_id: str, streams: dict, emg: EmgConfig) -> MvcCalibration:
    """A subject's MVC levels, estimated on its ``mvc_files`` with the ``[emg]`` envelope settings.

    ``streams`` is the manifest's doc of ``trial_streams``; the recordings
    share its EMG stream and are ``MVC_DURATION_S`` long. Raises DataError,
    naming the file, for a recording that ``biomech.load_samples`` refuses,
    and for recordings with a channel that shows no activity.
    """
    stream = streams["emg"]
    _, n_samples = stored_samples(MVC_DURATION_S, streams["robot"]["rate_hz"], stream["rate_hz"])
    paths = [Path(out_dir) / rel for rel in mvc_files(subject_id)]
    recordings = [SampledSignal(stream["rate_hz"], stream["start_time_s"], stream["channels"],
                                load_samples(path, stream, n_samples)) for path in paths]
    try:
        return estimate_mvc(recordings, emg.rms_window_s, emg.rms_stride_s)
    except DegenerateSampleError as exc:
        raise DataError(f"{', '.join(map(str, paths))}: {exc}") from None


# -- analyze ----------------------------------------------------------------


@dataclass
class AnalysisResult:
    estimates: list[EopEstimate]
    maps: dict[str, GmpMap]
    median: GmpMap | None
    n_expected: int
    n_missing: int  # trials not analyzed: file absent or unreadable
    warnings: list[str] = field(default_factory=list)

    @property
    def missing_fraction(self) -> float:
        return self.n_missing / self.n_expected if self.n_expected else 0.0


def analyze_study(out_dir, config: StudyConfig | None = None) -> AnalysisResult:
    """Estimate EoP on the analysis window of every trial and build maps.

    The analysis settings, ``protocol.analysis_window_s`` and ``[emg]``,
    come from ``config``, or from the manifest's copy of the simulation
    config when ``config`` is None. What was simulated (duration,
    amplitude, rates, grid) always comes from the manifest. Each subject's
    %MVC is calibrated on its MVC recordings with the same ``[emg]``
    settings as the trial envelopes (``subject_calibration``). A manifest
    that ``_read_manifest`` refuses and an MVC recording that cannot be read
    are a ``DataError``, and settings that the simulated config with them
    fails to ``validate()`` are a ``ConfigError``, all before ``analysis/``
    is touched. A trial whose file is absent or unreadable is skipped with a
    warning and counted in ``n_missing``.
    """
    out = Path(out_dir)
    path = out / "manifest.json"
    settings, streams, subjects = _read_manifest(load_manifest(out), path)
    if config is not None:
        settings = replace(settings, emg=config.emg, protocol=replace(
            settings.protocol, analysis_window_s=config.protocol.analysis_window_s))
        try:
            settings.validate()
        except ConfigError as exc:
            raise ConfigError(f"analysis settings for the trials of {path}: {exc}") from None
    protocol, emg_cfg = settings.protocol, settings.emg
    calibrations = [subject_calibration(out, subject_id, streams, emg_cfg) for subject_id, _ in subjects]
    window = Window(protocol.duration_s - protocol.analysis_window_s, protocol.duration_s)
    grid = dict(frequency_labels(protocol))
    analysis_dir = out / "analysis"
    analysis_dir.mkdir(parents=True, exist_ok=True)

    estimates: list[EopEstimate] = []
    warnings: list[str] = []
    maps: dict[str, GmpMap] = {}
    n_expected = 0
    n_missing = 0
    for (subject_id, trials), cal in zip(subjects, calibrations):
        subject_estimates = []
        for _, trial_id, condition, spec in trials:
            n_expected += 1
            try:
                trial = load_trial_csv(*(out / rel for rel in trial_files(trial_id)), streams, condition, spec,
                                       subject_id)
            except DataError as exc:
                n_missing += 1
                warnings.append(f"unreadable trial {trial_id}: {exc}")
                continue
            subject_estimates.append(
                estimate_eop(
                    trial,
                    window,
                    cal=cal,
                    feedback_channels=emg_cfg.feedback_channels,
                    rms_window=emg_cfg.rms_window_s,
                    rms_stride=emg_cfg.rms_stride_s,
                )
            )
        gmp_map = build_map(subject_estimates, subject_id, frequencies=grid)
        if not gmp_map.complete:
            warnings.append(f"map {subject_id} missing {len(gmp_map.missing_cells())} cells")
        maps[subject_id] = gmp_map
        estimates.extend(subject_estimates)

    complete_maps = [m for m in maps.values() if m.complete]
    median = None
    if complete_maps:
        if len(complete_maps) < len(maps):
            warnings.append("median map computed over complete maps only")
        median = median_map(complete_maps)

    estimates_to_csv(estimates, analysis_dir / "eop_estimates.csv")
    for subject_id, gmp_map in maps.items():
        save_map_json(gmp_map, analysis_dir / f"gmp_{subject_id}.json")
        save_spider_csv(gmp_map, analysis_dir / f"spider_{subject_id}.csv")
    median_files = (analysis_dir / "gmp_median.json", analysis_dir / "spider_median.csv")
    if median is not None:
        save_map_json(median, median_files[0])
        save_spider_csv(median, median_files[1])
    else:
        # a previous run's median would otherwise pass for this run's
        for path in median_files:
            path.unlink(missing_ok=True)
    result = AnalysisResult(
        estimates=estimates,
        maps=maps,
        median=median,
        n_expected=n_expected,
        n_missing=n_missing,
        warnings=warnings,
    )
    _write_json(
        analysis_dir / "summary.json",
        {
            "n_expected": n_expected,
            "n_missing": n_missing,
            "complete_maps": sorted(m.subject_id for m in complete_maps),
            "warnings": warnings,
        },
    )
    return result


# -- stats ------------------------------------------------------------------

# test code of each (activation, frequency) cell
_CODE = {(act, freq): code for code, act, freq in TESTS}
_RELAXED, _STIFF = ACTIVATION_LABELS
_LOW, _HIGH = FREQUENCY_LABELS
# (name, group_a, group_b) per contrast, expectation a > b
_CONTRASTS = (
    *((f"frequency_effect_{a}", _CODE[a, _LOW], _CODE[a, _HIGH]) for a in ACTIVATION_LABELS),
    *((f"activation_effect_{f}", _CODE[_STIFF, f], _CODE[_RELAXED, f]) for f in FREQUENCY_LABELS),
)
# the trend-line slope contrast, low- against high-frequency slopes
SLOPE_CONTRAST = f"slope_{_LOW}_vs_{_HIGH}"


def _test_result_doc(result) -> dict:
    return {
        "statistic": result.statistic,
        "p_value": result.p_value,
        "method": result.method,
        "mark": result.significance_mark,
        "n": result.n,
    }


def _csv_rows(report: dict) -> list[str]:
    """The ``report.csv`` lines of a ``stats_study`` report, one per test that gave a p-value."""
    tests = [("ks_normality", code, code, "", doc["ks_normality"]) for code, doc in report["groups"].items()]
    tests += [("wilcoxon", name, doc["group_a"], doc["group_b"], doc) for name, doc in report["contrasts"].items()]
    if "contrast" in report["slopes"]:
        doc = report["slopes"]["contrast"]
        tests.append(("wilcoxon", SLOPE_CONTRAST, doc["group_a"], doc["group_b"], doc))
    return [f"{kind},{name},{group_a},{group_b},{doc['n']},{float(doc['statistic'])!r},"
            f"{float(doc['p_value'])!r},{doc['method']},{doc['mark']}\n"
            for kind, name, group_a, group_b, doc in tests if "p_value" in doc]


def _paired_contrast(a: list[float], b: list[float], sidedness: str = "two-sided") -> dict:
    """Wilcoxon doc for a paired contrast; identical groups carry no
    evidence against the null and are reported as p = 1 rather than an
    error."""
    if len(a) == len(b) and all(x == y for x, y in zip(a, b)):
        return {
            "statistic": 0.0,
            "p_value": 1.0,
            "method": "degenerate-zero-differences",
            "mark": "",
            "n": len(a),
        }
    try:
        result = wilcoxon_signed_rank(PairedSample(tuple(a), tuple(b)), sidedness)
    except (DegenerateSampleError, ValueError) as exc:
        return {"error": str(exc)}
    return _test_result_doc(result)


def stats_study(estimates: list[EopEstimate], out_dir=None) -> dict:
    """Reproduce the study's statistical analysis on a set of estimates.

    Groups the 40 per-test EoP values (subjects x directions), runs the KS
    normality pre-test per group, paired Wilcoxon signed-rank tests for the
    frequency and activation contrasts (paired by subject and direction),
    and compares the per-subject trend-line slopes between frequencies.
    The slope contrast is one-sided (low-frequency slopes greater): it tests
    a directional hypothesis and, with five subjects, a two-sided exact
    signed-rank test cannot reach p < 0.05 at all.
    """
    subjects = sorted({e.subject_id for e in estimates})
    if len(subjects) < 2:
        raise DegenerateSampleError(f"stats need >= 2 subjects, got {len(subjects)}")

    by_cell = {(_CODE[e.activation_label, e.frequency_label], e.subject_id, e.direction_index): e
               for e in estimates}

    directions = sorted({key[2] for key in by_cell})
    pairing = [(s, d) for s in subjects for d in directions]
    groups: dict[str, list[float]] = {}
    for code, _, _ in TESTS:
        values = [by_cell[(code, s, d)].xi for s, d in pairing if (code, s, d) in by_cell]
        if len(values) == len(pairing) and values:
            groups[code] = values

    report: dict = {"groups": {}, "contrasts": {}, "slopes": {}}

    for code, values in groups.items():
        doc = {"n": len(values), "box": asdict(box_summary(values))}
        try:
            doc["ks_normality"] = _test_result_doc(ks_normality(values))
        except DegenerateSampleError as exc:
            doc["ks_normality"] = {"error": str(exc)}
        report["groups"][code] = doc

    for name, code_a, code_b in _CONTRASTS:
        if code_a not in groups or code_b not in groups:
            continue
        doc = {"group_a": code_a, "group_b": code_b}
        doc.update(_paired_contrast(groups[code_a], groups[code_b]))
        report["contrasts"][name] = doc

    freq_labels = sorted({e.frequency_label for e in estimates})
    slope_doc: dict = {"per_subject": {}}
    slopes_by_label: dict[str, list[float]] = {label: [] for label in freq_labels}
    for subject_id in subjects:
        subject_est = [e for e in estimates if e.subject_id == subject_id]
        entry = {}
        for label in freq_labels:
            trend = fit_trend(subject_est, label)
            entry[label] = {"slope": trend.slope, "intercept": trend.intercept,
                            "rss": trend.rss, "n": trend.n_points}
            slopes_by_label[label].append(trend.slope)
        slope_doc["per_subject"][subject_id] = entry
    if set(freq_labels) >= {_LOW, _HIGH}:
        doc = {"sidedness": "greater", "group_a": f"slope_{_LOW}", "group_b": f"slope_{_HIGH}"}
        doc.update(_paired_contrast(slopes_by_label[_LOW], slopes_by_label[_HIGH], "greater"))
        slope_doc["contrast"] = doc
    report["slopes"] = slope_doc

    if out_dir is not None:
        stats_dir = Path(out_dir) / "stats"
        stats_dir.mkdir(parents=True, exist_ok=True)
        _write_json(stats_dir / "report.json", report)
        with open(stats_dir / "report.csv", "w", newline="") as fh:
            fh.write("kind,name,group_a,group_b,n,statistic,p_value,method,mark\n")
            fh.writelines(_csv_rows(report))
    return report


# -- stabilize ----------------------------------------------------------------


def _field_from_scenario(scenario: ScenarioConfig) -> ForceFieldSpec:
    if scenario.field_kind == "negative-damping":
        return ForceFieldSpec(kind="negative-damping", b_f=scenario.field_damping)
    return ForceFieldSpec(
        kind="delayed-spring", gain=scenario.spring_gain, delay=scenario.spring_delay_s
    )


def _run_doc(run) -> dict:
    """What ``summary.json`` keeps of every stabilizer run."""
    return {
        "verdict": run.verdict,
        "injected_joules": run.injected_dissipation,
        "field_energy_joules": run.field_energy,
        "min_observer_w": run.min_observer_w,
    }


def _run_to_files(run, out_dir: Path, tag: str) -> None:
    traj = SampledSignal(
        sample_rate=1.0 / (run.times[1] - run.times[0]),
        start_time=float(run.times[0]),
        channels=("pos", "vel", "force_field", "force_limb", "alpha"),
        data=np.column_stack([run.position, run.velocity, run.force_field,
                              run.force_limb, run.alpha]),
    )
    write_csv(traj, out_dir / f"{tag}_trajectory.csv")
    ledger = SampledSignal(
        sample_rate=traj.sample_rate,
        start_time=traj.start_time,
        channels=("field_energy", "injected_energy", "observer_w"),
        data=np.column_stack([run.field_energy_series, run.injected_series, run.observer_w]),
    )
    write_csv(ledger, out_dir / f"{tag}_ledger.csv")


def stabilize_study(config: StudyConfig, out_dir, map_path=None) -> dict:
    """Run the configured stabilizer scenario, with and without a GMP map."""
    scenario = config.stabilizer
    out = Path(out_dir) / "stabilize"
    field_spec = _field_from_scenario(scenario)
    perturbation = PerturbationSpec(
        frequency=scenario.frequency_hz,
        amplitude=scenario.amplitude_m,
        direction_index=scenario.direction,
        duration=scenario.duration_s,
    )
    act = ActivationProfile(target_pct_mvc=scenario.activation)

    gmp_map = None
    if map_path is not None:
        gmp_map = load_map_json(map_path)
        try:
            lookup(gmp_map, scenario.direction, scenario.activation, scenario.frequency_hz)
        except MapRangeError as exc:
            raise ConfigError(f"refusing scenario: {exc}") from None

    out.mkdir(parents=True, exist_ok=True)
    common = dict(
        limb=config.limb,
        field=field_spec,
        perturbation=perturbation,
        act=act,
        duration=scenario.duration_s,
        rate=config.rates.robot_hz,
        seed=scenario.seed,
        safety_factor=scenario.safety_factor,
    )
    baseline = run_interconnection(gmp_map=None, **common)
    _run_to_files(baseline, out, "baseline")
    summary = {
        "scenario": {
            "field_kind": field_spec.kind,
            "nominal_sop": field_spec.nominal_sop,
            "frequency_hz": scenario.frequency_hz,
            "direction": scenario.direction,
            "activation": scenario.activation,
            "safety_factor": scenario.safety_factor,
            "seed": scenario.seed,
        },
        "baseline": _run_doc(baseline),
    }
    if gmp_map is not None:
        with_map = run_interconnection(gmp_map=gmp_map, **common)
        _run_to_files(with_map, out, "with_map")
        summary["with_map"] = {**_run_doc(with_map), "eop_budget": with_map.budget_rate}
        if baseline.bounded and with_map.bounded:
            savings = dissipation_savings(with_map, baseline)
            summary["savings"] = {"ratio": savings.ratio, "joules_saved": savings.joules_saved}
    else:
        # a previous run's with-map outputs would otherwise pass for this run's
        for path in out.glob("with_map_*.csv"):
            path.unlink()
    _write_json(out / "summary.json", summary)
    return summary
