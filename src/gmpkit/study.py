"""End-to-end study pipeline: simulate, analyze, stats, stabilize.

Owns the on-disk layout of a run:

    out/
      manifest.json                         run manifest, schema 10
      mvc/<subject>_rep<k>.emg              MVC calibration EMG codes, (4, n) int16
      trials/<subject>_<test>_d<i>.trial    force/velocity codes fx, fy, vx, vy, (4, n) int16 first
                                            differences in one zlib stream, then the EMG codes at
                                            their native rate, (4, n) int16
      analysis/eop_estimates.csv            one row per estimated cell
      analysis/gmp_<subject>.json           per-subject GMP maps, grid frequencies lowest Hz first
      analysis/gmp_median.json              cohort median map
      analysis/summary.json                 trial counts, complete maps, warnings
      stats/report.json                     statistical report: KS groups, contrasts, slopes
      stabilize/summary.json                the scenario and each run's verdict and energies
      stabilize/<run>_trajectory.csv        per run (baseline, with_map): motion, forces, alpha

``tests/test_outputs.py`` holds this block to what ``gmpkit all`` writes: a
file it does not name, or a line no file matches, fails the suite.

Each stage replaces its outputs whole (``_stage_outputs``): it removes
the old ones when it starts, writes the new ones into ``.gmpkit-staging/``
in the output dir, and renames them into place once all are written,
simulate's ``manifest.json`` last. Simulate first removes ``analysis/``
and ``stats/`` too, and analyze ``stats/``, which were built from the
outputs they replace; ``stabilize/`` depends only on its map and stays. A
stage that fails leaves none of its outputs and no staging dir.

The protocol's tests and their order (LR, LS, HR, HS: low or high
frequency, relaxed or stiff co-activation) come from ``biomech.TESTS``,
and so do the test codes in trial names and the stats groups and
contrasts.

Everything is deterministic for a fixed (config, seed): per-trial random
streams are derived from the identity of the trial, not from execution
order, so parallel workers produce byte-identical files. The trial and
MVC files hold samples only, all of them int16 codes, one row per channel;
their layout, encoding, dtype, per-channel code step (``lsb``), rates,
start time and channel labels are stored once, under "streams" in the
manifest, and their lengths follow from the config
(``biomech.stored_samples``). File names follow from the subject and trial
ids (``mvc_files``, ``trial_file``).

``_manifest`` states the manifest's layout, once. The manifest keeps a
copy of the simulated config, without ``[output]``; the cohort seed is its
``[cohort] seed``. ``analyze`` reads that copy back with the reader of a
config file (``config.config_from_sections``), so it passes the same
checks. Each subject's ``params`` and ``mvc_rms_true`` are simulate's
record of what ``make_cohort`` drew; ``analyze`` does not read them, and
takes them as found, as it does its ``crc32``, the CRC-32 of each of its
files, which the loaders check. The manifest must then be, key for key,
what simulate writes for that config and those values, with
``toolkit_version`` any string. Any disagreement is a ``DataError`` that
names the manifest and the first entry that differs, by its JSON path.
``analyze`` calibrates each subject's %MVC on its ``mvc/`` recordings
(``subject_calibration``), so no calibrated level is stored.
"""

from __future__ import annotations

import json
import reprlib
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from .biomech import (
    ACTIVATION_LABELS,
    FREQUENCY_LABELS,
    N_DIRECTIONS,
    TESTS,
    ActivationProfile,
    PerturbationSpec,
    Subject,
    cohort_subject_id,
    load_samples,
    load_trial_csv,
    make_cohort,
    save_samples,
    save_trial_csv,
    simulate_trial,
    stored_samples,
    trial_streams,
)
from .config import EmgConfig, ScenarioConfig, StudyConfig, config_from_sections, frequency_labels, json_setting
from .emg import MVC_DURATION_S, MVC_RISE_S, MvcCalibration, estimate_mvc, synthesize_emg
from .errors import (ConfigError, DataError, DegenerateSampleError, IncompleteMapError, MapRangeError,
                     SingularFitError, json_field, read_json, write_json)
from .gmp import GmpMap, build_map, fit_trend, load_map_json, lookup, median_map, save_map_json
from .passivity import EopEstimate, estimate_eop, estimates_from_csv, estimates_to_csv
from .signals import SampledSignal, Window, write_csv
from .stabilizer import ForceFieldSpec, dissipation_savings, run_interconnection
from .stats import PairedSample, box_summary, ks_normality, wilcoxon_signed_rank

SCHEMA_VERSION = 10

MVC_REPETITIONS = 2


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
    return [f"mvc/{subject_id}_rep{rep + 1}.emg" for rep in range(MVC_REPETITIONS)]


def trial_file(trial_id: str) -> str:
    """The file of a trial, relative to the study dir."""
    return f"trials/{trial_id}.trial"


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


@contextmanager
def _stage_outputs(out: Path, *names: str, stale: tuple[str, ...] = ()):
    """Replace a stage's outputs ``names`` in ``out`` whole; yields the staging dir to write them into.

    The old outputs go first, after the later stages' outputs ``stale`` that were built from them. The
    staging dir sits in ``out``, so that a rename stays on one filesystem; the new outputs are renamed
    into place, in the order of ``names``, once the body returns, and the staging dir goes whether the
    body returns or raises.
    """
    staging = out / ".gmpkit-staging"
    for path in (staging, *(out / name for name in (*stale, *reversed(names)))):
        _remove(path)
    try:
        yield staging
        for name in names:
            (staging / name).rename(out / name)
    finally:
        _remove(staging)


def trial_plan(config: StudyConfig, subject_id: str) -> list[tuple[int, str, dict, PerturbationSpec]]:
    """A subject's trials in simulation order: ``(test_idx, trial_id, test, spec)``, ``test`` a ``protocol_plan`` row."""
    protocol = config.protocol
    return [
        (test_idx, f"{subject_id}_{test['code']}_d{direction}", test,
         PerturbationSpec(test["frequency_hz"], protocol.amplitude_m, direction, protocol.duration_s))
        for test_idx, test in enumerate(protocol_plan(config))
        for direction in range(N_DIRECTIONS)
    ]


# -- simulate ---------------------------------------------------------------


def _simulate_subject(config: StudyConfig, subject: Subject, subject_idx: int, out_dir: str) -> dict:
    seed, out = config.cohort.seed, Path(out_dir)
    crc32 = {}

    # stage 1: two maximum-effort recordings, which analyze calibrates %MVC on
    emg_stream = trial_streams(config.rates.robot_hz, config.rates.emg_hz)["emg"]
    for rep, rel in enumerate(mvc_files(subject.subject_id)):
        act_signal = _constant_activation_signal(config, MVC_DURATION_S)
        rec = synthesize_emg(
            act_signal,
            subject.mvc_rms,
            np.random.SeedSequence((seed, subject_idx, 90, rep)),
            rate=config.rates.emg_hz,
        )
        crc32[rel] = save_samples(out / rel, rec.data, emg_stream)  # stored as the trial EMG is

    # stage 2: the tests in protocol order, eight directions each; each trial's seed is its cell's
    for test_idx, trial_id, test, spec in trial_plan(config, subject.subject_id):
        trial = simulate_trial(
            subject.params,
            spec,
            ActivationProfile(target_pct_mvc=test["target_pct_mvc"]),
            np.random.SeedSequence((seed, subject_idx, test_idx, spec.direction_index)),
            rate=config.rates.robot_hz,
            mvc_rms=subject.mvc_rms,
            emg_rate=config.rates.emg_hz,
            subject_id=subject.subject_id,
            activation_label=test["activation_label"],
            frequency_label=test["frequency_label"],
        )
        rel = trial_file(trial_id)
        crc32[rel] = save_trial_csv(trial, out / rel)
    return {"params": asdict(subject.params), "mvc_rms_true": list(subject.mvc_rms), "crc32": crc32}


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
    with _stage_outputs(out, "mvc", "trials", "manifest.json", stale=("analysis", "stats")) as staging:
        (staging / "mvc").mkdir(parents=True)
        (staging / "trials").mkdir()
        tasks = [(config, subject, idx, str(staging)) for idx, subject in enumerate(cohort)]
        # a pool starts all its workers at once, so it gets no more than there are subjects
        workers = min(config.output.jobs, len(tasks))
        if workers > 1:
            # imported here: the pool machinery costs a serial run ~20 ms of start-up
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                drawn = list(pool.map(_simulate_subject, *zip(*tasks)))
        else:
            drawn = [_simulate_subject(*task) for task in tasks]
        manifest = _manifest(config, drawn)
        write_json(staging / "manifest.json", manifest)
    return manifest


def _manifest(config: StudyConfig, drawn: list[dict]) -> dict:
    """The manifest of a study of ``config``, the one place that states its layout.

    ``drawn`` holds each subject's ``params``, ``mvc_rms_true`` and
    ``crc32``, in cohort order: simulate's record of the draw and of its
    files, which analyze copies as found. The rest follows from the config.
    """
    subject_ids = [cohort_subject_id(i) for i in range(config.cohort.subjects)]
    return {
        "toolkit_version": __version__,
        "schema_version": SCHEMA_VERSION,
        # [output] (where and with how many workers) does not shape the study
        "config": {k: v for k, v in asdict(config).items() if k != "output"},
        "streams": trial_streams(config.rates.robot_hz, config.rates.emg_hz),
        "tests": protocol_plan(config),
        "subjects": [{"subject_id": subject_id, **values,
                      "trials": [trial_id for _, trial_id, _, _ in trial_plan(config, subject_id)]}
                     for subject_id, values in zip(subject_ids, drawn)],
    }


def load_manifest(out_dir) -> dict:
    """The study's manifest as parsed JSON; one that does not parse is a ``DataError``.

    ``analyze_study`` reads what it needs through ``_read_manifest``.
    """
    return read_json(Path(out_dir) / "manifest.json", "manifest")


_ABSENT = object()  # an entry that one of two compared documents lacks


def _first_difference(found, expected, where: str = "") -> str | None:
    """The first entry, by JSON path, where ``found`` differs from ``expected``, described; else None."""
    if isinstance(found, dict) and isinstance(expected, dict):
        entries = [(f"{where}.{key}" if where else key, found.get(key, _ABSENT), expected.get(key, _ABSENT))
                   for key in sorted(found.keys() | expected.keys())]
    elif isinstance(found, list) and isinstance(expected, list):
        entries = [(f"{where}[{i}]", *pair) for i, pair in enumerate(zip_longest(found, expected, fillvalue=_ABSENT))]
    elif found != expected:
        return f"{where} is {reprlib.repr(found)}, where simulate writes {reprlib.repr(expected)}"
    else:
        return None
    for path, entry, planned in entries:
        if entry is _ABSENT:
            return f"{path} is missing, where simulate writes {reprlib.repr(planned)}"
        if planned is _ABSENT:
            return f"{path} is {reprlib.repr(entry)}, which simulate does not write"
        difference = _first_difference(entry, planned, path)
        if difference:
            return difference
    return None


def _read_manifest(manifest, path) -> tuple[StudyConfig, dict, list, dict[str, int]]:
    """What ``analyze_study`` reads from a parsed manifest, typed and checked.

    Returns ``(config, streams, subjects, crc32)``: the simulated config,
    read as a config file is (``config.config_from_sections``); the streams;
    per subject ``(subject_id, trial_plan(config, subject_id))``; and every
    file's CRC-32, by its path relative to the study dir.

    The manifest must be, key for key, the ``_manifest`` that simulate
    writes for that config, but for ``toolkit_version``, which may be any
    string, and each subject's ``params``, ``mvc_rms_true`` and ``crc32``,
    taken as found; the first two may be left out (analyze does not read
    them), and ``crc32`` must map exactly the subject's files to CRC-32s.

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
    try:
        config = config_from_sections(json_field(source, manifest, "config", dict), source, json_setting)
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    toolkit = json_field(source, manifest, "toolkit_version", str)
    docs = json_field(source, manifest, "subjects", list)
    # the drawn values and checksums as found, the checksums checked below; a subject entry that is not
    # an object, or one left out, draws nothing, so that the comparison names it
    drawn = [{key: subject[key] for key in ("params", "mvc_rms_true", "crc32") if key in subject}
             if isinstance(subject, dict) else {} for subject in docs]
    drawn += [{}] * (config.cohort.subjects - len(drawn))
    # compared as parsed JSON, where a tuple is a list
    expected = {**json.loads(json.dumps(_manifest(config, drawn))), "toolkit_version": toolkit}
    difference = _first_difference(manifest, expected)
    if difference:
        raise DataError(f"{source}: {difference}")
    subjects = [(doc["subject_id"], trial_plan(config, doc["subject_id"])) for doc in docs]
    crc32 = {}
    for i, (doc, (subject_id, trials)) in enumerate(zip(docs, subjects)):
        files = [*mvc_files(subject_id), *(trial_file(trial_id) for _, trial_id, _, _ in trials)]
        crc32.update(_checksums(f"{source}: subjects[{i}].crc32", doc.get("crc32", _ABSENT), files))
    return config, expected["streams"], subjects, crc32


def _checksums(where: str, found, files: list[str]) -> dict[str, int]:
    """``found``, a subject's ``crc32`` map, once it holds a CRC-32 for each of ``files`` and nothing else."""
    if not isinstance(found, dict):
        got = "is missing" if found is _ABSENT else f"is {reprlib.repr(found)}"
        raise DataError(f"{where} {got}, where simulate writes an object of each file's CRC-32")
    missing = [rel for rel in files if rel not in found]
    if missing:
        raise DataError(f"{where} lacks {missing[0]}, which simulate writes")
    extra = sorted(found.keys() - set(files))
    if extra:
        raise DataError(f"{where} names {extra[0]}, which simulate does not write")
    for rel, value in found.items():
        if type(value) is not int or not 0 <= value < 2 ** 32:
            raise DataError(f"{where} holds {reprlib.repr(value)} for {rel}, not a CRC-32 (an integer "
                            f"from 0 to 2^32 - 1)")
    return found


def subject_calibration(out_dir, subject_id: str, streams: dict, emg: EmgConfig,
                        crc32: dict[str, int]) -> MvcCalibration:
    """A subject's MVC levels, estimated on its ``mvc_files`` with the ``[emg]`` envelope settings.

    ``streams`` is the manifest's doc of ``trial_streams``; the recordings
    share its EMG stream and are ``MVC_DURATION_S`` long; ``crc32`` is
    ``_read_manifest``'s. Raises DataError, naming the file, for a
    recording that ``biomech.load_samples`` refuses, and for recordings
    with a channel that shows no activity.
    """
    stream = streams["emg"]
    _, n_samples = stored_samples(MVC_DURATION_S, streams["robot"]["rate_hz"], stream["rate_hz"])
    paths = {rel: Path(out_dir) / rel for rel in mvc_files(subject_id)}
    recordings = [SampledSignal(stream["rate_hz"], stream["start_time_s"], stream["channels"],
                                load_samples(path, [(stream, n_samples)], crc32=crc32[rel])[0])
                  for rel, path in paths.items()]
    try:
        return estimate_mvc(recordings, emg.rms_window_s, emg.rms_stride_s)
    except DegenerateSampleError as exc:
        raise DataError(f"{', '.join(map(str, paths.values()))}: {exc}") from None


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


def analyze_study(out_dir, config: StudyConfig) -> AnalysisResult:
    """Estimate EoP on the analysis window of every trial and build maps.

    The analysis settings, ``protocol.analysis_window_s`` and ``[emg]``,
    come from ``config``; what was simulated (duration, amplitude, rates,
    grid) comes from the manifest. Each subject's %MVC is calibrated on its
    MVC recordings with the same ``[emg]`` settings as the trial envelopes
    (``subject_calibration``). A manifest that ``_read_manifest`` refuses
    and an MVC recording that cannot be read are a ``DataError``, and
    settings that the simulated config with them fails to ``validate()``
    are a ``ConfigError``, all before anything is written; the previous
    ``analysis/`` is gone by then (``_stage_outputs``). A trial whose file
    is absent or unreadable (``biomech.load_samples``) is skipped with a
    warning that names the file relative to the study dir, and counted in
    ``n_missing``.
    """
    out = Path(out_dir)
    path = out / "manifest.json"
    with _stage_outputs(out, "analysis", stale=("stats",)) as staging:
        settings, streams, subjects, crc32 = _read_manifest(load_manifest(out), path)
        settings = replace(settings, emg=config.emg, protocol=replace(
            settings.protocol, analysis_window_s=config.protocol.analysis_window_s))
        try:
            settings.validate()
        except ConfigError as exc:
            raise ConfigError(f"analysis settings for the trials of {path}: {exc}") from None
        protocol, emg_cfg = settings.protocol, settings.emg
        calibrations = [subject_calibration(out, subject_id, streams, emg_cfg, crc32)
                        for subject_id, _ in subjects]
        window = Window(protocol.duration_s - protocol.analysis_window_s, protocol.duration_s)
        grid = dict(frequency_labels(protocol))

        estimates: list[EopEstimate] = []
        warnings: list[str] = []
        maps: dict[str, GmpMap] = {}
        n_expected = sum(len(trials) for _, trials in subjects)
        n_missing = 0
        for (subject_id, trials), cal in zip(subjects, calibrations):
            subject_estimates = []
            for _, trial_id, test, spec in trials:
                rel = trial_file(trial_id)
                try:
                    trial = load_trial_csv(out / rel, streams, spec, subject_id, crc32=crc32[rel],
                                           activation_label=test["activation_label"],
                                           frequency_label=test["frequency_label"])
                except DataError as exc:
                    n_missing += 1
                    # named relative to the study dir, so that the summary does not depend on where it is
                    warnings.append(f"unreadable trial {trial_id}: {str(exc).replace(str(out / rel), rel)}")
                    continue
                subject_estimates.append(estimate_eop(
                    trial, window, cal=cal, feedback_channels=emg_cfg.feedback_channels,
                    rms_window=emg_cfg.rms_window_s, rms_stride=emg_cfg.rms_stride_s))
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

        analysis_dir = staging / "analysis"
        analysis_dir.mkdir(parents=True)
        estimates_to_csv(estimates, analysis_dir / "eop_estimates.csv")
        for subject_id, gmp_map in maps.items():
            save_map_json(gmp_map, analysis_dir / f"gmp_{subject_id}.json")
        if median is not None:
            save_map_json(median, analysis_dir / "gmp_median.json")
        write_json(analysis_dir / "summary.json", {
            "n_expected": n_expected, "n_missing": n_missing,
            "complete_maps": sorted(m.subject_id for m in complete_maps), "warnings": warnings})
    return AnalysisResult(estimates=estimates, maps=maps, median=median, n_expected=n_expected,
                          n_missing=n_missing, warnings=warnings)


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


def _paired_contrast(a: list[float], b: list[float], sidedness: str = "two-sided") -> dict:
    """Wilcoxon doc for a paired contrast; identical groups carry no
    evidence against the null and are reported as p = 1 rather than an
    error."""
    if a and len(a) == len(b) and all(x == y for x, y in zip(a, b)):
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


def stats_study(estimates: list[EopEstimate] | None, out_dir=None) -> dict:
    """Reproduce the study's statistical analysis on a set of estimates.

    Groups the 40 per-test EoP values (subjects x directions), runs the KS
    normality pre-test per group, paired Wilcoxon signed-rank tests for the
    frequency and activation contrasts (paired by subject and direction),
    and compares the per-subject trend-line slopes between frequencies.
    The slope contrast is one-sided (low-frequency slopes greater): it tests
    a directional hypothesis and, with five subjects, a two-sided exact
    signed-rank test cannot reach p < 0.05 at all. A group that lacks a
    (subject, direction) pair of the grid's 8 directions, say for a trial
    analyze could not read, has no tests, even where the direction is
    missing for every subject: its KS entry and each contrast on it are
    ``{"error": ...}`` naming the missing pairs, as is a slope that cannot
    be fitted. Both activation levels are tests of every study; the
    frequencies are those of the estimates.

    With ``out_dir``, the report also goes to its ``stats/``, and
    ``estimates`` may be None: they are then read from its
    ``analysis/eop_estimates.csv`` once the old ``stats/`` is gone, so a
    damaged CSV leaves no stats.
    """
    # without out_dir, the report only: nothing is written or removed
    stage = nullcontext() if out_dir is None else _stage_outputs(Path(out_dir), "stats")
    with stage as staging:
        if estimates is None:
            estimates = estimates_from_csv(Path(out_dir) / "analysis" / "eop_estimates.csv")
        subjects = sorted({e.subject_id for e in estimates})
        if len(subjects) < 2:
            raise DegenerateSampleError(f"stats need >= 2 subjects, got {len(subjects)}")

        by_cell = {(_CODE[e.activation_label, e.frequency_label], e.subject_id, e.direction_index): e
                   for e in estimates}

        # a one-frequency study has no high-frequency tests; every other cell of the grid is expected
        pairing = [(s, d) for s in subjects for d in range(N_DIRECTIONS)]
        freq_labels = sorted({e.frequency_label for e in estimates})
        report: dict = {"groups": {}, "contrasts": {}, "slopes": {}}
        groups: dict[str, list[float]] = {}  # the groups with every (subject, direction) pair
        gaps: dict[str, str] = {}  # why each of the other tests' groups has no test
        for code, _, freq in TESTS:
            if freq not in freq_labels:
                continue  # not a test of this study
            values = [by_cell[(code, s, d)].xi for s, d in pairing if (code, s, d) in by_cell]
            missing = [f"{s} d{d}" for s, d in pairing if (code, s, d) not in by_cell]
            if missing:
                gaps[code] = (f"no estimate for {len(missing)} of {len(pairing)} (subject, direction) pairs: "
                              f"{', '.join(missing)}")
                report["groups"][code] = {"n": len(values), "ks_normality": {"error": gaps[code]}}
                continue
            groups[code] = values
            doc = {"n": len(values), "box": asdict(box_summary(values))}
            try:
                doc["ks_normality"] = _test_result_doc(ks_normality(values))
            except DegenerateSampleError as exc:
                doc["ks_normality"] = {"error": str(exc)}
            report["groups"][code] = doc

        for name, code_a, code_b in _CONTRASTS:
            if code_a not in report["groups"] or code_b not in report["groups"]:
                continue
            doc = {"group_a": code_a, "group_b": code_b}
            lacking = [code for code in (code_a, code_b) if code in gaps]
            if lacking:
                doc["error"] = "; ".join(f"group {code}: {gaps[code]}" for code in lacking)
            else:
                doc.update(_paired_contrast(groups[code_a], groups[code_b]))
            report["contrasts"][name] = doc

        slope_doc: dict = {"per_subject": {}}
        for subject_id in subjects:
            subject_est = [e for e in estimates if e.subject_id == subject_id]
            entry = {}
            for label in freq_labels:
                try:
                    trend = fit_trend(subject_est, label)
                    entry[label] = {"slope": trend.slope, "intercept": trend.intercept,
                                    "rss": trend.rss, "n": trend.n_points}
                except SingularFitError as exc:
                    entry[label] = {"error": str(exc)}
            slope_doc["per_subject"][subject_id] = entry
        if set(freq_labels) >= {_LOW, _HIGH}:
            pairs = [(entry[_LOW]["slope"], entry[_HIGH]["slope"]) for entry in slope_doc["per_subject"].values()
                     if "slope" in entry[_LOW] and "slope" in entry[_HIGH]]
            doc = {"sidedness": "greater", "group_a": f"slope_{_LOW}", "group_b": f"slope_{_HIGH}"}
            doc.update(_paired_contrast([low for low, _ in pairs], [high for _, high in pairs], "greater"))
            slope_doc["contrast"] = doc
        report["slopes"] = slope_doc

        if staging is not None:
            stats_dir = staging / "stats"
            stats_dir.mkdir(parents=True)
            write_json(stats_dir / "report.json", report)
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


def _write_trajectory(run, out_dir: Path, tag: str) -> None:
    """``<tag>_trajectory.csv``: the run's samples. Its ledgers are not written, since
    ``vel``, ``force_field`` and ``alpha`` give them back bit for bit (see the README)."""
    traj = SampledSignal(
        sample_rate=1.0 / (run.times[1] - run.times[0]),
        start_time=float(run.times[0]),
        channels=("pos", "vel", "force_field", "force_limb", "alpha"),
        data=np.column_stack([run.position, run.velocity, run.force_field,
                              run.force_limb, run.alpha]),
    )
    write_csv(traj, out_dir / f"{tag}_trajectory.csv")


def stabilize_study(config: StudyConfig, out_dir, map_path=None) -> dict:
    """Run the configured stabilizer scenario, with and without a GMP map."""
    scenario = config.stabilizer
    field_spec = _field_from_scenario(scenario)
    perturbation = PerturbationSpec(
        frequency=scenario.frequency_hz,
        amplitude=scenario.amplitude_m,
        direction_index=scenario.direction,
        duration=scenario.duration_s,
    )
    act = ActivationProfile(target_pct_mvc=scenario.activation)

    with _stage_outputs(Path(out_dir), "stabilize") as staging:
        gmp_map = None
        if map_path is not None:
            gmp_map = load_map_json(map_path)
            try:
                xi = lookup(gmp_map, scenario.direction, scenario.activation, scenario.frequency_hz)
            except MapRangeError as exc:
                raise ConfigError(f"refusing scenario: {exc}") from None
            except IncompleteMapError as exc:
                raise DataError(f"map {map_path}: {exc}") from None
            # a negative budget debits the observer ledger: the map would add injected damping
            if scenario.safety_factor * xi < 0:
                raise DataError(f"map {map_path}: grants the scenario a negative EoP budget "
                                f"({scenario.safety_factor} x {xi} N*s/m)")

        out = staging / "stabilize"
        out.mkdir(parents=True)
        common = dict(limb=config.limb, field=field_spec, perturbation=perturbation, act=act,
                      duration=scenario.duration_s, rate=config.rates.robot_hz, seed=scenario.seed,
                      safety_factor=scenario.safety_factor)
        baseline = run_interconnection(gmp_map=None, **common)
        _write_trajectory(baseline, out, "baseline")
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
            _write_trajectory(with_map, out, "with_map")
            summary["with_map"] = {**_run_doc(with_map), "eop_budget": with_map.budget_rate}
            if baseline.bounded and with_map.bounded:
                savings = dissipation_savings(with_map, baseline)
                summary["savings"] = {"ratio": savings.ratio, "joules_saved": savings.joules_saved}
        write_json(out / "summary.json", summary)
    return summary
