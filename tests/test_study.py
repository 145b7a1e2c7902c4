import zlib
from dataclasses import replace

import numpy as np
import pytest

from gmpkit.biomech import make_cohort, stored_samples
from gmpkit.emg import estimate_mvc, synthesize_emg
from gmpkit.errors import DegenerateSampleError
from gmpkit.passivity import EopEstimate
from gmpkit.study import (
    MVC_DURATION_S,
    MVC_REPETITIONS,
    _constant_activation_signal,
    mvc_files,
    protocol_plan,
    simulate_study,
    stats_study,
    subject_calibration,
    trial_file,
)
from gmpkit.config import default_config


def grid_estimates(xi_fn, subjects=("S1", "S2")):
    out = []
    for subject in subjects:
        for d in range(8):
            for act, pct in (("relaxed", 0.05), ("stiff", 0.40)):
                for freq, hz in (("low", 1.0), ("high", 3.0)):
                    xi = xi_fn(subject, d, act, freq)
                    out.append(
                        EopEstimate(subject, d, act, freq, xi, pct, xi, 1.0, None, hz)
                    )
    return out


def test_plan_covers_four_tests():
    plan = protocol_plan(default_config())
    assert [t["code"] for t in plan] == ["LR", "LS", "HR", "HS"]
    assert {t["frequency_hz"] for t in plan} == {1.0, 3.0}
    assert {t["target_pct_mvc"] for t in plan} == {0.05, 0.40}


def test_stats_identical_groups_report_p_one():
    # groups identical across every contrast axis: no evidence, p = 1, no mark
    estimates = grid_estimates(lambda s, d, act, freq: 20.0 + d)
    report = stats_study(estimates)
    for doc in report["contrasts"].values():
        assert doc["p_value"] == 1.0
        assert doc["mark"] == ""
        assert doc["method"] == "degenerate-zero-differences"
    assert report["slopes"]["contrast"]["p_value"] == 1.0


def test_stats_detects_synthetic_effects():
    def xi_fn(subject, d, act, freq):
        value = 20.0 + d + (0.3 if subject == "S2" else 0.0)
        value += 6.0 if act == "stiff" else 0.0
        value += 4.0 if freq == "low" else 0.0
        value += 2.0 if (act, freq) == ("stiff", "low") else 0.0  # slope interaction
        return value

    report = stats_study(grid_estimates(xi_fn))
    for doc in report["contrasts"].values():
        assert doc["p_value"] < 0.05
        assert doc["n"] == 16
    slopes = report["slopes"]["per_subject"]
    for subject in ("S1", "S2"):
        assert slopes[subject]["low"]["slope"] > slopes[subject]["high"]["slope"]
    # only two subjects: the slope contrast cannot run, reported not fatal
    assert "error" in report["slopes"]["contrast"]


def test_stats_reports_a_slope_that_cannot_be_fitted():
    """A subject with one high-frequency estimate has no high slope; the contrast pairs the others."""
    def xi_fn(subject, d, act, freq):
        return 20.0 + d + (6.0 if act == "stiff" else 0.0) + (2.0 if (act, freq) == ("stiff", "low") else 0.0)

    subjects = tuple(f"S{i}" for i in range(1, 7))
    estimates = [e for e in grid_estimates(xi_fn, subjects) if e.subject_id != "S1" or e.frequency_label == "low"
                 or (e.direction_index, e.activation_label) == (0, "stiff")]
    slopes = stats_study(estimates)["slopes"]
    assert slopes["per_subject"]["S1"]["high"] == {
        "error": "need >= 2 estimates with frequency label 'high', got 1"}
    assert slopes["per_subject"]["S1"]["low"]["n"] == 16
    assert slopes["contrast"]["n"] == 5
    assert slopes["contrast"]["p_value"] == 1 / 32  # all five differences positive
    # no subject with both slopes: nothing to pair, an error and not p = 1
    no_high = [e for e in estimates if e.frequency_label == "low" or e.subject_id == "S1"]
    assert stats_study(no_high)["slopes"]["contrast"]["error"] == "paired sample needs n >= 5, got 0"


def test_stats_requires_two_subjects():
    with pytest.raises(DegenerateSampleError):
        stats_study(grid_estimates(lambda s, d, a, f: 10.0, subjects=("S1",)))


def test_store_size_is_headers_plus_samples(tmp_path):
    """Every file of mvc/ is 4 x n int16 EMG codes, nothing more; every file of trials/ one zlib stream of
    4 x n int16 differences, then 4 x n int16 EMG codes, nothing more; each has its CRC-32 in the manifest."""
    config = default_config()
    config = replace(config, cohort=replace(config.cohort, subjects=2),
                     protocol=replace(config.protocol, duration_s=2.0, analysis_window_s=1.0))
    manifest = simulate_study(config, tmp_path)
    assert {kind: (stream["layout"], stream["encoding"], stream["dtype"])
            for kind, stream in manifest["streams"].items()} == {
        "robot": ("channel-major", "zlib-delta", "<i2"), "emg": ("channel-major", "raw", "<i2")}
    robot_hz, emg_hz = config.rates.robot_hz, config.rates.emg_hz
    n_robot, n_emg = stored_samples(2.0, robot_hz, emg_hz)
    n_mvc = stored_samples(MVC_DURATION_S, robot_hz, emg_hz)[1]
    assert (n_robot, n_emg, n_mvc) == (2001, 4297, 6445)
    expected = {}  # file -> EMG samples per channel
    crc32 = {}
    for subject in manifest["subjects"]:
        for rel in mvc_files(subject["subject_id"]):
            expected[rel] = n_mvc
        for trial_id in subject["trials"]:
            expected[trial_file(trial_id)] = n_emg
        crc32.update(subject["crc32"])
    files = [path for folder in ("trials", "mvc") for path in (tmp_path / folder).iterdir()]
    assert sorted(path.relative_to(tmp_path).as_posix() for path in files) == sorted(expected) == sorted(crc32)
    assert len(expected) == 2 * (32 + 2)
    for rel, n_samples in expected.items():
        blob = (tmp_path / rel).read_bytes()
        assert zlib.crc32(blob) == crc32[rel], rel
        if rel.endswith(".trial"):
            inflater = zlib.decompressobj()
            assert len(inflater.decompress(blob)) == n_robot * 4 * 2, rel
            assert inflater.eof, rel
            assert len(blob) - len(inflater.unused_data) < n_robot * 4 * 2 / 5, rel  # the smooth stream deflates
            blob = inflater.unused_data
        assert len(blob) == n_samples * 4 * 2, rel


def test_calibration_reads_back_the_levels_of_the_simulated_recordings(tmp_path):
    """analyze's MVC levels are estimate_mvc of the recordings simulate synthesized, bit for bit."""
    config = default_config()
    config = replace(config, cohort=replace(config.cohort, subjects=2),
                     protocol=replace(config.protocol, frequencies=(1.0,), duration_s=2.0,
                                      analysis_window_s=1.0))
    manifest = simulate_study(config, tmp_path)
    cohort = make_cohort(2, config.cohort.jitter, config.cohort.seed, config.limb)
    for idx, subject in enumerate(cohort):
        recordings = [
            synthesize_emg(_constant_activation_signal(config, MVC_DURATION_S), subject.mvc_rms,
                           np.random.SeedSequence((config.cohort.seed, idx, 90, rep)), rate=config.rates.emg_hz)
            for rep in range(MVC_REPETITIONS)
        ]
        expected = estimate_mvc(recordings, config.emg.rms_window_s, config.emg.rms_stride_s)
        assert subject_calibration(tmp_path, subject.subject_id, manifest["streams"], config.emg,
                                   manifest["subjects"][idx]["crc32"]) == expected


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps in this process."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("subjects, jobs, pools", [(2, 8, [2]), (1, 8, []), (2, 1, [])])
def test_simulate_asks_for_no_more_workers_than_subjects(tmp_path, monkeypatch, subjects, jobs, pools):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "max_workers", [])
    config = default_config()
    config = replace(config, cohort=replace(config.cohort, subjects=subjects),
                     protocol=replace(config.protocol, frequencies=(1.0,), duration_s=1.0,
                                      analysis_window_s=1.0),
                     output=replace(config.output, jobs=jobs))
    manifest = simulate_study(config, tmp_path)
    assert RecordingPool.max_workers == pools
    assert len(manifest["subjects"]) == subjects
