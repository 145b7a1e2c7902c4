from dataclasses import replace

import numpy as np
import pytest

from gmpkit.errors import DegenerateSampleError
from gmpkit.passivity import EopEstimate
from gmpkit.study import MVC_DURATION_S, mvc_files, protocol_plan, simulate_study, stats_study, trial_files
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


def test_stats_requires_two_subjects():
    with pytest.raises(DegenerateSampleError):
        stats_study(grid_estimates(lambda s, d, a, f: 10.0, subjects=("S1",)))


def npy_header_size(path) -> int:
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        np.lib.format.read_array_header_1_0(fh)
        return fh.tell()


def test_store_size_is_headers_plus_samples(tmp_path):
    """trials/ and mvc/ hold 4-channel float64 robot and float32 EMG samples, nothing more."""
    config = default_config()
    config = replace(config, cohort=replace(config.cohort, subjects=2),
                     protocol=replace(config.protocol, duration_s=2.0, analysis_window_s=1.0))
    manifest = simulate_study(config, tmp_path)
    itemsize = {kind: np.dtype(stream["dtype"]).itemsize for kind, stream in manifest["streams"].items()}
    assert itemsize == {"robot": 8, "emg": 4}
    robot_hz, emg_hz = config.rates.robot_hz, config.rates.emg_hz
    expected = {}  # file -> bytes of samples
    for subject in manifest["subjects"]:
        for rel in mvc_files(subject["subject_id"]):
            expected[rel] = (round(MVC_DURATION_S * emg_hz) + 1) * 4 * itemsize["emg"]
        for trial_id in subject["trials"]:
            robot_file, emg_file = trial_files(trial_id)
            expected[robot_file] = (round(2.0 * robot_hz) + 1) * 4 * itemsize["robot"]
            expected[emg_file] = (round(2.0 * emg_hz) + 1) * 4 * itemsize["emg"]
    files = [path for folder in ("trials", "mvc") for path in (tmp_path / folder).iterdir()]
    assert sorted(path.relative_to(tmp_path).as_posix() for path in files) == sorted(expected)
    assert len(expected) == 2 * (64 + 2)
    assert sum(path.stat().st_size for path in files) == sum(
        npy_header_size(tmp_path / rel) + size for rel, size in expected.items())


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps in this process."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


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
