"""A study's manifest keeps its config in a form that reads back as the same config.

``simulate`` writes the config, less ``[output]``, as JSON into
``manifest.json``, and ``analyze`` reads it back with the reader of a
config file (``config_from_sections``). The round trip must give the
config that was simulated, with ``[output]`` at its defaults.

Each study setting has one default, the config's: the library takes it
from its caller.
"""

import inspect
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gmpkit import cli
from gmpkit.biomech import DEFAULT_MVC_RMS_MV, PerturbationSpec, Subject, make_cohort, simulate_trial, stored_samples
from gmpkit.stabilizer import InterconnectionResult, run_interconnection
from gmpkit.config import (EmgConfig, OutputConfig, ProtocolConfig, StudyConfig, config_from_sections, json_setting,
                           load_config)
from gmpkit.emg import MvcCalibration, estimate_mvc, pct_mvc, synthesize_emg
from gmpkit.errors import ConfigError, WindowRangeError
from gmpkit.passivity import estimate_eop, snap_window_to_periods
from gmpkit.signals import SampledSignal, Window
from gmpkit.study import _read_manifest, load_manifest, mvc_files, trial_file, trial_plan

CONFIGS = {
    "default": "",
    "benchmark-study": (
        "[cohort]\nsubjects = 5\nseed = 1\n"
        "[protocol]\nduration_s = 5.0\nanalysis_window_s = 3.0\n"
        "[stabilizer]\nduration_s = 5.0\nseed = 1\n"
    ),
    "single-frequency": "[protocol]\nfrequencies = 1.0\n",
    "one-feedback-channel": "[emg]\nfeedback_channels = 1\n",
    "delayed-spring": (
        "[stabilizer]\nfield_kind = delayed-spring\nspring_gain = 250\nspring_delay_s = 0.03\n"
    ),
}


def read_ini(tmp_path, text):
    path = tmp_path / "study.ini"
    path.write_text(text + f"\n[output]\ndir = {tmp_path / 'out'}\njobs = 2\n")
    return load_config(path)


@pytest.mark.parametrize("text", CONFIGS.values(), ids=CONFIGS.keys())
def test_manifest_config_reads_back_as_the_config(tmp_path, text):
    config = read_ini(tmp_path, text)
    doc = json.loads(json.dumps({k: v for k, v in asdict(config).items() if k != "output"}))
    assert config_from_sections(doc, "manifest", json_setting) == replace(config, output=OutputConfig())


def test_simulated_manifest_reads_back_as_the_config(tmp_path):
    config = read_ini(tmp_path, "[cohort]\nsubjects = 1\n[protocol]\nduration_s = 2.0\n"
                                "analysis_window_s = 1.0\nfrequencies = 1.0\n")
    assert cli.main(["simulate", "--config", str(tmp_path / "study.ini")]) == cli.EXIT_OK
    out = tmp_path / "out"
    simulated, _, subjects, _ = _read_manifest(load_manifest(out), out / "manifest.json")
    assert simulated == replace(config, output=OutputConfig())
    assert [len(trials) for _, trials in subjects] == [16]


@pytest.mark.parametrize("name", ["default", "benchmark-study", "single-frequency"])
def test_simulated_manifest_reads_back_as_the_trial_plan(tmp_path, name):
    config = read_ini(tmp_path, CONFIGS[name])
    assert cli.main(["simulate", "--config", str(tmp_path / "study.ini")]) == cli.EXIT_OK
    out = tmp_path / "out"
    _, _, subjects, crc32 = _read_manifest(load_manifest(out), out / "manifest.json")
    assert [subject_id for subject_id, _ in subjects] == [f"S{i + 1}" for i in range(config.cohort.subjects)]
    for subject_id, trials in subjects:
        assert trials == trial_plan(config, subject_id)
    files = {trial_file(trial_id) for _, trials in subjects for _, trial_id, _, _ in trials}
    assert files == {f"trials/{path.name}" for path in (out / "trials").iterdir()}
    assert set(crc32) == files | {rel for subject_id, _ in subjects for rel in mvc_files(subject_id)}


# the study settings that each function or record takes from its caller
CALLER_SETTINGS = {
    run_interconnection: ("act", "gmp_map", "duration", "rate", "seed", "safety_factor"),
    PerturbationSpec: ("duration",),
    make_cohort: ("n_subjects", "jitter", "seed", "base"),
    simulate_trial: ("mvc_rms", "emg_rate", "subject_id"),
    Subject: ("mvc_rms",),
    InterconnectionResult: ("seed", "field"),
    synthesize_emg: ("rate",),
    estimate_mvc: ("window_len", "stride"),
    pct_mvc: ("feedback_channels", "window_len", "stride"),
    estimate_eop: ("feedback_channels", "rms_window", "rms_stride"),
}


@pytest.mark.parametrize("function, names", CALLER_SETTINGS.items(),
                         ids=[function.__name__ for function in CALLER_SETTINGS])
def test_study_settings_have_no_library_default(function, names):
    parameters = inspect.signature(function).parameters
    assert [name for name in names if parameters[name].default is not inspect.Parameter.empty] == []


@settings(max_examples=30, deadline=None)
@given(duration=st.floats(1.0, 4.0), analysis_window=st.floats(0.05, 4.0), rms_window=st.floats(0.05, 3.0),
       rms_stride=st.floats(0.005, 0.5), frequency=st.floats(0.5, 8.0))
@example(duration=3.0, analysis_window=1.0, rms_window=2.5, rms_stride=0.05, frequency=1.0)  # refused
@example(duration=3.0, analysis_window=1.0, rms_window=0.25, rms_stride=0.05, frequency=1.0)
def test_validation_agrees_with_the_pct_mvc_readout(duration, analysis_window, rms_window, rms_stride, frequency):
    """A config is refused for its envelope exactly when pct_mvc cannot read a trial's analysis window."""
    assume(analysis_window <= duration and rms_window <= duration)
    config = StudyConfig(protocol=ProtocolConfig(frequencies=(frequency,), duration_s=duration,
                                                 analysis_window_s=analysis_window),
                         emg=EmgConfig(rms_window_s=rms_window, rms_stride_s=rms_stride))
    try:
        config.validate()
        refused = False
    except ConfigError as exc:
        assert "envelope" in str(exc)  # every other check holds by construction
        refused = True
    rates = config.rates
    n_robot, n_emg = stored_samples(duration, rates.robot_hz, rates.emg_hz)
    activation = SampledSignal(rates.robot_hz, 0.0, ("a",), np.full(n_robot, 0.4))
    emg = synthesize_emg(activation, DEFAULT_MVC_RMS_MV, seed=0, rate=rates.emg_hz)
    assert emg.n_samples == n_emg
    window = snap_window_to_periods(Window(duration - analysis_window, duration), frequency, rates.robot_hz)

    def read():
        return pct_mvc(emg, MvcCalibration(DEFAULT_MVC_RMS_MV), window, config.emg.feedback_channels,
                       rms_window, rms_stride)

    if refused:
        with pytest.raises(WindowRangeError):
            read()
    else:
        assert math.isfinite(read())
