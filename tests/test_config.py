"""A study's manifest keeps its config in a form that reads back as the same config.

``simulate`` writes the config, less ``[output]``, as JSON into
``manifest.json``, and ``analyze`` reads it back with the reader of a
config file (``config_from_sections``). The round trip must give the
config that was simulated, with ``[output]`` at its defaults.
"""

import json
from dataclasses import asdict, replace

import pytest

from gmpkit import cli
from gmpkit.config import OutputConfig, config_from_sections, json_setting, load_config
from gmpkit.study import _read_manifest, load_manifest, trial_files, trial_plan

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
    simulated, _, subjects = _read_manifest(load_manifest(out), out / "manifest.json")
    assert simulated == replace(config, output=OutputConfig())
    assert [len(trials) for _, trials in subjects] == [16]


@pytest.mark.parametrize("name", ["default", "benchmark-study", "single-frequency"])
def test_simulated_manifest_reads_back_as_the_trial_plan(tmp_path, name):
    config = read_ini(tmp_path, CONFIGS[name])
    assert cli.main(["simulate", "--config", str(tmp_path / "study.ini")]) == cli.EXIT_OK
    out = tmp_path / "out"
    _, _, subjects = _read_manifest(load_manifest(out), out / "manifest.json")
    assert [subject_id for subject_id, _ in subjects] == [f"S{i + 1}" for i in range(config.cohort.subjects)]
    for subject_id, trials in subjects:
        assert trials == trial_plan(config, subject_id)
    files = {rel for _, trials in subjects for _, trial_id, _, _ in trials for rel in trial_files(trial_id)}
    assert files == {f"trials/{path.name}" for path in (out / "trials").iterdir()}
