import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gmpkit import cli
from gmpkit.config import default_config, frequency_labels, load_config
from gmpkit.errors import ConfigError
from gmpkit.study import analyze_study, load_manifest

TINY = """
[cohort]
subjects = 2
seed = 77

[protocol]
duration_s = 3.0
analysis_window_s = 2.0

[stabilizer]
duration_s = 3.0
"""


def write_config(tmp_path, text=TINY, out=None):
    out = out or tmp_path / "out"
    path = tmp_path / "study.ini"
    path.write_text(text + f"\n[output]\ndir = {out}\n")
    return path, out


def test_default_config_is_valid():
    config = default_config()
    assert config.cohort.subjects == 5
    assert config.protocol.frequencies == (1.0, 3.0)
    assert frequency_labels(config.protocol) == [("low", 1.0), ("high", 3.0)]


def test_load_config_overrides(tmp_path):
    path, out = write_config(tmp_path)
    config = load_config(path)
    assert config.cohort.subjects == 2
    assert config.protocol.duration_s == 3.0
    assert config.output.dir == str(out)
    assert config.rates.robot_hz == 1000.0  # untouched default


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[cohort]\nsubjcts = 5\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[chort]\nsubjects = 5\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[cohort]\nsubjects = five\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[protocol]\nfrequencies = 3.0,1.0\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[emg]\nfeedback_channels = 0,7\n")
    with pytest.raises(ConfigError):
        load_config(path)
    # a read-only property, not a key: every protocol runs all 8 directions
    path.write_text("[protocol]\ndirections = 8\n")
    with pytest.raises(ConfigError, match="unknown key 'directions' in \\[protocol\\]"):
        load_config(path)


def test_single_frequency_protocol(tmp_path):
    path = tmp_path / "single.ini"
    path.write_text("[protocol]\nfrequencies = 1.0\n")
    config = load_config(path)
    assert frequency_labels(config.protocol) == [("low", 1.0)]


def test_simulate_trial_counts_single_subject_one_frequency(tmp_path):
    path, out = write_config(
        tmp_path,
        "[cohort]\nsubjects = 1\nseed = 5\n\n"
        "[protocol]\nduration_s = 3.0\nanalysis_window_s = 2.0\nfrequencies = 1.0\n",
    )
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    manifest = load_manifest(out)
    trials = [t for s in manifest["subjects"] for t in s["trials"]]
    assert len(trials) == 16  # 1 subject x 2 activations x 8 directions
    assert len(list((out / "trials").iterdir())) == 16  # one file per trial: force/velocity, then EMG
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_OK
    result = analyze_study(out, load_config(path))
    assert result.maps["S1"].complete
    assert len(result.maps["S1"].cells) == 16
    assert result.maps["S1"].frequencies == {"low": 1.0}


def test_parallel_workers_match_serial_bytes(tmp_path):
    path_a, out_a = write_config(tmp_path, out=tmp_path / "serial")
    assert cli.main(["simulate", "--config", str(path_a), "--jobs", "1"]) == cli.EXIT_OK
    path_b = tmp_path / "study_b.ini"
    path_b.write_text(TINY + f"\n[output]\ndir = {tmp_path / 'parallel'}\n")
    assert cli.main(["simulate", "--config", str(path_b), "--jobs", "2"]) == cli.EXIT_OK
    # every file, manifest.json included: the manifest records the study,
    # not where or with how many workers it ran
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file())
    assert sum(f.parts[0] == "trials" for f in files) == 64  # 2 subjects x 32 trials
    assert Path("manifest.json") in files
    for name in files:
        assert (parallel / name).read_bytes() == (serial / name).read_bytes(), name


def test_full_pipeline_and_outputs(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    manifest = load_manifest(out)
    assert len(manifest["subjects"]) == 2
    assert all(len(s["trials"]) == 32 for s in manifest["subjects"])
    assert not any("test_order" in s for s in manifest["subjects"])  # the trials run in protocol order
    for name in (
        "analysis/eop_estimates.csv",
        "analysis/gmp_S1.json",
        "analysis/gmp_median.json",
        "stats/report.json",
        "stabilize/summary.json",
        "stabilize/baseline_trajectory.csv",
    ):
        assert (out / name).exists(), name
    assert [p.name for p in (out / "stats").iterdir()] == ["report.json"]  # the report, once
    report = json.loads((out / "stats" / "report.json").read_text())
    for contrast in report["contrasts"].values():
        assert contrast["p_value"] < 0.05
    summary = json.loads((out / "stabilize" / "summary.json").read_text())
    assert summary["baseline"]["verdict"] == "bounded"
    assert "with_map" in summary  # median map picked up automatically


def test_same_seed_runs_are_byte_identical(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    for rel, blob in snapshot.items():
        assert (out / rel).read_bytes() == blob, rel
    assert {p.relative_to(out) for p in out.rglob("*") if p.is_file()} == set(snapshot)


def test_seed_flag_changes_outputs(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path), "--seed", "1"]) == cli.EXIT_OK
    first = (out / "trials" / "S1_LR_d0.trial").read_bytes()
    assert cli.main(["simulate", "--config", str(path), "--seed", "2"]) == cli.EXIT_OK
    assert (out / "trials" / "S1_LR_d0.trial").read_bytes() != first


def test_analyze_tolerates_one_missing_trial(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    victim = out / "trials" / "S1_HS_d3.trial"
    victim.unlink()
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert "unreadable trial S1_HS_d3" in err and "No such file or directory" in err
    result = analyze_study(out, load_config(path))
    assert result.n_missing == 1
    assert len(result.maps["S1"].missing_cells()) == 1
    assert result.median is not None  # S2 still complete
    # stats reports the group that lacks the trial, and each contrast on it, with an error
    assert cli.main(["stats", "--config", str(path)]) == cli.EXIT_OK
    report = json.loads((out / "stats" / "report.json").read_text())
    gap = "no estimate for 1 of 16 (subject, direction) pairs: S1 d3"
    assert report["groups"]["HS"] == {"n": 15, "ks_normality": {"error": gap}}
    assert sorted(report["groups"]) == ["HR", "HS", "LR", "LS"]
    for name, group_a, group_b in (("frequency_effect_stiff", "LS", "HS"), ("activation_effect_high", "HS", "HR")):
        assert report["contrasts"][name] == {"group_a": group_a, "group_b": group_b, "error": f"group HS: {gap}"}
    for name in ("frequency_effect_relaxed", "activation_effect_low"):
        assert "p_value" in report["contrasts"][name]
    # the tests that gave a p-value (two subjects are too few for the slope contrast)
    tested = [*(code for code, doc in report["groups"].items() if "p_value" in doc["ks_normality"]),
              *(name for name, doc in report["contrasts"].items() if "p_value" in doc)]
    assert tested == ["HR", "LR", "LS", "activation_effect_low", "frequency_effect_relaxed"]
    assert "p_value" not in report["slopes"]["contrast"]


def test_stats_pairs_every_group_over_the_grid_directions(tmp_path):
    """A direction missing for every subject leaves every group short, not a smaller complete sample."""
    path, out = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    victims = sorted((out / "trials").glob("*_d3.trial"))
    assert len(victims) == 8  # the files of 8 of the 64 trials: 2 subjects x 4 tests
    for victim in victims:
        victim.unlink()
    # over the missing-trial budget, but analyze still writes its analysis/
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_ANALYSIS
    assert cli.main(["stats", "--config", str(path)]) == cli.EXIT_OK
    report = json.loads((out / "stats" / "report.json").read_text())
    gap = "no estimate for 2 of 16 (subject, direction) pairs: S1 d3, S2 d3"
    assert report["groups"] == {code: {"n": 14, "ks_normality": {"error": gap}} for code in ("LR", "LS", "HR", "HS")}
    assert len(report["contrasts"]) == 4
    for doc in report["contrasts"].values():
        groups = (doc["group_a"], doc["group_b"])
        assert doc == {"group_a": groups[0], "group_b": groups[1],
                       "error": "; ".join(f"group {code}: {gap}" for code in groups)}


def test_analyze_fails_above_missing_budget(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    victims = sorted((out / "trials").glob("S1_*_d*.trial"))
    for victim in victims[:10]:
        victim.unlink()
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_ANALYSIS


def test_stats_accepts_a_study_with_a_slope_that_cannot_be_fitted(tmp_path):
    """15 of 160 trials missing passes analyze; S1 is left one high-frequency estimate, too few for a slope."""
    path, out = write_config(tmp_path, "[cohort]\nsubjects = 5\n[protocol]\nduration_s = 2.0\n"
                                       "analysis_window_s = 1.0\n")
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    for test, last in (("HR", 8), ("HS", 7)):
        for direction in range(last):
            (out / "trials" / f"S1_{test}_d{direction}.trial").unlink()
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_OK
    assert cli.main(["stats", "--config", str(path)]) == cli.EXIT_OK
    slopes = json.loads((out / "stats" / "report.json").read_text())["slopes"]
    assert slopes["per_subject"]["S1"]["high"] == {
        "error": "need >= 2 estimates with frequency label 'high', got 1"}
    assert "slope" in slopes["per_subject"]["S2"]["high"]
    assert slopes["contrast"]["error"] == "paired sample needs n >= 5, got 4"


def test_analyze_takes_analysis_settings_from_its_config(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_OK
    two_seconds = (out / "analysis" / "eop_estimates.csv").read_bytes()
    shorter, _ = write_config(tmp_path, TINY.replace("window_s = 2.0", "window_s = 1.0"), out=out)
    assert cli.main(["analyze", "--config", str(shorter)]) == cli.EXIT_OK
    assert (out / "analysis" / "eop_estimates.csv").read_bytes() != two_seconds


def test_analyze_refuses_window_longer_than_simulated_trials(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    # valid against the config's own 10 s duration, not against the 3 s trials
    longer, _ = write_config(tmp_path, "[protocol]\nanalysis_window_s = 4.0\n", out=out)
    assert cli.main(["analyze", "--config", str(longer)]) == cli.EXIT_CONFIG
    assert "analysis_window_s" in capsys.readouterr().err


def test_analyze_refuses_rms_window_longer_than_simulated_trials(tmp_path, capsys):
    path, out = write_config(
        tmp_path, "[cohort]\nsubjects = 1\n\n[protocol]\nduration_s = 2.0\nanalysis_window_s = 1.0\n"
    )
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    # valid against the config's own 10 s duration, not against the 2 s trials
    longer, _ = write_config(
        tmp_path, "[protocol]\nanalysis_window_s = 1.0\n\n[emg]\nrms_window_s = 5.0\n", out=out
    )
    assert cli.main(["analyze", "--config", str(longer)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rms_window_s" in err and "Traceback" not in err


def test_config_refuses_rms_window_longer_than_recordings(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[protocol]\nduration_s = 2.0\nanalysis_window_s = 1.0\n\n[emg]\nrms_window_s = 5.0\n")
    with pytest.raises(ConfigError):
        load_config(path)
    # the 3 s MVC recordings bound the window too, before anything is simulated
    path, out = write_config(tmp_path, "[emg]\nrms_window_s = 4.0\n")
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_analyze_refuses_window_outside_envelope(tmp_path, capsys):
    path, out = write_config(tmp_path, TINY.replace("subjects = 2", "subjects = 1"))
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    # a 2.5 s RMS window stamps the envelope of the 3 s trials over [1.25, 1.748] s,
    # before the 1 s analysis window (snapped to whole periods: [2, 3] s)
    found, _ = write_config(tmp_path, "[protocol]\nduration_s = 3.0\nanalysis_window_s = 1.0\n\n"
                            "[emg]\nrms_window_s = 2.5\n", out=out)
    with pytest.raises(ConfigError, match="envelope"):
        load_config(found)
    assert cli.main(["analyze", "--config", str(found)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "analysis_window_s" in err and "Traceback" not in err
    # valid against their own 4 s duration; the envelope of the 3 s trials then
    # ends at 1.973 s (RMS window 1.955 s, just outside) or 2.021 s (1.95 s, just inside)
    for rms_window, code in ((1.955, cli.EXIT_CONFIG), (1.95, cli.EXIT_OK)):
        config, _ = write_config(
            tmp_path, "[protocol]\nduration_s = 4.0\nanalysis_window_s = 1.0\n\n"
                      f"[emg]\nrms_window_s = {rms_window}\n", out=out)
        assert cli.main(["analyze", "--config", str(config)]) == code
        assert "Traceback" not in capsys.readouterr().err


def test_failed_reanalysis_removes_stale_median(tmp_path):
    path, out = write_config(
        tmp_path,
        "[cohort]\nsubjects = 1\n\n"
        "[protocol]\nduration_s = 2.0\nanalysis_window_s = 1.0\nfrequencies = 1.0\n",
    )
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_OK
    median = out / "analysis" / "gmp_median.json"
    assert median.exists()
    for victim in ("S1_LR_d0.trial", "S1_LS_d5.trial"):  # 2 of 16 trials
        (out / "trials" / victim).unlink()
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_ANALYSIS
    assert not median.exists()


def test_all_refuses_single_subject_before_simulating(tmp_path, capsys):
    path, out = write_config(tmp_path, TINY.replace("subjects = 2", "subjects = 1"))
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_CONFIG
    assert ">= 2" in capsys.readouterr().err
    assert not out.exists()


def test_stabilize_passive_scenario(tmp_path):
    path, out = write_config(
        tmp_path,
        "[cohort]\nsubjects = 2\nseed = 77\n\n"
        "[protocol]\nduration_s = 3.0\nanalysis_window_s = 2.0\n\n"
        "[stabilizer]\nfield_damping = 4.0\nduration_s = 3.0\n",
    )
    assert cli.main(["stabilize", "--config", str(path)]) == cli.EXIT_OK
    summary = json.loads((out / "stabilize" / "summary.json").read_text())
    assert summary["baseline"]["verdict"] == "bounded"
    assert summary["baseline"]["injected_joules"] == 0.0
    assert summary["scenario"]["nominal_sop"] == 0.0


def test_stabilize_without_map_removes_stale_with_map_outputs(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    stabilize = out / "stabilize"
    assert sorted(p.name for p in stabilize.iterdir()) == [
        "baseline_trajectory.csv", "summary.json", "with_map_trajectory.csv"]
    assert cli.main(["stabilize", "--config", str(path)]) == cli.EXIT_OK
    assert "with_map" not in json.loads((stabilize / "summary.json").read_text())
    assert sorted(p.name for p in stabilize.iterdir()) == ["baseline_trajectory.csv", "summary.json"]


def test_stabilize_refuses_frequency_outside_map(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[cohort]\nsubjects = 2\nseed = 77\n\n"
        "[protocol]\nduration_s = 3.0\nanalysis_window_s = 2.0\n\n"
        f"[stabilizer]\nfrequency_hz = 5.0\nduration_s = 3.0\n\n[output]\ndir = {out}\n"
    )
    code = cli.main(
        ["stabilize", "--config", str(bad), "--map", str(out / "analysis" / "gmp_median.json")]
    )
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("key, value", [
    ("duration_s", "nan"), ("duration_s", "0"), ("frequency_hz", "0"), ("activation", "2"),
    ("spring_delay_s", "nan"), ("amplitude_m", "nan"), ("safety_factor", "nan"),
    ("field_damping", "nan"), ("seed", "-3"), ("frequency_hz", "400"),
])
def test_stabilize_refuses_bad_scenario_values(tmp_path, capsys, key, value):
    path, out = write_config(tmp_path, f"[stabilizer]\n{key} = {value}\n")
    assert cli.main(["stabilize", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"stabilizer.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("protocol", "duration_s", "nan"), ("protocol", "amplitude_m", "nan"),
    ("protocol", "analysis_window_s", "nan"), ("protocol", "frequencies", "nan"),
    ("rates", "robot_hz", "nan"), ("rates", "robot_hz", "inf"), ("rates", "emg_hz", "nan"),
    # finite, but not below the default stiff_target = 0.40, so the labels would swap
    ("protocol", "relaxed_target", "0.4"), ("protocol", "stiff_target", "0.05"),
])
def test_simulate_refuses_non_finite_protocol_values(tmp_path, capsys, section, key, value):
    path, out = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{section}.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "stabilize", "all"])
def test_robot_rate_below_the_cosimulation_floor_is_refused_before_any_output(tmp_path, capsys, command):
    # 500 Hz samples the protocol's 3 Hz well enough, but the co-simulation needs 1 kHz
    path, out = write_config(tmp_path, TINY + "\n[rates]\nrobot_hz = 500\n")
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rates.robot_hz" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("mass", "inf"), ("direction_gains", "1,1,1,1,1,1,1,nan"),
    ("maxwell_damping_gain", "nan"), ("maxwell_damping_base", "inf"),
    ("maxwell_stiffness", "1.7e308"),  # finite, but the cohort's jitter takes it to inf
])
def test_simulate_refuses_non_finite_limb_values(tmp_path, capsys, key, value):
    path, out = write_config(tmp_path, TINY + f"\n[limb]\n{key} = {value}\n")
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{key} must be finite" in err
    assert not out.exists()


# 2 kg driven at 10 Hz over 10 cm: about 790 N of inertia, past the +/-512 N rails of the force codes
PAST_FORCE_RAIL = ("[cohort]\nsubjects = 2\n[protocol]\nfrequencies = 10.0\namplitude_m = 0.1\n"
                   "duration_s = 1.0\nanalysis_window_s = 0.5\n")
# a near-massless, near-free limb driven at 1 Hz over 1.5 m: 9.4 m/s under 1 N, past the +/-8 m/s rails
PAST_VELOCITY_RAIL = ("[cohort]\nsubjects = 2\n[limb]\nmass = 0.01\nbase_damping = 0.01\nstiffness = 0.01\n"
                      "maxwell_damping_base = 0\nmaxwell_damping_gain = 0\n[protocol]\nfrequencies = 1.0\n"
                      "amplitude_m = 1.5\nduration_s = 2.0\nanalysis_window_s = 1.0\n")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("text, reason", [
    (PAST_FORCE_RAIL, r"recorded fx reaches -\d+\.?\d* N, beyond the rails of its 16-bit codes, -512 to 511\.984 N"),
    (PAST_VELOCITY_RAIL,
     r"recorded vx reaches -\d+\.?\d* m/s, beyond the rails of its 16-bit codes, -8 to 7\.99976 m/s"),
], ids=["force", "velocity"])
def test_simulate_refuses_a_sample_beyond_a_rail(tmp_path, capsys, text, reason, jobs):
    """A trial that saturates its 16-bit codes fails simulate, which leaves no study behind, not even the old one."""
    path, out = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    path, _ = write_config(tmp_path, text, out)
    assert cli.main(["simulate", "--config", str(path), "--jobs", str(jobs)]) == cli.EXIT_ANALYSIS
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.fullmatch(f"error: {reason}\n", err), err
    assert sorted(p.name for p in out.iterdir()) == []


@pytest.mark.parametrize("text, flags", [(TINY, ["--seed", "-1"]),
                                         (TINY.replace("seed = 77", "seed = -1"), [])],
                         ids=["flag", "config"])
def test_simulate_refuses_a_negative_seed(tmp_path, capsys, text, flags):
    path, out = write_config(tmp_path, text)
    assert cli.main(["simulate", "--config", str(path), *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "cohort.seed must be >= 0, got -1" in err
    assert not out.exists()


def subcommand_flags() -> dict[str, list[str]]:
    """The long flags of each subcommand of the parser, in the order ``--help`` lists them."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [flag for action in cmd._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"]
            for name, cmd in sub.choices.items()}


def test_each_subcommand_takes_only_the_flags_it_reads():
    assert subcommand_flags() == {
        "simulate": ["--config", "--seed", "--out", "--jobs"],
        "analyze": ["--config", "--out"],
        "stats": ["--config", "--out"],
        "stabilize": ["--config", "--out", "--map"],
        "all": ["--config", "--seed", "--out", "--jobs", "--map"],
    }


@pytest.mark.parametrize("argv", [["analyze", "--seed", "1"], ["stats", "--jobs", "2"],
                                  ["stabilize", "--seed", "1"]], ids=lambda argv: "-".join(argv[:2]))
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    path, out = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "all"])
def test_simulating_subcommands_take_seed_and_jobs(tmp_path, command):
    path, _ = write_config(tmp_path)
    args = cli._build_parser().parse_args([command, "--config", str(path), "--seed", "3", "--jobs", "2"])
    config = cli._load(args)
    assert (config.cohort.seed, config.output.jobs) == (3, 2)


def test_simulate_removes_the_analysis_and_report_it_makes_stale(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    assert cli.main(["simulate", "--config", str(path), "--seed", "5"]) == cli.EXIT_OK
    assert not (out / "analysis").exists() and not (out / "stats").exists()
    assert (out / "stabilize").is_dir()  # built from its map alone
    capsys.readouterr()
    assert cli.main(["stats", "--config", str(path)]) == cli.EXIT_IO
    assert "Traceback" not in capsys.readouterr().err


def test_stats_requires_analysis_outputs(tmp_path):
    path, out = write_config(tmp_path)
    assert cli.main(["stats", "--config", str(path)]) == cli.EXIT_IO


def test_missing_config_file_is_io_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.ini")]) == cli.EXIT_IO


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[cohort]\nsubjects = 0\n")
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[cohort]\nseed = 1\n# caf\xe9\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {path}: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_out_dir_collision_is_io_error(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    path, _ = write_config(tmp_path, out=blocker)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_IO


def test_version_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "gmpkit", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gmpkit 0.1.0" in proc.stdout
    assert "format schema 10" in proc.stdout
