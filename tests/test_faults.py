"""Fault injection: damaged or partial study inputs end in typed errors.

Each test damages a copy of one small simulated study and runs
``gmpkit analyze`` in-process, or damages a GMP map JSON and runs
``gmpkit stabilize --map`` on it, so an exception that escaped the CLI's
typed error handling would fail the test.
"""

import json
import math
import re
import shutil

import numpy as np
import pytest

from gmpkit import cli
from gmpkit.biomech import load_trial_csv
from gmpkit.config import load_config
from gmpkit.errors import DataError
from gmpkit.gmp import build_map, save_map_json
from gmpkit.passivity import EopEstimate
from gmpkit.study import SCHEMA_VERSION, _read_manifest, load_manifest, mvc_files, trial_files, trial_plan

STUDY = """
[cohort]
subjects = 2
seed = 31

[protocol]
duration_s = 3.0
analysis_window_s = 2.0
"""


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    path = root / "study.ini"
    path.write_text(STUDY + f"\n[output]\ndir = {root / 'out'}\n")
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    return root / "out"


@pytest.fixture
def study(simulated, tmp_path):
    """A fresh copy of the simulated study and a config that points at it."""
    out = tmp_path / "out"
    shutil.copytree(simulated, out)
    path = tmp_path / "study.ini"
    path.write_text(STUDY + f"\n[output]\ndir = {out}\n")
    return out, path


def analyze(path, capsys):
    code = cli.main(["analyze", "--config", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def rewrite(path, fn):
    np.save(path, fn(np.load(path)))


def test_truncated_trial_is_one_warning(study, capsys):
    out, path = study
    truncate(out / "trials" / "S1_LR_d0.npy")
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_OK
    assert "unreadable trial S1_LR_d0" in err
    summary = json.loads((out / "analysis" / "summary.json").read_text())
    assert summary["n_missing"] == 1
    assert summary["complete_maps"] == ["S2"]


def test_damage_above_budget_fails_analysis(study, capsys):
    out, path = study
    trials = sorted(p for p in (out / "trials").glob("S1_*_d*.npy") if "emg" not in p.name)
    # 4 deleted + 3 torn = 7 of 64 trials, above the 10% budget only when
    # the two kinds of failure are counted together
    for victim in trials[:4]:
        victim.unlink()
    for victim in trials[4:7]:
        truncate(victim)
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert "7/64 trials missing or unreadable" in err


def test_subject_without_high_frequency_trials_has_an_incomplete_map(study, capsys):
    out, path = study
    for victim in (out / "trials").glob("S1_H?_d?.npy"):
        victim.unlink()
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS  # 16 of 64 trials missing, above the budget
    assert "map S1 missing 16 cells" in err
    summary = json.loads((out / "analysis" / "summary.json").read_text())
    assert summary["complete_maps"] == ["S2"]
    assert (out / "analysis" / "gmp_median.json").exists()


def test_nan_sample_is_rejected(study, capsys):
    out, path = study

    def poison(data):
        data[1500, 0] = np.nan
        return data

    rewrite(out / "trials" / "S2_HS_d5.npy", poison)
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_OK
    assert "unreadable trial S2_HS_d5" in err
    assert "1 non-finite samples" in err


def test_deleted_emg_file_is_one_warning(study, capsys):
    out, path = study
    (out / "trials" / "S1_HR_d2_emg.npy").unlink()
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_OK
    assert "unreadable trial S1_HR_d2" in err
    assert "S1_HR_d2_emg.npy" in err


def silence_channel(path):
    """Zero EMG channel 1 of an MVC recording."""
    def silence(data):
        data[:, 1] = 0.0
        return data
    rewrite(path, silence)


@pytest.mark.parametrize(
    "damage, named, reason",
    [
        (lambda paths: paths[1].unlink(), [1], "cannot read"),
        (lambda paths: truncate(paths[0]), [0], "cannot read"),
        (lambda paths: rewrite(paths[1], lambda data: data[:-1]), [1], "6444 samples, expected 6445"),
        (lambda paths: rewrite(paths[0], lambda data: data.astype(np.float64)), [0],
         "expected float32 samples"),
        (lambda paths: [silence_channel(p) for p in paths], [0, 1],
         "a channel recorded no activity during MVC"),
    ],
    ids=["missing", "torn", "short", "float64", "silent-channel"],
)
def test_damaged_mvc_recording_is_a_data_error(study, capsys, damage, named, reason):
    """analyze calibrates %MVC on the mvc/ recordings, so a damaged one stops it before analysis/."""
    out, path = study
    paths = [out / rel for rel in mvc_files("S2")]
    damage(paths)
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert all(str(paths[i]) in err for i in named)
    assert reason in err
    assert not (out / "analysis").exists()


def test_schema_1_manifest_is_a_typed_error(study, capsys):
    out, path = study
    manifest = load_manifest(out)
    manifest["schema_version"] = 1
    del manifest["streams"], manifest["tests"]
    for subject in manifest["subjects"]:
        subject["trials"] = [{"trial_id": t, "csv": f"trials/{t}.csv"} for t in subject["trials"]]
    (out / "manifest.json").write_text(json.dumps(manifest))
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert "schema version 1" in err


def test_schema_2_manifest_is_a_typed_error(study, capsys):
    """Schema 2 listed each trial's cell and files; it is refused, not read."""
    out, path = study
    manifest = load_manifest(out)
    config = load_config(path)
    tests = manifest.pop("tests")
    manifest["schema_version"] = 2
    for subject in manifest["subjects"]:
        subject["trials"] = [
            {"trial_id": trial_id, "test": tests[test_idx]["code"], "direction": condition.direction_index,
             "activation_label": condition.activation_label, "frequency_label": condition.frequency_label,
             "frequency_hz": spec.frequency, "target_pct_mvc": tests[test_idx]["target_pct_mvc"],
             "robot_file": trial_files(trial_id)[0], "emg_file": trial_files(trial_id)[1]}
            for test_idx, trial_id, condition, spec in trial_plan(config, subject["subject_id"])
        ]
    (out / "manifest.json").write_text(json.dumps(manifest))
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert "schema version 2 is not supported" in err
    assert "re-run simulate" in err
    assert not (out / "analysis").exists()


def test_schema_3_manifest_is_a_typed_error(study, capsys):
    """Schema 3 stored float64 EMG and listed the MVC files; it is refused, not read."""
    out, path = study
    manifest = load_manifest(out)
    manifest["schema_version"] = 3
    for stream in manifest["streams"].values():
        del stream["dtype"]
    for subject in manifest["subjects"]:
        subject["mvc_recordings"] = mvc_files(subject["subject_id"])
    (out / "manifest.json").write_text(json.dumps(manifest))
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert "schema version 3 is not supported" in err
    assert "re-run simulate" in err
    assert not (out / "analysis").exists()


def test_schema_4_manifest_is_a_typed_error(study, capsys):
    """Schema 4 stored float64 force and velocity, the cohort seed twice and the MVC levels; it is refused."""
    out, path = study
    manifest = load_manifest(out)
    manifest["schema_version"] = 4
    manifest["seed"] = manifest["config"]["cohort"]["seed"]
    manifest["streams"]["robot"]["dtype"] = "<f8"
    for subject in manifest["subjects"]:
        subject["mvc_rms"] = subject["mvc_rms_true"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert "schema version 4 is not supported" in err
    assert "re-run simulate" in err
    assert not (out / "analysis").exists()


def test_torn_manifest_is_a_data_error(study, capsys):
    out, path = study
    truncate(out / "manifest.json")
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert f"cannot read manifest {out / 'manifest.json'}" in err


def set_test(key, value):
    def edit(doc):
        doc["tests"][0][key] = value
        return doc
    return edit


def edit_trials(fn):
    """Replace the trial ids of subject S2 by ``fn`` of them."""
    def edit(doc):
        doc["subjects"][1]["trials"] = fn(doc["subjects"][1]["trials"])
        return doc
    return edit


def set_key(path, value):
    """Set the key at ``path``; None deletes it."""
    def edit(doc):
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        if value is None:
            del node[key]
        else:
            node[key] = value
        return doc
    return edit


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda doc: {"schema_version": SCHEMA_VERSION}, "missing key 'config'"),
        (lambda doc: [], "expected a JSON object, got list"),
        (set_key(("subjects", 0, "trials"), None), "missing key 'trials'"),
        (set_test("activation_label", "medium"), "test 0 is {'activation_label': 'medium'"),
        (edit_trials(lambda ids: [t.replace("S2_LR_d3", "S2_LR_d9") for t in ids]),
         "subject S2: trial 3 is 'S2_LR_d9', where its config gives 'S2_LR_d3'"),
        (set_test("frequency_hz", 2.0), "'code': 'LR', 'frequency_hz': 2.0,"),
        (set_test("frequency_hz", "1.0"), "'code': 'LR', 'frequency_hz': '1.0',"),
        (edit_trials(lambda ids: ids[:3] + ids[4:]),
         "subject S2: trial 3 is 'S2_LR_d4', where its config gives 'S2_LR_d3'"),
        (edit_trials(lambda ids: ids[:4] + ids[3:]),
         "subject S2: trial 4 is 'S2_LR_d3', where its config gives 'S2_LR_d4'"),
        (edit_trials(lambda ids: ids[:-1]),
         "subject S2: trial 31 is None, where its config gives 'S2_HS_d7'"),
        (edit_trials(lambda ids: ",".join(ids)), "trials must be of type list, got 'S2_LR_d0,"),
        (set_key(("subjects", 1), None), "subject 1 is None, where its config gives 'S2'"),
        (lambda doc: set_key(("subjects", 1), doc["subjects"][0])(doc),
         "subject 1 is 'S1', where its config gives 'S2'"),
        (set_key(("streams", "robot", "rate_hz"), 999.0), "do not match the config's [rates]"),
        (set_key(("streams", "emg", "dtype"), "<f8"), "and the schema's dtype <f4"),
        (set_key(("config", "protocol", "speed_m_s"), 0.1), "unknown key 'speed_m_s' in [protocol]"),
        (set_key(("config", "rates"), []), "[rates] must hold keys and values, got []"),
        (set_key(("config", "protocol", "duration_s"), None), "config lacks [protocol] duration_s"),
        (set_key(("subjects", 0, "test_order"), ["XX"]),
         "subject S1: test_order ['XX'] is not an order of the tests ['LR', 'LS', 'HR', 'HS']"),
        (set_key(("subjects", 0, "test_order"), ["LR", "LS", "HR", "LR"]),
         "subject S1: test_order ['LR', 'LS', 'HR', 'LR'] is not an order"),
        (set_key(("subjects", 0, "mvc_recordings"), ["mvc/nothing.npy"]),
         "subject S1: unknown key 'mvc_recordings'"),
        (set_key(("toolkit_version",), []), "toolkit_version must be of type str, got []"),
        # schema 4's copy of [cohort] seed
        (set_key(("seed",), "x"), "unknown key 'seed'"),
        (set_key(("seed",), 31), "unknown key 'seed'"),
        (set_key(("config", "cohort", "seed"), -1), "cohort.seed must be >= 0, got -1"),
        (set_key(("subjects", 0, "params"), []), "subject S1: params must be of type dict, got []"),
        (set_key(("subjects", 0, "mvc_rms_true"), "none"),
         "subject S1: mvc_rms_true must be of type list, got 'none'"),
        (lambda doc: set_key(("subjects", 0, "params", "mass"), 2 * doc["subjects"][0]["params"]["mass"])(doc),
         "subject S1: params mass = "),
        (set_key(("subjects", 1, "params", "direction_gains"), [1.0] * 8),
         "subject S2: params {'base_damping'"),
        (set_key(("subjects", 1, "mvc_rms_true"), [0.0] * 4), "subject S2: mvc_rms_true 0 = 0.0 is outside"),
        # schema 4's calibrated levels, which analyze now estimates on the mvc/ recordings
        (lambda doc: set_key(("subjects", 0, "mvc_rms"), doc["subjects"][0]["mvc_rms_true"])(doc),
         "subject S1: unknown key 'mvc_rms'"),
        # finite, but the cohort jitter's upper bound is not
        (set_key(("config", "limb", "maxwell_stiffness"), 1.7e308), "limb.maxwell_stiffness must be finite"),
    ],
    ids=["no-config", "a-list", "no-trials", "activation-off-grid", "direction-off-grid",
         "hz-off-grid", "hz-a-string", "trial-dropped", "trial-duplicated", "last-trial-dropped",
         "trials-not-a-list", "subject-dropped", "subject-twice", "robot-rate-off-config",
         "emg-dtype-off-schema", "unknown-protocol-key", "rates-a-list", "no-duration",
         "test-order-off-grid", "test-order-repeats", "mvc-recordings-listed",
         "toolkit-version-not-a-string", "seed-not-an-int", "seed-off-config", "config-seed-negative",
         "params-a-list", "mvc-rms-true-a-string", "mass-doubled", "direction-gains-off-config",
         "mvc-rms-true-zero", "mvc-rms-listed", "limb-overflows-jitter"],
)
def test_wrong_shaped_manifest_is_a_data_error(study, capsys, edit, reason):
    out, path = study
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
    code, err = analyze(path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert f"manifest {manifest_path}: " in err
    assert reason in err
    assert not (out / "analysis").exists()


@pytest.fixture(scope="module")
def analyzed(simulated, tmp_path_factory):
    out = tmp_path_factory.mktemp("analyzed") / "out"
    shutil.copytree(simulated, out)
    path = out.parent / "study.ini"
    path.write_text(STUDY + f"\n[output]\ndir = {out}\n")
    assert cli.main(["analyze", "--config", str(path)]) == cli.EXIT_OK
    return out


def edit_line(number, edit):
    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[number - 1] = edit(lines[number - 1])
        path.write_text("".join(lines))
    return damage


def set_fields(**values):
    """Replace the named columns of an estimates row."""
    columns = {"xi": 4, "pct_mvc": 5, "numerator": 6}

    def edit(line):
        fields = line.rstrip("\n").split(",")
        for name, value in values.items():
            fields[columns[name]] = value
        return ",".join(fields) + "\n"
    return edit


@pytest.mark.parametrize(
    "damage, reason",
    [
        (truncate, r", line \d+: not enough values to unpack"),
        (edit_line(1, lambda line: line.replace("xi", "eop")), "unexpected header"),
        (edit_line(3, lambda line: line.rsplit(",", 1)[0] + "\n"), "line 3: not enough values"),
        (edit_line(4, lambda line: line.replace(",", ",7,", 1)), "line 4: too many values"),
        (edit_line(5, lambda line: line.rsplit(",", 1)[0] + ",-1.0\n"), "line 5: denominator must be > 0"),
        (edit_line(6, lambda line: line.replace(",", ",x", 1)), "line 6: invalid literal for int()"),
        (edit_line(3, lambda line: re.sub(",(relaxed|stiff),", ",medium,", line)),
         "line 3: unknown activation label 'medium'"),
        (edit_line(4, lambda line: re.sub("^([^,]*),[0-9]+,", r"\1,9,", line)),
         "line 4: direction_index out of range: 9"),
        (lambda path: path.write_bytes(path.read_bytes()[:200] + b"\xff\xfe"), "can't decode byte 0xff"),
        (edit_line(3, set_fields(pct_mvc="nan")), "line 3: mean_pct_mvc must be finite, got nan"),
        (edit_line(5, set_fields(pct_mvc="inf")), "line 5: mean_pct_mvc must be finite, got inf"),
        (edit_line(4, set_fields(xi="inf", numerator="inf")), "line 4: xi must be finite, got inf"),
    ],
    ids=["torn", "header", "short-row", "long-row", "bad-estimate", "not-a-number",
         "activation-off-grid", "direction-off-grid", "not-utf8", "pct-mvc-nan", "pct-mvc-inf",
         "xi-inf"],
)
def test_damaged_estimates_csv_is_a_data_error(analyzed, tmp_path, capsys, damage, reason):
    out = tmp_path / "out"
    shutil.copytree(analyzed, out)
    path = tmp_path / "study.ini"
    path.write_text(STUDY + f"\n[output]\ndir = {out}\n")
    csv_path = out / "analysis" / "eop_estimates.csv"
    damage(csv_path)
    code = cli.main(["stats", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_ANALYSIS
    assert "Traceback" not in err
    assert str(csv_path) in err
    assert re.search(reason, err)
    assert not (out / "stats").exists()


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda robot, emg: (robot[:-1], emg), "3000 samples, expected 3001"),
        (lambda robot, emg: (np.vstack([robot, robot[-1:]]), emg), "3002 samples, expected 3001"),
        # the schema-4 layout, whose force and velocity were float64
        (lambda robot, emg: (robot.astype(np.float64), emg), "got float64 (3001, 4)"),
        (lambda robot, emg: (robot[:, :3], emg), "shape (n, 4)"),
        (lambda robot, emg: (robot.ravel(), emg), "shape (n, 4)"),
        # the schema-3 layout, whose EMG was float64
        (lambda robot, emg: (robot, emg.astype(np.float64)), "expected float32 samples"),
        # the robot file holding the EMG array, and the EMG file the robot array
        (lambda robot, emg: (emg, robot), "6445 samples, expected 3001"),
        (lambda robot, emg: (robot, robot), "3001 samples, expected 6445"),
    ],
)
def test_loader_rejects_bad_arrays(simulated, tmp_path, damage, reason):
    """``damage`` maps the stored (robot, EMG) arrays of a trial to the ones written."""
    _, streams, subjects = _read_manifest(load_manifest(simulated), simulated / "manifest.json")
    subject_id, trials = subjects[0]
    _, trial_id, condition, spec = trials[0]
    paths = tmp_path / "trial.npy", tmp_path / "trial_emg.npy"
    arrays = damage(*(np.load(simulated / rel) for rel in trial_files(trial_id)))
    for path, array in zip(paths, arrays):
        np.save(path, array)
    with pytest.raises(DataError, match=re.escape(reason)) as error:
        load_trial_csv(*paths, streams, condition, spec, subject_id)
    assert str(error.value).startswith(tuple(str(path) for path in paths))  # names the file


def edit_map(edit):
    def damage(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return damage


def repeat_low_frequency(doc):
    """A grid of 1 Hz twice, holding only the 1 Hz cells."""
    doc["grid"]["frequencies"] = [1.0, 1.0]
    doc["cells"] = [cell for cell in doc["cells"] if cell["frequency"] == 1.0]


def negative_low_frequency(doc):
    """The 1 Hz cells moved to -1 Hz."""
    doc["grid"]["frequencies"] = [-1.0, 3.0]
    for cell in doc["cells"]:
        if cell["frequency"] == 1.0:
            cell["frequency"] = -1.0


@pytest.mark.parametrize(
    "damage, reason",
    [
        (truncate, "cannot read map"),
        (edit_map(lambda doc: doc["cells"][0].update(xi="nan")), "xi must be a finite number, got 'nan'"),
        (edit_map(lambda doc: doc["cells"][0].update(pct_mvc=math.inf)),
         "pct_mvc must be a finite number, got inf"),
        (edit_map(lambda doc: doc.pop("cells")), "missing key 'cells'"),
        (edit_map(repeat_low_frequency), "grid frequencies must be distinct and > 0, got [1.0, 1.0]"),
        (edit_map(negative_low_frequency), "grid frequencies must be distinct and > 0, got [-1.0, 3.0]"),
    ],
    ids=["torn", "xi-string-nan", "pct-mvc-infinity", "no-cells", "repeated-frequency",
         "negative-frequency"],
)
def test_damaged_map_json_is_a_data_error(tmp_path, capsys, damage, reason):
    map_path = tmp_path / "gmp_damaged.json"
    cells = [
        EopEstimate("MAP", d, act, freq, 10.0, pct, 10.0, 1.0, None, hz)
        for d in range(8)
        for act, pct in (("relaxed", 0.05), ("stiff", 0.40))
        for freq, hz in (("low", 1.0), ("high", 3.0))
    ]
    save_map_json(build_map(cells, "MAP"), map_path)
    damage(map_path)
    path = tmp_path / "study.ini"
    path.write_text(STUDY + f"\n[stabilizer]\nduration_s = 1.0\n\n[output]\ndir = {tmp_path / 'out'}\n")
    code = cli.main(["stabilize", "--config", str(path), "--map", str(map_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_ANALYSIS
    assert "Traceback" not in err
    assert str(map_path) in err
    assert reason in err
    assert not (tmp_path / "out").exists()
