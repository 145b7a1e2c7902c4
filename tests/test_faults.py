"""Fault injection: damaged or partial study inputs end in typed errors.

Each test damages a copy of one small study, or a GMP map JSON, and runs
the stage that reads it in-process, so an exception that escaped the CLI's
typed error handling would fail the test. The damage sweep at the end takes
every file of the ``study.py`` layout block that a stage reads, empties,
halves, cuts, extends, bit-flips, replaces or deletes it (hypothesis picks
the file, the bit and the bytes, the same on every run), and checks the
stage's exit code and outputs; the cases before it pin particular defects.
"""

import io
import json
import math
import re
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gmpkit import cli, study as study_module
from gmpkit.biomech import TESTS, load_samples, load_trial_csv, stored_samples
from gmpkit.config import load_config
from gmpkit.emg import EMG_LSB_MV
from gmpkit.errors import DataError
from gmpkit.gmp import build_map, save_map_json
from gmpkit.passivity import EopEstimate
from gmpkit.study import SCHEMA_VERSION, _read_manifest, load_manifest, mvc_files, trial_file, trial_plan
from test_biomech import trial_codes
from test_outputs import layout_paths, layout_pattern, output_files

STUDY = """
[cohort]
subjects = 2
seed = 31

[protocol]
duration_s = 3.0
analysis_window_s = 2.0

[stabilizer]
duration_s = 1.0
"""


def config_for(out):
    """The path of a config of ``STUDY`` whose output dir is ``out``, written next to it."""
    path = out.parent / "study.ini"
    path.write_text(STUDY + f"\n[output]\ndir = {out}\n")
    return path


def copy_study(source, root):
    """A copy of the study ``source`` at ``root / "out"``, and the path of a config that points at it."""
    out = root / "out"
    shutil.copytree(source, out)
    return out, config_for(out)


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("faults") / "out"
    assert cli.main(["simulate", "--config", str(config_for(out))]) == cli.EXIT_OK
    return out


@pytest.fixture
def study(simulated, tmp_path):
    """A fresh copy of the simulated study and a config that points at it."""
    return copy_study(simulated, tmp_path)


def gmpkit(command, path, capsys, *args):
    """``gmpkit <command>`` in-process on the config at ``path``: its exit code and stderr, which holds no traceback."""
    code = cli.main([command, "--config", str(path), *args])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def rewrite(out, rel, blob):
    """Write ``blob`` as the file ``rel`` of the study ``out``, and its CRC-32 into the manifest."""
    (out / rel).write_bytes(blob)
    manifest = load_manifest(out)
    for subject in manifest["subjects"]:
        if rel in subject["crc32"]:
            subject["crc32"][rel] = zlib.crc32(blob)
    (out / "manifest.json").write_text(json.dumps(manifest))


def mvc_codes(path):
    """The (4, n) int16 codes of an MVC file."""
    return np.fromfile(path, "<i2").reshape(4, -1)


def npy_bytes(array):
    """The bytes ``np.save`` writes for ``array``."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def test_missing_trial_warning_does_not_depend_on_the_output_dir(simulated, tmp_path, capsys):
    summaries = []
    for out in (tmp_path / "a" / "out", tmp_path / "another" / "place"):
        shutil.copytree(simulated, out)
        (out / "trials" / "S1_LR_d0.trial").unlink()
        assert gmpkit("analyze", config_for(out), capsys)[0] == cli.EXIT_OK
        summaries.append((out / "analysis" / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0])["warnings"] == [
        "unreadable trial S1_LR_d0: cannot read trials/S1_LR_d0.trial: No such file or directory",
        "map S1 missing 1 cells",
        "median map computed over complete maps only",
    ]


def test_damage_above_budget_fails_analysis(study, capsys):
    out, path = study
    trials = sorted((out / "trials").glob("S1_*_d*.trial"))
    # 4 deleted + 3 torn = 7 of 64 trials, above the 10% budget only when
    # the two kinds of failure are counted together
    for victim in trials[:4]:
        victim.unlink()
    for victim in trials[4:7]:
        truncate(victim)
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert "7/64 trials missing or unreadable" in err


def test_subject_without_high_frequency_trials_has_an_incomplete_map(study, capsys):
    out, path = study
    for victim in (out / "trials").glob("S1_H?_d?.trial"):
        victim.unlink()
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_ANALYSIS  # 16 of 64 trials missing, above the budget
    assert "map S1 missing 16 cells" in err
    summary = json.loads((out / "analysis" / "summary.json").read_text())
    assert summary["complete_maps"] == ["S2"]
    assert (out / "analysis" / "gmp_median.json").exists()


def silence_channel(out, rel):
    """Zero EMG channel 1, the second row, of an MVC recording, with its CRC-32 in the manifest."""
    codes = mvc_codes(out / rel)
    codes[1] = 0
    rewrite(out, rel, codes.tobytes())


@pytest.mark.parametrize(
    "damage, named, reason",
    [
        (lambda out, files: (out / files[1]).unlink(), [1], "cannot read"),
        (lambda out, files: truncate(out / files[0]), [0], "the file's bytes do not match the manifest's CRC-32"),
        # the rest with their CRC-32 in the manifest, so that the decoder refuses them
        (lambda out, files: rewrite(out, files[1], mvc_codes(out / files[1])[:, :-1].tobytes()), [1],
         "6444 samples, expected 6445"),
        # the schema-3 layout, whose EMG was float64, and the schema-5 layout, whose EMG was float32 mV
        (lambda out, files: rewrite(out, files[0], mvc_codes(out / files[0]).astype(np.float64).tobytes()), [0],
         "longer than the 51560 bytes its samples can take"),
        (lambda out, files: rewrite(out, files[1], (mvc_codes(out / files[1]) * EMG_LSB_MV).astype(np.float32)
                                    .tobytes()), [1], "longer than the 51560 bytes its samples can take"),
        (lambda out, files: [silence_channel(out, rel) for rel in files], [0, 1],
         "a channel recorded no activity during MVC"),
    ],
    ids=["missing", "torn", "short", "float64", "float32", "silent-channel"],
)
def test_damaged_mvc_recording_is_a_data_error(study, capsys, damage, named, reason):
    """analyze calibrates %MVC on the mvc/ recordings, so a damaged one stops it before analysis/."""
    out, path = study
    files = mvc_files("S2")
    paths = [out / rel for rel in files]
    damage(out, files)
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert all(str(paths[i]) in err for i in named)
    assert reason in err
    assert not (out / "analysis").exists()


def schema_1(doc, config):
    """Each trial as one CSV, with no streams or tests table."""
    del doc["streams"], doc["tests"]
    for subject in doc["subjects"]:
        subject["trials"] = [{"trial_id": t, "csv": f"trials/{t}.csv"} for t in subject["trials"]]


def schema_2(doc, config):
    """Each trial's cell and files listed."""
    del doc["tests"]
    for subject in doc["subjects"]:
        subject["trials"] = [
            {"trial_id": trial_id, "test": test["code"], "direction": spec.direction_index,
             "activation_label": test["activation_label"], "frequency_label": test["frequency_label"],
             "frequency_hz": spec.frequency, "target_pct_mvc": test["target_pct_mvc"],
             "robot_file": f"trials/{trial_id}.zlib", "emg_file": f"trials/{trial_id}_emg.npy"}
            for _, trial_id, test, spec in trial_plan(config, subject["subject_id"])
        ]


def schema_3(doc, config):
    """float64 EMG, and the MVC files listed."""
    for stream in doc["streams"].values():
        del stream["dtype"]
    for subject in doc["subjects"]:
        subject["mvc_recordings"] = mvc_files(subject["subject_id"])


def schema_4(doc, config):
    """float64 force and velocity, the cohort seed twice and the MVC levels."""
    doc["seed"] = doc["config"]["cohort"]["seed"]
    doc["streams"]["robot"]["dtype"] = "<f8"
    for subject in doc["subjects"]:
        subject["mvc_rms"] = subject["mvc_rms_true"]


def schema_5(doc, config):
    """The EMG as float32 mV, with no code step."""
    doc["streams"]["robot"]["dtype"] = doc["streams"]["emg"]["dtype"] = "<f4"
    for stream in doc["streams"].values():
        del stream["lsb"]


def schema_6(doc, config):
    """Force and velocity as float32, and the EMG code step as lsb_mv."""
    robot, emg = doc["streams"]["robot"], doc["streams"]["emg"]
    robot["dtype"] = "<f4"
    del robot["lsb"]
    emg["lsb_mv"] = emg.pop("lsb")[0]


def schema_7(doc, config):
    """A test_order per subject, which the trials did not run in."""
    for subject in doc["subjects"]:
        subject["test_order"] = ["HS", "LR", "HR", "LS"]


def schema_8(doc, config):
    """Every array as an (n, 4) .npy, the robot stream raw."""
    for stream in doc["streams"].values():
        del stream["layout"], stream["encoding"]


def schema_9(doc, config):
    """Each trial as a robot file and an EMG .npy, with no CRC-32."""
    doc["streams"]["emg"]["encoding"] = "npy"
    for subject in doc["subjects"]:
        del subject["crc32"]


@pytest.mark.parametrize(
    "version, edit, message",
    [
        (1, schema_1, "schema version 1"),
        (2, schema_2, "schema version 2 is not supported"),
        (3, schema_3, "schema version 3 is not supported"),
        (4, schema_4, "schema version 4 is not supported"),
        (5, schema_5, "manifest {manifest}: schema version 5 is not supported"),
        (6, schema_6, "manifest {manifest}: schema version 6 is not supported"),
        (7, schema_7, "manifest {manifest}: schema version 7 is not supported"),
        (8, schema_8, "manifest {manifest}: schema version 8 is not supported"),
        (9, schema_9, "manifest {manifest}: schema version 9 is not supported"),
    ],
    ids=[f"schema-{version}" for version in range(1, 10)],
)
def test_retired_schema_manifest_is_a_typed_error(study, capsys, version, edit, message):
    """A manifest of each retired schema, rebuilt from this one by ``edit``, is refused, not read."""
    out, path = study
    manifest = load_manifest(out)
    manifest["schema_version"] = version
    edit(manifest, load_config(path))
    (out / "manifest.json").write_text(json.dumps(manifest))
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert message.format(manifest=out / "manifest.json") in err
    assert "re-run simulate" in err
    assert not (out / "analysis").exists()


def test_manifest_without_drawn_values_analyzes_the_same(simulated, tmp_path, capsys):
    """analyze reads no subject's params or mvc_rms_true, so a manifest without them gives the same outputs."""
    outputs = {}
    for name in ("untouched", "stripped"):
        out, path = copy_study(simulated, tmp_path / name)
        if name == "stripped":
            manifest = load_manifest(out)
            for subject in manifest["subjects"]:
                del subject["params"], subject["mvc_rms_true"]
            (out / "manifest.json").write_text(json.dumps(manifest))
        assert gmpkit("analyze", path, capsys)[0] == cli.EXIT_OK
        assert gmpkit("stats", path, capsys)[0] == cli.EXIT_OK
        outputs[name] = {p.relative_to(out): p.read_bytes() for stage in ("analysis", "stats")
                         for p in sorted((out / stage).rglob("*")) if p.is_file()}
    assert len(outputs["untouched"]) == 6  # estimates, 3 maps, summary, report
    assert outputs["stripped"] == outputs["untouched"]


def test_torn_manifest_is_a_data_error(study, capsys):
    out, path = study
    truncate(out / "manifest.json")
    code, err = gmpkit("analyze", path, capsys)
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
        (set_key(("subjects", 0, "trials"), None),
         "subjects[0].trials is missing, where simulate writes ['S1_LR_d0'"),
        (set_test("activation_label", "medium"),
         "tests[0].activation_label is 'medium', where simulate writes 'relaxed'"),
        (edit_trials(lambda ids: [t.replace("S2_LR_d3", "S2_LR_d9") for t in ids]),
         "subjects[1].trials[3] is 'S2_LR_d9', where simulate writes 'S2_LR_d3'"),
        (set_test("frequency_hz", 2.0), "tests[0].frequency_hz is 2.0, where simulate writes 1.0"),
        (set_test("frequency_hz", "1.0"), "tests[0].frequency_hz is '1.0', where simulate writes 1.0"),
        (edit_trials(lambda ids: ids[:3] + ids[4:]),
         "subjects[1].trials[3] is 'S2_LR_d4', where simulate writes 'S2_LR_d3'"),
        (edit_trials(lambda ids: ids[:4] + ids[3:]),
         "subjects[1].trials[4] is 'S2_LR_d3', where simulate writes 'S2_LR_d4'"),
        (edit_trials(lambda ids: ids[:-1]),
         "subjects[1].trials[31] is missing, where simulate writes 'S2_HS_d7'"),
        (edit_trials(lambda ids: ",".join(ids)),
         "subjects[1].trials is 'S2_LR_d0,S2_..."),
        (set_key(("subjects", 1), None), "subjects[1] is missing, where simulate writes {'subject_id': 'S2', "),
        (set_key(("subjects", 0), ["S1"]), "subjects[0] is ['S1'], where simulate writes {'subject_id': 'S1', "),
        (lambda doc: set_key(("subjects", 1), doc["subjects"][0])(doc),
         "subjects[1].subject_id is 'S1', where simulate writes 'S2'"),
        (set_key(("streams", "robot", "rate_hz"), 999.0),
         "streams.robot.rate_hz is 999.0, where simulate writes 1000.0"),
        (set_key(("streams", "emg", "dtype"), "<f4"), "streams.emg.dtype is '<f4', where simulate writes '<i2'"),
        (set_key(("streams", "emg", "lsb"), [2.0 ** -12] * 4),
         "streams.emg.lsb[0] is 0.000244140625, where simulate writes 0.00048828125"),
        (set_key(("streams", "emg", "lsb"), None), "streams.emg.lsb is missing, where simulate writes [0.00048828125"),
        (set_key(("streams", "robot", "dtype"), "<f4"), "streams.robot.dtype is '<f4', where simulate writes '<i2'"),
        (set_key(("streams", "robot", "lsb"), [2.0 ** -5, 2.0 ** -5, 2.0 ** -12, 2.0 ** -12]),
         "streams.robot.lsb[0] is 0.03125, where simulate writes 0.015625"),
        (set_key(("streams", "robot", "lsb"), None), "streams.robot.lsb is missing, where simulate writes [0.015625"),
        # schema 6's EMG code step
        (set_key(("streams", "emg", "lsb_mv"), 2.0 ** -11), "streams.emg.lsb_mv is 0.00048828125, which simulate "
                                                           "does not write"),
        (set_key(("config", "protocol", "speed_m_s"), 0.1), "unknown key 'speed_m_s' in [protocol]"),
        (set_key(("config", "rates"), []), "[rates] must hold keys and values, got []"),
        (set_key(("config", "protocol", "duration_s"), None),
         "config.protocol.duration_s is missing, where simulate writes 10.0"),
        (set_key(("subjects", 0, "mvc_recordings"), ["mvc/nothing.npy"]),
         "subjects[0].mvc_recordings is ['mvc/nothing.npy'], which simulate does not write"),
        (set_key(("toolkit_version",), []), "toolkit_version must be of type str, got []"),
        # schema 4's copy of [cohort] seed
        (set_key(("seed",), "x"), "seed is 'x', which simulate does not write"),
        (set_key(("seed",), 31), "seed is 31, which simulate does not write"),
        (set_key(("config", "cohort", "seed"), -1), "cohort.seed must be >= 0, got -1"),
        # schema 4's calibrated levels, which analyze now estimates on the mvc/ recordings
        (lambda doc: set_key(("subjects", 0, "mvc_rms"), doc["subjects"][0]["mvc_rms_true"])(doc),
         "subjects[0].mvc_rms is ["),
        # finite, but the cohort jitter's upper bound is not
        (set_key(("config", "limb", "maxwell_stiffness"), 1.7e308), "limb.maxwell_stiffness must be finite"),
        (set_key(("config", "protocol", "relaxed_target"), 0.4),
         "protocol.relaxed_target = 0.4 must be below protocol.stiff_target = 0.4"),
        (set_key(("subjects", 0, "crc32"), None),
         "subjects[0].crc32 is missing, where simulate writes an object of each file's CRC-32"),
        (set_key(("subjects", 1, "crc32"), []),
         "subjects[1].crc32 is [], where simulate writes an object of each file's CRC-32"),
        (set_key(("subjects", 0, "crc32", "trials/S1_LR_d0.trial"), None),
         "subjects[0].crc32 lacks trials/S1_LR_d0.trial, which simulate writes"),
        (set_key(("subjects", 0, "crc32", "trials/S2_LR_d0.trial"), 0),
         "subjects[0].crc32 names trials/S2_LR_d0.trial, which simulate does not write"),
        (set_key(("subjects", 1, "crc32", "mvc/S2_rep2.emg"), "123"),
         "subjects[1].crc32 holds '123' for mvc/S2_rep2.emg, not a CRC-32 (an integer from 0 to 2^32 - 1)"),
        (set_key(("subjects", 1, "crc32", "trials/S2_HS_d7.trial"), -1),
         "subjects[1].crc32 holds -1 for trials/S2_HS_d7.trial, not a CRC-32"),
        (set_key(("subjects", 0, "crc32", "trials/S1_HS_d7.trial"), 2 ** 32),
         "subjects[0].crc32 holds 4294967296 for trials/S1_HS_d7.trial, not a CRC-32"),
        (set_key(("subjects", 0, "crc32", "trials/S1_HS_d7.trial"), True),
         "subjects[0].crc32 holds True for trials/S1_HS_d7.trial, not a CRC-32"),
    ],
    ids=["no-config", "a-list", "no-trials", "activation-off-grid", "direction-off-grid",
         "hz-off-grid", "hz-a-string", "trial-dropped", "trial-duplicated", "last-trial-dropped",
         "trials-not-a-list", "subject-dropped", "subject-not-an-object", "subject-twice", "robot-rate-off-config",
         "emg-dtype-off-schema", "emg-lsb-off-schema", "emg-lsb-missing", "robot-dtype-off-schema",
         "robot-lsb-off-schema", "robot-lsb-missing", "emg-lsb-mv-listed", "unknown-protocol-key", "rates-a-list",
         "no-duration", "mvc-recordings-listed",
         "toolkit-version-not-a-string", "seed-not-an-int", "seed-off-config", "config-seed-negative",
         "mvc-rms-listed", "limb-overflows-jitter", "targets-out-of-label-order", "crc32-missing",
         "crc32-a-list", "crc32-lacks-a-file", "crc32-names-another-file", "crc32-a-string", "crc32-negative",
         "crc32-too-large", "crc32-a-bool"],
)
def test_wrong_shaped_manifest_is_a_data_error(study, capsys, edit, reason):
    out, path = study
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert f"manifest {manifest_path}: " in err
    assert reason in err
    assert not (out / "analysis").exists()


def leaves(doc, path=""):
    """``(json_path, node, key)`` of every leaf ``node[key]`` of a parsed JSON document."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        leaf = f"{path}[{key}]" if isinstance(doc, list) else f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from leaves(value, leaf)
        else:
            yield leaf, doc, key


def test_every_manifest_leaf_is_checked(study, capsys):
    """A value changed at any leaf of the manifest is refused, by the leaf's path.

    Left out: ``toolkit_version`` (any string), the subjects' drawn values
    (``params`` and ``mvc_rms_true``, which analyze does not read), their
    ``crc32`` maps (checked against the files: see the damage tests), the
    ``config`` copy (analyze derives the rest from it) and
    ``schema_version`` (refused with its own "re-run simulate" message).
    """
    out, path = study
    manifest_path = out / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    skipped = re.compile(r"toolkit_version|schema_version|config\.|subjects\[\d+\]\.(params|mvc_rms_true|crc32)")
    checked = [(leaf, node, key) for leaf, node, key in leaves(doc) if not skipped.match(leaf)]
    # streams: layout, encoding, dtype, rate_hz, start_time_s, 4 channels and 4 code steps of 2
    # streams; tests: 5 keys of 4; subjects: the subject_id and 32 trial ids of 2
    assert len(checked) == 2 * 13 + 4 * 5 + 2 * 33
    for leaf, node, key in checked:
        value = node[key]
        node[key] = changed = value + "x" if isinstance(value, str) else value + 1
        manifest_path.write_text(json.dumps(doc))
        node[key] = value
        code, err = gmpkit("analyze", path, capsys)
        assert code == cli.EXIT_ANALYSIS, leaf
        assert f"manifest {manifest_path}: {leaf} is {changed!r}, where simulate writes {value!r}" in err, leaf
    assert not (out / "analysis").exists()


@pytest.fixture(scope="module")
def analyzed(simulated, tmp_path_factory):
    out, path = copy_study(simulated, tmp_path_factory.mktemp("analyzed"))
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
        (lambda path: path.write_text(path.read_text() + path.read_text().splitlines(keepends=True)[1]),
         r"line 66: duplicate estimate for \('S1', 0, 'relaxed', 'low'\), first on line 2"),
    ],
    ids=["torn", "header", "short-row", "long-row", "bad-estimate", "not-a-number",
         "activation-off-grid", "direction-off-grid", "not-utf8", "pct-mvc-nan", "pct-mvc-inf",
         "xi-inf", "duplicate-row"],
)
def test_damaged_estimates_csv_is_a_data_error(analyzed, tmp_path, capsys, damage, reason):
    out, path = copy_study(analyzed, tmp_path)
    csv_path = out / "analysis" / "eop_estimates.csv"
    damage(csv_path)
    code, err = gmpkit("stats", path, capsys)
    assert code == cli.EXIT_ANALYSIS
    assert str(csv_path) in err
    assert re.search(reason, err)
    assert not (out / "stats").exists()


def test_rerun_with_fewer_subjects_leaves_no_stale_file(tmp_path, capsys):
    """Each stage replaces its outputs whole, so no file of the third subject outlives the 3-subject run."""
    out, path = tmp_path / "out", tmp_path / "study.ini"
    for subjects in (3, 2):
        path.write_text(STUDY.replace("subjects = 2", f"subjects = {subjects}") + f"\n[output]\ndir = {out}\n")
        assert gmpkit("all", path, capsys)[0] == cli.EXIT_OK
    assert [p.name for p in out.rglob("*") if "S3" in p.name] == []
    assert sorted(p.name for p in out.iterdir()) == ["analysis", "manifest.json", "mvc", "stabilize", "stats",
                                                     "trials"]


def test_failed_analysis_leaves_no_analysis_for_stats(analyzed, tmp_path, capsys):
    """A refused manifest removes the previous analysis/, so stats has nothing stale to report on."""
    out, path = copy_study(analyzed, tmp_path)
    (out / "manifest.json").write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    assert gmpkit("analyze", path, capsys)[0] == cli.EXIT_ANALYSIS
    code, err = gmpkit("stats", path, capsys)
    assert code == cli.EXIT_IO and "eop_estimates.csv" in err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "mvc", "trials"]


def test_analysis_removes_the_report_built_from_the_one_it_replaces(analyzed, tmp_path, capsys):
    out, path = copy_study(analyzed, tmp_path)
    assert cli.main(["stats", "--config", str(path)]) == cli.EXIT_OK
    assert gmpkit("analyze", path, capsys)[0] == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["analysis", "manifest.json", "mvc", "trials"]


def disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "command, writer, left",
    [
        ("analyze", "save_map_json", ["manifest.json", "mvc", "trials"]),
        # the analysis built from the replaced trials goes too
        ("simulate", "save_trial_csv", []),
        ("stabilize", "write_csv", ["analysis", "manifest.json", "mvc", "trials"]),
    ],
)
def test_stage_failing_midway_leaves_none_of_its_outputs(analyzed, tmp_path, capsys, monkeypatch, command,
                                                          writer, left):
    """A stage that fails after it has written some outputs leaves none of them, old or new, and no staging dir."""
    out, path = copy_study(analyzed, tmp_path)
    if command == "stabilize":
        assert cli.main(["stabilize", "--config", str(path)]) == cli.EXIT_OK
    monkeypatch.setattr(study_module, writer, disk_full)
    code, err = gmpkit(command, path, capsys)
    assert code == cli.EXIT_IO and "No space left on device" in err
    assert sorted(p.name for p in out.iterdir()) == left


def robot_stream(codes):
    """The zlib stream of ``codes``, an int16 (channels, n) array, as simulate writes a trial's robot stream."""
    deltas = codes.astype("<i2")
    deltas[:, 1:] -= codes[:, :-1]
    return zlib.compress(deltas.tobytes(), 1)


def first_trial(simulated):
    """``(streams, crc32, subject_id, trial_id, test, spec)`` of the first trial of the simulated study."""
    _, streams, subjects, crc32 = _read_manifest(load_manifest(simulated), simulated / "manifest.json")
    subject_id, trials = subjects[0]
    _, trial_id, test, spec = trials[0]
    return streams, crc32, subject_id, trial_id, test, spec


def load_first_trial(simulated, path, crc32):
    """The first trial of the simulated study, read from ``path`` with ``crc32``."""
    streams, _, subject_id, _, test, spec = first_trial(simulated)
    return load_trial_csv(path, streams, spec, subject_id, crc32=crc32, activation_label=test["activation_label"],
                          frequency_label=test["frequency_label"])


def write_trial(path, robot, emg):
    """Write a trial file of ``robot``, int16 (channels, n) codes or the bytes of its stream, then ``emg``,
    an array whose bytes are written as they are, or bytes; returns what was written."""
    blob = (robot if isinstance(robot, bytes) else robot_stream(robot)) + (
        emg if isinstance(emg, bytes) else emg.tobytes())
    path.write_bytes(blob)
    return blob


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda robot, emg: (robot[:, :-1], emg), "3000 samples, expected 3001"),
        # inflated only to one byte more than the expected differences, so the count is not known
        (lambda robot, emg: (np.hstack([robot, robot[:, -1:]]), emg), "more than 3001 samples"),
        (lambda robot, emg: (robot[:3], emg), "18006 bytes of int16 differences, not whole samples of 4 channels"),
        # the robot stream holding the EMG codes, and the EMG the robot codes: both int16, so the sample
        # count tells them apart
        (lambda robot, emg: (emg, robot), "more than 3001 samples"),
        (lambda robot, emg: (robot, robot), "3001 samples, expected 6445"),
        (lambda robot, emg: (robot, emg[:, :-1]), "6444 samples, expected 6445"),
        # parts given as the bytes written
        (lambda robot, emg: (robot, emg.tobytes()[:-1]), "51559 bytes of int16 codes, not whole samples of 4 channels"),
        (lambda robot, emg: (robot, emg.tobytes() + b"\0"), "bytes after its samples"),
        # a byte between the streams, which moves the EMG one byte on
        (lambda robot, emg: (robot_stream(robot) + b"\0", emg), "bytes after its samples"),
        (lambda robot, emg: (robot_stream(robot)[:60], emg), "cannot read"),
        # a schema-9 EMG file, the .npy of the codes, in place of the codes; the same of a Fortran-order
        # array; and its header alone
        (lambda robot, emg: (robot, npy_bytes(emg)), "bytes after its samples"),
        (lambda robot, emg: (robot, npy_bytes(np.asfortranarray(emg))), "bytes after its samples"),
        (lambda robot, emg: (robot, npy_bytes(emg)[:-emg.nbytes]), "16 samples, expected 6445"),
        # the schema-3 EMG, float64 codes, four times the bytes the codes can take, and the schema-5 EMG,
        # float32 mV, little- and big-endian, twice them
        (lambda robot, emg: (robot, emg.astype(np.float64)), "longer than the 75587 bytes"),
        (lambda robot, emg: (robot, (emg * EMG_LSB_MV).astype(np.float32)), "longer than the 75587 bytes"),
        (lambda robot, emg: (robot, (emg * EMG_LSB_MV).astype(">f4")), "longer than the 75587 bytes"),
        # a schema-8 robot file, a raw (n, 4) .npy, under the new name
        (lambda robot, emg: (npy_bytes(robot.T.copy()), b""), "incorrect header check"),
    ],
)
def test_loader_rejects_bad_arrays(simulated, tmp_path, damage, reason):
    """``damage`` maps the stored (robot, EMG) codes of a trial, (4, n) int16 each, to the codes or bytes written.

    The loader is given the CRC-32 of the bytes written, so that its decoder, not the checksum, refuses them.
    """
    _, _, _, trial_id, _, _ = first_trial(simulated)
    path = tmp_path / "trial.trial"
    blob = write_trial(path, *damage(*trial_codes(simulated / trial_file(trial_id))))
    with pytest.raises(DataError, match=re.escape(reason)) as error:
        load_first_trial(simulated, path, zlib.crc32(blob))
    # names the file
    assert str(error.value).removeprefix("cannot read ").startswith(str(path))


@pytest.mark.parametrize(
    "damage",
    [
        lambda robot, emg: (robot, emg.T.copy()),  # sample-major, as a Fortran-order array lays it out
        lambda robot, emg: (robot, emg.astype(">i2")),
        lambda robot, emg: (robot.T.copy(), emg),
        lambda robot, emg: (robot, np.roll(emg, 1, axis=1)),
    ],
    ids=["emg-sample-major", "emg-big-endian", "robot-sample-major", "emg-one-sample-late"],
)
def test_loader_refuses_bytes_that_do_not_match_the_crc32(simulated, tmp_path, damage):
    """Codes of the right length in the wrong order decode without a fault; the trial's CRC-32 refuses them."""
    _, crc32, _, trial_id, _, _ = first_trial(simulated)
    path = tmp_path / "trial.trial"
    write_trial(path, *damage(*trial_codes(simulated / trial_file(trial_id))))
    with pytest.raises(DataError, match=re.escape(f"{path}: the file's bytes do not match the manifest's CRC-32")):
        load_first_trial(simulated, path, crc32[trial_file(trial_id)])


def test_every_bit_flip_of_a_robot_file_is_refused_or_changes_nothing(simulated, tmp_path):
    """Flip each bit of one robot stream in turn: the decoder refuses it, naming the file, or reads the same codes.

    The stream is a trial file's, stored alone, and each flip is given its
    own CRC-32, so that the decoder alone judges it. zlib's checksum covers
    the inflated differences, so a flip that changes a sample is refused;
    the few flips that pass change nothing the stream decodes to.
    """
    streams, _, _, trial_id, _, spec = first_trial(simulated)
    stream = streams["robot"]
    n_samples = stored_samples(spec.duration, stream["rate_hz"], streams["emg"]["rate_hz"])[0]
    path = tmp_path / "flipped.zlib"
    blob = write_trial(path, trial_codes(simulated / trial_file(trial_id))[0], b"")
    expected = load_samples(path, [(stream, n_samples)], crc32=zlib.crc32(blob))[0].tobytes()
    refused = 0
    with open(path, "r+b", buffering=0) as fh:  # each flip rewrites one byte in place
        for offset, byte in enumerate(blob):
            for bit in range(8):
                flipped = bytes([byte ^ 1 << bit])
                fh.seek(offset)
                fh.write(flipped)
                try:
                    samples, = load_samples(path, [(stream, n_samples)],
                                            crc32=zlib.crc32(blob[:offset] + flipped + blob[offset + 1:]))
                except DataError as exc:
                    assert str(exc).removeprefix("cannot read ").startswith(str(path)), (offset, bit)
                    refused += 1
                else:
                    assert samples.tobytes() == expected, (offset, bit)
            fh.seek(offset)
            fh.write(bytes([byte]))
    assert path.read_bytes() == blob
    assert refused > 0.9 * 8 * len(blob)


def estimate_rows(out):
    return (out / "analysis" / "eop_estimates.csv").read_text().splitlines()


def analyzed_study(study, capsys):
    """The study analyzed, with its stats; returns the rows of its ``eop_estimates.csv``."""
    out, path = study
    assert gmpkit("analyze", path, capsys)[0] == cli.EXIT_OK
    assert cli.main(["stats", "--config", str(path)]) == cli.EXIT_OK
    return estimate_rows(out)


def assert_trials_skipped(out, before, cells):
    """analysis/ holds the rows of ``before`` but those of ``cells``, and the stats built on the old one are gone."""
    assert estimate_rows(out) == [row for row in before if not row.startswith(cells)]
    assert sorted(p.name for p in out.iterdir()) == ["analysis", "manifest.json", "mvc", "trials"]


CRC_MISMATCH = "the file's bytes do not match the manifest's CRC-32"


def test_swapped_trial_files_are_two_warnings(study, capsys):
    """Two well-formed trial files swapped: each fails the CRC-32 of the trial whose name it has."""
    out, path = study
    before = analyzed_study(study, capsys)
    first, second = out / "trials" / "S1_LR_d0.trial", out / "trials" / "S1_HS_d0.trial"
    blobs = first.read_bytes(), second.read_bytes()
    first.write_bytes(blobs[1])
    second.write_bytes(blobs[0])
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_OK
    for trial_id in ("S1_LR_d0", "S1_HS_d0"):
        assert f"unreadable trial {trial_id}: trials/{trial_id}.trial: {CRC_MISMATCH}" in err
    assert json.loads((out / "analysis" / "summary.json").read_text())["n_missing"] == 2
    assert_trials_skipped(out, before, ("S1,0,relaxed,low,", "S1,0,stiff,high,"))


def test_one_row_robot_stream_is_refused(simulated, study, tmp_path, capsys):
    """A robot stream of the four channels' codes differenced as one row has the right length and inflates:
    the decoder reads each channel less the last code of the one before, and the CRC-32 refuses it."""
    out, path = study
    before = analyzed_study(study, capsys)
    victim = out / "trials" / "S1_LR_d0.trial"
    robot, emg = trial_codes(victim)
    flat = robot.reshape(-1)
    deltas = flat.copy()
    deltas[1:] -= flat[:-1]
    one_row = zlib.compress(deltas.tobytes(), 1)
    blob = write_trial(tmp_path / "one_row.trial", one_row, emg)
    shifted = load_first_trial(simulated, tmp_path / "one_row.trial", zlib.crc32(blob))
    assert np.array_equal(shifted.force.data[:, 1], (robot[1] - robot[0, -1]).astype("<i2") * 2.0 ** -6)
    victim.write_bytes(blob)
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_OK
    assert f"unreadable trial S1_LR_d0: trials/S1_LR_d0.trial: {CRC_MISMATCH}" in err
    assert_trials_skipped(out, before, "S1,0,relaxed,low,")


def test_trial_file_with_a_megabyte_appended_is_that_trials_warning(study, capsys):
    """The loader reads a trial file only up to the most bytes its samples can take, so 1 MB more is refused."""
    out, path = study
    before = analyzed_study(study, capsys)
    with open(out / "trials" / "S1_LR_d0.trial", "ab") as fh:
        fh.write(bytes(2 ** 20))
    code, err = gmpkit("analyze", path, capsys)
    assert code == cli.EXIT_OK
    assert "unreadable trial S1_LR_d0: trials/S1_LR_d0.trial: longer than the " in err
    assert_trials_skipped(out, before, "S1,0,relaxed,low,")


@pytest.mark.parametrize("part", ["robot", "emg", "mvc"])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_flipped_bit_is_refused(study, capsys, part, data):
    """One bit flipped anywhere in a trial file, in its zlib stream or in its EMG, is that trial's warning;
    in an MVC file, exit 4 with no analysis/. Never exit 0 with a moved estimate."""
    out, path = study
    before = analyzed_study(study, capsys)
    rel = "mvc/S1_rep2.emg" if part == "mvc" else "trials/S1_LR_d0.trial"
    blob = (out / rel).read_bytes()
    stream_end = len(robot_stream(trial_codes(out / rel)[0])) if part != "mvc" else 0
    offset = data.draw(st.integers(*((0, stream_end - 1) if part == "robot" else (stream_end, len(blob) - 1))))
    flipped = bytearray(blob)
    flipped[offset] ^= 1 << data.draw(st.integers(0, 7))
    (out / rel).write_bytes(flipped)
    try:
        code, err = gmpkit("analyze", path, capsys)
        if part == "mvc":
            assert code == cli.EXIT_ANALYSIS
            assert f"{out / rel}: {CRC_MISMATCH}" in err
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "mvc", "trials"]
        else:
            assert code == cli.EXIT_OK
            assert f"unreadable trial S1_LR_d0: {rel}: {CRC_MISMATCH}" in err
            assert_trials_skipped(out, before, "S1,0,relaxed,low,")
    finally:
        (out / rel).write_bytes(blob)


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
        (edit_map(lambda doc: doc.update(grid={"frequencies": [], "directions": 8}, cells=[])),
         "need 1 to 2 grid frequencies, got 0"),
        (edit_map(lambda doc: [cell.update(xi=-50.0, pct_mvc=-3.0 if cell["activation"] == "relaxed" else 7.0)
                               for cell in doc["cells"]]),
         "has a negative %MVC -3.0"),
        (edit_map(lambda doc: [cell.update(xi=-50.0) for cell in doc["cells"]]),
         "grants the scenario a negative EoP budget (0.8 x -50.0 N*s/m)"),
        (edit_map(lambda doc: doc.update(subject="x", grid={"frequencies": [1.0], "directions": 8}, cells=[])),
         "missing cell (0, 'relaxed', 'low')"),
    ],
    ids=["torn", "xi-string-nan", "pct-mvc-infinity", "no-cells", "repeated-frequency",
         "negative-frequency", "empty-grid", "negative-pct-mvc", "negative-budget", "missing-scenario-cell"],
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
    code, err = gmpkit("stabilize", config_for(tmp_path / "out"), capsys, "--map", str(map_path))
    assert code == cli.EXIT_ANALYSIS
    assert str(map_path) in err
    assert reason in err
    assert not (tmp_path / "out").exists()


# -- the damage sweep: every stored file, damaged each way, read by its stage --------------

READ_OR_REFUSED = (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_ANALYSIS)
# the stage that reads each entry of the study.py layout block, and the exits it may end in on a damaged file;
# the estimates CSV and the maps carry no CRC-32, so a changed value in them may be read as found
READERS = {
    "manifest.json": ("analyze", READ_OR_REFUSED),
    "mvc/<subject>_rep<k>.emg": ("analyze", (cli.EXIT_ANALYSIS,)),
    "trials/<subject>_<test>_d<i>.trial": ("analyze", (cli.EXIT_OK,)),
    "analysis/eop_estimates.csv": ("stats", READ_OR_REFUSED),
    # a grid that no longer holds the scenario's frequency is a refused scenario, exit 2
    "analysis/gmp_<subject>.json": ("stabilize", (cli.EXIT_CONFIG, *READ_OR_REFUSED)),
    "analysis/gmp_median.json": ("stabilize", (cli.EXIT_CONFIG, *READ_OR_REFUSED)),
}
# a new entry of the layout block goes in READERS or here
READ_BY_NO_STAGE = ["analysis/summary.json", "stats/report.json", "stabilize/summary.json",
                    "stabilize/<run>_trajectory.csv"]
# the outputs a stage replaces, which it leaves none of when it fails
REPLACES = {"analyze": ["analysis", "stats"], "stats": ["stats"], "stabilize": ["stabilize"]}


def flip_bit(blob, data):
    flipped = bytearray(blob)
    flipped[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    return bytes(flipped)


# each maps a file's bytes to the damaged bytes, or to None for a deleted file
DAMAGES = {
    "emptied": lambda blob, data: b"",
    "halved": lambda blob, data: blob[:len(blob) // 2],
    "last-byte-cut": lambda blob, data: blob[:-1],
    "byte-appended": lambda blob, data: blob + data.draw(st.binary(min_size=1, max_size=1)),
    "bit-flipped": flip_bit,
    "64-random-bytes": lambda blob, data: data.draw(st.binary(min_size=64, max_size=64)),
    "deleted": lambda blob, data: None,
}


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A study that ``gmpkit all`` has run through every stage."""
    out = tmp_path_factory.mktemp("finished") / "out"
    assert cli.main(["all", "--config", str(config_for(out))]) == cli.EXIT_OK
    return out


def cell(trial_id):
    """The start of the estimates row of a trial's cell: ``S1,0,relaxed,low,`` for ``S1_LR_d0``."""
    subject, code, direction = trial_id.split("_")
    _, activation, frequency = next(test for test in TESTS if test[0] == code)
    return f"{subject},{direction.removeprefix('d')},{activation},{frequency},"


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("entry", [entry for entry in layout_paths() if entry not in READ_BY_NO_STAGE],
                         ids=lambda entry: re.sub("[<>]", "", entry))
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_stored_file_is_a_warning_or_a_typed_error(finished, tmp_path, capsys, entry, damage, data):
    """One file of a finished study, damaged, then read by its stage: never a traceback, never an unwarned change.

    A damaged trial is that trial's warning, and analyze goes on without it;
    an MVC recording is exit 4. Whenever analyze exits 0, its estimates are
    the undamaged study's but the rows of the trials it warns about. A stage
    that fails names the file, and leaves none of its outputs.
    """
    assert entry in READERS, f"{entry}: name the stage that reads it in READERS, or list it in READ_BY_NO_STAGE"
    stage, exits = READERS[entry]
    shutil.rmtree(tmp_path / "out", ignore_errors=True)
    out, path = copy_study(finished, tmp_path)
    rel = data.draw(st.sampled_from([f for f in output_files(out) if layout_pattern(entry).fullmatch(f)]))
    damaged = DAMAGES[damage]((out / rel).read_bytes(), data)
    if damaged is None:
        (out / rel).unlink()
    else:
        (out / rel).write_bytes(damaged)

    code, err = gmpkit(stage, path, capsys, *(["--map", str(out / rel)] if stage == "stabilize" else []))
    assert code in exits
    if code != cli.EXIT_OK:
        assert str(out / rel) in err
        assert [name for name in (*REPLACES[stage], ".gmpkit-staging") if (out / name).exists()] == []
    elif stage == "analyze":
        warned = re.findall(r"unreadable trial (\w+)", err)
        summary = json.loads((out / "analysis" / "summary.json").read_text())
        assert summary["n_missing"] == len(warned)
        assert estimate_rows(out) == [row for row in estimate_rows(finished)
                                      if not row.startswith(tuple(map(cell, warned)))]
        if entry.startswith("trials/"):
            assert warned == [Path(rel).stem]
            assert summary["complete_maps"] == [s for s in ("S1", "S2") if not rel.startswith(f"trials/{s}_")]
