"""What ``gmpkit all`` leaves on disk: the files of the documented layout, and
stabilizer ledgers that its trajectory files give back bit for bit."""

import json
import re

import numpy as np
import pytest

from gmpkit import cli, study
from gmpkit.config import load_config
from gmpkit.signals import read_csv
from test_cli import TINY, write_config


def layout_paths() -> list[str]:
    """Each path of the layout block in ``study``'s docstring."""
    doc = study.__doc__
    block = doc[doc.index("    out/\n"):].split("\n\n")[0]
    paths = re.findall(r"^ {6}(\S+)", block, re.M)
    assert paths, "no layout block under 'out/' in the study docstring"
    return paths


def layout_pattern(path: str) -> re.Pattern:
    """The files a documented path names: a ``<name>`` in it stands for any text within one path segment."""
    return re.compile("[^/]+".join(map(re.escape, re.split(r"<\w+>", path))))


def unmatched(files: list[str], paths: list[str]) -> tuple[list[str], list[str]]:
    """The files that no documented path matches, and the paths that match no file (see ``layout_pattern``)."""
    patterns = {path: layout_pattern(path) for path in paths}
    return ([f for f in files if not any(p.fullmatch(f) for p in patterns.values())],
            [path for path, p in patterns.items() if not any(map(p.fullmatch, files))])


def output_files(out) -> list[str]:
    """Every file under ``out``, by its path relative to ``out``."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def run_all(tmp_path, text):
    """``gmpkit all`` on ``text``: the output dir, the config, and each stabilizer run by tag."""
    path, out = write_config(tmp_path, text)
    runs = []

    def recording(**kwargs):
        runs.append(run_interconnection(**kwargs))
        return runs[-1]

    run_interconnection = study.run_interconnection
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(study, "run_interconnection", recording)
        assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    return out, load_config(path), dict(zip(("baseline", "with_map"), runs))


def test_layout_block_names_every_output_and_nothing_else(tmp_path):
    out, _, _ = run_all(tmp_path, TINY)
    assert unmatched(output_files(out), layout_paths()) == ([], [])


def running_sum(*steps: np.ndarray) -> np.ndarray:
    """Sums of the interleaved steps, left to right from 0.0, after each sample's last step."""
    terms = np.zeros(len(steps) * len(steps[0]) + 1)
    for i, step in enumerate(steps, 1):
        terms[i::len(steps)] = step
    return np.add.accumulate(terms)[len(steps)::len(steps)]


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    """Equal float64 arrays, down to the sign of zero."""
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), strict=True)


@pytest.mark.parametrize("kind", ["negative-damping", "delayed-spring"])
def test_trajectory_gives_back_the_ledgers(tmp_path, kind):
    out, config, runs = run_all(tmp_path, TINY.replace("[stabilizer]\n", f"[stabilizer]\nfield_kind = {kind}\n"))
    summary = json.loads((out / "stabilize" / "summary.json").read_text())
    assert summary["scenario"]["field_kind"] == kind
    assert sorted(runs) == ["baseline", "with_map"]
    h = 1.0 / config.rates.robot_hz
    for tag, run in runs.items():
        traj = read_csv(out / "stabilize" / f"{tag}_trajectory.csv")
        vel, force_field, alpha = (traj.data[:, traj.channels.index(c)] for c in ("vel", "force_field", "alpha"))
        budget = summary[tag].get("eop_budget", 0.0)
        v_sq = vel * vel
        d_field = -force_field * vel * h
        dissipated = alpha * v_sq * h
        observer_w = running_sum(d_field, budget * v_sq * h, dissipated)
        field_energy, injected = running_sum(d_field), running_sum(dissipated)

        assert_same_bits(observer_w, run.observer_w)
        assert_same_bits(field_energy, run.field_energy_series)
        assert_same_bits(injected, run.injected_series)
        assert summary[tag]["min_observer_w"] == observer_w.min()
        assert summary[tag]["field_energy_joules"] == field_energy[-1]
        assert summary[tag]["injected_joules"] == injected[-1]
