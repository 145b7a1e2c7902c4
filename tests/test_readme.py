"""The README's library example runs as written, and its CLI block and file formats match the code."""

import configparser
import contextlib
import io
import math
import re
from dataclasses import asdict, replace
from pathlib import Path

from gmpkit import cli, study
from gmpkit.config import default_config, load_config
from test_cli import subcommand_flags, write_config
from test_outputs import output_files, unmatched

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_prints_a_finite_pct_mvc():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_example(), str(README), "exec"), {})
    match = re.search(r"EoP = (\S+) N\*s/m at (\S+)% MVC", printed.getvalue())
    assert match, printed.getvalue()
    xi, pct = float(match.group(1)), float(match.group(2))
    assert math.isfinite(xi) and math.isfinite(pct)
    assert 30.0 <= pct <= 50.0  # the trial's 40% MVC target


def config_block() -> str:
    text = README.read_text()
    section = text[text.index("## Configuration"):]
    match = re.search(r"```ini\n(.*?)```", section, re.S)
    assert match, "no ini block under '## Configuration'"
    return match.group(1)


def test_config_block_is_the_full_default_config(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(config_block())
    assert load_config(path) == default_config()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(config_block())
    listed = {section: sorted(parser[section]) for section in parser.sections()}
    assert listed == {section: sorted(keys) for section, keys in asdict(default_config()).items()}


def cli_block() -> str:
    text = README.read_text()
    section = text[text.index("## CLI"):]
    match = re.search(r"```sh\n(.*?)```", section, re.S)
    assert match, "no sh block under '## CLI'"
    return match.group(1)


def test_cli_block_lists_each_subcommands_flags():
    listed = {command: re.findall(r"\[(--[\w-]+)", usage)
              for command, usage in re.findall(r"^gmpkit (\w+) +(.*)$", cli_block(), re.M)}
    assert listed == subcommand_flags()


def file_formats() -> str:
    text = README.read_text()
    start = text.index("## File formats")
    return text[start:text.index("\n## ", start)]


def test_file_formats_name_the_manifest_schema_and_keys(tmp_path):
    section = file_formats()
    versions = re.findall(r"`schema_version` (\d+)", section)
    assert versions == [str(study.SCHEMA_VERSION)]
    config = default_config()
    config = replace(config, cohort=replace(config.cohort, subjects=1),
                     protocol=replace(config.protocol, frequencies=(1.0,), duration_s=2.0,
                                      analysis_window_s=1.0))
    manifest = study.simulate_study(config, tmp_path)
    keys = [*manifest, *manifest["streams"]["emg"], *manifest["subjects"][0]]
    assert [key for key in keys if f"`{key}`" not in section] == []


def test_file_formats_name_every_output_and_nothing_else(tmp_path):
    """Each bullet of the section opens with the path of the files it documents: ``* **Name** (`path`...``."""
    documented = re.findall(r"^\* \*\*[^*]+\*\* \(`([^`]+)`", file_formats(), re.M)
    path, out = write_config(tmp_path)
    assert cli.main(["all", "--config", str(path)]) == cli.EXIT_OK
    assert unmatched(output_files(out), documented) == ([], [])
