"""The pinned reference study: a small fixed study and what it must write.

``tests/reference/`` holds the outputs of ``gmpkit all`` on the 2-subject
``TINY`` config of ``test_cli.py``:

- ``study/``: the small text outputs, verbatim (``manifest.json``,
  ``analysis/``, ``stats/`` and ``stabilize/summary.json``);
- ``digests.json``: the sha256 of every other output (the trial and MVC
  files and the stabilizer's trajectory CSVs), and the Python, numpy and
  zlib versions and the machine that wrote them.

``test_reference.py`` reruns the study. Under the recorded versions every
output must match byte for byte. The bytes depend on numpy's float paths
(pocketfft, SIMD loops), and a trial file's on the zlib that deflated it,
so under other versions only the text outputs are
compared: every number within ``REL_TOL`` of the reference plus
``ABS_TOL``, and every other field exactly. On a failure the message is
``comparison_table``: per file and per numeric column, the largest relative
move.

Run this file to rewrite the reference from the current code::

    PYTHONPATH=src python tests/reference_study.py

It prints the table against the old reference first. A change that means
to move numbers rewrites the reference and records that table.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import shutil
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from gmpkit import cli
from test_cli import TINY

REFERENCE_DIR = Path(__file__).parent / "reference"
TEXT_DIR = REFERENCE_DIR / "study"
DIGESTS = REFERENCE_DIR / "digests.json"

# under other versions: EoP recovery tolerance of acceptance criterion 1,
# and the passivity ledger tolerance (passivity.LEDGER_TOL_J) for values near zero
REL_TOL = 1e-3
ABS_TOL = 1e-9


def versions() -> dict:
    """What the output bytes depend on, besides the code."""
    return {"python": platform.python_version(), "numpy": np.__version__, "zlib": zlib.ZLIB_RUNTIME_VERSION,
            "machine": platform.machine()}


def run_study(out: Path) -> None:
    """``gmpkit all`` on the reference config, into ``out``."""
    config = out.parent / f"{out.name}.ini"
    config.write_text(TINY + f"\n[output]\ndir = {out}\n")
    if cli.main(["all", "--config", str(config)]) != cli.EXIT_OK:
        raise RuntimeError("the reference study failed")


def is_digest_only(rel: str) -> bool:
    """Trial and MVC files and stabilizer sample CSVs are pinned by digest; the rest is kept verbatim."""
    return rel.endswith((".trial", ".emg")) or (rel.startswith("stabilize/") and rel.endswith(".csv"))


def output_files(out: Path) -> list[str]:
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _csv_cells(text: str) -> list[tuple[str, str, object]]:
    """``(row, column, value)`` of every cell, a number where it parses as one; the first line is the header."""
    header, *rows = text.splitlines() or [""]
    columns = header.split(",")
    return [("header", "", header)] + [
        (str(i), column, value if _number(value) is None else _number(value))
        for i, row in enumerate(rows) for column, value in zip(columns, row.split(","))]


def _json_cells(doc, path: str = "", column: str = "") -> list[tuple[str, str, object]]:
    """``(path, column, leaf)`` of every leaf; a column is the path with list indices dropped."""
    if isinstance(doc, dict):
        return [cell for key in sorted(doc) for cell in _json_cells(doc[key], f"{path}.{key}", f"{column}.{key}")]
    if isinstance(doc, list):
        return [cell for i, item in enumerate(doc) for cell in _json_cells(item, f"{path}[{i}]", f"{column}[]")]
    return [(path, column, doc)]


def _cells(path: Path) -> dict[tuple[str, str], object]:
    text = path.read_text()
    if path.suffix == ".json":
        return {(where, column): leaf for where, column, leaf in _json_cells(json.loads(text))}
    return {(row, column): value for row, column, value in _csv_cells(text)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative_move(ref: float, new: float) -> float:
    if ref == new:
        return 0.0
    return abs(new - ref) / abs(ref) if ref != 0 else math.inf


def compare_text(ref: Path, new: Path) -> tuple[dict[str, tuple[float, float]], list[str]]:
    """Per numeric column ``(largest relative move, largest excess over the tolerance)``, and
    the cells whose text or shape differs."""
    ref_cells, new_cells = _cells(ref), _cells(new)
    moves: dict[str, tuple[float, float]] = {}
    other: list[str] = []
    for key in sorted(ref_cells.keys() | new_cells.keys()):
        a, b = ref_cells.get(key), new_cells.get(key)
        if key not in ref_cells or key not in new_cells:
            other.append(f"{key[0]} {key[1]}: {'only in the reference' if b is None else 'not in the reference'}")
        elif _is_number(a) and _is_number(b):
            move, excess = moves.get(key[1], (0.0, 0.0))
            over = abs(b - a) - (REL_TOL * abs(a) + ABS_TOL)
            moves[key[1]] = (max(move, _relative_move(a, b)), max(excess, over))
        elif a != b:
            other.append(f"{key[0]} {key[1]}: {a!r} became {b!r}")
    return moves, other


def comparison_table(out: Path) -> tuple[str, bool, bool]:
    """The comparison of ``out`` with the reference: ``(table, bytes match, within tolerance)``.

    The table has one line per numeric column that moved in a verbatim
    file, with its largest relative move, and one per other difference.
    """
    pinned = json.loads(DIGESTS.read_text())
    text_files = output_files(TEXT_DIR)
    expected = set(text_files) | set(pinned["sha256"])
    lines: list[str] = []
    same_bytes = tolerated = True
    for rel in sorted(expected | set(output_files(out))):
        if rel not in expected or not (out / rel).is_file():
            lines.append(f"{rel}: {'not in the reference' if rel not in expected else 'not written'}")
            same_bytes = tolerated = False
        elif rel in pinned["sha256"]:
            if sha256(out / rel) != pinned["sha256"][rel]:
                lines.append(f"{rel}: sha256 differs (only its digest is pinned)")
                same_bytes = False
        elif (out / rel).read_bytes() != (TEXT_DIR / rel).read_bytes():
            same_bytes = False
            moves, other = compare_text(TEXT_DIR / rel, out / rel)
            lines += [f"{rel}  {column}  largest relative move {move:.3g}"
                      for column, (move, _) in sorted(moves.items()) if move > 0]
            lines += [f"{rel}  {diff}" for diff in other]
            tolerated = tolerated and not other and all(excess <= 0 for _, excess in moves.values())
            if not other and all(move == 0 for move, _ in moves.values()):
                lines.append(f"{rel}: bytes differ, numbers and text do not")
    return "\n".join(lines), same_bytes, tolerated


def write_reference(out: Path) -> None:
    """Replace the reference with the outputs of the study in ``out``."""
    shutil.rmtree(TEXT_DIR, ignore_errors=True)
    digests = {}
    for rel in output_files(out):
        if is_digest_only(rel):
            digests[rel] = sha256(out / rel)
        else:
            (TEXT_DIR / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / rel, TEXT_DIR / rel)
    DIGESTS.write_text(json.dumps({**versions(), "sha256": digests}, indent=2, sort_keys=True) + "\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        run_study(out)
        if DIGESTS.exists():
            table, same_bytes, _ = comparison_table(out)
            print(table if not same_bytes else "no output moved")
        write_reference(out)
    print(f"reference rewritten under {REFERENCE_DIR} ({', '.join(f'{k} {v}' for k, v in versions().items())})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
