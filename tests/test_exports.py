"""Every name that ``gmpkit`` exports has a user besides the tests.

A name in ``gmpkit.__all__`` that nothing reads in ``src/gmpkit`` (outside
``__init__.py``), in ``perfbench/`` or in ``README.md`` is kept alive only
by its own tests: delete it, or give it a user first.
"""

import ast
import re
from pathlib import Path

import gmpkit

ROOT = Path(__file__).resolve().parents[1]


def used_names(path: Path) -> set[str]:
    """The names a module reads, bare or as attributes; definitions and imports are not reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def unused_exports(names, package: Path, texts) -> list[str]:
    """The ``names`` that no module of ``package`` reads (``__init__.py`` aside)
    and no file of ``texts`` mentions as a word."""
    read = set().union(*(used_names(path) for path in sorted(package.glob("*.py"))
                         if path.name != "__init__.py"))
    mentioned = "\n".join(path.read_text() for path in texts)
    return [name for name in names
            if name not in read and not re.search(rf"\b{re.escape(name)}\b", mentioned)]


def test_every_export_has_a_user():
    texts = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    assert unused_exports(gmpkit.__all__, ROOT / "src" / "gmpkit", texts) == []


def test_guard_sees_reads_and_skips_definitions(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import kept, dead, documented, unused\n")
    (package / "a.py").write_text(
        "def kept(): ...\ndef dead(): ...\ndef documented(): ...\nclass unused: ...\n"
    )
    (package / "b.py").write_text("from . import a\nfrom .a import dead\nx = a.kept()\n")
    readme = tmp_path / "README.md"
    readme.write_text("Call `documented()`; the word unusedness is not a use.\n")
    names = ["kept", "dead", "documented", "unused"]
    assert unused_exports(names, package, [readme]) == ["dead", "unused"]
