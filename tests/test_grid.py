"""The protocol grid is spelled in ``biomech.py`` alone.

Every other module derives its activation and frequency labels and its
test codes from ``biomech.ACTIVATION_LABELS``, ``FREQUENCY_LABELS`` and
``TESTS``, so a grid label written as a string literal anywhere else is a
second definition that can drift from the first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gmpkit"
GRID_LITERALS = {"relaxed", "stiff", "low", "high", "LR", "LS", "HR", "HS"}


def _docstring_nodes(tree: ast.Module) -> set[int]:
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                nodes.add(id(first.value))
    return nodes


def grid_literals(path: Path) -> list[str]:
    """``file:line: 'label'`` for each grid label written as a string literal."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = _docstring_nodes(tree)
    return [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in GRID_LITERALS and id(node) not in docstrings
    ]


def test_grid_labels_are_spelled_only_in_biomech():
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "biomech.py" in paths
    hits = [hit for path in paths if path.name != "biomech.py" for hit in grid_literals(path)]
    assert hits == []


def test_guard_sees_literals_and_skips_docstrings(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Module docstring naming low and high."""\n'
        "def f():\n"
        '    """stiff"""\n'
        '    return {"relaxed": 1, "HS": f"xi_{2}", "lower": "low"}\n'
    )
    assert grid_literals(sample) == ["sample.py:4: 'relaxed'", "sample.py:4: 'HS'", "sample.py:4: 'low'"]
