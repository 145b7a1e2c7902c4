"""The README's library example runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

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
