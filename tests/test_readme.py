"""The README's Quick tour runs as printed."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour():
    """The first ```python block under the ``## Quick tour`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Quick tour\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_tour(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert float(lines[0]) < 1e-9  # the two quotient spectra agree
    assert lines[-1] == "True"  # the multiplicity identity holds
