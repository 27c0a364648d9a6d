"""The README's Quick tour runs as printed, and its table of common
flags lists the ones each subcommand declares."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from sunadalab import cli

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


def _common_flag_table():
    """subcommand -> flags named in the README's "subcommand | common
    flags" table."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n| subcommand | common flags |\n"):]
    rows = {}
    for line in section.splitlines()[3:]:
        if not line.startswith("|"):
            break
        command, flags = line.strip("|").split("|")
        rows[command.strip().strip("`")] = set(re.findall(r"`(--[a-z-]+)`", flags))
    return rows


def _declared_common_flags():
    """subcommand -> common flags its parser declares."""
    common = {"--" + dest.replace("_", "-") for dest in cli._COMMON_FLAGS}
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {s for a in p._actions for s in a.option_strings} & common
        for name, p in sub.choices.items()
    }


def test_common_flag_table_matches_the_parser():
    assert _common_flag_table() == _declared_common_flags()
