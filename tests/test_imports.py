"""Module boundaries inside the package: no module reaches into another
module's underscore names, so a name shared across modules is public.
The ``_kernels`` module itself may be imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sunadalab"
MODULES = sorted(SRC.glob("*.py"))


def _private_uses(tree):
    """(line, name) of each underscore name taken from a sibling module,
    by ``from .x import _name`` or as ``x._name`` on an imported module."""
    siblings, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and node.module != "sunadalab":
            continue
        for alias in node.names:
            if node.module in (None, "sunadalab"):  # a sibling module
                siblings.add(alias.asname or alias.name)
                if alias.name.startswith("_") and alias.name != "_kernels":
                    found.append((node.lineno, alias.name))
            elif alias.name.startswith("_"):
                found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_modules_are_found():
    assert {"permgrp.py", "quotspec.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_underscore_name_crosses_modules(path):
    assert _private_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_rule_catches_both_forms():
    source = (
        "from . import _kernels, permgrp\n"
        "from .permgrp import _record_class, content_lines\n"
        "_kernels.closure\n"
        "permgrp._class_label\n"
    )
    assert _private_uses(ast.parse(source)) == [
        (2, "permgrp._record_class"),
        (4, "permgrp._class_label"),
    ]
