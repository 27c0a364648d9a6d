"""Module boundaries inside the package: no module reaches into another
module's underscore names, so a name shared across modules is public.
The ``_kernels`` module itself may be imported.  numpy's generator is used
only for seeded weights, in ``quotspec.coset_gspace`` and
``quotspec.perturb_invariant_weights``, so a process that only builds
character tables never imports ``numpy.random``.  Every name a module
other than ``__init__`` imports is read in that module."""

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


def _unused_imports(tree):
    """(line, name) of each name bound by an import and never read; names
    from ``__future__`` are compiler directives, not bindings."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        imported += [(node.lineno, name) for name in names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for line, name in imported if name not in read)


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_read(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_import_rule_catches_both_forms():
    source = (
        "from __future__ import annotations\n"
        "import re\n"
        "import numpy as np\n"
        "from .errors import ParseError, PreconditionError\n"
        "import os.path\n"
        "raise PreconditionError(np.pi, os.sep)\n"
    )
    assert _unused_imports(ast.parse(source)) == [(2, "re"), (4, "ParseError")]


def _nodes_inside(tree, names):
    """Ids of the nodes inside the functions named in ``names``."""
    return {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in names
        for node in ast.walk(fn)
    }


# module -> functions that may use numpy's generator
NUMPY_GENERATOR_OWNERS = {"quotspec.py": ("coset_gspace", "perturb_invariant_weights")}


def _numpy_random_uses(tree, owners=()):
    """Line of each reference to ``np.random`` or ``numpy.random``, as an
    attribute or in an import, outside the functions named in ``owners``."""
    exempt = _nodes_inside(tree, owners)
    is_random = lambda name: name.split(".")[:2] == ["numpy", "random"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
        elif isinstance(node, ast.Import):
            hit = any(is_random(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = is_random(node.module or "") or node.module == "numpy" and any(
                alias.name == "random" for alias in node.names
            )
        else:
            hit = False
        if hit and id(node) not in exempt:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_seeded_weights_use_numpy_random(path):
    owners = NUMPY_GENERATOR_OWNERS.get(path.name, ())
    assert _numpy_random_uses(ast.parse(path.read_text(encoding="utf-8")), owners) == []


def test_numpy_random_rule_catches_both_spellings():
    source = (
        "np.random.default_rng(0)\n"
        "numpy.random.normal()\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "random.Random(0).gauss(0.0, 1.0)\n"
        "def coset_gspace(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    tree = ast.parse(source)
    assert _numpy_random_uses(tree) == [1, 2, 3, 4, 5, 8]
    assert _numpy_random_uses(tree, ("coset_gspace",)) == [1, 2, 3, 4, 5]
