"""The full message of every line-numbered error in the text file formats:
group, subgroup, action and graph files.  Comment and blank lines count
toward the line numbers."""

import pytest

import sunadalab as sl
from sunadalab import NotASubgroupError, ParseError

Z3_GROUP = "degree 3\n(0 1 2)\n"
TRIANGLE = "0 1 1.0\n1 2 1.0\n0 2 1.0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("# header next\ndegree 4\n\n(0 1)\n(0 x)\n", 5, "malformed cycle token: (0 x)"),
        ("degree 4\n(0 1) # a transposition\n(0 4)\n", 3, "point 4 out of range for degree 4"),
        ("degree 4\n(0 1)(1 2)\n", 2, "point 1 repeated across cycles"),
        ("degree 4\n(0 1] \n", 2, "malformed cycle token near '(0 1]'"),
        ("degree 4\n(0)\n", 2, "cycle (0) must name at least two points"),
        ("\n# nothing\n  degree x\n", 3, "expected 'degree n' header, got 'degree x'"),
        ("degree 0\n", 1, "degree must be positive"),
    ],
)
def test_group_file_error(tmp_path, text, line, detail):
    path = _write(tmp_path, "g.group", text)
    with pytest.raises(ParseError) as exc_info:
        sl.load_group_file(path)
    assert str(exc_info.value) == f"{path}:{line}: {detail}"
    assert exc_info.value.line == line
    assert exc_info.value.path == path


def test_empty_group_file(tmp_path):
    path = _write(tmp_path, "g.group", "# only a comment\n\n")
    with pytest.raises(ParseError) as exc_info:
        sl.load_group_file(path)
    assert str(exc_info.value) == f"{path}: empty group file"


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("(0 1 2)\n\n# next\n(0 1 2 3)\n", 4, "point 3 out of range for degree 3"),
        ("(0 2 1)\n(0 1 x)\n", 2, "malformed cycle token: (0 1 x)"),
    ],
)
def test_subgroup_file_error(tmp_path, text, line, detail):
    G = sl.load_group_file(_write(tmp_path, "z3.group", Z3_GROUP))
    path = _write(tmp_path, "h.subgroup", text)
    with pytest.raises(ParseError) as exc_info:
        sl.load_subgroup_file(path, G)
    assert str(exc_info.value) == f"{path}:{line}: {detail}"


def test_subgroup_file_element_outside_group(tmp_path):
    G = sl.load_group_file(_write(tmp_path, "z3.group", Z3_GROUP))
    # the first bad line decides, whichever of the two errors it holds
    path = _write(tmp_path, "h.subgroup", "# z3\n(0 1)\n(0 x)\n")
    with pytest.raises(NotASubgroupError) as exc_info:
        sl.load_subgroup_file(path, G)
    assert str(exc_info.value) == f"{path}:2: (0 1) is not in the group"


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("# rotation\n\n(0 1 2 3)\n", 3, "point 3 out of range for degree 3"),
        ("(0 1 2\n", 1, "malformed cycle token near '(0 1 2'"),
    ],
)
def test_action_file_error(tmp_path, text, line, detail):
    G = sl.load_group_file(_write(tmp_path, "z3.group", Z3_GROUP))
    graph = sl.parse_graph_tsv(TRIANGLE)
    path = _write(tmp_path, "a.action", text)
    with pytest.raises(ParseError) as exc_info:
        sl.load_action_file(path, G, graph)
    assert str(exc_info.value) == f"{path}:{line}: {detail}"


def test_action_file_count(tmp_path):
    G = sl.load_group_file(_write(tmp_path, "z3.group", Z3_GROUP))
    graph = sl.parse_graph_tsv(TRIANGLE)
    path = _write(tmp_path, "a.action", "(0 1 2)\n# again\n(0 2 1)\n")
    with pytest.raises(ParseError) as exc_info:
        sl.load_action_file(path, G, graph)
    assert str(exc_info.value) == (
        f"{path}: found 2 vertex permutations, expected one per group generator (1)"
    )


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("vertices 3\n0 1 1.0\n# c\n\n1 2\n", 5, "expected 'u v w', got '1 2'"),
        ("# no header\n0 1 x\n", 2, "could not convert string to float: 'x'"),
        ("0 1 1.0\n1 1 2.0 # loop\n", 2, "self-loop at vertex 1"),
        ("0 1 1.0\n1 0 2.0\n", 2, "edge {1, 0} listed twice"),
        ("0 1 -1.0\n", 1, "edge weight must be positive, got -1.0"),
        ("0 -1 1.0\n", 1, "vertex indices must be non-negative"),
    ],
)
def test_graph_file_error(tmp_path, text, line, detail):
    path = _write(tmp_path, "g.tsv", text)
    with pytest.raises(ParseError) as exc_info:
        sl.load_graph_file(path)
    assert str(exc_info.value) == f"{path}:{line}: {detail}"


def test_graph_file_declared_count(tmp_path):
    path = _write(tmp_path, "g.tsv", "vertices 2 # too few\n0 2 1.0\n")
    with pytest.raises(ParseError) as exc_info:
        sl.load_graph_file(path)
    assert str(exc_info.value) == f"{path}: vertex 2 exceeds declared count 2"
