"""The full message of every line-numbered error in the text file formats:
group and subgroup files.  Comment and blank lines count toward the line
numbers."""

import pytest

import sunadalab as sl
from sunadalab import GroupSizeError, NotASubgroupError, ParseError

Z3_GROUP = "degree 3\n(0 1 2)\n"


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


def test_group_file_degree_past_the_max_order(tmp_path):
    # refused at the header, before the malformed generator line is read
    path = _write(tmp_path, "g.group", "degree 400000000\n(0 x)\n")
    with pytest.raises(GroupSizeError) as exc_info:
        sl.load_group_file(path)
    assert str(exc_info.value) == "degree 400000000 exceeds max order 6324"
    path = _write(tmp_path, "g.group", "degree 6324\n(0 x)\n")
    with pytest.raises(ParseError):
        sl.load_group_file(path)


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
