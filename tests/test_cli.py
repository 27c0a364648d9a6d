import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sunadalab import _kernels, chartab, cli, heatkit, permgrp
from sunadalab.cli import main, round15
from sunadalab.errors import NumericalError
from sunadalab.permgrp import bundled_group_path

AFF8 = str(bundled_group_path("aff8.group"))
AFF8_H1 = str(bundled_group_path("aff8_h1.subgroup"))
AFF8_H2 = str(bundled_group_path("aff8_h2.subgroup"))
S3 = str(bundled_group_path("s3.group"))
S4 = str(bundled_group_path("s4.group"))

ROOT = Path(__file__).resolve().parent.parent


def _load_benchmark_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_benchmark_workloads()


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_round15():
    assert round15(-0.0) == 0.0
    assert round15(0.1234567890123456789) == 0.123456789012346
    assert json.dumps(round15(1e-300)) == "1e-300"


def test_group_info_s3(capsys):
    code, report = run_cli(["group-info", S3], capsys)
    assert code == 0
    assert report["order"] == 6
    assert report["degree"] == 3
    assert report["num_classes"] == 3
    assert report["class_sizes"] == [1, 3, 2]
    assert report["irrep_degrees"] == [1, 1, 2]
    assert report["character_table"][0] == ["1+0i", "1+0i", "1+0i"]
    assert report["character_table"][2][0] == "2+0i"


def test_group_info_trivial(tmp_path, capsys):
    path = tmp_path / "t.group"
    path.write_text("degree 1\n")
    code, report = run_cli(["group-info", str(path)], capsys)
    assert code == 0
    assert report["order"] == 1
    assert report["character_table"] == [["1+0i"]]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.group"
    path.write_text("degree 3\n(0 1\n")
    code, report = run_cli(["group-info", str(path)], capsys)
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert ":2:" in report["error"]["message"]


def test_missing_file_exit_code(capsys):
    code, report = run_cli(["group-info", "/nonexistent/g.group"], capsys)
    assert code == 2
    assert report["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("case", ["group-dir", "group-latin1", "spectrum-dir"])
def test_unreadable_input_exit_code(case, tmp_path, capsys):
    # a directory, or a file that is not UTF-8, is exit 2 with a typed
    # error object, like a missing file, not a traceback
    latin1 = tmp_path / "latin1.group"
    latin1.write_bytes("degree 2\n# caf\u00e9\n".encode("latin-1"))
    argv, kind = {
        "group-dir": (["group-info", str(tmp_path)], "IsADirectoryError"),
        "group-latin1": (["group-info", str(latin1)], "UnicodeDecodeError"),
        "spectrum-dir": (["heat", "--spectrum", str(tmp_path)], "IsADirectoryError"),
    }[case]
    code, report = run_cli(argv, capsys)
    assert code == 2
    assert report["error"]["type"] == kind
    assert report["error"]["exit_code"] == 2


def test_gassmann_search_s3_empty(capsys):
    code, report = run_cli(["gassmann", S3, "--search", "2"], capsys)
    assert code == 0
    assert report["num_pairs"] == 0
    assert report["pairs"] == []


def test_gassmann_certify_bundled_pair(capsys):
    code, report = run_cli(["gassmann", AFF8, AFF8_H1, AFF8_H2], capsys)
    assert code == 0
    assert report["group_order"] == 32
    assert report["subgroup_order"] == 4
    assert report["almost_conjugate"] is True
    assert report["conjugate"] is False
    assert report["class_counts_h1"] == report["class_counts_h2"]
    assert sum(report["class_counts_h1"]) == 4


def test_gassmann_search_conflicts_with_files(capsys):
    code, report = run_cli(
        ["gassmann", AFF8, AFF8_H1, AFF8_H2, "--search", "4"], capsys
    )
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("order", ["0", "-2"])
def test_gassmann_search_order_below_one_exit_code(capsys, order):
    code, report = run_cli(["gassmann", S3, "--search", order], capsys)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert f"at least 1, got {order}" in report["error"]["message"]


def test_negative_budget_is_refused_by_name(capsys):
    code, report = run_cli(["gassmann", S3, "--search", "2", "--budget", "-1"], capsys)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert "--budget must be finite and non-negative, got -1" in report["error"]["message"]
    # a zero budget is in range: it allows no closure, and a search that
    # needs none (the trivial subgroup alone) succeeds
    code, report = run_cli(["gassmann", S3, "--search", "1", "--budget", "0"], capsys)
    assert code == 0
    assert report["num_pairs"] == 0
    code, report = run_cli(["gassmann", S3, "--search", "2", "--budget", "0"], capsys)
    assert code == 3
    assert report["error"]["type"] == "BudgetExceededError"


def test_nonclosed_subgroup_exit_code(tmp_path, capsys):
    bad = tmp_path / "h.subgroup"
    bad.write_text("(0 1 2 3 4 5 6 7)\n")  # generates more than it lists
    code, report = run_cli(["gassmann", AFF8, str(bad), AFF8_H1], capsys)
    assert code == 3
    assert report["error"]["type"] == "NotASubgroupError"


@pytest.mark.parametrize("command", ["sunada", "group-info", "gassmann"])
def test_sunada_memory_preflight(tmp_path, capsys, monkeypatch, command):
    h = tmp_path / "h.subgroup"
    h.write_text("(0 1)\n")
    argv = [command, S4] + ([] if command == "group-info" else [str(h), str(h)])
    tables = []
    build = _kernels.mul_table
    monkeypatch.setattr(
        _kernels, "mul_table", lambda *args: tables.append(args) or build(*args)
    )
    monkeypatch.setattr(permgrp, "MAX_ORDER", 23)
    code, report = run_cli(argv, capsys)
    assert code == 3
    assert report["error"]["type"] == "GroupSizeError"
    assert "max order 23" in report["error"]["message"]
    assert tables == []  # refused before the |G|^2 table
    monkeypatch.setattr(permgrp, "MAX_ORDER", 24)
    code, report = run_cli(argv, capsys)
    assert code == 0
    assert len(tables) == 1


# S7 x C2 (order 10080) and S8 (order 40320), both above isqrt(4e7) = 6324
_OVERSIZED_GROUPS = {
    "s7xc2": "degree 9\n(0 1 2 3 4 5 6)\n(0 1)\n(7 8)\n",
    "s8": "degree 8\n(0 1 2 3 4 5 6 7)\n(0 1)\n",
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED_GROUPS))
@pytest.mark.parametrize("command", ["sunada", "group-info", "gassmann"])
def test_oversized_group_is_refused_by_the_closure(tmp_path, capsys, monkeypatch,
                                                   command, name):
    # one guard for every group subcommand: the closure stops past the
    # dense cap, so no group is closed in full and no table is built
    group = tmp_path / f"{name}.group"
    group.write_text(_OVERSIZED_GROUPS[name])
    h = tmp_path / "h.subgroup"
    h.write_text("(0 1)\n")
    argv = [command, str(group)] + ([] if command == "group-info" else [str(h), str(h)])
    tables = []
    build = _kernels.mul_table
    monkeypatch.setattr(
        _kernels, "mul_table", lambda *args: tables.append(args) or build(*args)
    )
    code, report = run_cli(argv, capsys)
    assert code == 3
    assert report["error"]["type"] == "GroupSizeError"
    assert "max order 6324" in report["error"]["message"]
    assert tables == []


def test_sunada_computes_one_character_table(capsys, monkeypatch):
    # the triple certificate, the two identity checks and the K-equivalence
    # all pair with the one table the run builds for its group
    builds = []  # each table computation starts from the structure constants
    build = chartab.structure_constants
    monkeypatch.setattr(
        chartab, "structure_constants", lambda G: builds.append(G) or build(G)
    )
    code, _ = run_cli(["sunada", AFF8, AFF8_H1, AFF8_H2], capsys)
    assert code == 0
    assert len(builds) == 1


# each subcommand declares only the common flags it reads
_REMOVED_FLAGS = {
    "group-info": ["--tol", "--cluster-tol", "--nmax", "--budget", "--seed", "--max-order"],
    "gassmann": ["--tol", "--cluster-tol", "--nmax", "--seed", "--max-order"],
    "sunada": ["--nmax", "--budget", "--seed", "--max-order"],
    "heat": ["--cluster-tol", "--budget", "--max-order", "--seed"],
}
_BASE_ARGV = {
    "group-info": ["group-info", S3],
    "gassmann": ["gassmann", S3, "--search", "2"],
    "sunada": ["sunada", AFF8, AFF8_H1, AFF8_H2],
    "heat": ["heat", "--model", "circle:1"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in _REMOVED_FLAGS.items() for flag in flags],
)
def test_unread_common_flag_is_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main(_BASE_ARGV[command] + [flag, "1"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_gassmann_search_uses_seeded_table_once(capsys, monkeypatch):
    # every pair's certificate pairs with the table drawn once from the
    # fixed random.Random(0) stream
    builds = []
    build = chartab.structure_constants
    monkeypatch.setattr(
        chartab, "structure_constants", lambda G: builds.append(G) or build(G)
    )
    code, report = run_cli(["gassmann", AFF8, "--search", "4"], capsys)
    assert code == 0
    assert report["num_pairs"] > 1
    assert len(builds) == 1


def test_sunada_same_subgroup(capsys):
    code, report = run_cli(["sunada", AFF8, AFF8_H1, AFF8_H1], capsys)
    assert code == 0
    assert report["max_gap"] == 0.0
    assert report["verdict"] == "isospectral"
    assert report["triple"]["conjugate"] is True


def test_sunada_bundled_pair(capsys):
    code, report = run_cli(["sunada", AFF8, AFF8_H1, AFF8_H2], capsys)
    assert code == 0
    assert report["triple"]["almost_conjugate"] is True
    assert report["triple"]["conjugate"] is False
    assert report["k_order"] == 1
    assert report["k_equivalent"] is True
    assert report["isospectral"] is True
    assert report["max_gap"] <= 1e-9
    assert report["identity_h1"]["holds"] is True
    assert report["identity_h2"]["holds"] is True
    assert sum(m for _, m in report["spectrum_h1"]) == 8
    for (v1, m1), (v2, m2) in zip(report["spectrum_h1"], report["spectrum_h2"]):
        assert m1 == m2
        assert abs(v1 - v2) <= 1e-9


def test_sunada_negative_pair(tmp_path, capsys):
    # same order, different class counts: transpositions against double
    # transpositions in the symmetric group on four points
    h1 = tmp_path / "h1.subgroup"
    h1.write_text("(0 1)\n")
    h2 = tmp_path / "h2.subgroup"
    h2.write_text("(0 1)(2 3)\n")
    code, report = run_cli(["sunada", S4, str(h1), str(h2)], capsys)
    assert code == 0
    assert report["triple"]["almost_conjugate"] is False
    assert report["k_equivalent"] is False
    assert report["verdict"] == "not isospectral"
    assert report["isospectral"] is False


def test_sunada_unequal_orders(tmp_path, capsys):
    h1 = tmp_path / "h1.subgroup"
    h1.write_text("(0 1)\n")
    h2 = tmp_path / "h2.subgroup"
    h2.write_text("(0 1 2)\n(0 2 1)\n")
    code, report = run_cli(["sunada", S4, str(h1), str(h2)], capsys)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert "order" in report["error"]["message"]


def test_sunada_custom_gens(capsys):
    gens = "(0 1 2 3 4 5 6 7);(0 7 6 5 4 3 2 1)"
    code, report = run_cli(["sunada", AFF8, AFF8_H1, AFF8_H2, "--gens", gens], capsys)
    assert code == 0
    assert report["isospectral"] is True


def test_sunada_bad_gens(capsys):
    code, report = run_cli(["sunada", AFF8, AFF8_H1, AFF8_H2, "--gens", "(0 1"], capsys)
    assert code == 2
    code, report = run_cli(
        ["sunada", AFF8, AFF8_H1, AFF8_H2, "--gens", "(0 1)"], capsys
    )
    assert code == 3
    assert "not in the group" in report["error"]["message"]


def test_heat_indicator(capsys):
    code, report = run_cli(
        ["heat", "--model", "interval:3.141592653589793", "--nmax", "20000"], capsys
    )
    assert code == 0
    (entry,) = report["inputs"]
    assert entry["model"] == "interval_neumann"
    ind = entry["indicator"]
    assert ind["verdict"] == "singular"
    assert abs(ind["constant"] - 0.5) < 0.01


@pytest.mark.parametrize(
    "model, verdict",
    [
        ("circle:0.001", "inconclusive"),
        ("interval:0.001", "inconclusive"),
        ("circle:1", "smooth"),
        ("interval:1", "singular"),
    ],
)
def test_heat_short_model_is_inconclusive(capsys, model, verdict):
    # at L = 0.001 the fit window t <= 1e-3 lies far above L^2, where the
    # exponentially small corrections are not small: the fitted constant
    # reads about 0.98, and no verdict may be drawn from it
    code, report = run_cli(["heat", "--model", model], capsys)
    assert code == 0
    assert report["inputs"][0]["indicator"]["verdict"] == verdict


@pytest.mark.parametrize("model", ["circle:1", "interval:1", "torus:1:1"])
def test_heat_nmax_zero_is_kept(capsys, model):
    code, report = run_cli(["heat", "--model", model, "--nmax", "0"], capsys)
    assert code == 0
    assert report["inputs"][0]["nmax"] == 0


@pytest.mark.parametrize("model", ["circle:1e308", "torus:1e300:1e300", "circle:1e306"])
def test_heat_non_finite_model_exit_code(capsys, model):
    # a trace, tail bound or fit residual that overflows is refused; the
    # report never prints NaN or Infinity, nor a verdict drawn from one
    code = main(["heat", "--model", model, "--nmax", "3"])
    out = capsys.readouterr().out
    assert code == 4
    assert json.loads(out)["error"]["type"] == "NumericalError"
    assert "NaN" not in out and "Infinity" not in out


def test_normalize_refuses_non_finite_floats():
    for value in (float("nan"), float("inf"), np.float64(-np.inf)):
        with pytest.raises(NumericalError, match="not finite"):
            cli._normalize({"inputs": [{"volume": value}]})


def test_heat_torus_volume(capsys):
    code, report = run_cli(["heat", "--model", "torus:6.2832:6.2832"], capsys)
    assert code == 0
    (entry,) = report["inputs"]
    assert entry["volume_recovered"] is True
    assert abs(entry["leading_volume_estimate"] - entry["volume"]) < 0.01 * entry["volume"]


def test_heat_spectrum_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    with open(path, "w") as fh:
        heatkit.write_spectrum_json([(0.0, 1), (2.0, 2)], fh)
    code, report = run_cli(["heat", "--spectrum", str(path)], capsys)
    assert code == 0
    (entry,) = report["inputs"]
    assert entry["count"] == 3
    assert len(entry["trace"]["t"]) == 33
    assert entry["trace"]["values"][0] < 3.0


def test_heat_requires_input(capsys):
    code, report = run_cli(["heat"], capsys)
    assert code == 3


def test_heat_trace_tol_gate(capsys):
    code, report = run_cli(
        ["heat", "--model", "circle:6.2832", "--nmax", "50", "--trace-tol", "1e-9"],
        capsys,
    )
    assert code == 4
    assert report["error"]["type"] == "TailBoundError"
    assert "increase nmax" in report["error"]["message"]


def test_heat_bad_model(capsys):
    code, report = run_cli(["heat", "--model", "sphere:1.0"], capsys)
    assert code == 2
    code, report = run_cli(["heat", "--model", "circle:abc"], capsys)
    assert code == 2


def test_heat_torus_lattice_guard(capsys):
    code, report = run_cli(
        ["heat", "--model", "torus:6.28:6.28", "--nmax", "20000"], capsys
    )
    assert code == 3
    assert "nmax" in report["error"]["message"]


def _four_torus_audit(nmax):
    argv = ["heat", "--nmax", str(nmax), "--audit", "2", "2"]
    for lengths in ("1:1.5", "1:1.5", "2:1.5", "2:1.5"):
        argv += ["--model", "torus:" + lengths]
    return argv


def test_heat_audit_lattice_guard(capsys, monkeypatch):
    # each torus passes its own guard, but the audit would list all four
    # lattices: the smallest nmax past the cap is refused before any is built
    nmax = 3162
    assert 4 * nmax**2 <= cli.MAX_DENSE_ENTRIES < 4 * (nmax + 1) ** 2
    code, report = run_cli(_four_torus_audit(nmax), capsys)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert "lower --nmax" in report["error"]["message"]
    monkeypatch.setattr(cli, "MAX_DENSE_ENTRIES", 4 * 11**2)
    code, report = run_cli(_four_torus_audit(10), capsys)
    assert code == 0
    code, report = run_cli(_four_torus_audit(11), capsys)
    assert code == 3


def test_heat_circle_guard(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DENSE_ENTRIES", 100)
    code, report = run_cli(["heat", "--model", "circle:1", "--nmax", "100"], capsys)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert "lower --nmax" in report["error"]["message"]
    code, report = run_cli(["heat", "--model", "circle:1", "--nmax", "99"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--t-lo", "0"],
        ["--t-lo=-1e-4"],
        ["--t-hi", "inf"],
        ["--t-lo", "nan"],
        ["--t-num", "-1"],
        # one past the cap: refused before the grid is allocated
        ["--t-num", str(int(cli.MAX_DENSE_ENTRIES) + 1)],
    ],
)
def test_heat_bad_time_grid(capsys, argv):
    code, report = run_cli(["heat", "--model", "interval:1", *argv], capsys)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("model", ["circle:nan", "circle:inf", "interval:-inf", "torus:1:nan"])
def test_heat_non_finite_length(capsys, model):
    code, report = run_cli(["heat", "--model", model], capsys)
    assert code == 3
    assert "finite and positive" in report["error"]["message"]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_heat_non_finite_spectrum_file(tmp_path, capsys, value):
    path = tmp_path / "s.json"
    path.write_text(f"[[0.0, 1], [{value}, 2]]\n")
    code, report = run_cli(["heat", "--spectrum", str(path)], capsys)
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert "entry 1" in report["error"]["message"]


@pytest.mark.parametrize("text", ["[[0.0, true], [1.0, 2]]", "[[false, 1], [1.0, 2]]"])
def test_heat_boolean_spectrum_file(tmp_path, capsys, text):
    path = tmp_path / "s.json"
    path.write_text(text + "\n")
    code, report = run_cli(["heat", "--spectrum", str(path)], capsys)
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert "entry 0" in report["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sunada", AFF8, AFF8_H1, AFF8_H2, "--cluster-tol", "nan"],
        ["sunada", AFF8, AFF8_H1, AFF8_H2, "--cluster-tol", "-1"],
        ["sunada", AFF8, AFF8_H1, AFF8_H2, "--cluster-tol", "inf"],
        ["sunada", AFF8, AFF8_H1, AFF8_H2, "--tol", "nan"],
        ["sunada", AFF8, AFF8_H1, AFF8_H2, "--tol=-1e-9"],
        ["heat", "--model", "interval:1", "--tol", "inf"],
        ["heat", "--model", "interval:1", "--trace-tol", "nan"],
        ["heat", "--model", "interval:1", "--trace-tol", "-1"],
    ],
)
def test_bad_tolerance_exit_code(capsys, argv):
    code, report = run_cli(argv, capsys)
    assert code == 3
    assert report["error"]["type"] == "PreconditionError"
    assert "finite and non-negative" in report["error"]["message"]


def _spectrum_files(tmp_path, *mults):
    paths = []
    for i, mult in enumerate(mults):
        path = tmp_path / f"s{i}.json"
        path.write_text(f"[[0.0, {mult}]]\n")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "mults",
    [
        [10**20] * 4,
        [2**53 + 1, 2**53, 2**53, 2**53],  # 2**53 + 1 and 2**53 are one float64
        ["9" * 400] * 4,
    ],
    ids=["1e20", "2**53+1", "400-digits"],
)
def test_heat_audit_refuses_multiplicities_past_2_53(tmp_path, capsys, mults):
    paths = _spectrum_files(tmp_path, *mults)
    argv = ["heat", "--audit", "1", "1"]
    for path in paths:
        argv += ["--spectrum", path]
    code, report = run_cli(argv, capsys)
    assert code == 2
    assert report["error"]["type"] == "ParseError"
    assert report["error"]["message"] == (
        f"{paths[0]}: entry 0: multiplicities add up to more than 2**53"
    )


def test_heat_spectrum_multiplicity_sum_bound(tmp_path, capsys):
    (edge,) = _spectrum_files(tmp_path, 2**53)
    code, report = run_cli(["heat", "--spectrum", edge], capsys)
    assert code == 0
    assert report["inputs"][0]["count"] == 2**53
    path = tmp_path / "sum.json"
    path.write_text(f"[[0.0, {2**52}], [1.0, {2**52 + 1}]]\n")
    code, report = run_cli(["heat", "--spectrum", str(path)], capsys)
    assert code == 2
    assert "entry 1: multiplicities add up to more than 2**53" in report["error"]["message"]


def test_heat_trace_overflow_exit_code(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text("[[-1000000.0, 1]]\n")
    code = main(["heat", "--spectrum", str(path)])
    out = capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads(out, parse_constant=refuse)  # no Infinity or NaN
    assert code == 4
    assert report["error"]["type"] == "NumericalError"
    assert report["error"]["exit_code"] == 4
    assert "not finite" in report["error"]["message"]


def test_heat_audit(capsys):
    argv = [
        "heat",
        "--model", "interval:3.141592653589793",
        "--model", "interval:3.141592653589793",
        "--model", "circle:6.283185307179586",
        "--model", "circle:6.283185307179586",
        "--nmax", "20000",
        "--audit", "2", "2",
    ]
    code, report = run_cli(argv, capsys)
    assert code == 0
    audit = report["audibility"]
    assert audit["consistent"] is True
    assert audit["premises"]["volume_towers"] is True
    assert audit["singular_agree"] is True
    assert audit["indicator_1"]["verdict"] == "singular"
    assert audit["indicator_2"]["verdict"] == "singular"
    # the flat tori have no singularity indicator
    code, report = run_cli(_four_torus_audit(60), capsys)
    assert code == 0
    audit = report["audibility"]
    assert audit["indicator_1"] is None
    assert audit["indicator_2"] is None
    assert set(audit["premises"]) == {
        "covers_isospectral", "quotients_isospectral", "volume_towers", "degrees_equal"
    }


def test_heat_audit_needs_four_inputs(capsys):
    code, report = run_cli(
        ["heat", "--model", "circle:6.28", "--audit", "2", "2"], capsys
    )
    assert code == 3


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["sunada", AFF8, AFF8_H1, AFF8_H2, "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS.CLI_COMMANDS))
def test_bundled_report_matches_reference(name, capsys, monkeypatch):
    # the benchmark's cli-bundled commands, run in-process from the repo
    # root, must print its references exactly
    monkeypatch.chdir(ROOT)
    assert main(WORKLOADS.CLI_COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (WORKLOADS.REFS / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS.CLI_COMMANDS))
def test_out_file_holds_the_printed_bytes(name, tmp_path, capsys, monkeypatch):
    # the commands cover all four subcommands
    monkeypatch.chdir(ROOT)
    argv = WORKLOADS.CLI_COMMANDS[name]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "report.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode("utf-8")


_RUN_BUNDLED = """
import contextlib, io, json, sys
from sunadalab.cli import main
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    outputs[name] = [code, out.getvalue()]
print(json.dumps({
    "outputs": outputs,
    "numpy.ma": "numpy.ma" in sys.modules,
    "numpy.random": "numpy.random" in sys.modules,
}))
"""


def test_bundled_commands_do_not_import_numpy_ma():
    # numpy.ma costs about 16 ms of import and 0.8 MB of memory; np.unique,
    # with or without axis=, and np.setdiff1d import it on first use.
    # numpy.random costs about 15 ms and 6 MB; only seeded weights use its
    # generator
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_BUNDLED, json.dumps(WORKLOADS.CLI_COMMANDS)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    for name, (code, out) in result["outputs"].items():
        assert code == 0
        assert out.encode("utf-8") == (WORKLOADS.REFS / f"{name}.out").read_bytes(), name
    assert sorted(result["outputs"]) == sorted(WORKLOADS.CLI_COMMANDS)
    assert result["numpy.ma"] is False
    assert result["numpy.random"] is False


# values that each changed a bundled report when the environment set a
# common flag's default
_FORMER_ENV_DEFAULTS = {
    "SUNADALAB_TOL": "0",
    "SUNADALAB_CLUSTER_TOL": "0.5",
    "SUNADALAB_NMAX": "5",
    "SUNADALAB_BUDGET": "1",
    "SUNADALAB_MAX_ORDER": "1",
    "SUNADALAB_TRACE_TOL": "1e-300",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS.CLI_COMMANDS))
def test_environment_does_not_change_a_report(name, tmp_path, capsys, monkeypatch):
    for var, value in _FORMER_ENV_DEFAULTS.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setenv("SUNADALAB_OUT", str(tmp_path / "report.json"))
    monkeypatch.chdir(ROOT)
    assert main(WORKLOADS.CLI_COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (WORKLOADS.REFS / f"{name}.out").read_bytes()
    assert not (tmp_path / "report.json").exists()


def test_console_script_smoke():
    exe = shutil.which("sunadalab")
    if exe is None:
        cmd = [sys.executable, "-m", "sunadalab"]
    else:
        cmd = [exe]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        cmd + ["group-info", S3], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 6
