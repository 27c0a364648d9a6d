"""Batch command line front end.

Four subcommands: ``group-info`` summarizes a group file, ``gassmann``
certifies or searches for almost conjugate subgroup pairs, ``sunada``
runs the full Cayley-graph pipeline on a triple, and ``heat`` evaluates
flat-model indicators and the audibility chain.  All reports are JSON
with sorted keys and floats normalized to 15 significant digits, so a
fixed invocation produces byte-identical output.  Exit codes: 0 success,
2 parse failure or an input that cannot be read (missing, a directory,
not UTF-8), 3 precondition failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import chartab, gassmann, heatkit, quotspec
from .errors import (
    NumericalError,
    ParseError,
    PreconditionError,
    SunadaLabError,
)
from .permgrp import (
    DEFAULT_MAX_ORDER,
    DEFAULT_SUBGROUP_BUDGET,
    cycle_string,
    load_group_file,
    load_subgroup_file,
    parse_cycles,
    subgroup_generate,
)

ENV_PREFIX = "SUNADALAB_"
# Most entries one dense array may hold (320 MB of float64).  Commands
# that would allocate more fail with exit 3 before they allocate it.
MAX_DENSE_ENTRIES = 4e7


def _env(name, cast, fallback):
    """Default for a flag from ``SUNADALAB_<name>``; a value that does not
    parse is a ParseError, not a silent fallback."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ParseError(
            f"{ENV_PREFIX}{name}={raw!r} is not a valid {cast.__name__}"
        ) from exc


def round15(x):
    x = float(f"{float(x):.15g}")
    return 0.0 if x == 0 else x


def _normalize(obj):
    """Make a report JSON-ready: plain types only, floats at 15 digits.

    A report dataclass becomes an object keyed by its field names; this
    is the one place where a report's JSON shape is decided."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _normalize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round15(obj)
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    return obj


def _emit(report, out_path):
    text = json.dumps(_normalize(report), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_group(args):
    """Load the group file named in ``args``.  A group whose |G| x |G|
    arrays, its multiplication table first, would pass MAX_DENSE_ENTRIES
    is refused before any of them is allocated."""
    G = load_group_file(args.group, max_order=args.max_order)
    if G.order**2 > MAX_DENSE_ENTRIES:
        raise PreconditionError(
            f"a group of order {G.order} needs {G.order}x{G.order} dense "
            f"matrices, more than {MAX_DENSE_ENTRIES:.0e} entries each; "
            f"{args.command} takes orders up to {math.isqrt(int(MAX_DENSE_ENTRIES))}"
        )
    return G


def cmd_group_info(args):
    G = _load_group(args)
    cc = chartab.conjugacy_classes(G)
    ct = chartab.character_table(G)
    table_rows = [
        [chartab.format_complex(z) for z in ct.table[r]]
        for r in range(ct.num_irreps)
    ]
    return {
        "command": "group-info",
        "group_file": args.group,
        "degree": G.degree,
        "order": G.order,
        "num_classes": cc.num_classes,
        "class_sizes": list(cc.class_sizes),
        "class_representatives": [
            cycle_string(G.elements[r]) for r in cc.representatives
        ],
        "irrep_degrees": list(ct.degrees),
        "character_table": table_rows,
    }


def cmd_gassmann(args):
    G = _load_group(args)
    if args.search is not None:
        if args.h1 or args.h2:
            raise PreconditionError("--search replaces the subgroup files")
        if args.search < 1:
            raise PreconditionError(
                f"--search needs a subgroup order of at least 1, got {args.search}"
            )
        pairs = gassmann.gassmann_search(G, args.search, budget=args.budget)
        reports = [gassmann.triple_report(G, h1, h2) for h1, h2 in pairs]
        return {
            "command": "gassmann",
            "group_file": args.group,
            "group_order": G.order,
            "subgroup_order": args.search,
            "num_pairs": len(reports),
            "pairs": reports,
        }
    if not (args.h1 and args.h2):
        raise PreconditionError("need two subgroup files or --search m")
    H1 = load_subgroup_file(args.h1, G)
    H2 = load_subgroup_file(args.h2, G)
    return gassmann.triple_report(G, H1, H2)


def _cayley_space(G, gens_text):
    if gens_text:
        indices = []
        for chunk in gens_text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                perm = parse_cycles(chunk, G.degree)
            except ValueError as exc:
                raise ParseError(f"bad connection element {chunk!r}: {exc}") from exc
            try:
                indices.append(G.index_of(perm))
            except KeyError as exc:
                raise PreconditionError(f"{chunk} is not in the group") from exc
        return quotspec.cayley_graph(G, indices)
    return quotspec.cayley_graph(G)


def cmd_sunada(args):
    # the multiplication table, the Cayley weights, the Laplacian and its
    # eigenvectors are each |G| x |G|
    G = _load_group(args)
    H1 = load_subgroup_file(args.h1, G)
    H2 = load_subgroup_file(args.h2, G)
    K = load_subgroup_file(args.k, G) if args.k else subgroup_generate(G, [])
    space = _cayley_space(G, args.gens)
    triple = gassmann.triple_report(G, H1, H2)
    s1 = quotspec.invariant_spectrum(space, H1, cluster_tol=args.cluster_tol)
    s2 = quotspec.invariant_spectrum(space, H2, cluster_tol=args.cluster_tol)
    if s1.dim == s2.dim:
        gap = float(np.max(np.abs(s1.values - s2.values))) if s1.dim else 0.0
    else:
        gap = math.inf
    id1 = quotspec.sunada_identity_check(space, H1, K, cluster_tol=args.cluster_tol)
    id2 = quotspec.sunada_identity_check(space, H2, K, cluster_tol=args.cluster_tol)
    isospectral = gap <= args.tol
    return {
        "command": "sunada",
        "group_file": args.group,
        "group_order": G.order,
        "triple": triple,
        "k_order": K.order,
        "k_equivalent": gassmann.k_equivalent(G, H1, H2, K),
        "spectrum_h1": s1.clusters,
        "spectrum_h2": s2.clusters,
        "max_gap": gap if math.isfinite(gap) else "infinite",
        "identity_h1": id1,
        "identity_h2": id2,
        "isospectral": isospectral,
        "verdict": "isospectral" if isospectral else "not isospectral",
    }


# model kind -> (dimension, default nmax, constructor from lengths and nmax)
_MODELS = {
    "circle": (1, 20000, heatkit.circle_spectrum),
    "interval": (1, 20000, heatkit.interval_neumann_spectrum),
    "torus": (2, 700, heatkit.rect_torus_spectrum),
}


def _parse_model(text, nmax):
    """A flat model from ``kind:L...``.  Its factor arrays, and its lattice
    when one is built, hold up to (nmax+1)**dim entries, so a model past
    MAX_DENSE_ENTRIES is refused."""
    kind, *parts = text.split(":")
    try:
        params = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad model parameter in {text!r}") from exc
    if kind not in _MODELS or len(params) != _MODELS[kind][0]:
        raise ParseError(
            f"bad model {text!r}: expected circle:L, interval:L, or torus:a:b"
        )
    dim, default_nmax, build = _MODELS[kind]
    n = default_nmax if nmax is None else nmax
    if (n + 1) ** dim > MAX_DENSE_ENTRIES:
        raise PreconditionError(f"{kind} model at nmax={n} is too large; lower --nmax")
    return build(*params, n)


def cmd_heat(args):
    # the grid is one dense array, so --t-num is bounded before it is built
    if not (0 < args.t_lo < math.inf and 0 < args.t_hi < math.inf
            and 1 <= args.t_num <= MAX_DENSE_ENTRIES):
        raise PreconditionError(
            "--t-lo and --t-hi must be finite and positive and --t-num from 1 "
            f"to {MAX_DENSE_ENTRIES:.0e}, got {args.t_lo}, {args.t_hi}, {args.t_num}"
        )
    t_grid = np.geomspace(args.t_lo, args.t_hi, args.t_num)
    inputs = []
    for text in args.model or []:
        inputs.append((f"model {text}", _parse_model(text, args.nmax)))
    for path in args.spectrum or []:
        with open(path, encoding="utf-8") as fh:
            inputs.append((f"file {path}", heatkit.read_spectrum_json(fh, path=path)))
    if not inputs:
        raise PreconditionError("give at least one --model or --spectrum")
    entries = []
    for label, spec in inputs:
        entry = {"input": label}
        if isinstance(spec, heatkit.FlatModelSpectrum):
            if args.trace_tol is not None:
                heatkit.heat_trace(spec, t_grid, tol=args.trace_tol)
            entry["model"] = spec.model
            entry["lengths"] = list(spec.lengths)
            entry["nmax"] = spec.nmax
            entry["volume"] = spec.volume
            if spec.dim == 1:
                ind = heatkit.constant_term_estimate(spec, t_grid)
                entry["indicator"] = ind
            else:
                curve = heatkit.heat_trace(spec, [args.t_lo])
                est = float(curve.values[0] * (4.0 * np.pi * args.t_lo) ** (spec.dim / 2.0))
                entry["leading_volume_estimate"] = est
                entry["volume_recovered"] = (
                    abs(est - spec.volume) <= 0.01 * spec.volume
                )
                entry["tail_bound_max"] = curve.max_tail()
        else:
            curve = heatkit.heat_trace(spec, t_grid)
            entry["count"] = int(sum(m for _, m in spec))
            entry["trace"] = {"t": t_grid, "values": curve.values}
        entries.append(entry)
    report = {"command": "heat", "inputs": entries}
    if args.audit:
        if len(inputs) != 4:
            raise PreconditionError(
                "--audit needs exactly four inputs: quotient1 quotient2 cover1 cover2"
            )
        # spectra_close lists the lattice of every flat model and keeps it,
        # so the lattices are bounded together before any is built
        lattice = sum(
            (spec.nmax + 1) ** spec.dim
            for _, spec in inputs
            if isinstance(spec, heatkit.FlatModelSpectrum)
        )
        if lattice > MAX_DENSE_ENTRIES:
            raise PreconditionError(
                f"--audit would list {lattice} lattice entries for its flat "
                f"models, more than {MAX_DENSE_ENTRIES:.0e}; lower --nmax"
            )
        d1, d2 = args.audit
        (_, o1), (_, o2), (_, m1), (_, m2) = inputs
        audit = heatkit.singularity_audibility_report(
            o1, o2, m1, m2, d1, d2, tol=args.tol
        )
        report["audibility"] = audit
    return report


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# dest -> (type, fallback, help); SUNADALAB_<DEST> overrides the fallback
_COMMON_FLAGS = {
    "tol": (float, 1e-9, "spectral comparison tolerance"),
    "cluster_tol": (float, None, "eigenvalue clustering tolerance (default: scaled)"),
    "nmax": (int, None, "flat-model truncation index"),
    "budget": (int, DEFAULT_SUBGROUP_BUDGET,
               "closure budget for subgroup searches: one closure per "
               "N_G(H)-orbit of right cosets of each conjugacy class "
               "representative H"),
    "max_order": (int, DEFAULT_MAX_ORDER, "largest group order to enumerate"),
    "trace_tol": (float, None, "fail if a truncation bound exceeds this"),
    "out": (str, None, "write the report here instead of stdout"),
}


def _add_common(p, *dests):
    for dest in dests:
        cast, fallback, help_text = _COMMON_FLAGS[dest]
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=cast,
                       default=_env(dest.upper(), cast, fallback), help=help_text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sunadalab",
        description="isospectrality experiments on finite groups and flat models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-info", help="order, classes, character table")
    p.add_argument("group", help="group file")
    _add_common(p, "max_order", "out")
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("gassmann", help="certify or search almost conjugate pairs")
    p.add_argument("group", help="group file")
    p.add_argument("h1", nargs="?", help="first subgroup file")
    p.add_argument("h2", nargs="?", help="second subgroup file")
    p.add_argument("--search", type=int, default=None,
                   help="search all subgroup pairs of this order instead")
    _add_common(p, "max_order", "budget", "out")
    p.set_defaults(func=cmd_gassmann)

    p = sub.add_parser("sunada", help="run the Cayley pipeline on a triple")
    p.add_argument("group", help="group file")
    p.add_argument("h1", help="first subgroup file")
    p.add_argument("h2", help="second subgroup file")
    p.add_argument("--k", default=None, help="subgroup file for the equivalence level")
    p.add_argument("--gens", default=None,
                   help="semicolon-separated connection elements in cycle notation")
    _add_common(p, "max_order", "cluster_tol", "tol", "out")
    p.set_defaults(func=cmd_sunada)

    p = sub.add_parser("heat", help="flat-model indicators and audibility")
    p.add_argument("--model", action="append",
                   help="circle:L, interval:L, or torus:a:b (repeatable)")
    p.add_argument("--spectrum", action="append",
                   help="spectrum JSON file (repeatable)")
    p.add_argument("--audit", nargs=2, type=int, metavar=("D1", "D2"), default=None,
                   help="sheet counts; inputs must be O1 O2 M1 M2")
    p.add_argument("--t-lo", dest="t_lo", type=float, default=1e-4)
    p.add_argument("--t-hi", dest="t_hi", type=float, default=1e-3)
    p.add_argument("--t-num", dest="t_num", type=int, default=33)
    _add_common(p, "nmax", "tol", "trace_tol", "out")
    p.set_defaults(func=cmd_heat)

    return parser


_EXIT_CODES = (
    (ParseError, 2),
    (OSError, 2),  # a file that is missing or cannot be opened or read
    (UnicodeDecodeError, 2),
    (PreconditionError, 3),
    (NumericalError, 4),
)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for dest in ("tol", "cluster_tol", "trace_tol"):
            value = getattr(args, dest, None)
            if value is not None and not (0 <= value < math.inf):
                raise PreconditionError(
                    f"--{dest.replace('_', '-')} must be finite and non-negative, got {value}"
                )
        _emit(args.func(args), args.out)
        return 0
    except (SunadaLabError, OSError, UnicodeDecodeError) as exc:
        code = next((c for cls, c in _EXIT_CODES if isinstance(exc, cls)), 1)
        payload = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": code,
            }
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
