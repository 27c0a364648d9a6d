"""The benchmark's workloads: seeded inputs, one pass of operations, and
the checks applied to every output.

A pass is a closed loop from a single client: each operation starts when
the previous one returns.  Every pass builds its groups afresh, because
subgroup lists, tables and character tables are cached on the group
object and a reused group would make later passes nearly free.

An operation fails if it raises or if any check on its output fails.
A failure is recorded and the pass continues.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sunadalab import chartab, gassmann, permgrp, quotspec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GROUPS = "src/sunadalab/data/groups"
SPECTRAL_TOL = 1e-9


class Pass:
    """Attempted operations and failures of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def op(self, name, fn, check=None):
        """Run ``fn``; ``check(result)`` lists what is wrong with the result."""
        self.attempted += 1
        try:
            result = fn()
            problems = check(result) if check else []
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
        return result


def expect(got, want, what):
    return [] if got == want else [f"{what} is {got}, expected {want}"]


def _perm(text, degree, relabel=None):
    images = permgrp.parse_cycles(text, degree).images
    if relabel is None:
        return permgrp.Permutation(images)
    out = [0] * degree
    for i, image in enumerate(images):
        out[relabel[i]] = int(relabel[image])
    return permgrp.Permutation(out)


# ---------------------------------------------------------------------------
# search-psl32: the flagship Gassmann search
# ---------------------------------------------------------------------------

PSL32_GENS = ("(0 1 2 3 4 5 6)", "(2 4)(5 6)")


def psl32_inputs(seed):
    relabel = np.random.default_rng(seed).permutation(7)
    return {"gens": [_perm(text, 7, relabel).images for text in PSL32_GENS]}


def psl32_pass(p, inputs):
    G = p.op(
        "generate_group",
        lambda: permgrp.generate_group(7, [permgrp.Permutation(g) for g in inputs["gens"]]),
        lambda G: expect(G.order, 168, "order"),
    )

    def check_pairs(pairs):
        subs = {H.elements for pair in pairs for H in pair}
        return (
            expect(len(pairs), 49, "pairs")
            + expect(len(subs), 14, "subgroups in pairs")
            + expect({len(s) for s in subs}, {24}, "subgroup orders")
        )

    pairs = p.op("gassmann_search", lambda: gassmann.gassmann_search(G, 24), check_pairs)
    for H1, H2 in pairs or ():
        p.op(
            "triple_report",
            lambda: gassmann.triple_report(G, H1, H2),
            lambda r: expect((r.almost_conjugate, r.conjugate), (True, False), "(almost_conjugate, conjugate)"),
        )


# ---------------------------------------------------------------------------
# lattice-s5: the unpruned enumerator and counting <=> representation
# ---------------------------------------------------------------------------

def s5_inputs(seed):
    # no seeded input: the seed is accepted and ignored
    return {"gens": [_perm("(0 1 2 3 4)", 5).images, _perm("(0 1)", 5).images]}


def s5_pass(p, inputs):
    G = p.op(
        "generate_group",
        lambda: permgrp.generate_group(5, [permgrp.Permutation(g) for g in inputs["gens"]]),
        lambda G: expect(G.order, 120, "order"),
    )
    subs = p.op(
        "all_subgroups", lambda: permgrp.all_subgroups(G), lambda s: expect(len(s), 156, "subgroups")
    ) or []

    ct = p.op(
        "character_table",
        lambda: chartab.character_table(G),
        lambda t: expect(sum(d * d for d in t.degrees), G.order, "sum of squared degrees"),
    )

    def profile(H):
        mults = gassmann.induced_multiplicities(G, H)
        # the coset representation has dimension [G:H] and one trivial summand
        dim = sum(m * d for m, d in zip(mults, ct.degrees))
        return gassmann.class_intersection_counts(G, H), mults, dim

    profiles = [
        p.op(
            "induced_multiplicities",
            lambda: profile(H),
            lambda r: expect(r[2], G.order // H.order, "dimension") + expect(r[1][0], 1, "trivial multiplicity"),
        )
        for H in subs
    ]
    tally = {"pairs": 0, "almost_conjugate": 0, "nonconjugate": 0}
    for i, j in itertools.combinations(range(len(subs)), 2):
        H1, H2 = subs[i], subs[j]
        if H1.order != H2.order:
            continue

        def compare():
            (c1, m1, _), (c2, m2, _) = profiles[i], profiles[j]
            ac = c1 == c2
            tally["pairs"] += 1
            tally["almost_conjugate"] += ac
            conj = ac and permgrp.are_conjugate_subgroups(G, H1, H2)
            tally["nonconjugate"] += ac and not conj
            return ac, m1 == m2

        p.op("pair", compare, lambda r: expect(r[1], r[0], "representation equivalence"))
    p.op(
        "pair_tally",
        lambda: tally,
        lambda t: expect(t, {"pairs": 1640, "almost_conjugate": 765, "nonconjugate": 0}, "tally"),
    )


# ---------------------------------------------------------------------------
# spectral-s6: Cayley-graph spectra, the identity and the support law
# ---------------------------------------------------------------------------

S6_GENS = ("(0 1 2 3 4 5)", "(0 1)")
S6_KLEIN = (("(0 1)(2 3)", "(0 2)(1 3)"), ("(0 1)(2 3)", "(0 1)(4 5)"))


def s6_inputs(seed):
    rng = np.random.default_rng(seed)
    return {
        "weights": [float(w) for w in rng.uniform(0.5, 1.5, size=len(S6_GENS))],
        "perturb_seed": int(rng.integers(2**31)),
    }


def _spectra_agree(a, b):
    if a.values.shape != b.values.shape:
        return [f"spectrum sizes {a.values.size} and {b.values.size} differ"]
    gap = float(np.max(np.abs(a.values - b.values)))
    return [] if gap <= SPECTRAL_TOL else [f"spectra differ by {gap:.3e}"]


def s6_pass(p, inputs):
    G = p.op(
        "generate_group",
        lambda: permgrp.generate_group(6, [_perm(t, 6) for t in S6_GENS]),
        lambda G: expect(G.order, 720, "order"),
    )

    def build():
        gens = [G.index_of(g) for g in G.generators]
        return quotspec.cayley_graph(G, gens, dict(zip(gens, inputs["weights"])))

    space = p.op("cayley_graph", build, lambda s: expect(s.n, 720, "vertices"))
    spectra = []
    for gens in S6_KLEIN:
        H = p.op(
            "subgroup_generate",
            lambda: permgrp.subgroup_generate(G, [G.index_of(_perm(t, 6)) for t in gens]),
            lambda H: expect(H.order, 4, "order"),
        )
        inv = p.op(
            "invariant_spectrum",
            lambda: quotspec.invariant_spectrum(space, H),
            lambda s: expect(s.dim, 180, "invariant dimension"),
        )
        spectra.append(inv)
        p.op(
            "quotient_graph",
            lambda: quotspec.spectrum(quotspec.quotient_graph(space, H)),
            lambda q: _spectra_agree(q, inv),
        )
        p.op(
            "sunada_identity_check",
            lambda: quotspec.sunada_identity_check(space, H),
            lambda r: expect(r.holds, True, "identity")
            + expect(r.invariant_dims, r.induced_sums, "invariant dims"),
        )
    p.op("isospectral", lambda: spectra, lambda s: _spectra_agree(*s))
    p.op(
        "donnelly_support",
        lambda: quotspec.donnelly_support(space),
        lambda r: expect(r.law_holds, True, "support law"),
    )

    # the Perlis pair: stabilizers of the point 0 and of the line {0, 1, 3}
    P = p.op(
        "generate_group",
        lambda: permgrp.generate_group(7, [_perm(t, 7) for t in PSL32_GENS]),
        lambda P: expect(P.order, 168, "order"),
    )

    def stabilizers():
        point = [i for i, g in enumerate(P.elements) if g.images[0] == 0]
        line = [i for i, g in enumerate(P.elements) if {g.images[k] for k in (0, 1, 3)} == {0, 1, 3}]
        return [permgrp.subgroup_from_indices(P, idx) for idx in (point, line)]

    pair = p.op("stabilizers", stabilizers, lambda hs: expect([H.order for H in hs], [24, 24], "orders"))
    perturbed = p.op(
        "perturb_invariant_weights",
        lambda: quotspec.perturb_invariant_weights(quotspec.cayley_graph(P), seed=inputs["perturb_seed"]),
        lambda s: expect(s.n, 168, "vertices"),
    )
    perlis = [
        p.op(
            "invariant_spectrum",
            lambda: quotspec.invariant_spectrum(perturbed, H),
            lambda s: expect(s.dim, 7, "invariant dimension"),
        )
        for H in pair or ()
    ]
    p.op("isospectral", lambda: perlis, lambda s: _spectra_agree(*s))


# ---------------------------------------------------------------------------
# cli-bundled: the command line end to end on bundled inputs
# ---------------------------------------------------------------------------

CLI_COMMANDS = {
    "group-info-aff8": ["group-info", f"{GROUPS}/aff8.group"],
    "gassmann-search-aff8": ["gassmann", f"{GROUPS}/aff8.group", "--search", "4"],
    "gassmann-pair-aff8": ["gassmann", f"{GROUPS}/aff8.group", f"{GROUPS}/aff8_h1.subgroup", f"{GROUPS}/aff8_h2.subgroup"],
    "sunada-aff8": ["sunada", f"{GROUPS}/aff8.group", f"{GROUPS}/aff8_h1.subgroup", f"{GROUPS}/aff8_h2.subgroup"],
    "heat-audit": [
        "heat",
        "--model", "interval:3.141592653589793",
        "--model", "interval:3.141592653589793",
        "--model", "circle:6.283185307179586",
        "--model", "circle:6.283185307179586",
        "--audit", "2", "2",
    ],
    "heat-torus": ["heat", "--model", "torus:1:1.5", "--nmax", "2000"],
}
REFS = HERE / "refs"


def cli_inputs(seed):
    # the commands are bundled; the seed only shuffles their order
    names = sorted(CLI_COMMANDS)
    order = np.random.default_rng(seed).permutation(len(names))
    return {
        "commands": [(names[k], CLI_COMMANDS[names[k]]) for k in order],
        "refs": {name: (REFS / f"{name}.out").read_bytes() for name in names},
    }


def cli_pass(p, inputs):
    """Run each command in a fresh interpreter.  Traced, the child runs the
    CLI under a tracer and the pass merges the spans it dumps."""
    tracer = p.tracer
    spans = ROOT / ".perfbench_out" / f"cli-spans-{os.getpid()}.json"
    for name, argv in inputs["commands"]:
        if tracer is None:
            cmd = [sys.executable, "-m", "sunadalab", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]

        def run():
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
            if tracer is not None:
                tracer.merge(spans)
                spans.unlink()
                tracer.add("cli.report_bytes", len(done.stdout))
            return done

        p.op(
            name,
            run,
            lambda d: expect(d.returncode, 0, "exit code")
            + expect(d.stdout == inputs["refs"][name], True, "stdout matches the reference"),
        )


WORKLOADS = {
    "search-psl32": (psl32_inputs, psl32_pass),
    "lattice-s5": (s5_inputs, s5_pass),
    "spectral-s6": (s6_inputs, s6_pass),
    "cli-bundled": (cli_inputs, cli_pass),
}
