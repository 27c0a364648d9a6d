"""End-to-end checks, one per shipped guarantee.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line on
the terminal regardless of capture settings, then asserts.  Tolerances
are pinned in the assertions, not in shared constants, so a change here
is visible in review.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import sunadalab as sl
from sunadalab import quotspec as qs
from sunadalab import heatkit as hk
from sunadalab.cli import main
from sunadalab.gassmann import (
    almost_conjugate,
    induced_multiplicities,
    representation_equivalent,
)
from sunadalab.permgrp import bundled_group_path

AFF8 = str(bundled_group_path("aff8.group"))

CRITERION_GROUPS = ["s3", "s4", "d4", "q8", "aff8"]


def test_criterion_1_search_finds_certified_pairs(tmp_path, announce):
    out = tmp_path / "search.json"
    start = time.perf_counter()
    code = main(["gassmann", AFF8, "--search", "4", "--out", str(out)])
    elapsed = time.perf_counter() - start
    report = json.loads(out.read_text())
    ok = code == 0 and elapsed < 10.0
    ok = ok and report["group_order"] == 32 and report["num_pairs"] >= 1
    for pair in report["pairs"]:
        ok = ok and pair["almost_conjugate"] is True
        ok = ok and pair["conjugate"] is False
        ok = ok and pair["class_counts_h1"] == pair["class_counts_h2"]
        ok = ok and pair["subgroup_order"] == 4
    announce(1, ok, f"{report['num_pairs']} pairs in {elapsed:.2f}s")


def test_criterion_2_isospectral_quotients(aff8_triple, announce):
    G, h1, h2 = aff8_triple
    space = qs.cayley_graph(G)  # connection set closed under inversion
    worst = 0.0
    dims = set()
    for seed in [None, 0, 1, 2, 3, 4]:
        probe = space if seed is None else qs.perturb_invariant_weights(space, seed=seed)
        s1 = qs.invariant_spectrum(probe, h1)
        s2 = qs.invariant_spectrum(probe, h2)
        dims.update([s1.dim, s2.dim])
        worst = max(worst, float(np.max(np.abs(np.sort(s1.values) - np.sort(s2.values)))))
    ok = worst < 1e-9 and dims == {G.order // h1.order}
    announce(2, ok, f"max gap {worst:.2e} over base + 5 perturbations, dim {dims}")


def test_criterion_3_multiplicity_identity(z6, s3, d4, aff8_triple, announce):
    checked = 0
    ok = True

    def verify(report):
        nonlocal checked, ok
        checked += 1
        ok = ok and report.invariant_dims == report.induced_sums and bool(report)

    z3 = sl.subgroup_generate(z6, [z6.index_of(sl.parse_cycles("(0 2 4)(1 3 5)", 6))])
    verify(qs.sunada_identity_check(qs.cayley_graph(z6), z3))

    G, h1, h2 = aff8_triple
    cayley = qs.cayley_graph(G)
    verify(qs.sunada_identity_check(cayley, h1))
    verify(qs.sunada_identity_check(cayley, h2))

    for seed in range(10):
        group = s3 if seed % 2 == 0 else d4
        rng = np.random.default_rng([7, seed])
        subs = sl.all_subgroups(group)
        parts = [subs[i] for i in rng.integers(0, len(subs), size=rng.integers(1, 3))]
        space = qs.coset_gspace(group, parts, weight_seed=seed)
        H = subs[int(rng.integers(0, len(subs)))]
        verify(qs.sunada_identity_check(space, H))

    announce(3, ok, f"{checked} identity checks, all exact")


def test_criterion_4_counting_equals_representation(groups, announce):
    pairs = 0
    exceptions = 0
    for name in CRITERION_GROUPS:
        G = groups[name]
        ct = sl.character_table(G)
        subs = sl.all_subgroups(G)
        counts = [sl.class_intersection_counts(G, H) for H in subs]
        induced = [induced_multiplicities(G, H, ct) for H in subs]
        for i, j in itertools.combinations(range(len(subs)), 2):
            pairs += 1
            by_counting = counts[i] == counts[j]
            by_characters = induced[i] == induced[j]
            if by_counting != by_characters:
                exceptions += 1
            if almost_conjugate(G, subs[i], subs[j]) != by_counting:
                exceptions += 1
            if representation_equivalent(G, subs[i], subs[j], ct=ct) != by_characters:
                exceptions += 1
    announce(4, exceptions == 0, f"{pairs} subgroup pairs, {exceptions} exceptions")


def test_criterion_5_frobenius_reciprocity(groups, announce):
    # [Ind_H^G 1 : chi] from the permutation character against the
    # average (1/|H|) sum_{h in H} chi(h) taken straight from the table;
    # every table here is integer valued, so the average is exact
    checked = 0
    ok = True
    for name in CRITERION_GROUPS:
        G = groups[name]
        ct = sl.character_table(G)
        rows = np.round(ct.table.real).astype(int)
        ok = ok and bool(np.max(np.abs(ct.table - rows)) < 1e-9)
        rows = rows.tolist()
        class_of = ct.partition.class_of.tolist()
        for H in sl.all_subgroups(G):
            induced = induced_multiplicities(G, H, ct)
            for row in range(ct.num_irreps):
                average = Fraction(sum(rows[row][class_of[h]] for h in H.elements), H.order)
                ok = ok and induced[row] == average
                checked += 1
    announce(5, ok, f"{checked} subgroup/irrep pairs, all exact")


def test_criterion_6_quotient_routes_agree(z6, announce):
    space = qs.cayley_graph(z6)
    z3 = sl.subgroup_generate(z6, [z6.index_of(sl.parse_cycles("(0 2 4)(1 3 5)", 6))])
    via_graph = qs.spectrum(qs.quotient_graph(space, z3)).values
    via_projection = qs.invariant_spectrum(space, z3).values
    target = np.array([0.0, 4.0])
    gap = max(
        float(np.max(np.abs(via_graph - target))),
        float(np.max(np.abs(via_projection - target))),
        float(np.max(np.abs(via_graph - via_projection))),
    )
    announce(6, gap < 1e-9, f"spectra {{0, 4}} agree to {gap:.2e}")


def test_criterion_7_support_law(s3, z4, announce):
    triv_s3 = sl.subgroup_generate(s3, [])
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    T = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    whole_s3 = sl.subgroup_from_indices(s3, range(6))
    triv_z4 = sl.subgroup_generate(z4, [])
    z2 = sl.subgroup_generate(z4, [z4.index_of(sl.parse_cycles("(0 2)(1 3)", 4))])
    whole_z4 = sl.subgroup_from_indices(z4, range(4))
    layouts = [
        (s3, [triv_s3]),              # free
        (s3, [whole_s3]),             # trivial action
        (s3, [A3, T]),                # mixed stabilizers
        (s3, [T, triv_s3]),
        (z4, [triv_z4]),              # free
        (z4, [whole_z4]),             # trivial action
        (z4, [z2, triv_z4]),          # mixed stabilizers
        (z4, [z2, z2]),
        (s3, [A3, A3, triv_s3]),
        (z4, [whole_z4, triv_z4]),
    ]
    ok = True
    for seed, (G, parts) in enumerate(layouts):
        space = qs.coset_gspace(G, parts, weight_seed=seed)
        report = qs.donnelly_support(space)
        ok = ok and report.law_holds and report.observed_rows == report.union_rows
    announce(7, ok, f"{len(layouts)} randomized spaces, support equals prediction")


def test_criterion_8_heat_trace_toolkit(announce):
    start = time.perf_counter()
    interval = hk.interval_neumann_spectrum(np.pi, 20000)
    circle = hk.circle_spectrum(2 * np.pi, 20000)
    grid = np.geomspace(1e-4, 1e-3, 33)
    ind_i = hk.constant_term_estimate(interval, grid)
    ind_c = hk.constant_term_estimate(circle, grid)
    ok = abs(ind_i.constant - 0.5) < 0.01 and ind_i.verdict == "singular"
    ok = ok and abs(ind_c.constant) < 0.01 and ind_c.verdict == "smooth"

    t = np.geomspace(1e-3, 1.0, 13)
    half_i = hk.heat_trace(hk.interval_neumann_spectrum(np.pi, 1000), t)
    half_c = hk.heat_trace(hk.circle_spectrum(2 * np.pi, 1000), t)
    identity_gap = float(np.max(np.abs(half_i.values - (0.5 * half_c.values + 0.5))))
    ok = ok and identity_gap <= 1e-10

    torus = hk.rect_torus_spectrum(2 * np.pi, 2 * np.pi, 700)
    recovered = []
    for spec in (circle, interval, torus):
        t0 = 1e-4
        val = hk.heat_trace(spec, [t0]).values[0]
        est = val * (4.0 * np.pi * t0) ** (spec.dim / 2.0)
        recovered.append(abs(est - spec.volume) <= 0.01 * spec.volume)
    ok = ok and all(recovered)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    announce(
        8,
        ok,
        f"constants {ind_i.constant:.3f}/{ind_c.constant:.3f}, "
        f"identity gap {identity_gap:.1e}, volumes recovered, {elapsed:.2f}s",
    )


def test_criterion_9_dirichlet_cells(aff8_triple, announce):
    G, h1, _ = aff8_triple
    space = qs.cayley_graph(G)
    cells = qs.fundamental_domain(space, h1)
    ok = len(cells.centers) == h1.order == 4

    seen = set()
    sizes = set()
    for cell in cells.cells:
        sizes.add(len(cell))
        ok = ok and not (seen & set(cell))  # disjoint
        seen.update(cell)
    ok = ok and len(sizes) == 1

    # translating by h in H carries the cell at center c to the cell at h.c
    perms = space.vertex_perms
    cell_at = {cells.centers[i]: set(cells.cells[i]) for i in range(len(cells.centers))}
    for h in h1.indices():
        for c, cell in cell_at.items():
            image = {int(perms[h][v]) for v in cell}
            ok = ok and image == cell_at[int(perms[h][c])]

    degree = qs.cover_degree(space, h1)  # |H| for a free action, by orbit-stabilizer
    ok = ok and degree == 4
    announce(
        9,
        ok,
        f"4 cells of size {sizes}, {len(cells.boundary)} boundary vertices, degree {degree}",
    )


def test_criterion_10_character_tables(groups, announce):
    ok = True
    worst = 0.0
    for name in ["s3", "z6", "d4", "q8"]:
        G = groups[name]
        ct = sl.character_table(G)
        ok = ok and sum(d * d for d in ct.degrees) == G.order
        sizes = np.asarray(ct.partition.class_sizes, dtype=np.float64)
        gram = (ct.table * sizes) @ ct.table.conj().T / G.order
        gap = float(np.max(np.abs(gram - np.eye(ct.num_irreps))))
        worst = max(worst, gap)
        ok = ok and gap <= 1e-9
    same = sl.abstract_table_fingerprint(
        sl.character_table(groups["d4"])
    ) == sl.abstract_table_fingerprint(sl.character_table(groups["q8"]))
    ok = ok and same
    announce(10, ok, f"orthogonality gap {worst:.2e}, d4/q8 tables coincide: {same}")
