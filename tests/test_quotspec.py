import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sunadalab as sl
from sunadalab import quotspec as qs
from sunadalab.errors import (
    DisconnectedGraphError,
    NonFreeActionError,
    PreconditionError,
)

import oracles


def _cycle_weights(n):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    return w


# --- graphs and validation ---------------------------------------------------

def test_weighted_graph_validation():
    with pytest.raises(PreconditionError):
        qs.weighted_graph(np.ones((2, 3)))
    with pytest.raises(PreconditionError):
        qs.weighted_graph([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(PreconditionError):
        qs.weighted_graph([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(PreconditionError):
        qs.weighted_graph([[1.0, 0.0], [0.0, 0.0]])  # self loop
    with pytest.raises(PreconditionError):
        qs.weighted_graph([[0.0, np.inf], [np.inf, 0.0]])


def test_connectivity_flag():
    assert qs.weighted_graph(_cycle_weights(4)).connected
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    assert not qs.weighted_graph(w).connected


def test_laplacian_rows_sum_to_zero():
    g = qs.weighted_graph(_cycle_weights(5))
    lap = qs.laplacian(g)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(lap, lap.T)


def test_path_and_k2_spectra():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    decomp = qs.spectrum(qs.weighted_graph(w))
    assert np.allclose(decomp.values, [0.0, 1.0, 3.0], atol=1e-12)
    k2 = qs.spectrum(qs.weighted_graph([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(k2.values, [0.0, 2.0], atol=1e-12)


def test_cycle_spectrum_closed_form():
    n = 6
    decomp = qs.spectrum(qs.weighted_graph(_cycle_weights(n)))
    expect = np.sort([2.0 - 2.0 * np.cos(2 * np.pi * k / n) for k in range(n)])
    assert np.max(np.abs(decomp.values - expect)) < 1e-12


def test_clustering_merges_repeats():
    decomp = qs.cluster_eigenvalues([0.0, 1.0, 1.0 + 1e-12, 3.0])
    assert decomp.multiplicities() == (1, 2, 1)
    tight = qs.cluster_eigenvalues([0.0, 1.0, 1.0 + 1e-12, 3.0], cluster_tol=1e-14)
    assert tight.multiplicities() == (1, 1, 1, 1)


# Multiples of 1/8 in [-5, 5] with tolerances in {0, 1/8, ..., 1/2}: ties
# and gaps of exactly cluster_tol are common, and every sum a cluster mean
# takes is exact, so the oracle's mean must agree to the last bit.
@settings(max_examples=300, deadline=None)
@example(values=[], tol=0.0)
@given(
    st.lists(st.integers(-40, 40).map(lambda k: k / 8), max_size=40),
    st.integers(0, 4).map(lambda k: k / 8),
)
def test_clustering_matches_loop_oracle(values, tol):
    values = sorted(values)
    decomp = qs.cluster_eigenvalues(values, cluster_tol=tol)
    assert decomp.clusters == tuple(oracles.cluster_eigenvalues(values, tol))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), max_size=40),
    st.floats(0.0, 1.0),
)
def test_clustering_boundaries_match_loop_oracle(values, tol):
    # arbitrary floats: the same runs, with neighbour gaps computed alike
    values = sorted(values)
    sizes = qs.cluster_eigenvalues(values, cluster_tol=tol).multiplicities()
    assert sizes == tuple(size for _, size in oracles.cluster_eigenvalues(values, tol))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, -1e-300])
def test_clustering_rejects_bad_tolerance(tol):
    with pytest.raises(PreconditionError):
        qs.cluster_eigenvalues([0.0, 1.0], cluster_tol=tol)


# --- actions -----------------------------------------------------------------

def test_cayley_graph_structure(z6):
    space = qs.cayley_graph(z6)
    assert space.n == 6
    assert space.graph.connected
    assert np.allclose(space.graph.weights, _cycle_weights(6))


def test_cayley_rejects_identity_connection(z6):
    with pytest.raises(PreconditionError):
        qs.cayley_graph(z6, [0])


def test_cayley_rejects_lopsided_weights(z6):
    gen = 1  # index of the rotation in canonical order
    inv = z6.inv(gen)
    with pytest.raises(PreconditionError):
        qs.cayley_graph(z6, [gen], {gen: 1.0, inv: 2.0})


def test_cayley_weights_are_not_written_back(s3):
    # element 2 is a transposition, 3 a 3-cycle whose inverse 4 has no
    # weight of its own; the caller's dict stays as it was
    weights = {2: 1.0, 3: 2.0}
    space = qs.cayley_graph(s3, [2, 3], weights)
    assert weights == {2: 1.0, 3: 2.0}
    w = space.graph.weights
    assert w[0, 3] == w[0, 4] == 2.0 and w[0, 2] == 1.0


@pytest.mark.parametrize("weights, missing", [({1: 2.0}, 2), ({2: 1.0}, 3)])
def test_cayley_rejects_unweighted_connection(s3, weights, missing):
    given = dict(weights)
    with pytest.raises(PreconditionError, match=f"connection element {missing} "):
        qs.cayley_graph(s3, [2, 3], weights)
    assert weights == given


def test_gspace_rejects_non_integer_table(z4):
    graph = qs.cayley_graph(z4).graph
    with pytest.raises(PreconditionError, match="integers"):
        qs.gspace(z4, graph, z4.table + 0.4)


def test_gspace_checks_range_before_narrowing(z4):
    graph = qs.cayley_graph(z4).graph
    wrapped = z4.table.astype(np.int64) + 2**32
    # the cast to int32 alone would turn this table into a valid one
    assert np.array_equal(wrapped.astype(np.int32), z4.table)
    with pytest.raises(PreconditionError, match="not a permutation"):
        qs.gspace(z4, graph, wrapped)


def test_gspace_copies_a_writable_action(z4):
    graph = qs.cayley_graph(z4).graph
    a = np.array(z4.table)
    space = qs.gspace(z4, graph, a)
    a[1] = a[2]  # the caller may change its array, not the checked action
    assert np.array_equal(space.vertex_perms, z4.table)
    # a read-only view is copied too while its base can be written
    view = np.array(z4.table).view()
    view.flags.writeable = False
    assert not np.shares_memory(qs.gspace(z4, graph, view).vertex_perms, view)


def test_cayley_action_is_the_read_only_group_table(s4):
    space = qs.cayley_graph(s4)
    assert space.vertex_perms.dtype == np.int32
    assert np.shares_memory(space.vertex_perms, s4.table)
    for table in (space.vertex_perms, s4.table):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_laplacian_is_d_minus_w_bit_for_bit(s4):
    subs = sl.all_subgroups(s4)
    space = qs.coset_gspace(s4, [subs[0], subs[len(subs) // 2]], weight_seed=3)
    w = space.graph.weights
    assert np.any(w == 0) and np.any(w > 0)
    lap = qs.laplacian(space.graph)
    assert lap.tobytes() == (np.diag(w.sum(1)) - w).tobytes()
    assert not np.signbit(lap[lap == 0]).any()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_s5_cayley_footprint():
    # traced peaks in units of one n x n float64 array; the bounds allow
    # the arrays each step needs and fail if a spare copy comes back
    G = sl.generate_group(
        5, [sl.parse_cycles("(0 1 2 3 4)", 5), sl.parse_cycles("(0 1)", 5)]
    )
    G.table  # the group's own table is not part of the measurement
    unit = G.order**2 * 8
    space = qs.cayley_graph(G)
    assert _peak_bytes(lambda: qs.cayley_graph(G)) < 3.5 * unit
    assert _peak_bytes(lambda: qs.laplacian(space.graph)) < 1.25 * unit
    klein = sl.subgroup_generate(
        G, [G.index_of(sl.parse_cycles(c, 5)) for c in ("(0 1)(2 3)", "(0 2)(1 3)")]
    )
    assert _peak_bytes(lambda: qs.invariant_spectrum(space, klein)) < 2.5 * unit


def test_gspace_validates_homomorphism(s3):
    graph = qs.weighted_graph(_cycle_weights(6))
    bad = np.tile(np.arange(6), (6, 1))
    bad[3] = np.roll(np.arange(6), 1)
    with pytest.raises(PreconditionError):
        qs.gspace(s3, graph, bad)


@pytest.mark.parametrize("name", ["s3", "aff8"])
def test_gspace_rejects_each_corrupted_row(groups, name):
    # gspace checks the homomorphism property on the generator rows only;
    # a changed row of any other element must still be rejected
    G = groups[name]
    space = qs.cayley_graph(G)
    assert len(G.generators) < G.order - 1
    for g in range(1, G.order):
        swapped = space.vertex_perms.copy()
        swapped[g, [0, 1]] = swapped[g, [1, 0]]
        repeated = space.vertex_perms.copy()
        repeated[g, 0] = repeated[g, 1]
        for bad in (swapped, repeated):
            with pytest.raises(PreconditionError):
                qs.gspace(G, space.graph, bad)


def test_gspace_sort_checks_only_generator_rows(aff8):
    # only the generator rows are sorted; a non-generator row that is in
    # range but repeats a vertex fails the homomorphism check instead
    space = qs.cayley_graph(aff8)
    gens = qs._generator_rows(aff8)
    g = next(x for x in range(1, aff8.order) if x not in gens)
    bad = space.vertex_perms.copy()
    bad[g] = bad[g, 0]
    with pytest.raises(PreconditionError, match="not a homomorphism"):
        qs.gspace(aff8, space.graph, bad)
    bad = space.vertex_perms.copy()
    bad[gens[0]] = bad[gens[0], 0]
    with pytest.raises(PreconditionError, match=f"row {gens[0]} of the action is not a permutation"):
        qs.gspace(aff8, space.graph, bad)


def test_gspace_validates_weight_preservation(z6):
    w = _cycle_weights(6)
    w[0, 1] = w[1, 0] = 2.0  # break the symmetry of the cycle
    with pytest.raises(PreconditionError):
        qs.gspace(z6, qs.weighted_graph(w), np.asarray(z6.table))


def test_gspace_rejects_an_edge_carried_onto_a_non_edge(z6):
    # the path 0-1-2-3-4-5: the rotation carries each edge {i, i + 1} with
    # i < 4 onto an edge of equal weight, but {4, 5} onto the non-edge {5, 0}
    w = _cycle_weights(6)
    w[5, 0] = w[0, 5] = 0.0
    with pytest.raises(PreconditionError, match="does not preserve the edge weights"):
        qs.gspace(z6, qs.weighted_graph(w), np.asarray(z6.table))


def test_vertex_orbits_and_freeness(s3):
    triv = sl.subgroup_generate(s3, [])
    space = qs.coset_gspace(s3, [triv])  # regular action
    assert qs.is_free(space)
    assert qs.vertex_orbits(space) == [tuple(range(6))]
    H = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    mixed = qs.coset_gspace(s3, [H])
    assert not qs.is_free(mixed)


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "aff8"])
def test_vertex_orbits_match_oracle(groups, name):
    G = groups[name]
    subs = sl.all_subgroups(G)
    # the action on G/H for each H, and on a union of three coset spaces
    spaces = [qs.coset_gspace(G, [H]) for H in subs]
    spaces.append(qs.coset_gspace(G, [subs[0], subs[-1], subs[len(subs) // 2]]))
    for space in spaces:
        for H in subs:
            perms = space.vertex_perms[H.indices()].tolist()
            assert qs.vertex_orbits(space, H) == oracles.vertex_orbits(perms, space.n)
        whole = space.vertex_perms.tolist()
        assert qs.vertex_orbits(space) == oracles.vertex_orbits(whole, space.n)


@pytest.mark.parametrize("name", ["s3", "s4", "d4", "aff8"])
def test_subgroup_actions_match_oracles(groups, name):
    G = groups[name]
    subs = sl.all_subgroups(G)
    spaces = [qs.cayley_graph(G), qs.coset_gspace(G, [subs[0], subs[len(subs) // 2]])]
    for space in spaces:
        for H in subs:
            perms = space.vertex_perms[H.indices()].tolist()
            expected = np.asarray(oracles.averaging_projector(perms, space.n))
            assert np.array_equal(qs.averaging_projector(space, H), expected)
            free = oracles.is_free(perms)
            assert qs.is_free(space, H) is free
            if not free:
                continue
            assert qs.cover_degree(space, H) == H.order
            if space.graph.connected:
                for v in {0, space.n - 1}:
                    cells = qs.fundamental_domain(space, H, base_vertex=v)
                    assert cells.centers == tuple(sorted(row[v] for row in perms))


# --- quotients ---------------------------------------------------------------

@pytest.fixture
def c6_with_z3(z6):
    space = qs.cayley_graph(z6)
    z3 = sl.subgroup_generate(z6, [z6.index_of(sl.parse_cycles("(0 2 4)(1 3 5)", 6))])
    return space, z3


def test_quotient_matches_invariant(c6_with_z3):
    space, z3 = c6_with_z3
    quotient = qs.quotient_graph(space, z3)
    via_graph = qs.spectrum(quotient).values
    via_projection = qs.invariant_spectrum(space, z3).values
    assert np.allclose(via_graph, [0.0, 4.0], atol=1e-9)
    assert np.allclose(via_projection, [0.0, 4.0], atol=1e-9)


def test_quotient_requires_free_action(s3):
    H = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    space = qs.coset_gspace(s3, [H])
    whole = sl.subgroup_from_indices(s3, range(6))
    with pytest.raises(NonFreeActionError) as info:
        qs.quotient_graph(space, whole)
    assert "invariant_spectrum" in str(info.value)


def test_quotient_intertwines_on_random_invariant_weights(q8):
    # dual route: eigenvalues through the quotient graph must match the
    # invariant-subspace computation exactly for a free action
    triv = sl.subgroup_generate(q8, [])
    for seed in range(4):
        space = qs.coset_gspace(q8, [triv], weight_seed=seed)
        for H in sl.all_subgroups(q8):
            a = qs.spectrum(qs.quotient_graph(space, H)).values
            b = qs.invariant_spectrum(space, H).values
            assert len(a) == len(b)
            assert np.max(np.abs(a - b)) < 1e-9


@pytest.mark.parametrize("name", ["q8", "aff8"])
def test_quotient_graph_matches_oracle(groups, name):
    G = groups[name]
    subs = sl.all_subgroups(G)
    spaces = [
        qs.cayley_graph(G),
        qs.coset_gspace(G, [subs[0]], weight_seed=2),
        qs.coset_gspace(G, [subs[len(subs) // 2], subs[0]], weight_seed=3),
    ]
    free = 0
    for space in spaces:
        weights = space.graph.weights.tolist()
        for H in subs:
            perms = space.vertex_perms[H.indices()].tolist()
            if not oracles.is_free(perms):
                continue
            free += 1
            got = qs.quotient_graph(space, H).weights
            want = np.asarray(oracles.quotient_weights(weights, perms, space.n))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12
    assert free >= 2 * len(subs)  # every subgroup on the two regular spaces


def test_invariant_spectrum_trivial_subgroup_is_full(z6):
    space = qs.cayley_graph(z6)
    triv = sl.subgroup_generate(z6, [])
    full = qs.spectrum(space.graph)
    inv = qs.invariant_spectrum(space, triv)
    assert np.allclose(full.values, inv.values, atol=1e-9)


def test_averaging_projector_is_projector(aff8_triple):
    G, h1, _ = aff8_triple
    space = qs.cayley_graph(G)
    p = qs.averaging_projector(space, h1)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.T, atol=1e-12)
    assert abs(np.trace(p) - space.n / h1.order) < 1e-9


def _psl32():
    return sl.generate_group(
        7, [sl.parse_cycles("(0 1 2 3 4 5 6)", 7), sl.parse_cycles("(2 4)(5 6)", 7)]
    )


def test_pair_orbits_match_search_oracle(groups):
    spaces = [qs.cayley_graph(_psl32())]
    for name in ("s4", "aff8"):
        G = groups[name]
        subs = sl.all_subgroups(G)
        spaces += [qs.coset_gspace(G, [H]) for H in subs[:: max(1, len(subs) // 6)]]
        spaces.append(qs.coset_gspace(G, [subs[0], subs[-1], subs[len(subs) // 2]]))
    for space in spaces:
        want = oracles.pair_orbits(space.vertex_perms, space.n)
        assert qs._pair_orbits(space.vertex_perms, space.n).tolist() == want
        # the generator rows alone give the same orbits, numbered alike
        rows = space.vertex_perms[qs._generator_rows(space.group)]
        assert qs._pair_orbits(rows, space.n).tolist() == want


def test_seeded_weights_match_the_all_rows_numbering(monkeypatch, groups):
    # coset_gspace and perturb_invariant_weights number the pair orbits
    # from the generator rows; with every row they must draw the same bits
    cases = [(qs.cayley_graph(_psl32()), None)]
    for name in ("s4", "aff8"):
        G = groups[name]
        subs = sl.all_subgroups(G)
        cases += [(qs.cayley_graph(G), None)]
        cases += [(G, [H]) for H in subs[:: max(1, len(subs) // 4)]]
        cases.append((G, [subs[0], subs[-1], subs[len(subs) // 2]]))

    def draw():
        out = []
        for seed, (base, subgroups) in enumerate(cases):
            if subgroups is not None:
                base = qs.coset_gspace(base, subgroups, weight_seed=seed)
                out.append(base.graph.weights.tobytes())
            out.append(qs.perturb_invariant_weights(base, seed=seed).graph.weights.tobytes())
        return out

    from_generators = draw()
    monkeypatch.setattr(qs, "_generator_rows", lambda G: list(range(G.order)))
    assert draw() == from_generators


def test_one_laplacian_eigh_per_gspace(monkeypatch, aff8_triple):
    G, h1, h2 = aff8_triple
    space = qs.cayley_graph(G)
    lap = qs.laplacian(space.graph)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    qs.isotypic_multiplicities(space)
    assert qs.sunada_identity_check(space, h1)
    assert qs.sunada_identity_check(space, h2)
    assert qs.donnelly_support(space)
    on_laplacian = [a for a in calls if a.shape == lap.shape and np.array_equal(a, lap)]
    assert len(on_laplacian) == 1


def test_perturbation_preserves_invariance(aff8_triple):
    G, h1, h2 = aff8_triple
    space = qs.cayley_graph(G)
    for seed in range(3):
        pert = qs.perturb_invariant_weights(space, seed=seed)
        assert not np.allclose(pert.graph.weights, space.graph.weights)
        s1 = qs.invariant_spectrum(pert, h1)
        s2 = qs.invariant_spectrum(pert, h2)
        assert np.max(np.abs(s1.values - s2.values)) < 1e-9


# --- isotypic structure --------------------------------------------------------

def test_regular_action_isotypic_totals(s3):
    # functions on G carry each irreducible with multiplicity = degree
    triv = sl.subgroup_generate(s3, [])
    space = qs.coset_gspace(s3, [triv], weight_seed=1)
    table = qs.isotypic_multiplicities(space)
    totals = table.counts.sum(axis=0)
    assert tuple(totals) == table.chartable.degrees


def test_coset_action_isotypic_totals(s4):
    # totals must equal the induced multiplicities: the trace route and
    # the character route must agree
    from sunadalab.gassmann import induced_multiplicities

    for H in sl.all_subgroups(s4)[:10]:
        space = qs.coset_gspace(s4, [H], weight_seed=2)
        table = qs.isotypic_multiplicities(space)
        assert tuple(table.counts.sum(axis=0)) == induced_multiplicities(s4, H)


def _oracle_counts(space, ct):
    values, vectors = space.laplacian_eigh
    reps = sl.conjugacy_classes(space.group).representatives
    return oracles.isotypic_counts(
        vectors.tolist(),
        qs.cluster_eigenvalues(values).multiplicities(),
        [space.vertex_perms[g].tolist() for g in reps],
        ct.partition.class_sizes,
        ct.table.tolist(),
        space.group.order,
    )


@pytest.mark.parametrize("name", ["s3", "s4", "z4", "z6", "z8", "d4", "q8", "aff8"])
def test_isotypic_counts_match_oracle(groups, name):
    G = groups[name]
    ct = sl.character_table(G)
    subs = sl.all_subgroups(G)
    for space in (
        qs.cayley_graph(G),
        qs.coset_gspace(G, [subs[len(subs) // 2], subs[-2]], weight_seed=5),
    ):
        counts = qs.isotypic_multiplicities(space).counts
        assert np.array_equal(counts, _oracle_counts(space, ct))


def test_empty_gspace(z4):
    # no vertices: no eigenspaces, and the identity holds vacuously
    space = qs.gspace(z4, qs.weighted_graph(np.zeros((0, 0))), np.zeros((4, 0), dtype=np.int64))
    table = qs.isotypic_multiplicities(space)
    assert table.counts.shape == (0, 4)
    rep = qs.sunada_identity_check(space, sl.subgroup_generate(z4, []))
    assert rep.holds
    assert rep.eigenvalues == rep.invariant_dims == rep.induced_sums == ()
    assert rep.k_rows == (0, 1, 2, 3)
    # every weight and quotient routine returns an empty result as well
    whole = sl.subgroup_from_indices(z4, range(4))
    assert qs.perturb_invariant_weights(space, seed=1).graph.weights.shape == (0, 0)
    assert qs.quotient_graph(space, whole).weights.shape == (0, 0)
    assert qs.quotient_graph(space).n == 0
    assert qs.invariant_spectrum(space, whole).dim == 0


def test_cluster_dimension_identity(d4):
    space = qs.cayley_graph(d4)
    table = qs.isotypic_multiplicities(space)
    for c, (_, mult) in enumerate(table.decomposition.clusters):
        dim = sum(
            table.counts[c, r] * table.chartable.degrees[r]
            for r in range(table.chartable.num_irreps)
        )
        assert dim == mult


def test_equivariant_isospectral_reflexive(z6):
    space = qs.cayley_graph(z6)
    rep = qs.equivariantly_isospectral(space, space)
    assert bool(rep)


def test_equivariant_isospectral_detects_scaling(z6):
    a = qs.cayley_graph(z6)
    w = a.graph.weights * 2.0
    b = qs.gspace(z6, qs.weighted_graph(w), a.vertex_perms)
    rep = qs.equivariantly_isospectral(a, b)
    assert not rep
    assert "eigenvalue" in rep.reason


def _d4_cayley(d4, rotation_weight, reflection_weight):
    r = d4.index_of(sl.parse_cycles("(0 1 2 3)", 4))
    s = d4.index_of(sl.parse_cycles("(1 3)", 4))
    return qs.cayley_graph(d4, [r, s], {r: rotation_weight, s: reflection_weight})


# On the D4 Cayley graph with rotation weight a and reflection weight b,
# the three non-trivial linear characters have eigenvalues 2b, 4a and
# 4a + 2b, and the two-dimensional irrep has 2a and 2a + 2b.
@pytest.mark.parametrize(
    "weights_1, weights_2, tol, expected",
    [
        ((1, 1), (1, 3), 1e-9, lambda c1, c2: "cluster counts differ: 4 vs 6"),
        (
            (1, 1.5), (1, 1.6), 1e-9,
            lambda c1, c2: f"cluster 2: eigenvalues {c1[2][0]} and {c2[2][0]} "
            "differ by more than 1e-09",
        ),
        ((1, 3), (1, 0.5), 100.0, lambda c1, c2: "cluster 1: multiplicities 2 and 1 differ"),
        # cluster 2 is 2b in the first space and 4a in the second
        ((1, 1.5), (1, 3), 100.0, lambda c1, c2: "cluster 2: isotypic decompositions differ"),
    ],
)
def test_equivariant_isospectral_reasons(d4, weights_1, weights_2, tol, expected):
    rep = qs.equivariantly_isospectral(
        _d4_cayley(d4, *weights_1), _d4_cayley(d4, *weights_2), tol=tol
    )
    assert not rep
    assert rep.reason == expected(rep.clusters_1, rep.clusters_2)


# --- the identity and the support law ------------------------------------------

def test_identity_c6_z3(c6_with_z3):
    space, z3 = c6_with_z3
    rep = qs.sunada_identity_check(space, z3)
    assert rep.invariant_dims == (1, 0, 0, 1)
    assert rep.induced_sums == (1, 0, 0, 1)
    assert bool(rep)


def test_identity_precondition_names_irrep(s3):
    triv = sl.subgroup_generate(s3, [])
    space = qs.coset_gspace(s3, [triv], weight_seed=0)
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    with pytest.raises(PreconditionError) as info:
        qs.sunada_identity_check(space, A3, K=A3)
    assert "irrep 2" in str(info.value)


def test_identity_holds_with_valid_k(s3):
    # on the cosets of A3 only the trivial and sign characters appear,
    # both of which have A3-fixed vectors, so K = A3 is admissible
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    space = qs.coset_gspace(s3, [A3], weight_seed=3)
    rep = qs.sunada_identity_check(space, A3, K=A3)
    assert bool(rep)
    rep2 = qs.sunada_identity_check(space, sl.subgroup_generate(s3, []), K=A3)
    assert bool(rep2)


def test_isotypic_counts_computed_once_per_space(aff8_triple, monkeypatch):
    # one clustering and one set of class traces per space and tolerance;
    # each call pairs the kept traces with the character table it is given
    G, H1, H2 = aff8_triple
    space = qs.cayley_graph(G)
    clusterings = []
    cluster = qs.cluster_eigenvalues

    def counting_cluster(values, *args, **kwargs):
        if np.array_equal(values, space.laplacian_eigh[0]):
            clusterings.append(values)
        return cluster(values, *args, **kwargs)

    monkeypatch.setattr(qs, "cluster_eigenvalues", counting_cluster)
    assert qs.sunada_identity_check(space, H1).holds
    assert qs.sunada_identity_check(space, H2).holds
    assert qs.donnelly_support(space).law_holds
    assert len(clusterings) == 1
    table = qs.isotypic_multiplicities(space)
    traces = space._eigenspace_cache[None][2]
    assert np.array_equal(qs.isotypic_multiplicities(space).counts, table.counts)
    assert len(clusterings) == 1
    assert len(space._eigenspace_cache) == 1
    assert space._eigenspace_cache[None][2] is traces  # no new traces
    qs.isotypic_multiplicities(space, cluster_tol=1e-6)
    assert len(clusterings) == 2
    assert len(space._eigenspace_cache) == 2  # another tolerance, another record


def _use_every_cache():
    """Fill every cache of a fresh group and of a G-space on it; return
    only a weak reference to the group."""
    G = sl.load_bundled_group("aff8")
    assert sl.conjugacy_classes(G) is G.classes
    sl.all_subgroups(G)
    H1, H2 = sl.gassmann_search(G, 4)[0]
    assert sl.triple_report(G, H1, H2).almost_conjugate
    space = qs.cayley_graph(G)
    assert qs.sunada_identity_check(space, H1).holds
    assert qs.donnelly_support(space).law_holds
    return weakref.ref(G)


def test_group_is_freed_without_the_cycle_collector():
    # nothing cached on a group refers back to it, so a dropped group and
    # its |G|^2 table go at once, not at the next cyclic collection
    gc.collect()
    gc.disable()
    try:
        assert _use_every_cache()() is None
    finally:
        gc.enable()


def test_donnelly_regular_action(q8):
    triv = sl.subgroup_generate(q8, [])
    space = qs.coset_gspace(q8, [triv], weight_seed=4)
    rep = qs.donnelly_support(space)
    assert rep.law_holds
    ct = sl.character_table(q8)
    assert rep.observed_rows == tuple(range(ct.num_irreps))
    assert rep.principal_rows == tuple(range(ct.num_irreps))
    assert rep.principal_holds


def test_donnelly_trivial_action(z4):
    whole = sl.subgroup_from_indices(z4, range(4))
    space = qs.coset_gspace(z4, [whole, whole], weight_seed=5)
    rep = qs.donnelly_support(space)
    assert rep.law_holds
    assert rep.observed_rows == (0,)
    assert rep.stabilizer_orders == (4, 4)


def test_donnelly_mixed_stabilizers(s3):
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    T = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    space = qs.coset_gspace(s3, [A3, T], weight_seed=6)
    rep = qs.donnelly_support(space)
    assert rep.law_holds
    assert set(rep.stabilizer_orders) == {3, 2}
    # neither stabilizer class dominates the other here
    assert rep.principal_rows is None


# --- Dirichlet cells -----------------------------------------------------------

def test_dirichlet_cells_c6(c6_with_z3):
    space, z3 = c6_with_z3
    cells = qs.fundamental_domain(space, z3)
    assert cells.centers == (0, 2, 4)
    assert cells.cells == ((0,), (2,), (4,))
    assert cells.boundary == (1, 3, 5)


def test_dirichlet_requires_connected(s3):
    # connection set = the rotations: left-invariant but splits into two triangles
    a = s3.index_of(sl.parse_cycles("(0 1 2)", 3))
    w = np.zeros((6, 6))
    for s in (a, s3.inv(a)):
        w[np.arange(6), np.asarray(s3.table)[:, s]] = 1.0
    triv = sl.subgroup_generate(s3, [])
    space = qs.coset_gspace(s3, [triv])
    broken = qs.gspace(s3, qs.weighted_graph(w), space.vertex_perms)
    assert not broken.graph.connected
    with pytest.raises(DisconnectedGraphError):
        qs.fundamental_domain(broken)


def test_dirichlet_requires_free(s3):
    H = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    space = qs.coset_gspace(s3, [H], weight_seed=8)
    whole = sl.subgroup_from_indices(s3, range(6))
    if space.graph.connected:
        with pytest.raises(NonFreeActionError):
            qs.fundamental_domain(space, whole)


def test_cover_degree(c6_with_z3, z6):
    space, z3 = c6_with_z3
    assert qs.cover_degree(space, z3) == 3
    whole = sl.subgroup_from_indices(z6, range(6))
    assert qs.cover_degree(space, whole) == 6


# --- properties -------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
def test_spectrum_properties(n, seed):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6), 1)
    w = w + w.T
    decomp = qs.spectrum(qs.weighted_graph(w))
    values = decomp.values
    assert len(values) == n
    assert np.all(np.diff(values) >= -1e-12)
    assert values[0] > -1e-9  # positive semidefinite
    assert abs(values[0]) < 1e-9  # constant vector in the kernel
    assert sum(decomp.multiplicities()) == n


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
def test_invariant_dim_is_orbit_count(seed):
    s3 = sl.load_bundled_group("s3")
    rng = np.random.default_rng(seed)
    subs = sl.all_subgroups(s3)
    picks = [subs[i] for i in rng.integers(0, len(subs), size=rng.integers(1, 3))]
    space = qs.coset_gspace(s3, picks, weight_seed=seed)
    whole = sl.subgroup_from_indices(s3, range(6))
    inv = qs.invariant_spectrum(space, whole)
    assert inv.dim == len(qs.vertex_orbits(space))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.data())
def test_cayley_graph_identity_support_and_quotient(n, data):
    perm = st.permutations(list(range(n)))
    gens = data.draw(st.lists(perm, min_size=1, max_size=3))
    G = sl.generate_group(n, [sl.Permutation(g) for g in gens])
    weights = {}
    for s in sorted({G.index_of(sl.Permutation(g)) for g in gens} - {0}):
        if G.inv(s) not in weights:
            weights[s] = data.draw(st.floats(0.25, 2.0))
    space = qs.cayley_graph(G, list(weights), weights)
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    H = sl.subgroup_generate(G, seed)

    rep = qs.sunada_identity_check(space, H)
    assert rep.holds
    assert rep.invariant_dims == rep.induced_sums
    assert qs.donnelly_support(space).law_holds
    # left translation on a Cayley graph is free
    assert qs.is_free(space, H)
    quotient = qs.spectrum(qs.quotient_graph(space, H)).values
    invariant = qs.invariant_spectrum(space, H).values
    assert len(quotient) == len(invariant) == G.order // H.order
    assert np.max(np.abs(quotient - invariant)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.data())
def test_cayley_quotients_match_invariant_spectra_up_to_s6(n, data):
    # random subgroups of S_n, connection sets and weights; left
    # translation is free, so both routes give the quotient spectrum
    perm = st.permutations(list(range(n)))
    gens = data.draw(st.lists(perm, min_size=1, max_size=2))
    G = sl.generate_group(n, [sl.Permutation(g) for g in gens])
    conn = []
    if G.order > 1:
        conn = data.draw(st.lists(st.integers(1, G.order - 1), max_size=4, unique=True))
    weights = {}
    for s in conn:
        if G.inv(s) not in weights:
            weights[s] = data.draw(st.floats(0.25, 2.0))
    space = qs.cayley_graph(G, list(weights), weights)
    H = sl.subgroup_generate(G, data.draw(st.lists(st.integers(0, G.order - 1), max_size=2)))

    assert qs.is_free(space, H)
    quotient = qs.spectrum(qs.quotient_graph(space, H)).values
    invariant = qs.invariant_spectrum(space, H).values
    assert len(quotient) == len(invariant) == G.order // H.order
    assert np.max(np.abs(quotient - invariant)) < 1e-9
