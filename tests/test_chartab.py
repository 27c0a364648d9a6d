import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sunadalab as sl
from sunadalab import chartab as ch
from sunadalab import gassmann as gs
from sunadalab.errors import (
    EigenDecompositionError,
    NonIntegralError,
    NotASubgroupError,
)
from sunadalab.permgrp import bundled_group_path


def _gram_deviation(ct):
    sizes = np.asarray(ct.partition.class_sizes, dtype=np.float64)
    gram = (ct.table * (sizes / ct.group.order)[None, :]) @ ct.table.conj().T
    return float(np.max(np.abs(gram - np.eye(ct.num_irreps))))


def test_s3_table_exact(s3):
    ct = ch.character_table(s3)
    # classes: identity, transpositions, 3-cycles
    expect = np.array([[1, 1, 1], [1, -1, 1], [2, 0, -1]], dtype=complex)
    assert np.max(np.abs(ct.table - expect)) < 1e-10
    assert ct.degrees == (1, 1, 2)


def test_z6_characters_are_roots_of_unity(z6):
    ct = ch.character_table(z6)
    assert ct.degrees == (1,) * 6
    assert np.max(np.abs(np.abs(ct.table) - 1.0)) < 1e-10
    # the value at a generator determines the row; all 6th roots appear
    gen_col = None
    for c, rep in enumerate(ct.partition.representatives):
        if z6.elements[rep].images == (1, 2, 3, 4, 5, 0):
            gen_col = c
    angles = np.mod(np.angle(ct.table[:, gen_col]), 2 * np.pi).round(8)
    assert len(set(angles)) == 6


def test_row_and_column_orthogonality(groups):
    for name, G in groups.items():
        ct = ch.character_table(G)
        assert _gram_deviation(ct) < 1e-9, name
        sizes = np.asarray(ct.partition.class_sizes, dtype=np.float64)
        # columns: sum_rho chi(g) conj(chi(h)) = |G|/n_c on the diagonal
        col = ct.table.conj().T @ ct.table
        expect = np.diag(G.order / sizes)
        assert np.max(np.abs(col - expect)) < 1e-8, name


def test_degree_squares_sum(groups):
    for name, G in groups.items():
        ct = ch.character_table(G)
        assert sum(d * d for d in ct.degrees) == G.order, name


def test_trivial_character_is_row_zero(groups):
    for G in groups.values():
        ct = ch.character_table(G)
        assert np.max(np.abs(ct.table[0] - 1.0)) < 1e-12


def test_table_deterministic(d4):
    a = ch.character_table(d4)
    d4._character_table = None
    b = ch.character_table(d4)
    assert np.array_equal(a.table, b.table)


def test_retries_take_the_next_draws_of_one_stream(monkeypatch):
    # every attempt combines the class matrices with the next k draws of
    # random.Random(0); after MAX_ATTEMPTS failures the table is given up
    G = sl.load_bundled_group("s3")
    seen = []

    def reject(G, cc, sizes, vecs):
        seen.append(vecs)
        raise EigenDecompositionError("rejected")

    monkeypatch.setattr(ch, "_table_from_eigenvectors", reject)
    with pytest.raises(EigenDecompositionError, match=f"after {ch.MAX_ATTEMPTS} attempts: rejected"):
        ch.character_table(G)
    assert len(seen) == ch.MAX_ATTEMPTS
    a = ch.structure_constants(G)
    rng = random.Random(0)
    for vecs in seen:
        coeffs = [rng.gauss(0.0, 1.0) for _ in range(len(a))]
        assert np.array_equal(vecs, np.linalg.eig(np.tensordot(coeffs, a, axes=1))[1])


def test_aff8_degrees(aff8):
    ct = ch.character_table(aff8)
    assert ct.degrees == (1,) * 8 + (2, 2, 4)


def _integer_rows(ct):
    """The table as tuples of ints; only for integer-valued tables."""
    rows = np.round(ct.table.real).astype(int)
    assert np.max(np.abs(ct.table - rows)) < 1e-9
    return [tuple(r.tolist()) for r in rows]


def test_permutation_character_s3(s3):
    H = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    pc = ch.permutation_character(s3, H)
    assert pc == (3, 1, 0)
    assert all(type(v) is int for v in pc)


def test_regular_character(q8):
    triv = sl.subgroup_generate(q8, [])
    vals = ch.permutation_character(q8, triv)
    assert vals[0] == q8.order and all(v == 0 for v in vals[1:])
    ct = ch.character_table(q8)
    # every irrep appears with multiplicity equal to its degree
    assert ch.multiplicities(ct, vals) == ct.degrees


def _check_permutation_character(G, H, reps, coset_oracle=False):
    """The fixed-coset counts against the plain-Python cosets, and the
    exact identity pi_t |H| n_t = |G| c_t with the class counts c_t: the
    x with x g_t x^{-1} in H number c_t |C_G(g_t)| = c_t |G| / n_t."""
    pc = ch.permutation_character(G, H)
    assert all(type(v) is int for v in pc)
    elems = [e.images for e in G.elements]
    sub = [p.images for p in H.permutations()]
    assert pc == oracles.permutation_character(elems, sub, reps), H
    if coset_oracle:
        assert pc == tuple(oracles.coset_fixed_points(elems, sub, g) for g in reps), H
    sizes = sl.conjugacy_classes(G).class_sizes
    counts = gs.class_intersection_counts(G, H)
    assert [p * H.order * n for p, n in zip(pc, sizes)] == [G.order * c for c in counts], H


def test_permutation_character_matches_coset_oracle(groups):
    s5 = sl.generate_group(5, [sl.parse_cycles("(0 1 2 3 4)", 5), sl.parse_cycles("(0 1)", 5)])
    for G in [*groups.values(), s5, sl.load_bundled_group("psl211")]:
        reps = [G.elements[r].images for r in sl.conjugacy_classes(G).representatives]
        for H in sl.all_subgroups(G):
            _check_permutation_character(G, H, reps, coset_oracle=G.order <= 32)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(list(range(n))), max_size=3))
), st.data())
def test_permutation_character_on_random_groups(degree_and_gens, data):
    degree, gens = degree_and_gens
    G = sl.generate_group(degree, [sl.Permutation(g) for g in gens])
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    H = sl.subgroup_generate(G, seed)
    reps = [G.elements[r].images for r in sl.conjugacy_classes(G).representatives]
    _check_permutation_character(G, H, reps, coset_oracle=True)


def _check_cached_multiplicities(G):
    """Every subgroup's kept multiplicities equal a pairing made afresh,
    and G keeps one entry per class-count tuple."""
    subs = sl.all_subgroups(G)
    for H in subs:
        m = ch.induced_multiplicities(G, H)
        assert G._induced[gs.class_intersection_counts(G, H)] is m
        assert m == ch.multiplicities(ch.character_table(G), ch.permutation_character(G, H))
    assert set(G._induced) == {gs.class_intersection_counts(G, H) for H in subs}


def test_cached_multiplicities_on_bundled_groups(groups):
    for G in [*groups.values(), sl.load_bundled_group("psl211")]:
        _check_cached_multiplicities(G)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(list(range(n))), max_size=3))
))
def test_cached_multiplicities_on_random_groups(degree_and_gens):
    degree, gens = degree_and_gens
    _check_cached_multiplicities(sl.generate_group(degree, [sl.Permutation(g) for g in gens]))


def test_one_pairing_per_class_count_tuple_in_s5(monkeypatch):
    # S5's 156 subgroups fall into 19 conjugacy classes, no two of them
    # almost conjugate, so 19 permutation characters and 19 pairings
    G = sl.generate_group(5, [sl.parse_cycles("(0 1 2 3 4)", 5), sl.parse_cycles("(0 1)", 5)])
    subs = sl.all_subgroups(G)
    pairings = []
    pair = ch.multiplicities
    monkeypatch.setattr(
        ch, "multiplicities", lambda ct, values: pairings.append(values) or pair(ct, values)
    )
    for H in subs:
        ch.induced_multiplicities(G, H)
    assert (len(subs), len(pairings), len(G._induced)) == (156, 19, 19)


def test_permutation_character_rejects_foreign_subgroup(s3):
    other = sl.load_bundled_group("s3")
    with pytest.raises(NotASubgroupError):
        ch.permutation_character(s3, sl.subgroup_generate(other, []))


def test_permutation_character_memory():
    # the coset route built a 660 x 660 int64 action for this subgroup
    G = sl.load_bundled_group("psl211")
    trivial = sl.subgroup_generate(G, [])
    sl.conjugacy_classes(G)  # the table and the class data exist before the measurement
    tracemalloc.start()
    try:
        pc = ch.permutation_character(G, trivial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pc == (G.order,) + (0,) * (len(pc) - 1)
    assert peak < 1 << 20


def test_multiplicity_rejects_non_integral(s3):
    ct = ch.character_table(s3)
    junk = np.array([1.0, 0.5, 0.25])
    with pytest.raises(NonIntegralError):
        ch.multiplicities(ct, junk)


def test_multiplicity_exact_inner_product(s4):
    # the float pairing must agree with exact rational arithmetic on
    # integer class functions; every character of S4 is integer valued
    ct = ch.character_table(s4)
    rows = _integer_rows(ct)
    for H in sl.all_subgroups(s4):
        vals = ch.permutation_character(s4, H)
        exact = [
            oracles.exact_inner_product(vals, row, ct.partition.class_sizes, s4.order)
            for row in rows
        ]
        assert all(m.denominator == 1 for m in exact)
        assert ch.multiplicities(ct, vals) == tuple(int(m) for m in exact)


def test_multiplicities_name_first_bad_row(s3):
    ct = ch.character_table(s3)
    # half of each of rows 1 and 2: both pair to 1/2, row 0 to 0
    half = 0.5 * (ct.table[1] + ct.table[2])
    with pytest.raises(NonIntegralError, match="irrep 1 ") as err:
        ch.multiplicities(ct, half)
    assert "irrep 2" not in str(err.value)
    negative = ct.table[0] - ct.table[2]
    with pytest.raises(NonIntegralError, match="irrep 2 "):
        ch.multiplicities(ct, negative)


def test_stacked_multiplicities_match_rows(groups):
    for name, G in groups.items():
        ct = ch.character_table(G)
        chars = [ch.permutation_character(G, H) for H in sl.all_subgroups(G)]
        stacked = ch.multiplicities(ct, np.array(chars))
        assert stacked.dtype.kind == "i", name
        assert stacked.shape == (len(chars), ct.num_irreps), name
        assert [tuple(row) for row in stacked.tolist()] == [
            ch.multiplicities(ct, c) for c in chars
        ], name


def test_table_rows_pair_to_identity(groups):
    # a stack of complex characters: the pairing must conjugate the rows
    for name, G in groups.items():
        ct = ch.character_table(G)
        assert np.array_equal(ch.multiplicities(ct, ct.table), np.eye(ct.num_irreps)), name


def test_stacked_multiplicities_name_character_and_irrep(s3):
    ct = ch.character_table(s3)
    good = ch.permutation_character(s3, sl.subgroup_generate(s3, []))
    half = 0.5 * (ct.table[1] + ct.table[2])
    with pytest.raises(NonIntegralError, match="character 2 pairs with irrep 1 ") as err:
        ch.multiplicities(ct, np.array([good, good, half, half]))
    assert "character 3" not in str(err.value)
    assert "irrep 2" not in str(err.value)


def test_fixed_vector_counts_exact(s4, d4):
    # (1/|K|) sum_{k in K} chi(k) in exact arithmetic, for every row and
    # every subgroup K; both tables are integer valued
    for G in (s4, d4):
        ct = ch.character_table(G)
        rows = _integer_rows(ct)
        class_of = ct.partition.class_of
        for K in sl.all_subgroups(G):
            exact = [
                Fraction(sum(row[class_of[k]] for k in K.elements), K.order)
                for row in rows
            ]
            assert all(m.denominator == 1 for m in exact)
            assert ch.induced_multiplicities(G, K) == tuple(int(m) for m in exact)
            assert ch.irreps_with_fixed_vectors(G, K) == tuple(
                r for r, m in enumerate(exact) if m > 0
            )


def test_fixed_vector_rows_monotone(d4):
    subs = sl.all_subgroups(d4)
    for small in subs:
        for big in subs:
            if set(small.elements) <= set(big.elements):
                rows_small = set(ch.irreps_with_fixed_vectors(d4, small))
                rows_big = set(ch.irreps_with_fixed_vectors(d4, big))
                assert rows_big <= rows_small


def test_trivial_restriction_counts(s3):
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    # trivial and sign restrict trivially to A3; the 2-dim does not
    # (1/|A3|) sum_{k in A3} chi(k) = (chi(e) + 2 chi((0 1 2))) / 3 per row
    exact = [Fraction(e + 2 * c, 3) for e, c in ((1, 1), (1, 1), (2, -1))]
    assert ch.induced_multiplicities(s3, A3) == tuple(int(m) for m in exact) == (1, 1, 0)
    assert ch.irreps_with_fixed_vectors(s3, A3) == (0, 1)


def test_whole_group_sees_only_trivial(groups):
    for G in groups.values():
        whole = sl.subgroup_from_indices(G, range(G.order))
        assert ch.irreps_with_fixed_vectors(G, whole) == (0,)


def test_fingerprints_d4_q8(d4, q8, s3):
    fp_d4 = ch.abstract_table_fingerprint(ch.character_table(d4))
    fp_q8 = ch.abstract_table_fingerprint(ch.character_table(q8))
    fp_s3 = ch.abstract_table_fingerprint(ch.character_table(s3))
    assert fp_d4 == fp_q8
    assert fp_d4 != fp_s3


def test_structure_constants_identity_row(s4):
    a = ch.structure_constants(s4)
    cc = sl.conjugacy_classes(s4)
    # C_0 is the identity class: C_0 C_j = C_j
    for j in range(cc.num_classes):
        expect = np.zeros(cc.num_classes)
        expect[j] = 1.0
        assert np.allclose(a[0, j], expect)
    # total counts: sum_t a_ijt n_t = n_i n_j
    sizes = np.asarray(cc.class_sizes, dtype=np.float64)
    lhs = np.tensordot(a, sizes, axes=([2], [0]))
    assert np.allclose(lhs, np.outer(sizes, sizes))


def _structure_constant_groups(groups):
    yield from (groups[name] for name in ("s3", "s4", "d4", "q8", "z6", "aff8"))
    yield sl.generate_group(5, [sl.parse_cycles("(0 1 2 3 4)", 5), sl.parse_cycles("(0 1)", 5)])
    yield sl.generate_group(
        7, [sl.parse_cycles("(0 1 2 3 4 5 6)", 7), sl.parse_cycles("(2 4)(5 6)", 7)]
    )
    yield sl.load_bundled_group("psl211")


def test_structure_constants_match_oracle(groups):
    for G in _structure_constant_groups(groups):
        cc = sl.conjugacy_classes(G)
        expect = oracles.structure_constants(
            G.table.tolist(), cc.class_of.tolist(), cc.class_sizes
        )
        got = ch.structure_constants(G)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(expect)), G


def test_structure_constants_memory():
    G = sl.load_bundled_group("psl211")
    sl.conjugacy_classes(G)
    G.inverses  # the table and inverses exist before the measurement
    tracemalloc.start()
    try:
        ch.structure_constants(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# every query that pairs with a character table, called on aff8 as (G, H1, H2, space)
_QUERIES = {
    "induced_multiplicities": lambda G, H1, H2, X: ch.induced_multiplicities(G, H1),
    "representation_equivalent": lambda G, H1, H2, X: gs.representation_equivalent(G, H1, H2),
    "k_equivalent": lambda G, H1, H2, X: gs.k_equivalent(G, H1, H2, H1),
    "triple_report": lambda G, H1, H2, X: gs.triple_report(G, H1, H2),
    "isotypic_multiplicities": lambda G, H1, H2, X: sl.isotypic_multiplicities(X),
    "equivariantly_isospectral": lambda G, H1, H2, X: sl.equivariantly_isospectral(X, X),
    "sunada_identity_check": lambda G, H1, H2, X: sl.sunada_identity_check(X, H1),
    "donnelly_support": lambda G, H1, H2, X: sl.donnelly_support(X),
}


def _fresh_aff8():
    G = sl.load_bundled_group("aff8")
    H1 = sl.load_subgroup_file(bundled_group_path("aff8_h1.subgroup"), G)
    H2 = sl.load_subgroup_file(bundled_group_path("aff8_h2.subgroup"), G)
    return G, H1, H2


@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_query_refuses_a_table_of_another_group(name, s4, monkeypatch):
    # a second aff8 object has an equal table but classes of its own; the s4
    # table has another number of classes. With both built, the query still
    # builds the table of its own group and takes no table from its caller.
    G, H1, H2 = _fresh_aff8()
    space = sl.cayley_graph(G)
    others = (sl.load_bundled_group("aff8"), s4)
    for other in others:
        ch.character_table(other)
    builds = []
    build = ch.structure_constants
    monkeypatch.setattr(ch, "structure_constants", lambda G: builds.append(G) or build(G))
    _QUERIES[name](G, H1, H2, space)
    assert builds == [G]
    assert ch.character_table(G).partition is sl.conjugacy_classes(G)
    assert all(G._character_table is not other._character_table for other in others)
    with pytest.raises(TypeError, match="ct"):
        ch.induced_multiplicities(G, H1, ct=ch.character_table(s4))


def test_queries_share_one_table_per_group(monkeypatch):
    # a fresh group object builds its table once, whichever query asks first
    G, H1, H2 = _fresh_aff8()
    space = sl.cayley_graph(G)
    builds = []
    build = ch.structure_constants
    monkeypatch.setattr(ch, "structure_constants", lambda G: builds.append(G) or build(G))
    for query in _QUERIES.values():
        query(G, H1, H2, space)
    assert builds == [G]
