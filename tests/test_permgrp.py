import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sunadalab as sl
from sunadalab import _kernels, permgrp
from sunadalab.errors import (
    BudgetExceededError,
    GroupSizeError,
    NotASubgroupError,
    ParseError,
)
from sunadalab.gassmann import gassmann_search
from sunadalab.permgrp import (
    Permutation,
    conjugate_by_all,
    conjugate_subgroup,
    generate_group,
    parse_cycles,
    parse_group_text,
    parse_subgroup_text,
)


# --- permutations and cycle notation ---------------------------------------

def test_composition_convention():
    a = Permutation([1, 0, 2])
    b = Permutation([0, 2, 1])
    # (a * b)(x) = a(b(x))
    assert (a * b).images == tuple(a(b(x)) for x in range(3))


def test_inverse_and_identity():
    p = Permutation([2, 0, 3, 1])
    assert (p * p.inverse()).images == (0, 1, 2, 3)
    assert Permutation.identity(4).images == (0, 1, 2, 3)


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_cycle_string_roundtrip():
    for images in [(0, 1, 2), (1, 0, 2), (1, 2, 0), (1, 0, 3, 2)]:
        p = Permutation(images)
        assert sl.parse_cycles(sl.cycle_string(p), p.degree) == p


def test_identity_cycle_string():
    assert sl.cycle_string(Permutation.identity(5)) == "()"
    assert sl.parse_cycles("()", 5) == Permutation.identity(5)


def test_parse_cycles_rejects_garbage():
    for bad in ["", "(0 1", "0 1)", "(0 0)", "(0 9)", "(x y)", "(3)"]:
        with pytest.raises(ValueError):
            sl.parse_cycles(bad, 4)


# --- group generation -------------------------------------------------------

def test_s3_elements_match_bruteforce(s3):
    expect = oracles.closure([(1, 2, 0), (1, 0, 2)], 3)
    assert {e.images for e in s3.elements} == expect
    assert s3.order == 6


def test_elements_sorted_identity_first(aff8):
    images = [e.images for e in aff8.elements]
    assert images == sorted(images)
    assert images[0] == tuple(range(8))


def test_affine_two_generator_closure_is_16():
    # x -> x+1 and x -> 3x generate only half the affine maps on Z8
    # because 3*3 = 1 (mod 8); adding x -> 5x completes the group
    add1 = sl.parse_cycles("(0 1 2 3 4 5 6 7)", 8)
    mul3 = sl.parse_cycles("(1 3)(2 6)(5 7)", 8)
    mul5 = sl.parse_cycles("(1 5)(3 7)", 8)
    assert generate_group(8, [add1, mul3]).order == 16
    assert generate_group(8, [add1, mul3, mul5]).order == 32


def test_max_order_enforced(monkeypatch):
    add1 = sl.parse_cycles("(0 1 2 3 4 5 6 7)", 8)
    mul3 = sl.parse_cycles("(1 3)(2 6)(5 7)", 8)
    monkeypatch.setattr(permgrp, "MAX_ORDER", 10)
    with pytest.raises(GroupSizeError):
        generate_group(8, [add1, mul3])


def test_max_order_is_the_dense_cap():
    # the |G| x |G| table of a group at the cap fits in MAX_DENSE_ENTRIES
    assert permgrp.MAX_ORDER == math.isqrt(int(permgrp.MAX_DENSE_ENTRIES)) == 6324


def test_library_closure_stops_at_the_cap(monkeypatch):
    # S7 x C2 has order 10080: every library caller, not only the command
    # line, is refused before the |G| x |G| table is built
    tables = []
    build = _kernels.mul_table
    monkeypatch.setattr(
        _kernels, "mul_table", lambda *args: tables.append(args) or build(*args)
    )
    gens = [parse_cycles(c, 9) for c in ("(0 1 2 3 4 5 6)", "(0 1)", "(7 8)")]
    with pytest.raises(GroupSizeError) as info:
        generate_group(9, gens)
    assert str(info.value) == "closure exceeds max order 6324 (degree 9, 3 generators)"
    assert tables == []


def _oracle_group(degree, gens):
    """Sorted elements and composition table of <gens> by the oracles."""
    elements = sorted(oracles.closure(gens, degree))
    index = {e: i for i, e in enumerate(elements)}
    return elements, oracles.mul_table(elements, [index[tuple(g)] for g in gens])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(list(range(n))), max_size=3))
))
def test_closure_matches_oracle_on_random_generators(degree_and_gens):
    degree, gens = degree_and_gens
    G = generate_group(degree, [Permutation(g) for g in gens])
    elements, table = _oracle_group(degree, gens)
    assert [g.images for g in G.elements] == elements
    assert G.table.tolist() == table


@pytest.mark.parametrize("name", ["s3", "s4", "z4", "z6", "z8", "d4", "q8", "aff8", "psl211"])
def test_bundled_closure_matches_oracle(name):
    G = sl.load_bundled_group(name)
    elements, table = _oracle_group(G.degree, [g.images for g in G.generators])
    assert [g.images for g in G.elements] == elements
    assert G.table.tolist() == table


@pytest.mark.parametrize("name", ["s4", "aff8", "psl211"])
def test_max_order_is_exact(name, monkeypatch):
    G = sl.load_bundled_group(name)
    monkeypatch.setattr(permgrp, "MAX_ORDER", G.order)
    assert generate_group(G.degree, G.generators).order == G.order
    monkeypatch.setattr(permgrp, "MAX_ORDER", G.order - 1)
    with pytest.raises(GroupSizeError) as info:
        generate_group(G.degree, G.generators)
    assert str(info.value) == (
        f"closure exceeds max order {G.order - 1} "
        f"(degree {G.degree}, {len(G.generators)} generators)"
    )


def test_generator_of_wrong_degree_rejected():
    with pytest.raises(ValueError, match="has degree 3, expected 4"):
        generate_group(4, [Permutation((1, 2, 3, 0)), Permutation((1, 0, 2))])


def test_mul_table_against_oracle(s4):
    rng = np.random.default_rng(7)
    for _ in range(40):
        i, j = rng.integers(0, s4.order, size=2)
        expect = oracles.compose(s4.elements[i].images, s4.elements[j].images)
        assert s4.elements[s4.mul(i, j)].images == expect


def test_inverses(q8):
    for i in range(q8.order):
        assert q8.mul(i, q8.inv(i)) == 0


@pytest.mark.parametrize("name", ["s3", "s4", "z4", "z6", "z8", "d4", "q8", "aff8", "psl211"])
def test_inverses_match_oracle(name):
    G = sl.load_bundled_group(name)
    expect = [G.index_of(Permutation(oracles.inverse(g.images))) for g in G.elements]
    assert G.inverses.tolist() == expect


# --- conjugacy classes -------------------------------------------------------

def test_s3_class_sizes(s3):
    cc = sl.conjugacy_classes(s3)
    assert cc.class_sizes == (1, 3, 2)
    assert cc.representatives[0] == 0


def test_classes_match_bruteforce(d4):
    cc = sl.conjugacy_classes(d4)
    got = {
        frozenset(
            d4.elements[i].images for i in np.nonzero(cc.class_of == c)[0]
        )
        for c in range(cc.num_classes)
    }
    expect = oracles.conjugacy_classes({e.images for e in d4.elements})
    assert got == expect


def test_aff8_has_11_classes(aff8):
    assert sl.conjugacy_classes(aff8).num_classes == 11


def test_one_class_record_per_group(s4):
    cc = sl.conjugacy_classes(s4)
    assert cc is sl.conjugacy_classes(s4) is s4.classes
    with pytest.raises(ValueError):
        cc.class_of[0] = 1  # every caller shares it, so it is read-only


def test_abelian_class_data_memory():
    # the cyclic group of order 2000 = 16 * 125 has 2000 classes; its class
    # data is a label per element, not a row of conjugates per class
    G = generate_group(141, [Permutation([*range(1, 16), 0, *range(17, 141), 16])])
    G.inverses  # the table exists before the measurement
    tracemalloc.start()
    try:
        cc = sl.conjugacy_classes(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cc.num_classes == G.order == 2000
    assert cc.representatives == tuple(range(2000))
    assert peak < 1 << 20


# --- subgroups ---------------------------------------------------------------

def test_subgroup_generate_contains_generators(s4):
    H = sl.subgroup_generate(s4, [1, 5])
    assert 1 in H and 5 in H and 0 in H
    assert s4.order % H.order == 0


def test_subgroup_from_indices_validates(s3):
    three_cycle = s3.index_of(sl.parse_cycles("(0 1 2)", 3))
    with pytest.raises(NotASubgroupError):
        sl.subgroup_from_indices(s3, [0, three_cycle])
    with pytest.raises(NotASubgroupError):
        sl.subgroup_from_indices(s3, [three_cycle])  # identity missing


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 23), min_size=1, max_size=12))
def test_subgroup_from_indices_names_first_failing_pair(s4, rest):
    indices = {0} | rest
    failure = oracles.subgroup_closure_failure(s4.table.tolist(), indices)
    if failure is None:
        H = sl.subgroup_from_indices(s4, indices)
        assert H.elements == tuple(sorted(indices))
        return
    with pytest.raises(NotASubgroupError) as info:
        sl.subgroup_from_indices(s4, indices)
    i, j = failure
    assert str(info.value) == (
        f"not closed: element {i} * element {j} falls outside the set"
    )


def test_subgroups_of_order_counts(s3, s4, aff8):
    assert len(sl.subgroups_of_order(s3, 2)) == 3
    assert len(sl.subgroups_of_order(s3, 3)) == 1
    assert len(sl.subgroups_of_order(s3, 4)) == 0  # non-divisor
    assert len(sl.subgroups_of_order(s4, 8)) == 3
    assert len(sl.subgroups_of_order(aff8, 4)) == 19


def test_all_subgroups_counts(groups):
    expect = {"s3": 6, "s4": 30, "d4": 10, "q8": 6, "aff8": 58}
    for name, count in expect.items():
        assert len(sl.all_subgroups(groups[name])) == count, name


def test_all_subgroups_match_bruteforce(d4):
    got = {
        frozenset(p.images for p in H.permutations())
        for H in sl.all_subgroups(d4)
    }
    expect = oracles.all_subgroups({e.images for e in d4.elements})
    assert got == expect


def test_subgroup_budget(aff8):
    with pytest.raises(BudgetExceededError):
        sl.subgroups_of_order(aff8, 4, budget=5)


def _psl32():
    return generate_group(
        7, [parse_cycles("(0 1 2 3 4 5 6)", 7), parse_cycles("(2 4)(5 6)", 7)]
    )


def _s5():
    return generate_group(
        5, [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(0 1)", 5)]
    )


def test_s5_has_156_subgroups():
    assert len(sl.all_subgroups(_s5())) == 156


@pytest.mark.parametrize(
    "make, search, closures, count",
    [
        (_psl32, lambda G, b: sl.subgroups_of_order(G, 24, budget=b), 65, 14),
        (_s5, lambda G, b: sl.all_subgroups(G, budget=b), 85, 156),
    ],
    ids=["psl32-order-24", "s5-all"],
)
def test_budget_is_exact(make, search, closures, count):
    G = make()
    with pytest.raises(BudgetExceededError):
        search(G, closures - 1)
    assert len(search(G, closures)) == count
    with pytest.raises(BudgetExceededError):  # also once a result is cached
        search(G, closures - 1)


def test_cached_subgroups_still_honour_the_budget():
    G = sl.load_bundled_group("s4")
    assert len(sl.all_subgroups(G)) == 30
    with pytest.raises(BudgetExceededError):
        sl.all_subgroups(G, budget=1)
    assert len(sl.all_subgroups(G)) == 30


def _check_lattice_by_order(G, count):
    everything = sl.all_subgroups(G)
    assert len(everything) == count
    for m in range(1, G.order + 1):
        if G.order % m == 0:
            expect = [H.elements for H in everything if H.order == m]
            assert [H.elements for H in sl.subgroups_of_order(G, m)] == expect


def test_psl32_lattice():
    _check_lattice_by_order(_psl32(), 179)


def test_s5_lattice():
    _check_lattice_by_order(_s5(), 156)


def test_s6_lattice():
    # 1455 subgroups in 56 conjugacy classes; each order's own search
    # finds the same subgroups, split into classes the same way
    G = generate_group(
        6, [parse_cycles("(0 1 2 3 4 5)", 6), parse_cycles("(0 1)", 6)]
    )
    everything = sl.all_subgroups(G)
    assert len(everything) == 1455
    classes = 0
    for m in range(1, G.order + 1):
        if G.order % m == 0:
            subs, ids = sl.subgroup_classes_of_order(G, m)
            assert [H.elements for H in subs] == [
                H.elements for H in everything if H.order == m
            ]
            classes += len(set(ids))
    assert classes == 56


def test_are_conjugate(s3, aff8_triple):
    a = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    b = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(1 2)", 3))])
    assert sl.are_conjugate_subgroups(s3, a, b)
    G, h1, h2 = aff8_triple
    assert not sl.are_conjugate_subgroups(G, h1, h2)


def test_conjugate_subgroup_is_conjugate(s4):
    H = sl.subgroup_generate(s4, [1])
    K = conjugate_subgroup(s4, H, 10)
    assert sl.are_conjugate_subgroups(s4, H, K)
    assert K.order == H.order


def test_conjugate_by_all_matches_each_conjugate(s4):
    subs = sl.all_subgroups(s4)
    orbits = {}
    for H in subs:
        conj = conjugate_by_all(s4, H)
        assert conj.shape == (H.order, s4.order)
        expect = [conjugate_subgroup(s4, H, g).elements for g in range(s4.order)]
        assert [tuple(col) for col in conj.T.tolist()] == expect
        orbits[H.elements] = set(expect)
    for H1 in subs:
        for H2 in subs:
            assert sl.are_conjugate_subgroups(s4, H1, H2) == (
                H2.elements in orbits[H1.elements]
            )


def _s5():
    return generate_group(5, [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(0 1)", 5)])


@pytest.mark.parametrize("name", ["s4", "aff8", "s5"])
def test_record_class_matches_the_full_gather(name):
    # one column per left coset g N_G(H) gives every conjugate g H g^{-1}
    G = _s5() if name == "s5" else sl.load_bundled_group(name)
    for H in sl.all_subgroups(G):
        full = conjugate_by_all(G, H)
        conjugates, normalizer = permgrp._record_class(G, H.elements)
        assert conjugates == set(map(tuple, full.T.tolist()))
        want = [g for g in range(G.order) if full[:, g].tolist() == list(H.elements)]
        assert normalizer.tolist() == want
        assert {G._class_label[c] for c in conjugates} == {min(conjugates)}


def test_record_class_memory():
    # A6 is normal in S6: its one conjugate becomes a tuple, not 720 copies
    G = generate_group(6, [parse_cycles("(0 1 2 3 4 5)", 6), parse_cycles("(0 1)", 6)])
    A6 = sl.subgroup_generate(
        G, [G.index_of(parse_cycles(f"(0 1 {i})", 6)) for i in range(2, 6)]
    )
    assert A6.order == 360
    G.inverses  # the table exists before the measurement
    tracemalloc.start()
    try:
        conjugates, normalizer = permgrp._record_class(G, A6.elements)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert conjugates == {A6.elements}
    assert len(normalizer) == G.order
    assert peak < 5 << 20


@pytest.mark.parametrize("name", ["s4", "aff8"])
def test_are_conjugate_matches_oracle(name, monkeypatch):
    """On every pair of subgroups, the cached class labels agree with the
    plain-Python test, both on a group that has enumerated nothing and
    after ``all_subgroups``, which leaves no gather to do."""
    elements = [H.elements for H in sl.all_subgroups(sl.load_bundled_group(name))]
    warm = sl.load_bundled_group(name)
    sl.all_subgroups(warm)
    gathered = []
    gather = permgrp._conjugate_columns
    monkeypatch.setattr(
        permgrp, "_conjugate_columns", lambda G, e: gathered.append(G) or gather(G, e)
    )
    images = [p.images for p in warm.elements]
    for e1 in elements:
        cold = sl.load_bundled_group(name)
        for e2 in elements:
            expect = oracles.are_conjugate(
                images, [images[i] for i in e1], [images[i] for i in e2]
            )
            for G in (cold, warm):
                H1, H2 = (sl.subgroup_from_indices(G, e) for e in (e1, e2))
                assert sl.are_conjugate_subgroups(G, H1, H2) == expect
    assert gathered and not any(G is warm for G in gathered)


def _check_subgroup_classes(G):
    """Each class the enumerator returns is closed under conjugation, and
    equal-order subgroups share a class id exactly when they are conjugate."""
    for m in range(1, G.order + 1):
        if G.order % m:
            continue
        subs, ids = sl.subgroup_classes_of_order(G, m)
        assert [H.elements for H in subs] == [
            H.elements for H in sl.all_subgroups(G) if H.order == m
        ]
        first_seen = list(dict.fromkeys(ids))
        assert first_seen == list(range(len(first_seen)))
        members = {}
        for H, c in zip(subs, ids):
            members.setdefault(c, set()).add(H.elements)
        orbits = [set(map(tuple, conjugate_by_all(G, H).T.tolist())) for H in subs]
        for orbit, c in zip(orbits, ids):
            assert orbit == members[c]
        for i, j in itertools.combinations(range(len(subs)), 2):
            assert (ids[i] == ids[j]) == (subs[j].elements in orbits[i])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=3))
def test_subgroup_classes_in_s4(gens):
    _check_subgroup_classes(generate_group(4, [Permutation(g) for g in gens]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 31), min_size=1, max_size=3))
def test_subgroup_classes_in_aff8(aff8, picks):
    gens = [aff8.elements[i] for i in picks]
    _check_subgroup_classes(generate_group(8, gens))


def test_psl211_order_60_search():
    G = sl.load_bundled_group("psl211")
    assert G.order == 660
    subs, ids = sl.subgroup_classes_of_order(G, 60)
    assert (len(subs), len(set(ids))) == (22, 2)
    pairs = gassmann_search(G, 60)
    assert len(pairs) == 121
    elems = [p.images for p in G.elements]
    classes = oracles.conjugacy_classes(elems)
    counts = {
        H: oracles.class_counts(elems, [p.images for p in H.permutations()], classes)
        for H in {H for pair in pairs for H in pair}
    }
    orbits = {}
    for H1, H2 in pairs:
        assert counts[H1] == counts[H2]
        if H1 not in orbits:
            orbits[H1] = set(map(tuple, conjugate_by_all(G, H1).T.tolist()))
        assert H2.elements not in orbits[H1]


# --- coset spaces ------------------------------------------------------------

def test_coset_space_basics(s4):
    H = sl.subgroup_generate(s4, [s4.index_of(sl.parse_cycles("(0 1)", 4))])
    cs = sl.coset_space(s4, H)
    assert cs.num_cosets == s4.order // H.order
    # coset 0 is H itself and is fixed exactly by H
    fixers = [g for g in range(s4.order) if cs.action[g, 0] == 0]
    assert fixers == list(H.elements)
    # every row is a permutation of the cosets
    ident = np.arange(cs.num_cosets)
    for g in range(s4.order):
        assert np.array_equal(np.sort(cs.action[g]), ident)


def test_coset_action_is_homomorphism(d4):
    H = sl.subgroup_generate(d4, [d4.order - 1])
    cs = sl.coset_space(d4, H)
    for i in range(d4.order):
        for j in range(d4.order):
            k = d4.mul(i, j)
            assert np.array_equal(cs.action[k], cs.action[i][cs.action[j]])


@pytest.mark.parametrize("make", [lambda: sl.load_bundled_group("s4"),
                                  lambda: sl.load_bundled_group("aff8"), _psl32],
                         ids=["s4", "aff8", "psl32"])
def test_coset_space_matches_first_fit_loop(make):
    G = make()
    table = G.table.tolist()
    for H in sl.all_subgroups(G):
        cs = sl.coset_space(G, H)
        reps, coset_of, action = oracles.coset_space(table, H.elements)
        assert cs.coset_reps == tuple(reps)
        assert cs.coset_of.tolist() == coset_of
        assert cs.action.tolist() == action


def test_coset_fixed_points_match_bruteforce(s3):
    elems = {e.images for e in s3.elements}
    H = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    sub = {p.images for p in H.permutations()}
    cs = sl.coset_space(s3, H)
    ids = np.arange(cs.num_cosets)
    for g in range(s3.order):
        got = int(np.count_nonzero(cs.action[g] == ids))
        assert got == oracles.coset_fixed_points(elems, sub, s3.elements[g].images)


# --- file formats ------------------------------------------------------------

def test_group_file_comments_and_header():
    G = parse_group_text("# a comment\ndegree 3\n(0 1 2)  # rotation\n(0 1)\n")
    assert G.order == 6


def test_group_file_errors():
    with pytest.raises(ParseError):
        parse_group_text("")
    with pytest.raises(ParseError) as info:
        parse_group_text("degree 3\n(0 1 2\n")
    assert "2" in str(info.value)
    with pytest.raises(ParseError):
        parse_group_text("order 6\n(0 1)\n")


def test_subgroup_file_requires_membership(s3):
    with pytest.raises(NotASubgroupError):
        parse_subgroup_text("(0 1)\n(0 2)\n", s3)


def test_subgroup_file_accepts_closed_set(s3):
    H = parse_subgroup_text("()\n(0 1)\n", s3)
    assert H.order == 2


def test_trivial_group_file():
    G = parse_group_text("degree 1\n")
    assert G.order == 1 and G.degree == 1


# --- properties --------------------------------------------------------------

perm_strategy = st.permutations(list(range(4)))


@settings(max_examples=40, deadline=None)
@given(st.lists(perm_strategy, min_size=1, max_size=3))
def test_generated_order_matches_bruteforce(gens):
    perms = [Permutation(g) for g in gens]
    G = generate_group(4, perms)
    assert G.order == len(oracles.closure([tuple(g) for g in gens], 4))


@settings(max_examples=25, deadline=None)
@given(st.lists(perm_strategy, min_size=1, max_size=2), st.data())
def test_lagrange_and_class_equation(gens, data):
    G = generate_group(4, [Permutation(g) for g in gens])
    seed = data.draw(
        st.lists(st.integers(0, G.order - 1), min_size=0, max_size=2)
    )
    H = sl.subgroup_generate(G, seed)
    assert G.order % H.order == 0
    cc = sl.conjugacy_classes(G)
    assert sum(cc.class_sizes) == G.order
    for c, rep in enumerate(cc.representatives):
        assert cc.class_of[rep] == c


@settings(max_examples=20, deadline=None)
@given(st.lists(perm_strategy, min_size=1, max_size=3))
def test_all_subgroups_match_oracle(gens):
    G = generate_group(4, [Permutation(g) for g in gens])
    subs = sl.all_subgroups(G)
    got = {frozenset(p.images for p in H.permutations()) for H in subs}
    assert len(got) == len(subs)
    assert got == oracles.all_subgroups(p.images for p in G.elements)


@settings(max_examples=20, deadline=None)
@given(st.lists(perm_strategy, min_size=1, max_size=3))
def test_subgroups_of_order_match_all_subgroups(gens):
    G = generate_group(4, [Permutation(g) for g in gens])
    everything = sl.all_subgroups(G)
    for m in range(1, G.order + 1):
        if G.order % m == 0:
            expect = [H.elements for H in everything if H.order == m]
            assert [H.elements for H in sl.subgroups_of_order(G, m)] == expect
