import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sunadalab as sl
from sunadalab import chartab
from sunadalab import gassmann as gs
from sunadalab.cli import _normalize
from sunadalab.errors import BudgetExceededError, NotASubgroupError, PreconditionError


def test_class_counts_sum_to_order(s4):
    for H in sl.all_subgroups(s4):
        counts = gs.class_intersection_counts(s4, H)
        assert sum(counts) == H.order
        assert counts[0] == 1  # the identity is in every subgroup


def test_class_counts_match_bruteforce(d4):
    elems = {e.images for e in d4.elements}
    for H in sl.all_subgroups(d4):
        sub = {p.images for p in H.permutations()}
        got = gs.class_intersection_counts(d4, H)
        assert got == oracles.class_counts(elems, sub)


def test_conjugate_subgroups_are_almost_conjugate(s4):
    a = sl.subgroup_generate(s4, [s4.index_of(sl.parse_cycles("(0 1)", 4))])
    b = sl.subgroup_generate(s4, [s4.index_of(sl.parse_cycles("(2 3)", 4))])
    assert sl.are_conjugate_subgroups(s4, a, b)
    assert gs.almost_conjugate(s4, a, b)


def test_classical_pair(aff8_triple):
    G, h1, h2 = aff8_triple
    assert gs.almost_conjugate(G, h1, h2)
    assert gs.representation_equivalent(G, h1, h2)
    assert not sl.are_conjugate_subgroups(G, h1, h2)


def test_both_routes_agree_on_s3_pairs(s3):
    subs = sl.all_subgroups(s3)
    for i, a in enumerate(subs):
        for b in subs[i + 1 :]:
            assert gs.almost_conjugate(s3, a, b) == gs.representation_equivalent(
                s3, a, b
            )


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(list(range(n))), max_size=3))
))
def test_counting_and_characters_agree_on_random_groups(degree_gens):
    degree, gens = degree_gens
    G = sl.generate_group(degree, [sl.Permutation(g) for g in gens])
    ct = sl.character_table(G)
    subs = sl.all_subgroups(G)
    for H in subs:
        m = sl.induced_multiplicities(G, H)
        assert sum(a * d for a, d in zip(m, ct.degrees)) == G.order // H.order
        assert m[0] == 1
    for H1, H2 in itertools.combinations(subs, 2):
        if H1.order == H2.order:
            assert gs.almost_conjugate(G, H1, H2) == gs.representation_equivalent(G, H1, H2)


def test_foreign_subgroup_raises_not_a_subgroup(s4, aff8):
    # element 26 lies past the end of S4's 24 elements; (0, 1) lies inside,
    # and read as S4 indices it would get S4's class counts
    subgroups = [sl.subgroup_generate(aff8, [26]), sl.subgroup_generate(aff8, [1])]
    assert [H.elements for H in subgroups] == [(0, 26), (0, 1)]
    # the same element tuple as a subgroup of s4 whose counts are cached
    gs.class_intersection_counts(s4, sl.subgroup_generate(s4, [1]))
    subgroups.append(sl.subgroup_generate(sl.load_bundled_group("s4"), [1]))
    for H in subgroups:
        with pytest.raises(NotASubgroupError):
            gs.class_intersection_counts(s4, H)
        with pytest.raises(NotASubgroupError):
            gs.almost_conjugate(s4, H, H)
        with pytest.raises(NotASubgroupError):
            gs.triple_report(s4, H, H)


def test_k_equivalence_weakens(s3):
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    T = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    triv = sl.subgroup_generate(s3, [])
    whole = sl.subgroup_from_indices(s3, range(6))
    # different coset representations, hence not equivalent at K = {e}
    assert not gs.k_equivalent(s3, A3, T, triv)
    assert gs.k_equivalent(s3, A3, T, triv) == gs.representation_equivalent(s3, A3, T)
    # at K = A3 they still differ through the sign character
    assert not gs.k_equivalent(s3, A3, T, A3)
    # at K = G only the trivial character is visible, where both contain it once
    assert gs.k_equivalent(s3, A3, T, whole)


def test_triple_report_schema(aff8_triple):
    G, h1, h2 = aff8_triple
    rep = gs.triple_report(G, h1, h2)
    d = _normalize(rep)
    assert set(d) == {
        "group_order",
        "subgroup_order",
        "class_counts_h1",
        "class_counts_h2",
        "almost_conjugate",
        "conjugate",
        "perm_char",
    }
    assert d["group_order"] == 32
    assert d["subgroup_order"] == 4
    assert d["class_counts_h1"] == d["class_counts_h2"]
    assert d["almost_conjugate"] is True
    assert d["conjugate"] is False
    assert d["perm_char"][0] == 8  # index of H in G
    assert json.dumps(d)  # JSON-serializable as is


def test_triple_report_rejects_unequal_orders(s3):
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    T = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1)", 3))])
    with pytest.raises(PreconditionError):
        gs.triple_report(s3, A3, T)


def test_search_finds_the_16_pairs(aff8, aff8_triple):
    _, h1, h2 = aff8_triple
    pairs = gs.gassmann_search(aff8, 4)
    assert len(pairs) == 16
    keys = {frozenset((a.elements, b.elements)) for a, b in pairs}
    assert frozenset((h1.elements, h2.elements)) in keys
    for a, b in pairs:
        assert gs.almost_conjugate(aff8, a, b)
        assert not sl.are_conjugate_subgroups(aff8, a, b)


def test_search_s3_has_no_nonconjugate_pairs(s3):
    assert gs.gassmann_search(s3, 2) == []
    assert gs.gassmann_search(s3, 3) == []


def test_search_budget(aff8):
    with pytest.raises(BudgetExceededError):
        gs.gassmann_search(aff8, 4, budget=3)


def test_induced_multiplicities_dimension(s4):
    ct = sl.character_table(s4)
    for H in sl.all_subgroups(s4):
        mult = gs.induced_multiplicities(s4, H)
        dim = sum(m * d for m, d in zip(mult, ct.degrees))
        assert dim == s4.order // H.order


def _psl32():
    return sl.generate_group(
        7, [sl.parse_cycles("(0 1 2 3 4 5 6)", 7), sl.parse_cycles("(2 4)(5 6)", 7)]
    )


def test_one_class_count_per_subgroup():
    G = _psl32()
    pairs = gs.gassmann_search(G, 24)
    reports = [gs.triple_report(G, H1, H2) for H1, H2 in pairs]
    assert len(pairs) == 49
    # the class counts are the one cache a subgroup has, kept for the 14
    # order-24 subgroups the search and the reports read
    assert set(G._class_counts) == {H.elements for H in sl.subgroups_of_order(G, 24)}
    assert len(G._class_counts) == 14
    for (H1, H2), report in zip(pairs, reports):
        fresh = _psl32()  # no class counts cached
        subgroups = [sl.subgroup_from_indices(fresh, H.elements) for H in (H1, H2)]
        assert gs.triple_report(fresh, *subgroups) == report


def test_disagreement_raises_with_cached_characters(s4, monkeypatch):
    # a pair that is not almost conjugate, and a table with only the
    # trivial row, under which every coset character looks the same
    subs = sl.subgroups_of_order(s4, 2)
    H1, H2 = subs[0], next(H for H in subs if not gs.almost_conjugate(s4, subs[0], H))
    assert not gs.triple_report(s4, H1, H2).almost_conjugate  # caches both class counts
    ct = sl.character_table(s4)
    trivial_only = chartab.CharacterTable(
        group=s4, partition=ct.partition, table=ct.table[:1], degrees=ct.degrees[:1]
    )
    monkeypatch.setattr(gs, "character_table", lambda G: trivial_only)
    with pytest.raises(PreconditionError, match="disagree"):
        gs.triple_report(s4, H1, H2)


