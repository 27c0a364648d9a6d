"""Kernel tests: the numpy kernels against the plain-Python oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunadalab import _kernels as K

import oracles


S4_GENS = [(1, 2, 3, 0), (1, 0, 2, 3)]


def _images(group_elems):
    return np.array(sorted(group_elems), dtype=np.int32)


def _table(images, gen_images):
    index = {tuple(row): i for i, row in enumerate(images.tolist())}
    lookup = {row.tobytes(): i for i, row in enumerate(images)}
    return K.mul_table(images, [index[tuple(g)] for g in gen_images], lookup)


@pytest.fixture(scope="module")
def s4_images():
    return _images(oracles.closure(S4_GENS, 4))


def test_mul_table_matches_composition(s4_images):
    table = _table(s4_images, S4_GENS)
    n = len(s4_images)
    for i in range(n):
        for j in range(n):
            expect = oracles.compose(tuple(s4_images[i]), tuple(s4_images[j]))
            assert tuple(s4_images[table[i, j]]) == expect


def test_mul_table_rejects_non_generating_set(s4_images):
    with pytest.raises(ValueError, match="reach 4 of 24"):
        _table(s4_images, S4_GENS[:1])


def test_closure_identity_only(s4_images):
    table = _table(s4_images, S4_GENS)
    got = K.closure(table, np.array([], dtype=np.int64))
    assert list(got) == [0]


def test_closure_is_a_subgroup(s4_images):
    table = _table(s4_images, S4_GENS)
    members = K.closure(table, np.array([1, 5], dtype=np.int64))
    mset = set(int(x) for x in members)
    for i in mset:
        for j in mset:
            assert int(table[i, j]) in mset


@pytest.mark.parametrize("name", ["s4", "aff8"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_closure_matches_oracle(groups, name, data):
    G = groups[name]
    images = np.array([g.images for g in G.elements], dtype=np.int32)
    table = _table(images, [g.images for g in G.generators])
    seed = data.draw(
        st.lists(st.integers(0, len(images) - 1), min_size=1, max_size=3)
    )
    got = K.closure(table, np.array(seed, dtype=np.int64))
    assert got.dtype == np.int64
    assert list(got) == sorted(set(got.tolist()))
    elems = set(map(tuple, images.tolist()))
    expect = oracles.subgroup_closure(elems, [tuple(images[i]) for i in seed])
    assert {tuple(images[i]) for i in got} == expect


@pytest.fixture(scope="module")
def lattices(groups):
    """Per group: element image rows, table and every subgroup (oracle)."""
    out = {}
    for name in ("s4", "aff8"):
        G = groups[name]
        images = np.array([g.images for g in G.elements], dtype=np.int32)
        table = _table(images, [g.images for g in G.generators])
        rows = [tuple(r) for r in images.tolist()]
        subgroups = sorted(sorted(H) for H in oracles.all_subgroups(rows))
        out[name] = rows, table, subgroups
    return out


@pytest.mark.parametrize("name", ["s4", "aff8"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closure_extends_base_up_to_limit(lattices, name, data):
    rows, table, subgroups = lattices[name]
    H = data.draw(st.sampled_from(subgroups))
    g = data.draw(st.integers(0, len(rows) - 1))
    limit = data.draw(st.integers(1, len(rows)))
    index = {row: i for i, row in enumerate(rows)}
    h_gens = []  # a generating set of H, one element at a time
    for h in H:
        if h not in oracles.subgroup_closure(rows, [rows[i] for i in h_gens]):
            h_gens.append(index[h])
    base = np.array(sorted(index[h] for h in H), dtype=np.int64)
    got = K.closure(table, h_gens + [g], base, limit)
    assert got.dtype == np.int64
    expect = oracles.subgroup_closure(rows, H + [rows[g]])
    if len(expect) <= limit:
        assert got.tolist() == sorted(index[k] for k in expect)
    else:
        assert got.size == 0


def test_conjugacy_against_bruteforce(s4_images):
    table = _table(s4_images, S4_GENS)
    index = {tuple(r): i for i, r in enumerate(map(tuple, s4_images))}
    inv = np.array(
        [index[oracles.inverse(tuple(r))] for r in s4_images], dtype=np.int64
    )
    class_of, reps = K.conjugacy_partition(table, inv)
    got = {
        frozenset(tuple(s4_images[i]) for i in np.nonzero(class_of == c)[0])
        for c in range(class_of.max() + 1)
    }
    expect = oracles.conjugacy_classes(set(map(tuple, s4_images)))
    assert got == expect
    # each representative is its class's least element, classes numbered
    # in order of their representatives
    assert len(reps) == len(expect)
    assert reps == [int(np.flatnonzero(class_of == t).min()) for t in range(len(reps))]
    assert reps == sorted(reps)


def test_heat_sum_matches_direct():
    values = np.array([0.0, 1.0, 4.0])
    mults = np.array([1.0, 2.0, 1.0])
    t = np.array([0.1, 1.0, 10.0])
    got = K.heat_sum(values, mults, t)
    expect = np.array([np.sum(mults * np.exp(-values * tt)) for tt in t])
    assert np.allclose(got, expect, rtol=0, atol=1e-15)
