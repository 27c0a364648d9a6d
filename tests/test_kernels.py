"""Kernel tests: the numpy kernels against the plain-Python oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunadalab import _kernels as K

import oracles


def _images(group_elems):
    return np.array(sorted(group_elems), dtype=np.int32)


@pytest.fixture(scope="module")
def s4_images():
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
    return _images(oracles.closure(gens, 4))


def test_mul_table_matches_composition(s4_images):
    table = K.mul_table(s4_images)
    n = len(s4_images)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(0, n, size=2)
        expect = oracles.compose(tuple(s4_images[i]), tuple(s4_images[j]))
        assert tuple(s4_images[table[i, j]]) == expect


def test_closure_identity_only(s4_images):
    table = K.mul_table(s4_images)
    got = K.closure(table, np.array([], dtype=np.int64))
    assert list(got) == [0]


def test_closure_is_a_subgroup(s4_images):
    table = K.mul_table(s4_images)
    members = K.closure(table, np.array([1, 5], dtype=np.int64))
    mset = set(int(x) for x in members)
    for i in mset:
        for j in mset:
            assert int(table[i, j]) in mset


@pytest.mark.parametrize("name", ["s4", "aff8"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_closure_matches_oracle(groups, name, data):
    images = np.array([g.images for g in groups[name].elements], dtype=np.int32)
    table = K.mul_table(images)
    seed = data.draw(
        st.lists(st.integers(0, len(images) - 1), min_size=1, max_size=3)
    )
    got = K.closure(table, np.array(seed, dtype=np.int64))
    assert got.dtype == np.int64
    assert list(got) == sorted(set(got.tolist()))
    elems = set(map(tuple, images.tolist()))
    expect = oracles.subgroup_closure(elems, [tuple(images[i]) for i in seed])
    assert {tuple(images[i]) for i in got} == expect


def test_conjugacy_against_bruteforce(s4_images):
    table = K.mul_table(s4_images)
    index = {tuple(r): i for i, r in enumerate(map(tuple, s4_images))}
    inv = np.array(
        [index[oracles.inverse(tuple(r))] for r in s4_images], dtype=np.int64
    )
    class_of = K.conjugacy_partition(table, inv)
    got = {
        frozenset(tuple(s4_images[i]) for i in np.nonzero(class_of == c)[0])
        for c in range(class_of.max() + 1)
    }
    expect = oracles.conjugacy_classes(set(map(tuple, s4_images)))
    assert got == expect


def test_heat_sum_matches_direct():
    values = np.array([0.0, 1.0, 4.0])
    mults = np.array([1.0, 2.0, 1.0])
    t = np.array([0.1, 1.0, 10.0])
    got = K.heat_sum(values, mults, t)
    expect = np.array([np.sum(mults * np.exp(-values * tt)) for tt in t])
    assert np.allclose(got, expect, rtol=0, atol=1e-15)
