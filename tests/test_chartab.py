import io
from fractions import Fraction

import numpy as np
import pytest

import oracles
import sunadalab as sl
from sunadalab import chartab as ch
from sunadalab.errors import NonIntegralError


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
    d4._chartab_cache = None
    b = ch.character_table(d4)
    assert np.array_equal(a.table, b.table)


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
            assert ch._fixed_vector_counts(ct, K) == tuple(int(m) for m in exact)
            assert ch.irreps_with_fixed_vectors(ct, K) == tuple(
                r for r, m in enumerate(exact) if m > 0
            )


def test_fixed_vector_rows_monotone(d4):
    ct = ch.character_table(d4)
    subs = sl.all_subgroups(d4)
    for small in subs:
        for big in subs:
            if set(small.elements) <= set(big.elements):
                rows_small = set(ch.irreps_with_fixed_vectors(ct, small))
                rows_big = set(ch.irreps_with_fixed_vectors(ct, big))
                assert rows_big <= rows_small


def test_trivial_restriction_counts(s3):
    ct = ch.character_table(s3)
    A3 = sl.subgroup_generate(s3, [s3.index_of(sl.parse_cycles("(0 1 2)", 3))])
    # trivial and sign restrict trivially to A3; the 2-dim does not
    assert ch.trivial_multiplicity_on_restriction(ct, 0, A3) == 1
    assert ch.trivial_multiplicity_on_restriction(ct, 1, A3) == 1
    assert ch.trivial_multiplicity_on_restriction(ct, 2, A3) == 0
    assert ch.irreps_with_fixed_vectors(ct, A3) == (0, 1)


def test_whole_group_sees_only_trivial(groups):
    for G in groups.values():
        ct = ch.character_table(G)
        whole = sl.subgroup_from_indices(G, range(G.order))
        assert ch.irreps_with_fixed_vectors(ct, whole) == (0,)


def test_csv_export_format(s3):
    ct = ch.character_table(s3)
    buf = io.StringIO()
    ch.export_character_table_csv(ct, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "degree,(),(1 2),(0 1 2)"
    assert lines[1] == "size,1,3,2"
    assert lines[2] == "1,1+0i,1+0i,1+0i"
    assert lines[4].startswith("2,2+0i,0+0i,-1+0i")


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
