"""Complex character tables of finite groups.

The table is computed from the class algebra: the class sums C_i act on
the span of all class sums by C_i C_j = sum_t a_ijt C_t, and for each
irreducible representation the vector omega_t = n_t chi(g_t) / deg is a
common right eigenvector of the matrices (M_i)_{jt} = a_ijt with
eigenvalue omega_i.  A random linear combination of the M_i generically
has simple spectrum, so one eigendecomposition recovers every irreducible
character at once.  Degrees are forced to integers and the full
orthogonality relations are verified before a table is returned; bad
random draws are retried with fresh coefficients.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import EigenDecompositionError, NonIntegralError
from .permgrp import (
    ConjugacyClassPartition,
    PermutationGroup,
    class_intersection_counts,
    conjugacy_classes,
)

ORTHOGONALITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6
# random class-matrix combinations tried before a table is given up
MAX_ATTEMPTS = 8
# abstract_table_fingerprint rounds values to this many decimals and
# searches blocks of at most this many equal-size classes
FINGERPRINT_DECIMALS = 9
FINGERPRINT_MAX_BLOCK = 8


@dataclass(frozen=True)
class CharacterTable:
    """Rows are irreducible characters, columns conjugacy classes.

    Row 0 is the trivial character; remaining rows are sorted by degree
    and then by value, so equal groups produce equal tables.
    """

    group: PermutationGroup
    partition: ConjugacyClassPartition
    table: np.ndarray
    degrees: tuple

    @property
    def num_irreps(self):
        return self.table.shape[0]


def structure_constants(G):
    """Class-algebra structure constants a[i, j, t] with C_i C_j = sum a C_t.

    a[i, j, t] counts the x in C_i with x^{-1} z in C_j, for any one z in
    C_t; the class representative stands for z, so column t is one
    ``bincount`` over G.
    """
    cc = conjugacy_classes(G)
    cls = np.asarray(cc.class_of, dtype=np.int64)
    k = cc.num_classes
    a = np.empty((k, k, k), dtype=np.float64)
    for t, z in enumerate(cc.representatives):
        pairs = cls * k + cls[G.table[G.inverses, z]]
        a[:, :, t] = np.bincount(pairs, minlength=k * k).reshape(k, k)
    return a


def character_table(G):
    """Character table of G, the one table every query on G pairs with.

    The combination coefficients are Gaussian draws from one fixed
    ``random.Random(0)`` stream, each attempt taking the next k, so the
    table is deterministic.  It is kept on the group, so a later call
    does no eigendecomposition.  EigenDecompositionError is raised if no
    combination produces a verified table within ``MAX_ATTEMPTS`` draws.
    """
    cc = conjugacy_classes(G)
    if G._character_table is not None:
        table, degrees = G._character_table
        return CharacterTable(group=G, partition=cc, table=table, degrees=degrees)
    a = structure_constants(G)
    sizes = np.asarray(cc.class_sizes, dtype=np.float64)
    k = cc.num_classes
    rng = random.Random(0)
    last_error = None
    for _ in range(MAX_ATTEMPTS):
        coeffs = np.array([rng.gauss(0.0, 1.0) for _ in range(k)])
        combined = np.tensordot(coeffs, a, axes=1)
        _, vecs = np.linalg.eig(combined)
        try:
            ct = _table_from_eigenvectors(G, cc, sizes, vecs)
        except (NonIntegralError, EigenDecompositionError) as exc:
            last_error = exc
            continue
        G._character_table = (ct.table, ct.degrees)
        return ct
    raise EigenDecompositionError(
        f"no valid character table after {MAX_ATTEMPTS} attempts: {last_error}"
    )


def _table_from_eigenvectors(G, cc, sizes, vecs):
    k = cc.num_classes
    vanishing = np.flatnonzero(np.abs(vecs[0]) < 1e-12)
    if vanishing.size:
        raise EigenDecompositionError(
            f"eigenvector vanishes on the identity class (class index {vanishing[0]})"
        )
    omega = vecs / vecs[0]  # column c is one irreducible's omega
    deg = np.sqrt(G.order / np.sum(np.abs(omega) ** 2 / sizes[:, None], axis=0))
    deg_int = np.round(deg).astype(np.int64)
    bad = np.flatnonzero((deg_int < 1) | (np.abs(deg - deg_int) > INTEGRALITY_TOL))
    if bad.size:
        raise NonIntegralError(f"irreducible degree {deg[bad[0]]} is not a positive integer")
    if np.sum(deg_int**2) != G.order:
        raise EigenDecompositionError("degree squares do not sum to the group order")
    values = (deg_int[:, None] * omega.T / sizes).astype(np.complex128)
    # rows by degree, then by the negated values rounded to 10 decimals,
    # class by class, real part before imaginary; lexsort's primary key is last
    keys = -np.round(values, 10)
    columns = np.stack([keys.real, keys.imag], axis=2).reshape(k, 2 * k).T
    order = np.lexsort([*columns[::-1], deg_int])
    table = values[order]
    # character values are algebraic integers; at this scale anything below
    # 1e-10 is eigensolver noise, and snapping it keeps exports stable
    re, im = table.real.copy(), table.imag.copy()
    re[np.abs(re) < 1e-10] = 0.0
    im[np.abs(im) < 1e-10] = 0.0
    table = re + 1j * im
    degrees = tuple(deg_int[order].tolist())
    gram = (table * (sizes / G.order)[None, :]) @ table.conj().T
    if np.max(np.abs(gram - np.eye(k))) > ORTHOGONALITY_TOL:
        raise EigenDecompositionError(
            f"row orthogonality fails at {np.max(np.abs(gram - np.eye(k))):.3e}"
        )
    ct = CharacterTable(group=G, partition=cc, table=table, degrees=degrees)
    return ct


def multiplicities(ct, values):
    """Multiplicity of every irreducible row inside the class function
    ``values``, or inside each row of a stack of class functions.

    Each entry is the pairing (1/|G|) sum_t n_t a_t conj(chi_t) with one
    irreducible chi, n_t the class sizes.  It must be a non-negative
    integer within ``INTEGRALITY_TOL``; the error names the first
    (character, irrep) that is not.  One class function gives a tuple of
    ints, a stack an integer array with a row per character.
    """
    a = np.asarray(values, dtype=np.complex128)
    sizes = np.asarray(ct.partition.class_sizes, dtype=np.float64)
    m = (np.atleast_2d(a) * sizes) @ ct.table.conj().T / ct.group.order
    m_int = np.round(m.real).astype(np.int64)
    bad = (m_int < 0) | (np.abs(m - m_int) > INTEGRALITY_TOL)
    if bad.any():
        char, row = (int(i) for i in np.argwhere(bad)[0])
        raise NonIntegralError(
            f"character {char} pairs with irrep {row} at {complex(m[char, row])}, "
            "not a non-negative integer"
        )
    return tuple(m_int[0].tolist()) if a.ndim == 1 else m_int


def permutation_character(G, H):
    """Character of the left-translation action of G on the cosets G/H:
    the number of cosets each class representative fixes.

    g fixes xH exactly when x^{-1} g x is in H.  The x that conjugate g_t
    into H number c_t |C_G(g_t)| = c_t |G| / n_t, where c_t is the number
    of elements of H in class t and n_t its size, and each coset is met
    |H| times, so the count is |G| c_t / (|H| n_t): k integer operations
    on the class counts, exact, with no coset space."""
    counts = class_intersection_counts(G, H)
    sizes = G.classes.class_sizes
    return tuple(G.order * c // (H.order * n) for c, n in zip(counts, sizes))


def induced_multiplicities(G, H):
    """Multiplicity of each irreducible of ``character_table(G)`` in
    Ind_H^G 1, the coset representation of G on G/H.  By Frobenius
    reciprocity it is also the dimension of the H-fixed vectors of each
    irreducible, (1/|H|) sum_{h in H} chi(h): one pairing, two readings.

    H's class counts fix |H|, their sum, and so its permutation
    character; the result is kept on G under those counts, so subgroups
    with one permutation character, such as the members of a Gassmann
    pair, share one pairing."""
    counts = class_intersection_counts(G, H)
    m = G._induced.get(counts)
    if m is None:
        m = G._induced[counts] = multiplicities(
            character_table(G), permutation_character(G, H)
        )
    return m


def irreps_with_fixed_vectors(G, K):
    """Rows of ``character_table(G)`` whose restriction to K contains the
    trivial character."""
    return tuple(np.flatnonzero(induced_multiplicities(G, K)).tolist())


def format_complex(z):
    """Render a complex number as ``a+bi`` with 12 significant digits."""
    re = float(np.real(z))
    im = float(np.imag(z))
    # normalize signed zeros so equal tables export identically
    if re == 0.0:
        re = 0.0
    if im == 0.0:
        im = 0.0
    return f"{re:.12g}{im:+.12g}i"


def abstract_table_fingerprint(ct):
    """A canonical form of the table, invariant under class relabelling.

    Classes other than the identity's may be listed in any order by two
    presentations of abstractly equal groups, so the fingerprint fixes
    the identity column, then minimizes the sorted row tuple over all
    permutations within blocks of equal class size.  Intended for small
    tables; blocks larger than ``FINGERPRINT_MAX_BLOCK`` are rejected.
    """
    k = ct.num_irreps
    sizes = ct.partition.class_sizes
    blocks = {}
    for c in range(1, k):
        blocks.setdefault(sizes[c], []).append(c)
    for size, cols in blocks.items():
        if len(cols) > FINGERPRINT_MAX_BLOCK:
            raise ValueError(
                f"{len(cols)} classes of size {size}: fingerprint search too large"
            )
    block_items = sorted(blocks.items())
    best = None
    for perm_choice in itertools.product(
        *(itertools.permutations(cols) for _, cols in block_items)
    ):
        order = [0] + [c for group in perm_choice for c in group]
        rows = sorted(
            tuple(
                (
                    round(z.real, FINGERPRINT_DECIMALS) + 0.0,
                    round(z.imag, FINGERPRINT_DECIMALS) + 0.0,
                )
                for z in ct.table[r, order]
            )
            for r in range(k)
        )
        key = (tuple(sizes[c] for c in order), tuple(rows))
        if best is None or key < best:
            best = key
    return best
