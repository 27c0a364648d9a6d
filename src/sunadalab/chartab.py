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
from dataclasses import dataclass

import numpy as np

from .errors import EigenDecompositionError, NonIntegralError
from .permgrp import ConjugacyClassPartition, PermutationGroup, conjugacy_classes, coset_space

ORTHOGONALITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6


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
    """Class-algebra structure constants a[i, j, t] with C_i C_j = sum a C_t."""
    cc = conjugacy_classes(G)
    cls = np.asarray(cc.class_of, dtype=np.int64)
    k = cc.num_classes
    n = G.order
    counts = np.zeros((k, k, k), dtype=np.float64)
    rows = np.repeat(cls, n)
    cols = np.tile(cls, n)
    prods = cls[np.asarray(G.table, dtype=np.int64).ravel()]
    np.add.at(counts, (rows, cols, prods), 1.0)
    sizes = np.asarray(cc.class_sizes, dtype=np.float64)
    return counts / sizes[None, None, :]


def character_table(G, seed=0, tol=ORTHOGONALITY_TOL, max_attempts=8):
    """Character table of G, deterministic for a fixed seed.

    Raises EigenDecompositionError if no random class-matrix combination
    produces a verified table within ``max_attempts`` draws.
    """
    cached = getattr(G, "_chartab_cache", None)
    if cached is not None and cached[0] == (seed, tol):
        return cached[1]
    cc = conjugacy_classes(G)
    a = structure_constants(G)
    sizes = np.asarray(cc.class_sizes, dtype=np.float64)
    k = cc.num_classes
    last_error = None
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        coeffs = rng.normal(size=k)
        combined = np.tensordot(coeffs, a, axes=1)
        _, vecs = np.linalg.eig(combined)
        try:
            ct = _table_from_eigenvectors(G, cc, sizes, vecs, tol)
        except (NonIntegralError, EigenDecompositionError) as exc:
            last_error = exc
            continue
        G._chartab_cache = ((seed, tol), ct)
        return ct
    raise EigenDecompositionError(
        f"no valid character table after {max_attempts} attempts: {last_error}"
    )


def _table_from_eigenvectors(G, cc, sizes, vecs, tol):
    k = cc.num_classes
    rows = []
    for c in range(k):
        v = vecs[:, c]
        if abs(v[0]) < 1e-12:
            raise EigenDecompositionError(
                "eigenvector vanishes on the identity class", class_index=c
            )
        omega = v / v[0]
        denom = np.sum(np.abs(omega) ** 2 / sizes)
        deg = np.sqrt(G.order / denom)
        deg_int = int(round(deg.real if np.iscomplexobj(deg) else deg))
        if deg_int < 1 or abs(deg - deg_int) > INTEGRALITY_TOL:
            raise NonIntegralError(f"irreducible degree {deg} is not a positive integer")
        rows.append((deg_int, deg_int * omega / sizes))
    if sum(d * d for d, _ in rows) != G.order:
        raise EigenDecompositionError("degree squares do not sum to the group order")
    rows.sort(key=lambda item: (
        item[0],
        tuple((-round(z.real, 10), -round(z.imag, 10)) for z in item[1]),
    ))
    table = np.array([vals for _, vals in rows], dtype=np.complex128)
    # character values are algebraic integers; at this scale anything below
    # 1e-10 is eigensolver noise, and snapping it keeps exports stable
    re, im = table.real.copy(), table.imag.copy()
    re[np.abs(re) < 1e-10] = 0.0
    im[np.abs(im) < 1e-10] = 0.0
    table = re + 1j * im
    degrees = tuple(d for d, _ in rows)
    gram = (table * (sizes / G.order)[None, :]) @ table.conj().T
    if np.max(np.abs(gram - np.eye(k))) > tol:
        raise EigenDecompositionError(
            f"row orthogonality fails at {np.max(np.abs(gram - np.eye(k))):.3e}"
        )
    ct = CharacterTable(group=G, partition=cc, table=table, degrees=degrees)
    return ct


def inner_product(partition, values_a, values_b):
    """Hermitian pairing (1/|G|) sum_t n_t a_t conj(b_t) of class functions."""
    sizes = np.asarray(partition.class_sizes, dtype=np.float64)
    a = np.asarray(values_a, dtype=np.complex128)
    b = np.asarray(values_b, dtype=np.complex128)
    return complex(np.sum(sizes * a * np.conj(b)) / partition.group.order)


def multiplicities(ct, values, tol=INTEGRALITY_TOL):
    """Multiplicity of every irreducible row inside the class function
    ``values``, or inside each row of a stack of class functions.

    Each entry is the pairing of ``inner_product`` with one irreducible.
    It must be a non-negative integer within ``tol``; the error names the
    first (character, irrep) that is not.  One class function gives a
    tuple of ints, a stack an integer array with a row per character.
    """
    a = np.asarray(values, dtype=np.complex128)
    sizes = np.asarray(ct.partition.class_sizes, dtype=np.float64)
    m = (np.atleast_2d(a) * sizes) @ ct.table.conj().T / ct.group.order
    m_int = np.round(m.real).astype(np.int64)
    bad = np.argwhere((m_int < 0) | (np.abs(m - m_int) > tol))
    if bad.size:
        char, row = (int(i) for i in bad[0])
        raise NonIntegralError(
            f"character {char} pairs with irrep {row} at {complex(m[char, row])}, "
            "not a non-negative integer"
        )
    return tuple(m_int[0].tolist()) if a.ndim == 1 else m_int


def permutation_character(G, H):
    """Character of the left-translation action of G on the cosets G/H:
    the number of cosets each class representative fixes."""
    cs = coset_space(G, H)
    reps = list(conjugacy_classes(G).representatives)
    fixed = cs.action[reps] == np.arange(cs.num_cosets)
    return tuple(fixed.sum(axis=1).tolist())


def _fixed_vector_counts(ct, K):
    """Dimension of the K-fixed vectors in every irreducible row,
    (1/|K|) sum_{k in K} chi(k).  With c_t elements of K in class t of
    size n_t, this is the pairing of chi with |G| c_t / (|K| n_t)."""
    cc = ct.partition
    hits = np.bincount(np.asarray(cc.class_of)[K.indices()], minlength=cc.num_classes)
    sizes = np.asarray(cc.class_sizes, dtype=np.float64)
    return multiplicities(ct, hits * (ct.group.order / K.order) / sizes)


def trivial_multiplicity_on_restriction(ct, row, K):
    """Number of K-fixed vectors in irreducible row ``row``, i.e. the
    multiplicity of the trivial character in its restriction to K."""
    return _fixed_vector_counts(ct, K)[row]


def irreps_with_fixed_vectors(ct, K):
    """Rows whose restriction to K contains the trivial character."""
    return tuple(np.flatnonzero(_fixed_vector_counts(ct, K)).tolist())


def format_complex(z, digits=12):
    """Render a complex number as ``a+bi`` with the given significant digits."""
    re = float(np.real(z))
    im = float(np.imag(z))
    # normalize signed zeros so equal tables export identically
    if re == 0.0:
        re = 0.0
    if im == 0.0:
        im = 0.0
    return f"{re:.{digits}g}{im:+.{digits}g}i"


def export_character_table_csv(ct, fh):
    """Write the table as CSV: one row per irreducible character.

    Columns are conjugacy classes labelled by a representative in cycle
    notation; values are ``a+bi`` with 12 significant digits.
    """
    from .permgrp import cycle_string

    reps = [cycle_string(ct.group.elements[r]) for r in ct.partition.representatives]
    fh.write("degree," + ",".join(reps) + "\n")
    fh.write("size," + ",".join(str(s) for s in ct.partition.class_sizes) + "\n")
    for r in range(ct.num_irreps):
        cells = [format_complex(z) for z in ct.table[r]]
        fh.write(f"{ct.degrees[r]}," + ",".join(cells) + "\n")


def abstract_table_fingerprint(ct, decimals=9, max_block=8):
    """A canonical form of the table, invariant under class relabelling.

    Classes other than the identity's may be listed in any order by two
    presentations of abstractly equal groups, so the fingerprint fixes
    the identity column, then minimizes the sorted row tuple over all
    permutations within blocks of equal class size.  Intended for small
    tables; blocks larger than ``max_block`` are rejected.
    """
    k = ct.num_irreps
    sizes = ct.partition.class_sizes
    blocks = {}
    for c in range(1, k):
        blocks.setdefault(sizes[c], []).append(c)
    for size, cols in blocks.items():
        if len(cols) > max_block:
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
                (round(z.real, decimals) + 0.0, round(z.imag, decimals) + 0.0)
                for z in ct.table[r, order]
            )
            for r in range(k)
        )
        key = (tuple(sizes[c] for c in order), tuple(rows))
        if best is None or key < best:
            best = key
    return best
