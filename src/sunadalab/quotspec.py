"""Weighted graphs with isometric group actions and their spectra.

A G-space here is a finite weighted graph together with a vertex action
of a permutation group that preserves the weights.  The module computes
graph Laplacian spectra, spectra of quotients (as honest quotient graphs
when the action is free, as invariant-subspace spectra in general),
isotypic multiplicities of eigenspaces, the transplantation identity
relating invariant multiplicities to induced-representation
multiplicities, the support law for which irreducibles can appear, and
discrete Dirichlet fundamental domains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chartab import (
    INTEGRALITY_TOL,
    CharacterTable,
    character_table,
    induced_multiplicities,
    irreps_with_fixed_vectors,
    multiplicities,
)
from .errors import (
    DisconnectedGraphError,
    NonFreeActionError,
    NonIntegralError,
    NumericalError,
    PreconditionError,
)
from .permgrp import (
    PermutationGroup,
    Subgroup,
    conjugacy_classes,
    coset_space,
    orbit_numbering,
    subgroup_generate,
)

CLUSTER_TOL_SCALE = 1e-8
# coset_gspace keeps an orbit of pairs as an edge with this
# probability; perturb_invariant_weights draws its factors from this range
WEIGHT_KEEP_PROB = 0.7
PERTURB_RANGE = (0.5, 1.5)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric non-negative weight matrix with zero diagonal."""

    n: int
    weights: np.ndarray

    @cached_property
    def connected(self):
        """True iff every vertex is reachable from vertex 0 along positive
        weights; found by one breadth-first search on first read."""
        return self.n == 0 or bool(np.all(_hop_distances(self.weights, 0) >= 0))


def weighted_graph(weights):
    w = np.array(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise PreconditionError(f"weight matrix must be square, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise PreconditionError("weights must be finite")
    if np.any(w < 0):
        raise PreconditionError("weights must be non-negative")
    if not np.array_equal(w, w.T):
        raise PreconditionError("weight matrix must be exactly symmetric")
    if np.any(np.diagonal(w) != 0):
        raise PreconditionError("diagonal weights (self-loops) are not allowed")
    return WeightedGraph(n=w.shape[0], weights=w)


def laplacian(graph):
    """Combinatorial Laplacian L = D - W, in one n x n allocation and
    bit for bit equal to ``np.diag(W.sum(axis=1)) - W``."""
    w = graph.weights
    lap = 0.0 - w
    np.fill_diagonal(lap, w.sum(axis=1))  # the diagonal of W is zero
    return lap


@dataclass(frozen=True, eq=False)
class GSpace:
    """A weighted graph with a weight-preserving group action.

    ``vertex_perms[g, v]`` is the image of vertex v under group element
    g (indexed as in the group's canonical element order).  It is a
    read-only int32 array; a Cayley graph's action is the group's own
    ``G.table``, shared rather than copied.
    """

    group: PermutationGroup
    graph: WeightedGraph
    vertex_perms: np.ndarray

    @property
    def n(self):
        return self.graph.n

    @cached_property
    def laplacian_eigh(self):
        """(eigenvalues, orthonormal eigenvectors) of the Laplacian,
        computed once and shared by every spectral routine."""
        return np.linalg.eigh(laplacian(self.graph))

    @cached_property
    def _eigenspace_cache(self):
        """One eigenspace record per cluster_tol, filled by _eigenspaces:
        plain data, with no reference to the space or a character table."""
        return {}


def gspace(G, graph, vertex_perms):
    """Validate and bundle an action given as one vertex permutation per
    group element.

    The homomorphism property and weight preservation are checked on the
    group's generators.  If rho(s g) = rho(s) rho(g) for every generator s
    and every g, and the identity acts trivially, then rho is a
    homomorphism by induction on the word length of the left factor; every
    rho(g) is then a product of generator permutations, so it preserves
    the weights when the generators do.  A generator p preserves them iff
    it carries each positive-weight pair (u, v) to a pair (pu, pv) of the
    same weight: (u, v) -> (pu, pv) is a bijection of the ordered pairs,
    so if it maps the positive pairs into themselves it maps them onto
    themselves, and the zero pairs onto the zero pairs.  Only the edge
    list is gathered, not the n x n matrix.  The space keeps a read-only
    int32 action: a copy, unless the caller passes a read-only array that
    owns its data, which it must then not make writable again.
    """
    perms = np.asarray(vertex_perms)
    if perms.dtype.kind not in "iu":
        raise PreconditionError(f"action table must hold integers, got {perms.dtype}")
    if perms.shape != (G.order, graph.n):
        raise PreconditionError(
            f"action table has shape {perms.shape}, expected {(G.order, graph.n)}"
        )
    ident = np.arange(graph.n)
    # checked before the cast to int32, which could wrap a bad row into a permutation
    not_perm = np.flatnonzero((np.sort(perms, axis=1) != ident).any(axis=1))
    if not_perm.size:
        raise PreconditionError(f"row {not_perm[0]} of the action is not a permutation")
    perms = perms.astype(np.int32, copy=perms.flags.writeable or perms.base is not None)
    perms.flags.writeable = False
    if not np.array_equal(perms[0], ident):
        raise PreconditionError("identity element must act as the identity")
    table = G.table
    w = graph.weights
    us, vs = np.divmod(np.flatnonzero(w > 0), graph.n)  # the edges, as ordered pairs
    edge_weights = w[us, vs]
    for s in _generator_rows(G):
        p = perms[s]
        if not np.array_equal(perms[table[s]], p[perms]):
            raise PreconditionError(
                f"action is not a homomorphism at generator {s}"
            )
        if not np.array_equal(w[p[us], p[vs]], edge_weights):
            raise PreconditionError(
                f"element {s} does not preserve the edge weights"
            )
    return GSpace(group=G, graph=graph, vertex_perms=perms)


def _generator_rows(G):
    """Element indices of the group's generators, ascending, each once."""
    return sorted({G.index_of(gen) for gen in G.generators})


def cayley_graph(G, gen_indices=None, weights=None):
    """Cayley graph of G with edges x -> x*s, carried as a G-space under
    left translation.

    The connection set must exclude the identity and be closed under
    inversion, with equal weights on inverse pairs; the defaults use the
    group's own generators (symmetrized) with unit weights.  An element
    of the connection set without a weight takes its inverse's; the
    caller's ``weights`` dict is left as it was.
    """
    if gen_indices is None:
        gen_indices = _generator_rows(G)
    gen_indices = [int(s) for s in gen_indices]
    if 0 in gen_indices:
        raise PreconditionError("connection set must not contain the identity")
    weights = {s: 1.0 for s in gen_indices} if weights is None else dict(weights)
    conn = set(gen_indices)
    for s in gen_indices:
        conn.add(G.inv(s))
        if s not in weights and G.inv(s) not in weights:
            raise PreconditionError(f"connection element {s} and its inverse have no weight")
        weights.setdefault(s, weights.get(G.inv(s)))
        weights.setdefault(G.inv(s), weights[s])
    for s in conn:
        if weights[s] != weights[G.inv(s)]:
            raise PreconditionError(
                f"weights on the inverse pair ({s}, {G.inv(s)}) differ"
            )
        if weights[s] <= 0:
            raise PreconditionError("connection weights must be positive")
    n = G.order
    w = np.zeros((n, n))
    for s in sorted(conn):
        # right multiplication by s; left translation then acts by isometries
        targets = G.table[:, s]
        w[np.arange(n), targets] = weights[s]
    graph = weighted_graph(w)
    del w  # weighted_graph keeps its own copy
    return gspace(G, graph, G.table)


def coset_gspace(G, subgroups, weight_seed=0):
    """Disjoint union of coset spaces G/H_i with a random invariant graph.

    Weights are constant on orbits of vertex pairs, so invariance is
    exact by construction.
    """
    spaces = [coset_space(G, H) for H in subgroups]
    n = sum(cs.num_cosets for cs in spaces)
    perms = np.zeros((G.order, n), dtype=np.int32)
    offset = 0
    for cs in spaces:
        perms[:, offset : offset + cs.num_cosets] = cs.action + offset
        offset += cs.num_cosets
    orbit = _pair_orbits(perms[_generator_rows(G)], n)
    rng = np.random.default_rng(weight_seed)
    values = rng.uniform(0.25, 1.0, size=orbit.max(initial=-1) + 1)
    values[rng.uniform(size=values.shape) > WEIGHT_KEEP_PROB] = 0.0
    w = np.zeros((n, n))
    mask = orbit >= 0
    w[mask] = values[orbit[mask]]
    perms.flags.writeable = False  # handed over to the space, not copied
    return gspace(G, weighted_graph(w), perms)


def _pair_orbits(perms, n):
    """Orbit index of each off-diagonal vertex pair under the group that
    the rows of ``perms`` generate and the swap (u, v) -> (v, u); the
    diagonal is marked -1.

    Each pair starts with its own code u*n + v.  A round pulls into every
    pair the code of its image under the swap and under each row, then
    replaces each code by the code of the pair it names (pointer
    jumping).  Codes only fall, and each names a pair of its own orbit.
    Once a round changes nothing, each code is at most the code of every
    image; in a finite group the inverse of a generator is one of its
    powers, so the images reach the whole orbit and the code is constant
    on it.  The orbit's least pair holds a code of its own orbit that is
    at most its own, so the constant is the least code.  So the
    generator rows suffice, where a sweep over every element costs |G|
    n x n passes, and a round holds about three n x n arrays whatever
    the number of rows.  Orbits are numbered by that least code, which
    is the order in which a row-major scan of the pairs first reaches
    them.
    """
    rows = np.asarray(perms, dtype=np.intp)
    code = np.arange(n * n).reshape(n, n)
    while True:
        pulled = np.minimum(code, code.T)
        for p in rows:
            np.minimum(pulled, pulled[np.ix_(p, p)], out=pulled)
        pulled = pulled.ravel()[pulled]
        if np.array_equal(pulled, code):
            break
        code = pulled
    np.fill_diagonal(code, n * n)  # no off-diagonal pair has this label
    orbit = orbit_numbering(code.ravel())[1].reshape(n, n)
    np.fill_diagonal(orbit, -1)
    return orbit


def perturb_invariant_weights(space, seed=0):
    """Rescale each orbit of edge weights by an independent random factor.

    Returns a new G-space on the same action; invariance stays exact, so
    any isospectrality that came from the group structure survives.
    """
    orbit = _pair_orbits(space.vertex_perms[_generator_rows(space.group)], space.n)
    rng = np.random.default_rng(seed)
    factors = rng.uniform(*PERTURB_RANGE, size=orbit.max(initial=-1) + 1)
    w = space.graph.weights.copy()
    mask = orbit >= 0
    w[mask] = w[mask] * factors[orbit[mask]]
    return gspace(space.group, weighted_graph(w), space.vertex_perms)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues of a symmetric operator, clustered into multiplicities.

    ``values`` are the raw sorted eigenvalues; ``clusters`` is a tuple of
    (eigenvalue, multiplicity) pairs where the eigenvalue is the cluster
    mean.  Adjacent eigenvalues are merged when their gap is at most
    ``cluster_tol``.
    """

    values: np.ndarray
    clusters: tuple
    cluster_tol: float

    @property
    def dim(self):
        return len(self.values)

    def cluster_values(self):
        return tuple(v for v, _ in self.clusters)

    def multiplicities(self):
        return tuple(m for _, m in self.clusters)


def default_cluster_tol(values):
    radius = float(np.max(np.abs(values))) if len(values) else 0.0
    return CLUSTER_TOL_SCALE * max(1.0, radius)


def cluster_eigenvalues(values, cluster_tol=None):
    values = np.sort(np.asarray(values, dtype=np.float64))
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(values)
    if not 0 <= cluster_tol < np.inf:
        raise PreconditionError(
            f"cluster_tol must be finite and non-negative, got {cluster_tol}"
        )
    blocks = np.split(values, np.flatnonzero(np.diff(values) > cluster_tol) + 1)
    clusters = tuple((float(b.mean()), len(b)) for b in blocks) if values.size else ()
    return SpectralDecomposition(
        values=values, clusters=clusters, cluster_tol=float(cluster_tol)
    )


def spectrum(graph, cluster_tol=None):
    """Laplacian spectrum of a weighted graph."""
    values = np.linalg.eigvalsh(laplacian(graph))
    return cluster_eigenvalues(values, cluster_tol)


def averaging_projector(space, H):
    """Matrix of the averaging operator over H on functions of the
    vertices; its range is the H-invariant subspace.  Entry (u, v) is
    |{h : h v = u}| / |H| = 1 / |orbit(v)| if u is in the orbit of v."""
    label, size = _orbit_labels(space, H)
    return np.where(label[:, None] == label[None, :], 1.0 / size, 0.0)


def invariant_spectrum(space, H=None, cluster_tol=None):
    """Spectrum of the Laplacian restricted to the H-invariant functions.

    This is the quotient spectrum for any action, free or not.
    """
    # the projector and its eigenvectors are freed before the Laplacian is made
    evals, evecs = np.linalg.eigh(averaging_projector(space, H))
    basis = evecs[:, evals > 0.5]
    del evecs
    lap = laplacian(space.graph)
    reduced = basis.T @ lap @ basis
    reduced = (reduced + reduced.T) / 2.0
    values = np.linalg.eigvalsh(reduced)
    return cluster_eigenvalues(values, cluster_tol)


def _orbit_labels(space, H):
    """Each vertex's H-orbit label, the least vertex of its orbit, and the
    size of that orbit.  H=None stands for the whole group."""
    if H is not None and H.parent is not space.group:
        raise PreconditionError("subgroup acts through a different group object")
    rows = space.vertex_perms if H is None else space.vertex_perms[H.indices()]
    # rows lists every element of H, so column v holds the whole orbit of v
    label = rows.min(axis=0)
    return label, np.bincount(label, minlength=space.n)[label]


def _orbit_basis(space, H):
    """Normalized indicators of the H-orbits on the vertices, as the
    columns of an n x k matrix, listed by minimal vertex: an orthonormal
    basis of the H-invariant functions."""
    label, size = _orbit_labels(space, H)
    reps, orbit = orbit_numbering(label)
    basis = np.zeros((space.n, len(reps)))
    basis[np.arange(space.n), orbit] = 1.0 / np.sqrt(size)
    return basis


def vertex_orbits(space, H=None):
    """Orbits of H (default: the whole group) on the vertex set, each a
    sorted tuple, listed by minimal vertex."""
    label, _ = _orbit_labels(space, H)
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    return [tuple(chunk.tolist()) for chunk in np.split(order, starts)[1:]]


def is_free(space, H=None):
    """True iff no non-identity element of H fixes a vertex: by
    orbit-stabilizer, iff every orbit has |H| vertices."""
    _, size = _orbit_labels(space, H)
    return bool(np.all(size == (space.group.order if H is None else H.order)))


def quotient_graph(space, H=None):
    """Quotient of a free action: vertices are H-orbits, and the weight
    between two orbits sums the weights from one representative into the
    entire other orbit.  Weights inside an orbit are dropped with the
    diagonal.  Non-free actions have no graph quotient with the right
    spectrum; use invariant_spectrum for those.

    Orbit a's representative is its least vertex, so the weights are one
    row gather W[reps] summed over the columns sorted by orbit, with no
    orbit basis and no n x n product: the orbits of a free action all
    have |H| vertices, so those columns fall into equal blocks, one per
    orbit and each led by its least vertex.  Both orders of a pair of
    orbits add the same weights in another order, so the result is
    symmetrized against rounding.
    """
    if not is_free(space, H):
        raise NonFreeActionError(
            "the action has a fixed vertex; the quotient is not a graph, "
            "use invariant_spectrum instead"
        )
    h = space.group.order if H is None else H.order
    order = np.argsort(_orbit_labels(space, H)[0], kind="stable")
    k = space.n // h
    q = space.graph.weights[np.ix_(order[::h], order)].reshape(k, k, h).sum(axis=2)
    np.fill_diagonal(q, 0.0)
    return weighted_graph((q + q.T) / 2.0)


# ---------------------------------------------------------------------------
# isotypic structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IsotypicTable:
    """Multiplicity of each irreducible inside each Laplacian eigenspace.

    ``counts[c, r]`` is the multiplicity of irreducible row r in the
    eigenspace of cluster c.
    """

    chartable: CharacterTable
    decomposition: SpectralDecomposition
    counts: np.ndarray

    def supported_rows(self):
        return tuple(int(r) for r in np.nonzero(self.counts.any(axis=0))[0])


def _eigenspaces(space, cluster_tol):
    """The G-space's eigenspace record for ``cluster_tol``: the clustered
    Laplacian spectrum, the first eigenvector column of each cluster
    ("starts"), and the trace of each conjugacy-class representative on
    each eigenspace (clusters x classes).  All three come from the one
    eigendecomposition and are computed once per space and tolerance.  A
    per-eigenvector quantity x sums to its per-eigenspace value with
    ``np.add.reduceat(x, starts)``."""
    cache = space._eigenspace_cache
    if cluster_tol not in cache:
        values, vectors = space.laplacian_eigh
        decomp = cluster_eigenvalues(values, cluster_tol)
        mults = np.asarray(decomp.multiplicities(), dtype=np.intp)
        starts = np.cumsum(mults) - mults
        reps = conjugacy_classes(space.group).representatives
        # <V[g v], V[v]> for each eigenvector; summed over a cluster it is
        # the trace of g on the eigenspace, which is invariant, so a class
        # function
        diagonals = np.stack(
            [np.einsum("vi,vi->i", vectors[space.vertex_perms[g]], vectors) for g in reps],
            axis=1,
        )
        cache[cluster_tol] = (decomp, starts, np.add.reduceat(diagonals, starts, axis=0))
    return cache[cluster_tol]


def isotypic_multiplicities(space, cluster_tol=None):
    """Decompose each eigenspace of the Laplacian into irreducibles.

    The traces of one representative per conjugacy class on each
    eigenspace are kept on the space, once per ``cluster_tol``; each call
    pairs them with ``character_table(space.group)``, which is a
    clusters x classes product.  Multiplicities must come out as
    non-negative integers within ``INTEGRALITY_TOL``, and each cluster's
    dimension must equal the degree-weighted sum of its multiplicities.
    """
    ct = character_table(space.group)
    decomp, _, traces = _eigenspaces(space, cluster_tol)
    counts = multiplicities(ct, traces)
    dims = counts @ np.asarray(ct.degrees)
    mults = decomp.multiplicities()
    bad = np.flatnonzero(dims != mults)
    if bad.size:
        c = int(bad[0])
        raise NumericalError(
            f"cluster {c}: isotypic dimensions sum to {dims[c]}, expected "
            f"{mults[c]}; clusters may be split too finely"
        )
    return IsotypicTable(chartable=ct, decomposition=decomp, counts=counts)


@dataclass(frozen=True, eq=False)
class EquivarianceReport:
    """Outcome of comparing two G-spaces cluster by cluster."""

    equal: bool
    reason: str
    clusters_1: tuple
    clusters_2: tuple

    def __bool__(self):
        return self.equal


def equivariantly_isospectral(space1, space2, tol=1e-9, cluster_tol=None):
    """Compare eigenvalues together with their isotypic decompositions.

    The two spaces must carry the same group.  Equality means equal
    cluster multiplicit structure with eigenvalues within ``tol`` and
    identical multiplicity rows.
    """
    if space1.group is not space2.group:
        raise PreconditionError("the spaces carry different group objects")
    t1 = isotypic_multiplicities(space1, cluster_tol=cluster_tol)
    t2 = isotypic_multiplicities(space2, cluster_tol=cluster_tol)
    reason = _first_difference(t1, t2, tol)
    c1, c2 = t1.decomposition.clusters, t2.decomposition.clusters
    return EquivarianceReport(equal=not reason, reason=reason, clusters_1=c1, clusters_2=c2)


def _first_difference(t1, t2, tol):
    """Why two isotypic tables differ, or "" if they agree."""
    c1, c2 = t1.decomposition.clusters, t2.decomposition.clusters
    if len(c1) != len(c2):
        return f"cluster counts differ: {len(c1)} vs {len(c2)}"
    for i, ((v1, m1), (v2, m2)) in enumerate(zip(c1, c2)):
        if abs(v1 - v2) > tol:
            return f"cluster {i}: eigenvalues {v1} and {v2} differ by more than {tol}"
        if m1 != m2:
            return f"cluster {i}: multiplicities {m1} and {m2} differ"
        if not np.array_equal(t1.counts[i], t2.counts[i]):
            return f"cluster {i}: isotypic decompositions differ"
    return ""


# ---------------------------------------------------------------------------
# the multiplicity identity and the support law
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SunadaIdentityReport:
    """Per-eigenvalue comparison of the invariant-dimension count against
    the induced-representation sum."""

    eigenvalues: tuple
    invariant_dims: tuple
    induced_sums: tuple
    k_rows: tuple
    holds: bool

    def __bool__(self):
        return self.holds


def sunada_identity_check(space, H, K=None, cluster_tol=None):
    """For each eigenvalue, compare the dimension of H-invariant
    eigenfunctions with the multiplicity sum over the irreducibles having
    a K-fixed vector, weighted by their multiplicity in the coset
    representation on G/H.

    Every irreducible supported on the space must have a K-fixed vector;
    otherwise the comparison is not meaningful and a precondition error
    names the first offending irreducible.
    """
    _orbit_labels(space, H)  # H must act through the space's group
    G = space.group
    if K is None:
        K = subgroup_generate(G, [])
    counts = isotypic_multiplicities(space, cluster_tol=cluster_tol).counts
    k_rows = irreps_with_fixed_vectors(G, K)
    rows = np.asarray(k_rows, dtype=np.intp)
    outside = counts.any(axis=0)
    outside[rows] = False
    if outside.any():
        raise PreconditionError(
            f"irrep {int(np.argmax(outside))} appears in the spectrum but has no "
            "fixed vector under the chosen K; the identity does not apply"
        )
    ind = np.asarray(induced_multiplicities(G, H))
    decomp, starts, _ = _eigenspaces(space, cluster_tol)
    # dim of the H-invariant part of E_c = trace(P_H P_c), the sum of
    # |B^T v|^2 over the eigenvectors v of the cluster
    coords = _orbit_basis(space, H).T @ space.laplacian_eigh[1]
    raw = np.add.reduceat(np.sum(coords**2, axis=0), starts)
    lhs = np.round(raw).astype(np.int64)
    bad = np.flatnonzero(np.abs(raw - lhs) > INTEGRALITY_TOL)
    if bad.size:
        c = int(bad[0])
        raise NonIntegralError(
            f"cluster {c}: invariant dimension {raw[c]} is not an integer"
        )
    rhs = counts[:, rows] @ ind[rows]
    return SunadaIdentityReport(
        eigenvalues=decomp.cluster_values(),
        invariant_dims=tuple(lhs.tolist()),
        induced_sums=tuple(rhs.tolist()),
        k_rows=k_rows,
        holds=bool(np.array_equal(lhs, rhs)),
    )


@dataclass(frozen=True, eq=False)
class DonnellyReport:
    """Which irreducibles appear in the function space of a G-space.

    The observed support always equals the union over vertex orbits of
    the irreducibles with fixed vectors under the orbit stabilizers.  A
    principal verdict is available when one stabilizer admits every
    other's fixed-vector irreducibles; its rows then give the whole
    support on their own.
    """

    orbit_representatives: tuple
    stabilizer_orders: tuple
    observed_rows: tuple
    union_rows: tuple
    law_holds: bool
    principal_rows: tuple | None
    principal_holds: bool | None

    def __bool__(self):
        return self.law_holds


def donnelly_support(space, cluster_tol=None):
    table = isotypic_multiplicities(space, cluster_tol=cluster_tol)
    observed = table.supported_rows()
    label, _ = _orbit_labels(space, None)
    reps = orbit_numbering(label)[0].tolist()
    stab_orders, row_sets = [], []
    for v in reps:
        stab = np.flatnonzero(space.vertex_perms[:, v] == v)
        K = Subgroup(parent=space.group, elements=tuple(stab.tolist()))
        stab_orders.append(K.order)
        row_sets.append(frozenset(irreps_with_fixed_vectors(space.group, K)))
    union = frozenset().union(*row_sets) if row_sets else frozenset()
    principal_rows = None
    principal_holds = None
    for rows in row_sets:
        if all(other <= rows for other in row_sets):
            principal_rows = tuple(sorted(rows))
            principal_holds = frozenset(observed) == rows
            break
    return DonnellyReport(
        orbit_representatives=tuple(reps),
        stabilizer_orders=tuple(stab_orders),
        observed_rows=observed,
        union_rows=tuple(sorted(union)),
        law_holds=frozenset(observed) == union,
        principal_rows=principal_rows,
        principal_holds=principal_holds,
    )


# ---------------------------------------------------------------------------
# fundamental domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DirichletCells:
    """Discrete Dirichlet decomposition for a free subgroup action.

    ``cells[k]`` collects the vertices strictly closer (in hop distance)
    to ``centers[k]`` than to any other center; equidistant vertices land
    in ``boundary``.
    """

    centers: tuple
    cells: tuple
    boundary: tuple


def _hop_distances(weights, source):
    """Breadth-first hop distance from ``source`` along positive weights;
    -1 marks the vertices it cannot reach."""
    dist = np.full(weights.shape[0], -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in np.nonzero(weights[u])[0]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def fundamental_domain(space, H=None, base_vertex=0):
    """Dirichlet cells of the orbit of ``base_vertex`` under H.

    Requires a free action on a connected graph.  Cell k belongs to the
    k-th center in sorted order; the acting group permutes the cells the
    same way it permutes the centers.
    """
    label, _ = _orbit_labels(space, H)
    if not space.graph.connected:
        raise DisconnectedGraphError(
            "hop distances are infinite across components"
        )
    if not is_free(space, H):
        raise NonFreeActionError("Dirichlet cells need a free action")
    # the action is free, so the centers h v are the orbit of v
    centers = np.flatnonzero(label == label[base_vertex]).tolist()
    dists = np.stack([_hop_distances(space.graph.weights, c) for c in centers])
    best = dists.min(axis=0)
    winners = dists == best[None, :]
    counts = winners.sum(axis=0)
    cells = []
    for k in range(len(centers)):
        members = np.nonzero(winners[k] & (counts == 1))[0]
        cells.append(tuple(int(v) for v in members))
    boundary = tuple(int(v) for v in np.nonzero(counts > 1)[0])
    return DirichletCells(
        centers=tuple(centers),
        cells=tuple(cells),
        boundary=boundary,
    )


def cover_degree(space, H=None):
    """Number of sheets of the covering onto the quotient of a free action.

    A free action has trivial stabilizers, so by orbit-stabilizer every
    orbit has |H| vertices and the count is exactly |H|.
    """
    if not is_free(space, H):
        raise NonFreeActionError("sheet counting needs a free action")
    return space.group.order if H is None else H.order
