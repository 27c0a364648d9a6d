"""Plain-Python reference implementations used to cross-check the library.

Everything here works on raw image tuples with sets and dicts, no numpy
and no imports from the package, so a bug in the library cannot hide in
its own oracle.
"""

import math
from fractions import Fraction


def compose(a, b):
    """(a o b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def closure(generators, degree):
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                for y in (compose(x, g), compose(g, x)):
                    if y not in elems:
                        elems.add(y)
                        fresh.append(y)
        frontier = fresh
    return elems


def mul_table(elements, generators):
    """Composition table by breadth-first search from the identity.

    ``elements`` lists the image tuples in index order, identity first;
    ``generators`` are the indices of a generating set.  Only the
    generators' rows are composed: row s∘x is row s read through row x.
    Returns nested lists, or raises ValueError if the generators do not
    reach every element."""
    index = {e: i for i, e in enumerate(elements)}
    gen_rows = [[index[compose(elements[s], e)] for e in elements] for s in generators]
    table = [None] * len(elements)
    table[0] = list(range(len(elements)))
    queue = [0]
    for x in queue:  # the queue grows while it is walked
        for row in gen_rows:
            y = row[x]
            if table[y] is None:
                table[y] = [row[j] for j in table[x]]
                queue.append(y)
    if len(queue) < len(elements):
        raise ValueError(f"generators reach {len(queue)} of {len(elements)} elements")
    return table


def conjugacy_classes(elems):
    """Set of frozensets partitioning ``elems`` by conjugation."""
    elems = set(elems)
    seen = set()
    classes = []
    for g in sorted(elems):
        if g in seen:
            continue
        cls = {compose(compose(x, g), inverse(x)) for x in elems}
        classes.append(frozenset(cls))
        seen |= cls
    return set(classes)


def are_conjugate(elems, sub_a, sub_b):
    """True iff x A x^-1 == B for some x in ``elems``."""
    a, b = set(sub_a), set(sub_b)
    return len(a) == len(b) and any(
        {compose(compose(x, h), inverse(x)) for h in a} == b for x in elems
    )


def subgroup_closure(elems, gens):
    degree = len(next(iter(elems)))
    sub = closure(gens, degree)
    assert sub <= set(elems)
    return frozenset(sub)


def all_subgroups(elems):
    """Every subgroup, as a set of frozensets.  Exponential; small inputs only."""
    elems = sorted(set(elems))
    degree = len(elems[0])
    ident = tuple(range(degree))
    found = {frozenset({ident})}
    frontier = [frozenset({ident})]
    while frontier:
        fresh = []
        for sub in frontier:
            for g in elems:
                if g in sub:
                    continue
                grown = frozenset(closure(set(sub) | {g}, degree))
                if grown not in found:
                    found.add(grown)
                    fresh.append(grown)
        frontier = fresh
    return found


def coset_fixed_points(elems, subgroup, g):
    """Number of left cosets xH with g x H = x H."""
    elems = set(elems)
    subgroup = set(subgroup)
    cosets = {frozenset(compose(x, h) for h in subgroup) for x in elems}
    return sum(
        1
        for c in cosets
        if frozenset(compose(g, x) for x in c) == c
    )


def permutation_character(elems, subgroup, reps):
    """Number of left cosets xH fixed by each g in ``reps``.  The cosets
    are formed once, first fit over ``elems``; g fixes xH exactly when
    g x lies in xH."""
    cosets, covered = [], set()
    for x in elems:
        if x not in covered:
            coset = frozenset(compose(x, h) for h in subgroup)
            covered |= coset
            cosets.append((x, coset))
    return tuple(sum(compose(g, x) in coset for x, coset in cosets) for g in reps)


def coset_space(table, subgroup):
    """Left cosets xH numbered first fit: scan the element indices in
    order, and each one not yet in a coset opens the next coset.
    ``table`` is the composition table as nested lists and ``subgroup``
    the element indices of H.  Returns (reps, coset_of, action) as lists,
    with action[g][c] the coset of g * reps[c]."""
    coset_of = [-1] * len(table)
    reps = []
    for x in range(len(table)):
        if coset_of[x] < 0:
            for h in subgroup:
                coset_of[table[x][h]] = len(reps)
            reps.append(x)
    action = [[coset_of[row[r]] for r in reps] for row in table]
    return reps, coset_of, action


def class_counts(elems, subgroup, classes=None):
    """Per-class intersection sizes, classes sorted by minimal element.

    ``classes`` may pass in ``conjugacy_classes(elems)`` computed once."""
    if classes is None:
        classes = conjugacy_classes(elems)
    return tuple(len(c & set(subgroup)) for c in sorted(classes, key=min))


def structure_constants(table, class_of, class_sizes):
    """Class-algebra structure constants by scanning every product:
    a[i][j][t] = #{(x, y): x in C_i, y in C_j, xy in C_t} / |C_t|.
    ``table`` is the composition table as nested lists.  Floats, as
    nested lists."""
    k = len(class_sizes)
    counts = [[[0] * k for _ in range(k)] for _ in range(k)]
    for x, row in enumerate(table):
        plane = counts[class_of[x]]
        for y, xy in enumerate(row):
            plane[class_of[y]][class_of[xy]] += 1
    return [
        [[c / n for c, n in zip(line, class_sizes)] for line in plane]
        for plane in counts
    ]


def exact_inner_product(values_a, values_b, class_sizes, order):
    """Class-function pairing in exact rational arithmetic for real
    integer-valued class functions."""
    total = sum(
        Fraction(n) * Fraction(a) * Fraction(b)
        for n, a, b in zip(class_sizes, values_a, values_b)
    )
    return total / order


def pair_orbits(perms, n):
    """Orbit number of each off-diagonal vertex pair (u, v) under the rows
    of ``perms`` and the swap (u, v) -> (v, u), found by search.  Orbits
    are numbered in the row-major order in which the scan first reaches
    them; the diagonal is -1.  Returns nested lists."""
    rows = [[int(x) for x in p] for p in perms]
    orbit = [[-1] * n for _ in range(n)]
    next_id = 0
    for x in range(n):
        for y in range(n):
            if x == y or orbit[x][y] >= 0:
                continue
            stack = [(x, y)]
            orbit[x][y] = next_id
            while stack:
                u, v = stack.pop()
                for uu, vv in [(v, u)] + [(p[u], p[v]) for p in rows]:
                    if orbit[uu][vv] < 0:
                        orbit[uu][vv] = next_id
                        stack.append((uu, vv))
            next_id += 1
    return orbit


def vertex_orbits(perms, n):
    """Orbits of the group generated by the rows of ``perms`` on
    0..n-1, found by search; each a sorted tuple, listed by minimal
    vertex."""
    rows = [[int(x) for x in p] for p in perms]
    seen = set()
    orbits = []
    for v in range(n):
        if v in seen:
            continue
        orbit = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for p in rows:
                if p[u] not in orbit:
                    orbit.add(p[u])
                    stack.append(p[u])
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def quotient_weights(weights, perms, n):
    """Weights of the quotient graph of a free action, from the
    definition: the orbits of the rows of ``perms``, listed by minimal
    vertex, and between two distinct orbits the sum of the weights from
    the first orbit's least vertex into every vertex of the second.
    Nested lists."""
    orbits = vertex_orbits(perms, n)
    return [
        [0.0 if a == b else math.fsum(weights[oa[0]][v] for v in ob) for b, ob in enumerate(orbits)]
        for a, oa in enumerate(orbits)
    ]


def subgroup_closure_failure(table, indices):
    """First pair (i, j) of the sorted index set, in row-major order,
    whose product table[i][j] falls outside the set, or None."""
    idx = sorted(set(indices))
    inside = set(idx)
    for i in idx:
        for j in idx:
            if int(table[i][j]) not in inside:
                return i, j
    return None


def torus_heat_trace(a, b, nmax, t):
    """Heat trace at time t of the rectangular torus with sides a, b,
    summed term by term over the lattice square |m|, |n| <= nmax."""
    terms = []
    for m in range(-nmax, nmax + 1):
        for n in range(-nmax, nmax + 1):
            eigenvalue = (2 * math.pi * m / a) ** 2 + (2 * math.pi * n / b) ** 2
            terms.append(math.exp(-eigenvalue * t))
    return math.fsum(terms)


def spectra_close(pairs_a, finite_a, pairs_b, finite_b, tol):
    """Compare two (eigenvalue, multiplicity) lists by writing out every
    eigenvalue as often as its multiplicity.  Two finite spectra must
    have equal totals; otherwise the common initial segment is compared."""
    a = [v for v, m in pairs_a for _ in range(int(m))]
    b = [v for v, m in pairs_b for _ in range(int(m))]
    if finite_a and finite_b and len(a) != len(b):
        return False
    k = min(len(a), len(b))
    if k == 0:
        return len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a[:k], b[:k])) <= tol


def averaging_projector(perms, n):
    """Average of the permutation matrices of the rows of ``perms`` (one
    row per element of H): entry [h(v)][v] gains 1 for each row h, and
    the sum is divided by the number of rows.  Nested lists."""
    p = [[0.0] * n for _ in range(n)]
    for row in perms:
        for v in range(n):
            p[int(row[v])][v] += 1.0
    return [[x / len(perms) for x in line] for line in p]


def is_free(perms):
    """True iff no row of ``perms`` but the first fixes a point.  The rows
    are the actions of a group's elements, the identity's first, so an
    element other than the identity that acts trivially fixes every point
    and the action is not free."""
    return not any(row[v] == v for row in perms[1:] for v in range(len(row)))


def isotypic_counts(vectors, cluster_sizes, rep_perms, class_sizes, table, order, tol=1e-6):
    """Multiplicity of each irreducible in each eigenspace, one cluster
    and one irreducible at a time.  ``vectors`` holds orthonormal
    eigenvectors as columns (nested lists, row v for vertex v), and the
    clusters take ``cluster_sizes`` consecutive columns each;
    ``rep_perms`` is the vertex permutation of one representative per
    conjugacy class, ``table`` the character rows (one value per class).
    The trace of g on a cluster is sum_i sum_v V[g v][i] V[v][i] over its
    columns i, and the multiplicity of chi is
    (1/|G|) sum_t n_t trace_t conj(chi_t), which must be a non-negative
    integer.  Returns nested lists."""
    counts = []
    start = 0
    for size in cluster_sizes:
        cols = range(start, start + size)
        traces = [
            sum(vectors[p[v]][i] * vectors[v][i] for i in cols for v in range(len(p)))
            for p in rep_perms
        ]
        row = []
        for chi in table:
            m = sum(
                n * t * complex(c).conjugate()
                for n, t, c in zip(class_sizes, traces, chi)
            ) / order
            k = round(m.real)
            if k < 0 or abs(m - k) > tol:
                raise ValueError(f"cluster at column {start} pairs with a character at {m}")
            row.append(k)
        counts.append(row)
        start += size
    return counts


def cluster_eigenvalues(values, cluster_tol):
    """(mean, size) of each run of the sorted ``values`` in which
    neighbours are at most ``cluster_tol`` apart, found one eigenvalue at
    a time.  The mean is sum / size, which matches a pairwise mean to the
    last bit whenever every partial sum is exact."""
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > cluster_tol:
            block = values[start:i]
            clusters.append((sum(block) / len(block), len(block)))
            start = i
    return clusters
