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


def class_counts(elems, subgroup, classes=None):
    """Per-class intersection sizes, classes sorted by minimal element.

    ``classes`` may pass in ``conjugacy_classes(elems)`` computed once."""
    if classes is None:
        classes = conjugacy_classes(elems)
    return tuple(len(c & set(subgroup)) for c in sorted(classes, key=min))


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
