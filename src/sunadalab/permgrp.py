"""Finite permutation groups by full element enumeration.

Groups are stored as the lexicographically sorted list of all element
image tuples together with a composition table, which keeps every
downstream index (conjugacy classes, cosets, subgroups, reports)
reproducible byte for byte.  The identity is always element 0: any
non-identity permutation first differs from the identity at some point
it moves, and must move it upward.  No Schreier-Sims machinery; the
intended scale is |G| in the hundreds.  Every closure, from the library
or the command line, stops once it passes ``MAX_ORDER`` elements, before
any |G| x |G| array is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from . import _kernels
from .errors import (
    BudgetExceededError,
    GroupSizeError,
    NotASubgroupError,
    ParseError,
)

# Most entries one dense array may hold (320 MB of float64).  A group's
# |G| x |G| arrays, the multiplication table first, may not pass it, so a
# closure stops once it passes MAX_ORDER elements.
MAX_DENSE_ENTRIES = 4e7
MAX_ORDER = math.isqrt(int(MAX_DENSE_ENTRIES))
DEFAULT_SUBGROUP_BUDGET = 500_000


class Permutation:
    """A permutation of {0..n-1}, stored by its image tuple.

    Composition is function composition: ``(a * b)(x) == a(b(x))``.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images):
        """Wrap an image sequence already known to be a bijection."""
        perm = cls.__new__(cls)
        perm.images = tuple(images)
        return perm

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build from disjoint cycles given as iterables of points."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for p in cycle:
                if not 0 <= p < degree:
                    raise ValueError(f"point {p} out of range for degree {degree}")
                if p in seen:
                    raise ValueError(f"point {p} repeated across cycles")
                seen.add(p)
            for i, p in enumerate(cycle):
                images[p] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self.images[j] for j in other.images)

    def inverse(self):
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def cycles(self):
        """Disjoint cycles (fixed points omitted), each starting at its minimum."""
        out, seen = [], set()
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = self.images[x]
            out.append(cycle)
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __str__(self):
        return cycle_string(self)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def cycle_string(perm):
    """Disjoint-cycle notation, fixed points omitted; identity is '()'."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)


_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse disjoint-cycle notation like ``(0 1)(2 3)`` at the given degree."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    stripped = _CYCLE_TOKEN.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle token near {stripped.strip()[:20]!r}")
    cycles = []
    for body in _CYCLE_TOKEN.findall(text):
        if not body.strip():
            continue
        try:
            points = [int(tok) for tok in body.split()]
        except ValueError as exc:
            raise ValueError(f"malformed cycle token: ({body})") from exc
        if len(points) < 2:
            raise ValueError(f"cycle ({body}) must name at least two points")
        cycles.append(points)
    return Permutation.from_cycles(degree, cycles)


class PermutationGroup:
    """All elements of a finite permutation group, in canonical order.

    ``elements[0]`` is the identity.  ``table[i, j]`` indexes the
    composition ``elements[i] * elements[j]``, an int32 array that is
    read-only so that it can be shared; it, the inverse array and the
    conjugacy classes are built on first use and then kept.

    Whatever is cached on the group is plain data (arrays, tuples, dicts
    and the class partition), never an object that refers back to the
    group, so a group is in no reference cycle and is freed when dropped.
    """

    def __init__(self, degree, generators, images):
        self.degree = degree
        self.generators = list(generators)
        self._images = images
        self.order = len(images)
        # every row is a product of validated generators
        self.elements = [Permutation._trusted(row) for row in images.tolist()]
        self._index = dict(zip(_row_keys(images), range(self.order)))
        # element tuple of each subgroup whose class is known -> its least
        # conjugate; classes are entered whole, and the trivial subgroup
        # is a class of its own
        self._class_label = {(0,): (0,)}
        # element tuple of each subgroup -> its number of elements in each
        # conjugacy class, the one fact every character query reads
        self._class_counts = {}
        # class-count tuple -> ``chartab.induced_multiplicities`` of every
        # subgroup with those counts, which share one permutation character
        self._induced = {}
        # (table, degrees) of the group's character table once
        # ``chartab.character_table`` has computed it
        self._character_table = None

    @cached_property
    def table(self):
        gens = [self.index_of(g) for g in self.generators]
        table = _kernels.mul_table(self._images, gens, self._index)
        table.flags.writeable = False
        return table

    @cached_property
    def inverses(self):
        # row i of the table holds the identity 0 exactly at column inv(i)
        return np.argmin(self.table, axis=1)

    @cached_property
    def classes(self):
        """The group's one record of its conjugacy classes."""
        class_of, reps = _kernels.conjugacy_partition(self.table, self.inverses)
        class_of.flags.writeable = False
        sizes = tuple(np.bincount(class_of).tolist())
        return ConjugacyClassPartition(class_of, tuple(reps), sizes)

    def index_of(self, perm):
        key = np.asarray(perm.images, dtype=np.int32).tobytes()
        idx = self._index.get(key)
        if idx is None:
            raise KeyError(f"{perm} is not an element of this group")
        return idx

    def mul(self, i, j):
        return int(self.table[i, j])

    def inv(self, i):
        return int(self.inverses[i])

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted tuple of element indices into the parent."""

    parent: PermutationGroup
    elements: tuple
    # set once here; equality and hashing stay on (parent, elements)
    order: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "order", len(self.elements))

    def __contains__(self, idx):
        return idx in set(self.elements)

    def permutations(self):
        return [self.parent.elements[i] for i in self.elements]

    def indices(self):
        return np.asarray(self.elements, dtype=np.int64)

    def __repr__(self):
        return f"Subgroup(order={self.order}, elements={list(self.elements)})"


@dataclass(frozen=True)
class ConjugacyClassPartition:
    """Partition of a group into conjugacy classes.

    Classes are numbered by their minimal element index, so class 0 is
    the identity's class.  ``class_of`` is shared, so read-only.
    """

    class_of: np.ndarray
    representatives: tuple
    class_sizes: tuple

    @property
    def num_classes(self):
        return len(self.representatives)


@dataclass(frozen=True)
class CosetSpace:
    """Left cosets gH with the left-translation action of G.

    ``action[g, c]`` is the coset index of g * coset_reps[c] * H; coset 0
    is H itself.  ``coset_of[x]`` maps an element index to its coset.
    """

    subgroup: Subgroup
    coset_reps: tuple
    action: np.ndarray
    coset_of: np.ndarray

    @property
    def num_cosets(self):
        return len(self.coset_reps)


def _row_keys(rows):
    """Each row of a C-contiguous int32 matrix as one bytes object, the
    bytes of ``row.tobytes()``."""
    return rows.view(np.dtype((np.void, rows.shape[1] * 4))).ravel().tolist()


def generate_group(degree, generators):
    """Close a generator list under composition.

    The closure runs on int32 image rows.  Each breadth-first round forms
    every product x∘g of a frontier row x with each generator g in one
    gather, ``frontier[:, gens]``, and keeps the rows not seen before.  In
    a finite group every element is a positive word in the generators, so
    right multiplication alone reaches the whole group.  Raises
    GroupSizeError after the first round that takes the closure past
    ``MAX_ORDER``, read when the closure is called.
    """
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator {g} has degree {g.degree}, expected {degree}")
    gens = np.array(
        [g.images for g in generators], dtype=np.int32
    ).reshape(len(generators), degree)
    frontier = np.arange(degree, dtype=np.int32)[None, :]
    seen = set(_row_keys(frontier))
    found = [frontier]
    while len(frontier):
        products = frontier[:, gens].reshape(len(frontier) * len(gens), degree)
        # one index per new row; a row found twice keeps its last index
        fresh = {key: i for i, key in enumerate(_row_keys(products)) if key not in seen}
        seen.update(fresh)
        if fresh and len(seen) > MAX_ORDER:
            raise GroupSizeError(
                f"closure exceeds max order {MAX_ORDER} "
                f"(degree {degree}, {len(gens)} generators)"
            )
        frontier = products[list(fresh.values())]
        found.append(frontier)
    rows = np.concatenate(found)
    # lexsort takes its primary key last; at degree 0 there is one row
    order = np.lexsort(rows.T[::-1]) if degree else [0]
    images = np.ascontiguousarray(rows[order])
    return PermutationGroup(degree, generators, images)


def class_intersection_counts(G, H):
    """Number of elements of H inside each conjugacy class of G, counted
    once per subgroup of G and kept on G, keyed by its element tuple.
    Every character query reads H here, so here H is checked to be in G."""
    _check_subgroup(G, H)
    counts = G._class_counts.get(H.elements)
    if counts is None:
        cc = G.classes
        hits = np.bincount(cc.class_of[H.indices()], minlength=cc.num_classes)
        counts = G._class_counts[H.elements] = tuple(hits.tolist())
    return counts


def conjugacy_classes(G):
    """Partition of G by g ~ x g x^{-1}: the one ``G.classes`` record."""
    return G.classes


def subgroup_generate(G, gens):
    """Smallest subgroup of G containing the given element indices."""
    seed = np.asarray(sorted(set(int(g) for g in gens)), dtype=np.int64)
    if seed.size and (seed.min() < 0 or seed.max() >= G.order):
        raise ValueError("generator index out of range")
    members = _kernels.closure(G.table, seed)
    return Subgroup(parent=G, elements=tuple(int(i) for i in members))


def subgroup_from_indices(G, indices):
    """Validate that an explicit element-index set is a subgroup of G."""
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= G.order):
        raise NotASubgroupError("element index out of range for the parent group")
    if 0 not in idx:
        raise NotASubgroupError("identity missing from subgroup element set")
    member = np.zeros(G.order, dtype=bool)
    member[idx] = True
    outside = np.argwhere(~member[G.table[np.ix_(idx, idx)]])
    if outside.size:
        i, j = outside[0]  # argwhere lists the pairs in row-major order
        raise NotASubgroupError(
            f"not closed: element {idx[i]} * element {idx[j]} falls outside the set"
        )
    return Subgroup(parent=G, elements=tuple(idx))


def coset_space(G, H):
    """Left coset space G/H with the left-translation action table.

    Each coset xH is numbered by the rank of its least element, so coset
    0 is H and ``coset_reps`` lists the least elements in ascending order;
    x is the least element of xH exactly when it is its own label.
    """
    _check_subgroup(G, H)
    reps, coset_of = orbit_numbering(G.table[:, H.indices()].min(axis=1))
    action = coset_of[G.table[:, reps]]
    return CosetSpace(
        subgroup=H,
        coset_reps=tuple(reps.tolist()),
        action=action,
        coset_of=coset_of,
    )


def orbit_numbering(label):
    """Number the classes of a labelling that gives each point a point of
    its class labelled by itself, such as the least point of its orbit.
    Returns those self-labelled representatives in ascending order and
    each point's class, the index of its label among them."""
    reps = np.flatnonzero(label == np.arange(len(label)))
    return reps, np.searchsorted(reps, label)


def conjugate_subgroup(G, H, g):
    """The subgroup g H g^{-1}."""
    g_inv = G.inv(g)
    conj = G.table[g, G.table[H.indices(), g_inv]]
    return Subgroup(parent=G, elements=tuple(int(i) for i in np.sort(conj)))


def conjugate_by_all(G, H):
    """Column g holds the sorted elements of g H g^{-1}; shape |H| x |G|."""
    return np.sort(_conjugate_columns(G, H.elements), axis=0)


def _conjugate_columns(G, elements):
    """Column g holds g h g^{-1} for each of these element indices h, in
    their order; shape |H| x |G|."""
    g = np.arange(G.order)
    table = G.table
    return table[g, table[np.asarray(elements)[:, None], G.inverses]]


def _record_class(G, elements):
    """The conjugacy class of the subgroup H with these sorted element
    indices, as a set of element tuples, and its normalizer N_G(H): the
    columns of one unsorted ``_conjugate_columns`` gather whose entries
    all lie in H.  Every member is entered in ``G._class_label``.

    g H g^{-1} depends only on the left coset g N_G(H), so only the
    column of each coset's least element is sorted and becomes a tuple:
    [G:N_G(H)] columns rather than |G|."""
    orbit = _conjugate_columns(G, elements)
    member = np.zeros(G.order, dtype=bool)
    member[list(elements)] = True
    normalizer = np.flatnonzero(member[orbit].all(axis=0))
    coset_reps = np.flatnonzero(G.table[:, normalizer].min(axis=1) == np.arange(G.order))
    conjugates = set(map(tuple, np.sort(orbit[:, coset_reps], axis=0).T.tolist()))
    label = min(conjugates)
    G._class_label.update(dict.fromkeys(conjugates, label))
    return conjugates, normalizer


def are_conjugate_subgroups(G, H1, H2):
    """True iff some inner automorphism maps H1 onto H2 as a set.

    Reads the class labels cached on G; on a miss, H1's whole class is
    recorded with one gather, so H2 is conjugate to H1 exactly when it
    carries the same label.
    """
    _check_subgroup(G, H1)
    _check_subgroup(G, H2)
    if H1.order != H2.order:
        return False
    if H1.elements not in G._class_label:
        _record_class(G, H1.elements)
    return G._class_label.get(H2.elements) == G._class_label[H1.elements]


def _enumerate_subgroups(G, record, grow, budget, limit):
    """DFS over the subgroup lattice, one representative per conjugacy class.

    Returns the sorted subgroups whose order passes ``record`` and, for
    each, the id of its conjugacy class in G (ids count the classes in
    order of their first member).

    Each representative H whose order passes ``grow`` is extended to
    <H, g> for one g in every right coset Hg other than H itself, which
    is enough because <H, g> = <H, hg>, and up to conjugation by the
    normalizer N = N_G(H): once g is tried, every right coset H(n g n^{-1})
    with n in N is covered, because <H, n g n^{-1}> = n <H, g> n^{-1}.  At
    the trivial subgroup that is one closure per non-identity conjugacy
    class of elements.  A closure that is not yet known has its whole
    class computed with one ``_conjugate_columns`` gather, which also gives
    its normalizer; every member becomes known, and the closure is the
    class's representative.  A closure that is known is dropped.

    Every class is still found.  Take a chain 1 = K_0 < K_1 < ... < K_r = K
    with K_{i+1} = <K_i, g>.  Each K_i with i < r has a proper divisor
    of |K| as its order, so it passes ``grow`` whenever |K| passes
    ``record``.  By induction on i, K_i's class has a representative
    H = x K_i x^{-1} that the DFS extends; the trivial subgroup starts it.
    Since g is not in K_i, some right coset of H other than H itself
    holds y = x g x^{-1}, and <H, y> = x K_{i+1} x^{-1} is within the
    limit.  That coset is covered.  Either the DFS tried some h y with h
    in H, whose closure is <H, y>; or it tried some g' with y in
    H(n g' n^{-1}) for an n in N, and then <H, g'> = n^{-1} <H, y> n has the
    order of <H, y>, so its closure stays within the limit and is
    conjugate to x K_{i+1} x^{-1}.  Either way K_{i+1}'s class is known
    and has a representative, and K's class is recorded whole.

    Neither predicate may pass an order above ``limit``: the closure of
    <H, g> stops once it outgrows the limit.  The budget counts closure
    computations, one per orbit of right cosets tried.  The stack keeps
    each representative's generators, the g's along its path, for the
    coset extension, and its normalizer; its right cosets are labelled
    once, when it is popped, and every closure from it reads that record.
    Every class computed is entered in ``G._class_label``; the drop test
    reads this call's own ``known`` set, since a class known from an
    earlier call has no representative on this call's stack.
    """
    table = G.table
    trivial = (0,)
    known = {trivial}
    classes = [{trivial}] if record(1) else []
    stack = [(trivial, [], np.arange(G.order))] if grow(1) else []
    closures = 0
    while stack:
        elements, gens, normalizer = stack.pop()
        current = np.asarray(elements, dtype=np.int64)
        covered = np.zeros(G.order, dtype=bool)
        covered[current] = True
        normalizer_inv = G.inverses[normalizer]
        cosets = _kernels.right_cosets(table, current, gens)
        for g in range(1, G.order):
            if covered[g]:
                continue
            conjugates_of_g = table[normalizer, table[g, normalizer_inv]]
            covered[table[current[:, None], conjugates_of_g]] = True
            closures += 1
            if closures > budget:
                raise BudgetExceededError(
                    f"subgroup enumeration exceeded budget of {budget} closures"
                )
            grown = tuple(_kernels.closure(table, gens + [g], cosets, limit).tolist())
            if not grown or grown in known:  # empty: outgrew the limit
                continue
            conjugates, grown_normalizer = _record_class(G, grown)
            known |= conjugates
            if record(len(grown)):
                classes.append(conjugates)
            if grow(len(grown)):
                stack.append((grown, gens + [g], grown_normalizer))
    members = sorted((e, c) for c, conjugates in enumerate(classes) for e in conjugates)
    first_seen = {}
    class_ids = [first_seen.setdefault(c, len(first_seen)) for _, c in members]
    return [Subgroup(parent=G, elements=e) for e, _ in members], class_ids


def subgroup_classes_of_order(G, m, budget=DEFAULT_SUBGROUP_BUDGET):
    """The subgroups of order m, as ``subgroups_of_order`` lists them, and
    the id of each one's conjugacy class in G.

    Two of them share an id exactly when they are conjugate; ids count
    the classes in order of their first member.  Non-divisors of |G|
    yield no subgroups (Lagrange), not an error.  Growth is pruned to
    proper divisors of m: by Lagrange every subgroup on the way up to an
    order-m subgroup has such an order.  A closure stops as soon as it
    has more than m elements.
    """
    if m < 1 or G.order % m:
        return [], []
    return _enumerate_subgroups(
        G, lambda n: n == m, lambda n: n < m and m % n == 0, budget, m
    )


def subgroups_of_order(G, m, budget=DEFAULT_SUBGROUP_BUDGET):
    """All subgroups of order m, deduplicated, in deterministic order."""
    return subgroup_classes_of_order(G, m, budget)[0]


def all_subgroups(G, budget=DEFAULT_SUBGROUP_BUDGET):
    """Every subgroup of G, deterministic order."""
    return _enumerate_subgroups(G, lambda n: True, lambda n: True, budget, G.order)[0]


def _check_subgroup(G, H):
    if H.parent is not G:
        raise NotASubgroupError("subgroup belongs to a different group object")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def content_lines(text):
    """(line number, text) of each line that is not blank once its ``#``
    comment is stripped; line numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_permutation_lines(lines, degree, path=None):
    """(line number, permutation) of each (line number, cycle notation)
    pair, at the given degree; a line that does not parse is a ParseError
    naming the line.  Lines are parsed as they are read."""
    for lineno, line in lines:
        try:
            perm = parse_cycles(line, degree)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno, path=path) from exc
        yield lineno, perm


def parse_group_text(text, path=None):
    """Group file: ``degree n`` then one generator per line in cycle notation."""
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty group file", path=path)
    lineno, header = lines[0]
    m = re.fullmatch(r"degree\s+(\d+)", header)
    if not m:
        raise ParseError(f"expected 'degree n' header, got {header!r}", line=lineno, path=path)
    degree = int(m.group(1))
    if degree < 1:
        raise ParseError("degree must be positive", line=lineno, path=path)
    gens = [perm for _, perm in parse_permutation_lines(lines[1:], degree, path)]
    return generate_group(degree, gens)


def load_group_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_group_text(fh.read(), path=path)


def parse_subgroup_text(text, G, path=None):
    """Subgroup file: one element per line in cycle notation; must be closed."""
    indices = []
    for lineno, perm in parse_permutation_lines(content_lines(text), G.degree, path):
        try:
            indices.append(G.index_of(perm))
        except KeyError as exc:
            raise NotASubgroupError(
                f"{path or 'subgroup file'}:{lineno}: {perm} is not in the group"
            ) from exc
    indices.append(0)
    return subgroup_from_indices(G, indices)


def load_subgroup_file(path, G):
    with open(path, encoding="utf-8") as fh:
        return parse_subgroup_text(fh.read(), G, path=path)


def bundled_group_path(name):
    """Path to a bundled group/subgroup file, e.g. 'aff8.group'."""
    res = resources.files("sunadalab").joinpath("data", "groups", name)
    if not res.is_file():
        raise FileNotFoundError(f"no bundled file named {name!r}")
    return str(res)


def load_bundled_group(name):
    return load_group_file(bundled_group_path(name + ".group"))
