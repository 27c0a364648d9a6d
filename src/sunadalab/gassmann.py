"""Almost conjugate subgroup pairs and their certificates.

Two subgroups H1, H2 of G are almost conjugate when every conjugacy
class of G meets them in the same number of elements.  That counting
condition holds exactly when the quasi-regular representations of G on
the coset spaces G/H1 and G/H2 are equivalent, which is what makes such
pairs produce isospectral quotients downstream.  Both routes are
implemented separately (class counting here, character multiplicities
through the table) so each can certify the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartab import (
    character_table,
    irreps_with_fixed_vectors,
    multiplicities,
    permutation_character,
)
from .errors import PreconditionError
from .permgrp import (
    Subgroup,
    are_conjugate_subgroups,
    conjugacy_classes,
    conjugate_by_all,
    subgroup_classes_of_order,
)


@dataclass(frozen=True)
class TripleReport:
    """Evidence record for one subgroup pair inside a fixed group."""

    group_order: int
    subgroup_order: int
    class_counts_h1: tuple
    class_counts_h2: tuple
    almost_conjugate: bool
    conjugate: bool
    perm_char: tuple

    def to_json_dict(self):
        return {
            "group_order": self.group_order,
            "subgroup_order": self.subgroup_order,
            "class_counts_h1": list(self.class_counts_h1),
            "class_counts_h2": list(self.class_counts_h2),
            "almost_conjugate": self.almost_conjugate,
            "conjugate": self.conjugate,
            "perm_char": list(self.perm_char),
        }


def class_intersection_counts(G, H):
    """Number of elements of H inside each conjugacy class of G."""
    cc = conjugacy_classes(G)
    counts = np.bincount(
        np.asarray(cc.class_of)[H.indices()], minlength=cc.num_classes
    )
    return tuple(int(c) for c in counts)


def almost_conjugate(G, H1, H2):
    """True iff each class of G meets H1 and H2 in equally many elements."""
    return class_intersection_counts(G, H1) == class_intersection_counts(G, H2)


def induced_multiplicities(G, H, ct=None):
    """Multiplicity of each irreducible in the coset representation on G/H."""
    if ct is None:
        ct = character_table(G)
    return multiplicities(ct, permutation_character(G, H))


def representation_equivalent(G, H1, H2, ct=None):
    """True iff G/H1 and G/H2 carry equivalent representations of G.

    Decided through character multiplicities, independently of the class
    counting in ``almost_conjugate``.
    """
    if ct is None:
        ct = character_table(G)
    return induced_multiplicities(G, H1, ct) == induced_multiplicities(G, H2, ct)


def k_equivalent(G, H1, H2, K, ct=None):
    """Representation equivalence restricted to the irreducibles with a
    K-fixed vector.  K = trivial subgroup recovers full equivalence."""
    if ct is None:
        ct = character_table(G)
    rows = irreps_with_fixed_vectors(ct, K)
    m1 = induced_multiplicities(G, H1, ct)
    m2 = induced_multiplicities(G, H2, ct)
    return all(m1[r] == m2[r] for r in rows)


def triple_report(G, H1, H2, ct=None):
    """Full certificate for a subgroup pair.

    The counting route and the representation route must agree; a
    disagreement would mean a numerical fault, not a mathematical one,
    so it is raised rather than reported.  ``ct`` is the character table
    of G to use (default: ``character_table(G)``).
    """
    if H1.order != H2.order:
        raise PreconditionError(
            f"subgroup orders differ: {H1.order} vs {H2.order}"
        )
    if ct is None:
        ct = character_table(G)
    c1 = class_intersection_counts(G, H1)
    c2 = class_intersection_counts(G, H2)
    ac = c1 == c2
    pc = permutation_character(G, H1)
    rep_eq = multiplicities(ct, pc) == induced_multiplicities(G, H2, ct)
    if ac != rep_eq:
        raise PreconditionError(
            "class counting and character multiplicities disagree; "
            "the character table is unreliable for this group"
        )
    return TripleReport(
        group_order=G.order,
        subgroup_order=H1.order,
        class_counts_h1=c1,
        class_counts_h2=c2,
        almost_conjugate=ac,
        conjugate=are_conjugate_subgroups(G, H1, H2),
        perm_char=pc,
    )


def gassmann_search(
    G,
    m,
    require_nonconjugate=True,
    dedup_conjugate_orbits=False,
    budget=None,
):
    """All almost conjugate unordered pairs of order-m subgroups of G.

    Pairs are returned in a deterministic order.  With
    ``require_nonconjugate`` (the default) conjugate pairs are dropped,
    since those are almost conjugate for a boring reason.  With
    ``dedup_conjugate_orbits`` only one representative pair is kept per
    orbit of simultaneous conjugation.
    """
    kwargs = {} if budget is None else {"budget": budget}
    subs, class_ids = subgroup_classes_of_order(G, m, **kwargs)
    buckets = {}
    for H, c in zip(subs, class_ids):
        buckets.setdefault(class_intersection_counts(G, H), []).append((H, c))
    pairs = []
    for counts in sorted(buckets):
        group = buckets[counts]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                (H1, c1), (H2, c2) = group[i], group[j]
                if require_nonconjugate and c1 == c2:
                    continue
                pairs.append((H1, H2))
    if dedup_conjugate_orbits:
        pairs = _dedup_orbits(G, pairs)
    return pairs


def _dedup_orbits(G, pairs):
    """The first pair of each orbit under simultaneous conjugation.  Each
    distinct subgroup is conjugated by all of G once; with an id for each
    conjugate, the least sorted id pair of g (H1, H2) g^-1 names the orbit."""
    ids, conjugates = {}, {}
    for elements, H in {H.elements: H for pair in pairs for H in pair}.items():
        columns = conjugate_by_all(G, H).T.tolist()
        conjugates[elements] = np.array([ids.setdefault(tuple(c), len(ids)) for c in columns])
    seen = set()
    kept = []
    for H1, H2 in pairs:
        a, b = conjugates[H1.elements], conjugates[H2.elements]
        key = int((np.minimum(a, b) * len(ids) + np.maximum(a, b)).min())
        if key not in seen:
            seen.add(key)
            kept.append((H1, H2))
    return kept
