"""Almost conjugate subgroup pairs and their certificates.

Two subgroups H1, H2 of G are almost conjugate when every conjugacy
class of G meets them in the same number of elements.  That counting
condition holds exactly when the quasi-regular representations of G on
the coset spaces G/H1 and G/H2 are equivalent, which is what makes such
pairs produce isospectral quotients downstream.  The permutation
character of G/H is read off the class counts, so the certificate in
``triple_report`` checks the character table: distinct class counts must
give distinct multiplicities, which fails when the table misses an
irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartab import (
    character_table,
    induced_multiplicities,
    irreps_with_fixed_vectors,
    multiplicities,
    permutation_character,
)
from .errors import PreconditionError
from .permgrp import (
    DEFAULT_SUBGROUP_BUDGET,
    are_conjugate_subgroups,
    class_intersection_counts,
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


def almost_conjugate(G, H1, H2):
    """True iff each class of G meets H1 and H2 in equally many elements."""
    return class_intersection_counts(G, H1) == class_intersection_counts(G, H2)


def representation_equivalent(G, H1, H2):
    """True iff G/H1 and G/H2 carry equivalent representations of G.

    Decided through character multiplicities, independently of the class
    counting in ``almost_conjugate``.
    """
    return induced_multiplicities(G, H1) == induced_multiplicities(G, H2)


def k_equivalent(G, H1, H2, K):
    """Representation equivalence restricted to the irreducibles with a
    K-fixed vector.  K = trivial subgroup recovers full equivalence."""
    m1 = induced_multiplicities(G, H1)
    m2 = induced_multiplicities(G, H2)
    return all(m1[r] == m2[r] for r in irreps_with_fixed_vectors(G, K))


def triple_report(G, H1, H2):
    """Full certificate for a subgroup pair.

    The counting route and the representation route must agree; a
    disagreement would mean a numerical fault, not a mathematical one,
    so it is raised rather than reported.  The representation route
    pairs both permutation characters with ``character_table(G)``.
    """
    if H1.order != H2.order:
        raise PreconditionError(
            f"subgroup orders differ: {H1.order} vs {H2.order}"
        )
    c1 = class_intersection_counts(G, H1)
    c2 = class_intersection_counts(G, H2)
    ac = c1 == c2
    pc = permutation_character(G, H1)
    m = multiplicities(character_table(G), [pc, permutation_character(G, H2)])
    rep_eq = bool(np.array_equal(m[0], m[1]))
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


def gassmann_search(G, m, budget=DEFAULT_SUBGROUP_BUDGET):
    """All almost conjugate unordered pairs of order-m subgroups of G, in
    a deterministic order.  Conjugate pairs are dropped, since those are
    almost conjugate for a boring reason.
    """
    subs, class_ids = subgroup_classes_of_order(G, m, budget)
    buckets = {}
    for H, c in zip(subs, class_ids):
        buckets.setdefault(class_intersection_counts(G, H), []).append((H, c))
    pairs = []
    for counts in sorted(buckets):
        group = buckets[counts]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                (H1, c1), (H2, c2) = group[i], group[j]
                if c1 != c2:
                    pairs.append((H1, H2))
    return pairs
