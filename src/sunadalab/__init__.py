"""sunadalab: Gassmann-Sunada triples and isospectrality experiments.

Finite permutation groups, character tables, group actions on weighted
graphs, quotient and invariant spectra, and heat-trace diagnostics for
closed-form flat models.
"""

from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    EigenDecompositionError,
    GroupSizeError,
    NonFreeActionError,
    NonIntegralError,
    NotASubgroupError,
    NumericalError,
    ParseError,
    PreconditionError,
    SunadaLabError,
    TailBoundError,
)
from .permgrp import (
    ConjugacyClassPartition,
    CosetSpace,
    Permutation,
    PermutationGroup,
    Subgroup,
    all_subgroups,
    are_conjugate_subgroups,
    class_intersection_counts,
    conjugacy_classes,
    conjugate_subgroup,
    coset_space,
    cycle_string,
    generate_group,
    load_bundled_group,
    load_group_file,
    load_subgroup_file,
    parse_cycles,
    subgroup_classes_of_order,
    subgroup_from_indices,
    subgroup_generate,
    subgroups_of_order,
)
from .chartab import (
    CharacterTable,
    abstract_table_fingerprint,
    character_table,
    induced_multiplicities,
    irreps_with_fixed_vectors,
    multiplicities,
    permutation_character,
    structure_constants,
)
from .gassmann import (
    TripleReport,
    almost_conjugate,
    gassmann_search,
    k_equivalent,
    representation_equivalent,
    triple_report,
)
from .quotspec import (
    DirichletCells,
    DonnellyReport,
    EquivarianceReport,
    GSpace,
    IsotypicTable,
    SpectralDecomposition,
    SunadaIdentityReport,
    WeightedGraph,
    averaging_projector,
    cayley_graph,
    cluster_eigenvalues,
    coset_gspace,
    cover_degree,
    donnelly_support,
    equivariantly_isospectral,
    fundamental_domain,
    gspace,
    invariant_spectrum,
    is_free,
    isotypic_multiplicities,
    laplacian,
    perturb_invariant_weights,
    quotient_graph,
    spectrum,
    sunada_identity_check,
    vertex_orbits,
    weighted_graph,
)
from .heatkit import (
    AudibilityReport,
    FlatModelSpectrum,
    HeatTraceCurve,
    SingularityIndicator,
    circle_spectrum,
    constant_term_estimate,
    heat_trace,
    interval_neumann_spectrum,
    read_spectrum_json,
    rect_torus_spectrum,
    singularity_audibility_report,
    spectra_close,
    write_spectrum_json,
)

__version__ = "0.1.0"
