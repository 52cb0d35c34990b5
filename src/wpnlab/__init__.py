"""wpnlab: witnessing partitions, certificates and censuses of H-free graphs."""

from .graphs import (  # noqa: F401
    Graph,
    Graph6Error,
    automorphism_count,
    canonical_form,
    canonical_key,
    clique,
    contains_induced,
    cycle,
    empty,
    emit_adjacency_text,
    emit_graph6,
    is_isomorphic,
    parse_graph6,
    path,
    star,
)
from .families import (  # noqa: F401
    NAMED_FAMILIES,
    FamilySpec,
    NoFiniteBasisError,
    basis_of,
    family_subset,
    heavy_degree_check,
    is_restricted,
    member,
    named_forbidden_basis,
    s_statistic,
)
from .witnessing import (  # noqa: F401
    BudgetExhausted,
    WitnessSequence,
    find_certificate,
    is_really_canonical,
    theorem_sequence,
    verify_cycle_partition_claims,
    wpn,
)
from .sequences import (  # noqa: F401
    classify_sequence,
    enumerate_really_canonical_sequences,
)
from .counting import (  # noqa: F401
    SetPartition,
    UniformPartitionSampler,
    bell,
    c2l_lower_bound,
    f_star,
    growth_bounds_hold,
    iter_set_partitions,
    labeled_cograph_count,
    partition_stats,
    vertices_in_blocks_larger_than,
)
from .census import (  # noqa: F401
    CensusReport,
    ConfigMismatch,
    girth5_census,
)

__version__ = "0.2.0"
