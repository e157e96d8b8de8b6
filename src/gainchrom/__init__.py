"""Exact chromatic functions of integral gain graphs.

Gain graphs carry an integer on every oriented edge (reversal negates it).
This package counts their proper colorations over [q], over Z_q, and over
mixed color sets, computes by memoised deletion-contraction the bivariate
subset-expansion polynomial those counts specialize, ships closed forms for
the Catalan, Shi, Linial, and intermediate families, and machine-verifies
the reduction identities that connect all of the above.
"""

from .chromatic import (
    TooManyEdges,
    chromatic_poly,
    count_integral_colorings,
    count_modular_colorings,
    count_multizero_colorings,
    enumerate_integral_colorings,
    integral_count,
    ordinary_chromatic_poly,
    region_count,
    total_poly,
    zero_free_poly,
)
from .combinatorics import (
    InvalidSequence,
    SetPartition,
    SimpleGraph,
    ascents,
    bell_number,
    closed_edge_sets,
    closure,
    cycle_count,
    descending_path_partitions,
    flat_mobius,
    is_increasing_lds,
    is_vertex_order_lds,
    lower_degrees,
    overlap_graph,
    partition_mobius,
    realize_lds,
    set_partitions,
    stable_partitions,
    stirling1_signed,
    stirling2,
)
from .families import (
    ClosedForms,
    NonIntegerResult,
    RegionCounts,
    catalan_closed_forms,
    catalan_graph,
    catalan_region_counts,
    hollow_catalan_closed_forms,
    hollow_catalan_graph,
    linial_athanasiadis,
    linial_closed_forms,
    linial_graph,
    sc_graph,
    sc_partition_closed_forms,
    sc_partition_graph,
    sc_path_closed_forms,
    shi_closed_forms,
    shi_graph,
)
from .gaingraph import (
    IntegralGainGraph,
    ModularGainGraph,
    NonNeutralEdgeInSet,
    UnbalancedSet,
)
from .identities import (
    CheckReport,
    NeutralEdgePresent,
    check_catalan_hollow_relations,
    check_disjoint_union_product,
    check_linial_partition_expansion,
    check_modular_threshold,
    check_multizero_agreement,
    check_neutral_subset_reduction,
    check_ordinary_expansions,
    check_partition_complete_reduction,
    check_stable_partition_reduction,
    check_total_split,
    check_total_uniform,
    fixture_corpus,
    run_invariance_suite,
)
from .poly import Poly1, Poly2, Q, Z, falling_factorial, format_poly, parse_poly

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
