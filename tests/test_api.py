"""The public API: the names ``import gainchrom`` exports."""

from __future__ import annotations

import gainchrom


def test_exported_names_are_pinned():
    # A name that leaves this list is a change to the public API.
    assert sorted(gainchrom.__all__) == [
        "CheckReport", "ClosedForms", "IntegralGainGraph", "InvalidSequence", "ModularGainGraph",
        "NeutralEdgePresent", "NonIntegerResult", "NonNeutralEdgeInSet", "Poly1", "Poly2", "Q",
        "RegionCounts", "SetPartition", "SimpleGraph", "TooManyEdges", "UnbalancedSet", "Z", "ascents",
        "bell_number", "catalan_closed_forms", "catalan_graph", "catalan_region_counts",
        "check_catalan_hollow_relations", "check_disjoint_union_product", "check_linial_partition_expansion",
        "check_modular_threshold", "check_multizero_agreement", "check_neutral_subset_reduction",
        "check_ordinary_expansions", "check_partition_complete_reduction", "check_stable_partition_reduction",
        "check_total_split", "check_total_uniform", "chromatic", "chromatic_poly", "closed_edge_sets",
        "closure", "combinatorics", "count_integral_colorings", "count_modular_colorings",
        "count_multizero_colorings", "cycle_count", "descending_path_partitions", "enumerate_integral_colorings",
        "falling_factorial", "families", "fixture_corpus", "flat_mobius", "format_poly", "gaingraph",
        "hollow_catalan_closed_forms", "hollow_catalan_graph", "identities", "integral_count",
        "is_increasing_lds", "is_vertex_order_lds", "linial_athanasiadis", "linial_closed_forms",
        "linial_graph", "lower_degrees", "ordinary_chromatic_poly", "overlap_graph", "parse_poly",
        "partition_mobius", "poly", "realize_lds", "region_count", "run_invariance_suite", "sc_graph",
        "sc_partition_closed_forms", "sc_partition_graph", "sc_path_closed_forms", "set_partitions",
        "shi_closed_forms", "shi_graph", "stable_partitions", "stirling1_signed", "stirling2",
        "total_poly", "zero_free_poly",
    ]
