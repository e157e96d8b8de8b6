"""Acceptance criteria.

Each test exercises one numbered criterion end to end, at its stated size
and tolerance (all equalities exact), and prints one pass/fail line.  Run
with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import time

from gainchrom.chromatic import (
    count_integral_colorings,
    count_modular_colorings,
    enumerate_integral_colorings,
    total_poly,
    zero_free_poly,
)
from gainchrom.combinatorics import (
    ascents,
    is_increasing_lds,
    lower_degrees,
    overlap_graph,
    is_vertex_order_lds,
    realize_lds,
    set_partitions,
)
from gainchrom.families import (
    catalan_closed_forms,
    catalan_graph,
    catalan_region_counts,
    hollow_catalan_graph,
    linial_athanasiadis,
    linial_closed_forms,
    linial_graph,
    sc_partition_closed_forms,
    sc_partition_graph,
    sc_path_closed_forms,
    shi_graph,
)
from gainchrom.gaingraph import IntegralGainGraph
from gainchrom.identities import (
    check_catalan_hollow_relations,
    check_disjoint_union_product,
    check_linial_partition_expansion,
    check_modular_threshold,
    check_multizero_agreement,
    check_neutral_subset_reduction,
    check_partition_complete_reduction,
    check_stable_partition_reduction,
    check_total_split,
    check_total_uniform,
    fixture_corpus,
    run_invariance_suite,
)


def _conclude(number: int, title: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({title}): {status}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_01_shi_oracle_equivalence():
    started = time.monotonic()
    failures = []
    for n in range(1, 6):
        graph = shi_graph(n)
        for q in range(0, n + 5):
            if q >= n - 1 and count_integral_colorings(graph, q) != (q - n + 1) ** n:
                failures.append(("integral", n, q))
            if q > n and count_modular_colorings(graph, q) != q * (q - n) ** (n - 1):
                failures.append(("modular", n, q))
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _conclude(1, f"shi closed forms vs oracles, {elapsed:.1f}s", failures)


def test_criterion_02_catalan_erratum():
    failures = []
    for n in range(1, 5):
        graph = catalan_graph(n)
        forms = catalan_closed_forms(n)
        for q in range(max(0, n - 1), n + 5):
            if count_integral_colorings(graph, q) != forms.integral.evaluate(q):
                failures.append((n, q))
    # regression: the printed variant (q-n)_n is wrong at n=2, q=4
    printed = (4 - 2) * (4 - 3)
    oracle = count_integral_colorings(catalan_graph(2), 4)
    if not (printed == 2 and oracle == 6 and printed != oracle):
        failures.append(("erratum-regression", printed, oracle))
    _conclude(2, "catalan integral closed form and erratum regression", failures)


def test_criterion_03_linial_example_reproduction():
    failures = []
    graph = sc_partition_graph(((1, 3), (2, 5), (4, 6)))
    colorings = list(enumerate_integral_colorings(graph, 4))
    if count_integral_colorings(graph, 4) != 2 or len(colorings) != 2:
        failures.append(("count", len(colorings)))
    for witness in ({3: 1, 1: 2, 2: 4}, {2: 1, 3: 3, 1: 4}):
        if witness not in colorings:
            failures.append(("missing-witness", witness))
    _conclude(3, "partition example: two colorations at q=4", failures)


def test_criterion_04_reductions_over_corpus():
    started = time.monotonic()
    corpus = fixture_corpus()
    failures = []
    sample_q = range(0, 10)
    for g in corpus:
        for selector in ("integral", "zero_free"):
            sq = sample_q if selector == "integral" else None
            if not check_neutral_subset_reduction(g, selector, sq).passed:
                failures.append(("subset", selector, g.edges))
            if not check_stable_partition_reduction(g, selector, sq).passed:
                failures.append(("stable", selector, g.edges))
            if not g.neutral_indices():
                if not check_partition_complete_reduction(g, selector, sq).passed:
                    failures.append(("complete", selector, g.edges))
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _conclude(4, f"reductions over {len(corpus)} corpus graphs, {elapsed:.1f}s", failures)


def test_criterion_05_catalan_relations_and_regions():
    failures = []
    for n in range(1, 6):
        for selector in ("integral", "modular", "zero_free"):
            if not check_catalan_hollow_relations(n, selector).passed:
                failures.append(("relation", n, selector))
    for n in range(1, 5):
        counts = catalan_region_counts(n)
        if counts.direct != counts.via_recurrence:
            failures.append(("regions", n, counts))
    if catalan_region_counts(1).direct != 1 or catalan_region_counts(2).direct != 4:
        failures.append(("region-fixtures",))
    _conclude(5, "catalan relations (n<=5, 3 selectors) and region recurrence", failures)


def test_criterion_06_linial():
    failures = []
    for n in range(1, 5):
        for selector in ("integral", "modular", "zero_free"):
            if not check_linial_partition_expansion(n, selector).passed:
                failures.append(("expansion", n, selector))
        graph = linial_graph(n)
        forms = linial_closed_forms(n)
        for q in range(n - 1, n + 5):
            if forms.integral.evaluate(q) != count_integral_colorings(graph, q):
                failures.append(("integral-form", n, q))
        for q in range(max(1, n), n + 5):
            if forms.modular.evaluate(q) != count_modular_colorings(graph, q):
                failures.append(("modular-form", n, q))
        if forms.zero_free != zero_free_poly(graph):
            failures.append(("zero-free-form", n))
    for n in range(1, 7):
        if linial_athanasiadis(n) != linial_closed_forms(n).zero_free:
            failures.append(("athanasiadis", n))
    _conclude(6, "linial expansion, closed forms, independent cross-check", failures)


def test_criterion_07_descending_path_bridge():
    failures = []
    for n in range(0, 7):
        for pi in set_partitions(n):
            if not pi:
                continue
            gamma, _ = overlap_graph(pi)
            path_forms = sc_path_closed_forms(gamma)
            part_forms = sc_partition_closed_forms(pi)
            if path_forms.integral != part_forms.integral:
                failures.append(("integral", pi))
            if path_forms.zero_free != part_forms.zero_free:
                failures.append(("zero-free", pi))
    _conclude(7, "descending-path vs lower-degree closed forms, all partitions n<=6", failures)


def test_criterion_08_total_polynomial_identities():
    failures = []
    fixtures = list(fixture_corpus())
    fixtures += [
        catalan_graph(2),
        catalan_graph(3),
        hollow_catalan_graph(3),
        shi_graph(3),
        linial_graph(4),
        sc_partition_graph(((1, 3), (2, 5), (4, 6))),
    ]
    for g in fixtures:
        if len(g.edges) > 10:
            continue
        if not check_total_split(g).passed:
            failures.append(("split", g.edges))
    for family in ("catalan", "hollow-catalan", "shi", "linial"):
        for n in range(1, 5):
            if not check_total_uniform(family, n).passed:
                failures.append(("uniform", family, n))
    corpus = fixture_corpus()
    import random

    rng = random.Random(2024)
    for _ in range(50):
        g1, g2 = rng.choice(corpus), rng.choice(corpus)
        if not check_disjoint_union_product(g1, g2).passed:
            failures.append(("product", g1.edges, g2.edges))
    _conclude(8, "total polynomial split, uniform families, multiplicativity", failures)


def test_criterion_09_modular_threshold():
    failures = []
    for g in fixture_corpus():
        if not check_modular_threshold(g, span=4).passed:
            failures.append(g.edges)
    _conclude(9, "modular equals zero-free above the top circle gain", failures)


def test_criterion_10_multizero_agreement():
    failures = []
    for g in fixture_corpus():
        for m in (2, 3, 5):
            for k in (0, 1, 2):
                for z in (0, 1, 2):
                    if not check_multizero_agreement(g, m, k, z).passed:
                        failures.append((g.edges, m, k, z))
    _conclude(10, "multi-zero counts vs the polynomial, full grid", failures)


def _shape_sequences(max_k: int):
    def extend(prefix: list[int]):
        yield tuple(prefix)
        if len(prefix) < max_k:
            for nxt in range(prefix[-1] + 2):
                prefix.append(nxt)
                yield from extend(prefix)
                prefix.pop()

    yield from extend([0])


def test_criterion_11_lower_degree_sequences():
    failures = []
    for n in range(0, 8):
        for pi in set_partitions(n):
            d = lower_degrees(pi)
            if not is_vertex_order_lds(d, n):
                failures.append(("necessity", pi))
            if not is_increasing_lds(tuple(sorted(d)), n):
                failures.append(("increasing-necessity", pi))
    for d in _shape_sequences(5):
        pi = realize_lds(d)
        n_d = len(d) + len(ascents(d))
        if sorted(v for b in pi for v in b) != list(range(1, n_d + 1)):
            failures.append(("not-a-partition", d))
        if lower_degrees(pi) != d:
            failures.append(("round-trip", d))
    _conclude(11, "degree sequence necessity (n<=7) and realization (k<=5)", failures)


def test_criterion_12_invariance_suite():
    failures = []
    reports = run_invariance_suite(fixture_corpus(), switchings=100, seed=7)
    for report in reports:
        if not report.passed:
            failures.append((report.identity, report.witness))
    # the non-invariance witness values: one edge of gain g counts q(q-1)+g
    for q in range(1, 6):
        for gain in range(q + 1):
            g = IntegralGainGraph(2, [(1, 2, gain)])
            if count_integral_colorings(g, q) != q * (q - 1) + gain:
                failures.append(("edge-count-formula", q, gain))
    _conclude(12, "invariance suite with 100 random switchings", failures)
