"""Family constructors and closed forms against the coloring oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from gainchrom.chromatic import (
    count_integral_colorings,
    count_modular_colorings,
    integral_count,
    region_count,
    zero_free_poly,
)
from gainchrom.combinatorics import SimpleGraph, descending_path_partitions, lower_degrees, set_partitions, stirling2
from gainchrom.families import (
    FAMILY_CLOSED_FORMS,
    catalan_closed_forms,
    catalan_graph,
    ClosedForms,
    RegionCounts,
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
from gainchrom.poly import ONE, Q, Poly2


def test_builders():
    assert shi_graph(2).edges == ((1, 2, 0), (1, 2, 1))
    assert catalan_graph(2).edges == ((1, 2, -1), (1, 2, 0), (1, 2, 1))
    assert hollow_catalan_graph(2).edges == ((1, 2, -1), (1, 2, 1))
    assert linial_graph(2).edges == ((1, 2, 1),)
    sc = sc_partition_graph(((1, 3), (2, 5), (4, 6)))
    expected = sorted(list(shi_graph(3).edges) + [(1, 2, -1), (2, 3, -1)])
    assert list(sc.edges) == expected


def test_sc_graph_extremes():
    n = 3
    assert sc_graph(SimpleGraph.from_pairs(n, [])) == shi_graph(n)
    complete = SimpleGraph.from_pairs(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    assert sc_graph(complete) == catalan_graph(n)


def test_shi_closed_forms_against_oracle():
    for n in range(1, 5):
        forms = shi_closed_forms(n)
        graph = shi_graph(n)
        assert forms.integral_min_q == n - 1
        assert forms.modular_min_q == n + 1
        for q in range(n - 1, n + 5):
            assert forms.integral.evaluate(q) == count_integral_colorings(graph, q)
        for q in range(n + 1, n + 5):
            assert forms.modular.evaluate(q) == count_modular_colorings(graph, q)
        assert forms.zero_free == zero_free_poly(graph)
    assert shi_closed_forms(1).integral == Q


def test_catalan_closed_forms_against_oracle():
    for n in range(1, 5):
        forms = catalan_closed_forms(n)
        graph = catalan_graph(n)
        for q in range(max(0, n - 1), n + 5):
            assert forms.integral.evaluate(q) == count_integral_colorings(graph, q)
        for q in range(n + 1, n + 5):
            assert forms.modular.evaluate(q) == count_modular_colorings(graph, q)
        assert forms.zero_free == zero_free_poly(graph, max_edges=32)


def test_catalan_integral_erratum_regression():
    # the printed closed form (q-n)_n fails the oracle at n=2, q=4
    n, q = 2, 4
    printed = 1
    for i in range(n):
        printed *= q - n - i
    oracle = count_integral_colorings(catalan_graph(n), q)
    assert printed == 2
    assert oracle == 6
    assert printed != oracle
    assert catalan_closed_forms(n).integral.evaluate(q) == oracle


def test_hollow_catalan_closed_forms_against_oracle():
    for n in range(1, 5):
        forms = hollow_catalan_closed_forms(n)
        graph = hollow_catalan_graph(n)
        for q in range(max(0, n - 1), n + 5):
            assert forms.integral.evaluate(q) == count_integral_colorings(graph, q)
        for q in range(n + 1, n + 5):
            assert forms.modular.evaluate(q) == count_modular_colorings(graph, q)
        assert forms.zero_free == zero_free_poly(graph)
    assert hollow_catalan_closed_forms(2).zero_free == Q * (Q - 2)
    assert hollow_catalan_closed_forms(1).integral == Q


def test_zero_free_slices_coefficientwise_up_to_four():
    from gainchrom.families import FAMILY_BUILDERS, FAMILY_CLOSED_FORMS

    for name in FAMILY_BUILDERS:
        for n in range(1, 5):
            graph = FAMILY_BUILDERS[name](n)
            forms = FAMILY_CLOSED_FORMS[name](n)
            assert forms.zero_free == zero_free_poly(graph, max_edges=32), (name, n)


def test_hollow_catalan_integral_erratum_regression():
    # the printed sum with (q-j)_j gives 2 at n=2, q=3; the count is 5
    n, q = 2, 3
    printed = 0
    for j in range(1, n + 1):
        stirling = {1: 1, 2: 1}[j]
        term = 1
        for i in range(j):
            term *= q - j - i
        printed += stirling * term
    oracle = count_integral_colorings(hollow_catalan_graph(n), q)
    assert printed == 2 and oracle == 5
    assert hollow_catalan_closed_forms(n).integral.evaluate(q) == oracle


def test_sc_path_closed_forms():
    # a single minus-edge on two vertices turns shi into catalan
    single = SimpleGraph.from_pairs(2, [(1, 2)])
    forms = sc_path_closed_forms(single)
    assert forms.integral.evaluate(4) == 6
    assert forms.integral == catalan_closed_forms(2).integral
    # edgeless minus graph collapses to the shi forms
    for n in range(1, 5):
        edgeless = SimpleGraph.from_pairs(n, [])
        assert sc_path_closed_forms(edgeless).integral == shi_closed_forms(n).integral
        assert sc_path_closed_forms(edgeless).zero_free == shi_closed_forms(n).zero_free
    # complete minus graph collapses to the catalan forms, at n = 150 with one
    # descending-path partition among Bell(150)
    for n in (1, 2, 3, 4, 150):
        complete = SimpleGraph.from_pairs(n, [(i, j) for i, j in combinations(range(1, n + 1), 2)])
        assert sc_path_closed_forms(complete).integral == catalan_closed_forms(n).integral
        assert sc_path_closed_forms(complete).zero_free == catalan_closed_forms(n).zero_free


def test_sc_partition_closed_forms():
    forms = sc_partition_closed_forms(((1, 3), (2, 5), (4, 6)))
    assert forms.integral == (Q - 2) * (Q - 3) * (Q - 3)
    assert forms.integral.evaluate(4) == 2
    assert forms.integral_min_q == 3 and forms.modular_min_q == 4
    # all singletons: shi forms with k = n
    for n in range(1, 5):
        singles = tuple((i,) for i in range(1, n + 1))
        assert sc_partition_closed_forms(singles).integral == shi_closed_forms(n).integral
    # {13, 2}: the overlap graph is one edge on two block vertices
    forms = sc_partition_closed_forms(((1, 3), (2,)))
    assert forms.zero_free == Q * (Q - 3)
    assert forms.zero_free == catalan_closed_forms(2).zero_free


@pytest.mark.parametrize(
    "blocks", [((1, 3), (2, 3)), ((1, 1, 2),), ((1, 2), (4,)), ((1,), ()), [[2], [3]]],
    ids=["overlapping", "repeated", "gap", "empty-block", "no-1"],
)
def test_sc_partition_forms_refuse_non_partitions(blocks):
    # ((1, 3), (2, 3)) once got the integral form q^2 - 3q + 2 and a 2-vertex graph
    for build in (sc_partition_graph, sc_partition_closed_forms):
        with pytest.raises(ValueError, match=r"do not partition 1\.\.n$"):
            build(blocks)


def test_sc_partition_oracle():
    for pi in set_partitions(4):
        forms = sc_partition_closed_forms(pi)
        graph = sc_partition_graph(pi)
        for q in range(forms.integral_min_q, forms.integral_min_q + 4):
            assert forms.integral.evaluate(q) == count_integral_colorings(graph, q)
        for q in range(forms.modular_min_q, forms.modular_min_q + 4):
            assert forms.modular.evaluate(q) == count_modular_colorings(graph, q)
        assert forms.zero_free == zero_free_poly(graph)


def test_sc_path_equals_sc_partition_small():
    for n in range(5):
        for pi in set_partitions(n):
            if not pi:
                continue
            from gainchrom.combinatorics import overlap_graph

            gamma, _ = overlap_graph(pi)
            path_forms = sc_path_closed_forms(gamma)
            part_forms = sc_partition_closed_forms(pi)
            assert path_forms.integral == part_forms.integral
            assert path_forms.zero_free == part_forms.zero_free


def test_sc_path_closed_forms_match_the_engines_for_every_graph():
    # every labelled simple graph G on at most 4 vertices: 75 graphs
    checked = 0
    for n in range(1, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for size in range(len(pairs) + 1):
            for chosen in combinations(pairs, size):
                minus = SimpleGraph.from_pairs(n, chosen)
                forms = sc_path_closed_forms(minus)
                graph = sc_graph(minus)
                assert forms.zero_free == zero_free_poly(graph), minus
                for q in range(forms.integral_min_q, forms.integral_min_q + 3):
                    assert forms.integral.evaluate(q) == integral_count(graph, q), (minus, q)
                for q in range(forms.modular_min_q, forms.modular_min_q + 2):
                    assert forms.modular.evaluate(q) == count_modular_colorings(graph, q), (minus, q)
                checked += 1
    assert checked == 75


def test_linial_closed_forms():
    forms = linial_closed_forms(2)
    assert forms.integral == Q**2 - Q + 1
    assert forms.integral.evaluate(3) == 7 == count_integral_colorings(linial_graph(2), 3)
    assert forms.zero_free == Q * (Q - 1)
    assert linial_closed_forms(1).integral == Q
    for n in range(1, 4):
        forms = linial_closed_forms(n)
        graph = linial_graph(n)
        for q in range(n - 1, n + 5):
            assert forms.integral.evaluate(q) == count_integral_colorings(graph, q)
        for q in range(n, n + 5):
            assert forms.modular.evaluate(q) == count_modular_colorings(graph, q)
        assert forms.zero_free == zero_free_poly(graph)


def test_linial_closed_forms_sum_the_partition_forms():
    # the grouped sum must equal the plain sum over every partition of [n]
    for n in range(1, 7):
        integral = zero_free = Poly2.zero()
        for pi in set_partitions(n):
            forms = sc_partition_closed_forms(pi)
            integral = integral + forms.integral
            zero_free = zero_free + forms.zero_free
        forms = linial_closed_forms(n)
        assert (forms.integral, forms.zero_free, forms.modular) == (integral, zero_free, zero_free)
        assert (forms.integral_min_q, forms.modular_min_q) == (n - 1, n)


def _linear_product(roots) -> Poly2:
    out = ONE
    for r in roots:
        out = out * (Q - r)
    return out


def _falling(m: int, shift: int) -> Poly2:
    """(q - shift)_m multiplied out factor by factor."""
    return _linear_product(range(shift, shift + m))


def test_closed_forms_match_their_printed_formulas():
    # each docstring's formula multiplied out with plain Poly2 products, far
    # past the oracle tests' n <= 4, pins the zero-free forms derived term by
    # term; the Linial forms are the partition sums of the sc partition forms
    for n in range(1, 13):
        shi = shi_closed_forms(n)
        assert shi.integral == (Q - (n - 1)) ** n
        assert shi.zero_free == shi.modular == Q * (Q - n) ** (n - 1)
        catalan = catalan_closed_forms(n)
        assert catalan.integral == _falling(n, n - 1)
        assert catalan.zero_free == catalan.modular == Q * _falling(n - 1, n + 1)
        hollow = hollow_catalan_closed_forms(n)
        orders = range(1, n + 1)
        assert hollow.integral == sum((stirling2(n, j) * _falling(j, j - 1) for j in orders), Poly2.zero())
        zero_free = Q * sum((stirling2(n, j) * _falling(j - 1, j + 1) for j in orders), Poly2.zero())
        assert hollow.zero_free == hollow.modular == zero_free
        for forms in (shi, catalan, hollow):
            assert (forms.integral_min_q, forms.modular_min_q) == (n - 1, n + 1)
    rng = random.Random(2010)
    for _ in range(80):
        n = rng.randint(1, 7)
        minus = SimpleGraph.from_pairs(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5])
        p = descending_path_partitions(minus.complement())
        forms = sc_path_closed_forms(minus)
        assert forms.integral == sum((p[r] * _falling(r, n - 1) for r in range(1, n + 1)), Poly2.zero())
        zero_free = Q * sum((p[r] * _falling(r - 1, n + 1) for r in range(1, n + 1)), Poly2.zero())
        assert forms.zero_free == forms.modular == zero_free, minus
        assert (forms.integral_min_q, forms.modular_min_q) == (n - 1, n + 1)
    for m in range(1, 7):
        for pi in set_partitions(m):
            k, d = len(pi), lower_degrees(pi)
            forms = sc_partition_closed_forms(pi)
            assert forms.integral == _linear_product([k - 1 + di for di in d])
            assert forms.zero_free == forms.modular == Q * _linear_product([k + di for di in d[1:]]), pi
            assert (forms.integral_min_q, forms.modular_min_q) == (k - 1 + max(d), k + max(d))


def test_linial_athanasiadis():
    assert linial_athanasiadis(2) == Q * (Q - 1)
    assert linial_athanasiadis(1) == Q
    for n in range(1, 9):
        assert linial_athanasiadis(n) == linial_closed_forms(n).zero_free


def test_catalan_region_counts():
    counts = catalan_region_counts(2)
    assert counts.direct == 4
    assert counts.via_recurrence == 4
    assert counts.hollow == (1, 3)
    counts3 = catalan_region_counts(3)
    assert counts3.direct == counts3.via_recurrence


def test_zero_free_beyond_the_default_guard():
    # 30 to 45 edges, past the default max_edges of 26
    builders = {"catalan": catalan_graph, "shi": shi_graph, "hollow-catalan": hollow_catalan_graph}
    for name, n in [("catalan", 6), ("shi", 7), ("hollow-catalan", 6)]:
        expected = FAMILY_CLOSED_FORMS[name](n).zero_free
        assert zero_free_poly(builders[name](n), max_edges=45) == expected, (name, n)
    assert region_count(catalan_graph(6), 45) == 95040


def test_thresholds_are_data_not_enforced():
    forms = shi_closed_forms(3)
    # evaluating below the threshold is allowed, it just disagrees with counts
    assert forms.integral.evaluate(0) == (0 - 2) ** 3
    assert count_integral_colorings(shi_graph(3), 0) == 0


def test_catalan_integral_vanishing_threshold():
    # the integral count first becomes positive at q = 2n - 1 (documented
    # observation; the count vanishes for q <= 2n - 2)
    for n in (2, 3, 4):
        graph = catalan_graph(n)
        assert count_integral_colorings(graph, 2 * n - 2) == 0
        assert count_integral_colorings(graph, 2 * n - 1) > 0


def test_closed_forms_value_semantics():
    forms = ClosedForms(Q, Q - 1, Q * Q, 1, 2)
    same = ClosedForms(integral=Q, modular=Q - 1, zero_free=Q * Q, integral_min_q=1, modular_min_q=2)
    assert forms == same and hash(forms) == hash(same)
    assert (forms.integral, forms.modular, forms.zero_free) == (Q, Q - 1, Q * Q)
    assert (forms.integral_min_q, forms.modular_min_q) == (1, 2)
    assert forms != ClosedForms(Q, Q - 1, Q * Q, 1, 3)
    assert repr(forms) == (
        f"ClosedForms(integral={Q!r}, modular={Q - 1!r}, zero_free={Q * Q!r}, "
        "integral_min_q=1, modular_min_q=2)"
    )
    for field in ("integral", "modular", "zero_free", "integral_min_q", "modular_min_q"):
        with pytest.raises(AttributeError):
            setattr(forms, field, 0)


def test_region_counts_value_semantics():
    counts = RegionCounts(4, 4, (1, 3))
    same = RegionCounts(direct=4, via_recurrence=4, hollow=(1, 3))
    assert counts == same == catalan_region_counts(2) and hash(counts) == hash(same)
    assert (counts.direct, counts.via_recurrence, counts.hollow) == (4, 4, (1, 3))
    assert counts != RegionCounts(4, 5, (1, 3))
    assert repr(counts) == "RegionCounts(direct=4, via_recurrence=4, hollow=(1, 3))"
    for field in ("direct", "via_recurrence", "hollow"):
        with pytest.raises(AttributeError):
            setattr(counts, field, 0)
