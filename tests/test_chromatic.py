"""Coloring oracles and expansion polynomials, checked against naive
implementations that share no code with the library paths."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from gainchrom.chromatic import (
    _WIDTHS,
    TooManyEdges,
    _terms,
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
from gainchrom.families import FAMILY_BUILDERS, FAMILY_CLOSED_FORMS, catalan_graph, linial_graph, shi_graph
from gainchrom.gaingraph import IntegralGainGraph, ModularGainGraph
from gainchrom.identities import fixture_corpus
from gainchrom.poly import Poly2, Q, Z


# -- naive oracles ------------------------------------------------------------


def naive_integral(g: IntegralGainGraph, q: int) -> int:
    count = 0
    for kappa in product(range(1, q + 1), repeat=g.n):
        if all(kappa[h - 1] != kappa[t - 1] + gain for t, h, gain in g.edges):
            count += 1
    return count


def naive_modular(g: IntegralGainGraph, q: int) -> int:
    count = 0
    for kappa in product(range(q), repeat=g.n):
        if all((kappa[h - 1] - kappa[t - 1] - gain) % q != 0 for t, h, gain in g.edges):
            count += 1
    return count


def naive_total(g: IntegralGainGraph | ModularGainGraph) -> Poly2:
    """Subset expansion computed with plain DFS component/balance checks."""
    modulus = getattr(g, "modulus", None)
    m = len(g.edges)
    terms: dict[tuple[int, int], int] = {}
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            c, b = _naive_stats(g.n, [g.edges[i] for i in subset], modulus)
            key = (b, c - b)
            terms[key] = terms.get(key, 0) + (-1 if size % 2 else 1)
    return Poly2(terms)


def _naive_stats(n: int, edges: list[tuple[int, int, int]], modulus: int | None) -> tuple[int, int]:
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for t, h, gain in edges:
        if t != h:
            adj[t].append((h, gain))
            adj[h].append((t, -gain))
    pot: dict[int, int] = {}
    comps = []
    for start in range(1, n + 1):
        if start in pot:
            continue
        stack, members = [start], [start]
        pot[start] = 0
        while stack:
            v = stack.pop()
            for w, gain in adj[v]:
                if w not in pot:
                    pot[w] = pot[v] + gain
                    members.append(w)
                    stack.append(w)
        comps.append(members)
    comp_of = {v: i for i, members in enumerate(comps) for v in members}
    bad = set()
    for t, h, gain in edges:
        diff = pot[h] - pot[t] - gain
        if (diff % modulus if modulus else diff) != 0:
            bad.add(comp_of[t])
    return len(comps), len(comps) - len(bad)


# -- integral ------------------------------------------------------------------


def test_integral_single_edge_formula():
    for q in range(7):
        for gain in range(q + 1):
            g = IntegralGainGraph(2, [(1, 2, gain)])
            assert count_integral_colorings(g, q) == q * (q - 1) + gain


def test_integral_examples():
    assert count_integral_colorings(shi_graph(2), 3) == 4
    assert count_integral_colorings(IntegralGainGraph(0), 0) == 1
    assert count_integral_colorings(IntegralGainGraph(3), 0) == 0
    assert count_integral_colorings(IntegralGainGraph(1, [(1, 1, 0)]), 5) == 0
    assert count_integral_colorings(IntegralGainGraph(1, [(1, 1, 2)]), 5) == 5


def test_integral_against_naive():
    for g in list(fixture_corpus())[::5]:
        for q in range(4):
            assert count_integral_colorings(g, q) == naive_integral(g, q)


def test_enumeration_matches_count_and_is_proper():
    g = shi_graph(2)
    found = list(enumerate_integral_colorings(g, 3))
    assert len(found) == count_integral_colorings(g, 3)
    for kappa in found:
        for t, h, gain in g.edges:
            assert kappa[h] != kappa[t] + gain


def random_gain_graph(rng: random.Random, n: int, m: int) -> IntegralGainGraph:
    """m random links with gains in -3..3, plus a parallel link of another
    gain and a nonzero loop, so every graph has both."""
    edges = [(rng.randint(1, n), rng.randint(1, n), rng.randint(-3, 3)) for _ in range(m)]
    t, h = rng.sample(range(1, n + 1), 2)
    gain = rng.randint(-3, 3)
    edges += [(t, h, gain), (h, t, gain + rng.choice((-1, 1))), (t, t, rng.choice((-2, -1, 1, 2)))]
    return IntegralGainGraph(n, edges)


def _random_graphs(seed: int, count: int, max_n: int) -> list[IntegralGainGraph]:
    rng = random.Random(seed)
    return [random_gain_graph(rng, rng.randint(2, max_n), rng.randint(0, 6)) for _ in range(count)]


def test_integral_engine_against_naive():
    for g in _random_graphs(41, 40, 4):
        for q in range(9):
            assert integral_count(g, q) == naive_integral(g, q), (g.edges, q)
    # far above every width, where the sum is the polynomial
    for g in _random_graphs(43, 3, 3):
        assert integral_count(g, 50) == naive_integral(g, 50), g.edges


def test_integral_engine_edge_cases():
    assert integral_count(IntegralGainGraph(0), 0) == 1
    assert integral_count(IntegralGainGraph(3), 0) == 0
    assert integral_count(IntegralGainGraph(2, [(1, 1, 0), (1, 2, 1)]), 5) == 0
    assert integral_count(IntegralGainGraph(1, [(1, 1, 2)]), 5) == 5
    with pytest.raises(ValueError, match="q must be nonnegative"):
        integral_count(shi_graph(2), -1)
    with pytest.raises(TooManyEdges):
        integral_count(catalan_graph(5), 3)


def test_integral_engine_without_widths_is_zero_free():
    # every factor max(0, q - w) read as q: the widths are all the engine adds
    for g in _random_graphs(47, 40, 5):
        dropped: dict = {}
        for widths, c in _terms(g, 26, _WIDTHS).items():
            dropped[len(widths), 0] = dropped.get((len(widths), 0), 0) + c
        assert Poly2(dropped) == zero_free_poly(g), g.edges


@pytest.mark.parametrize("family", ["shi", "catalan", "linial", "hollow-catalan"])
def test_integral_engine_threshold_is_the_closed_form_threshold(family):
    for n in range(1, 7):
        g = FAMILY_BUILDERS[family](n)
        forms = FAMILY_CLOSED_FORMS[family](n)
        terms = _terms(g, len(g.edges), _WIDTHS)
        threshold = max(max(widths, default=0) for widths in terms)
        assert threshold == forms.integral_min_q, (family, n)
        for q in range(threshold, threshold + 5):
            assert integral_count(g, q, len(g.edges)) == forms.integral.evaluate(q), (family, n, q)


# -- modular -------------------------------------------------------------------


def test_modular_examples():
    assert count_modular_colorings(catalan_graph(2), 5) == 10
    assert count_modular_colorings(shi_graph(2), 4) == 8
    assert count_modular_colorings(IntegralGainGraph(1, [(1, 1, 6)]), 3) == 0
    assert count_modular_colorings(IntegralGainGraph(1, [(1, 1, 5)]), 3) == 3
    with pytest.raises(ValueError):
        count_modular_colorings(shi_graph(2), 0)


def test_modular_against_naive():
    for g in list(fixture_corpus())[::5]:
        for q in range(1, 5):
            assert count_modular_colorings(g, q) == naive_modular(g, q)


def test_modular_count_is_the_zero_free_polynomial_mod_q():
    # a colouring mod q is counted by the subsets balanced mod q
    for g in _random_graphs(53, 40, 4):
        for q in range(1, 9):
            assert zero_free_poly(g.reduce_mod(q)).evaluate(q, 0) == naive_modular(g, q), (g.edges, q)


# -- total / zero-free -----------------------------------------------------------


def test_total_poly_examples():
    assert total_poly(catalan_graph(2)) == Q**2 - 3 * Q + 2 * Z
    assert total_poly(IntegralGainGraph(1, [(1, 1, 0)])) == Poly2.zero()
    assert total_poly(IntegralGainGraph(1, [(1, 1, 1)])) == Q - Z
    assert total_poly(IntegralGainGraph(0)) == Poly2.const(1)


def test_total_poly_against_naive():
    rng = random.Random(23)
    sample = rng.sample(list(fixture_corpus()), 120)
    for g in sample:
        assert total_poly(g) == naive_total(g)
        assert total_poly(g.reduce_mod(2)) == naive_total(g.reduce_mod(2))


def test_zero_free_is_the_z0_slice():
    for g in list(fixture_corpus())[::3]:
        assert zero_free_poly(g) == total_poly(g).substitute_z(0)


def test_chromatic_slice_of_trivial_gains_is_ordinary():
    # all-neutral gain graphs behave like ordinary graphs: the total
    # polynomial has no z at all and matches the ordinary chromatic polynomial
    g = IntegralGainGraph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0)])
    total = total_poly(g)
    assert total == ordinary_chromatic_poly(3, [(1, 2), (2, 3), (1, 3)])
    assert chromatic_poly(g) == total


def test_total_poly_guard():
    with pytest.raises(TooManyEdges):
        total_poly(catalan_graph(5))  # 30 edges > 26
    assert zero_free_poly(catalan_graph(5), max_edges=32)


def test_wide_inputs_do_not_recurse_per_edge_or_vertex():
    # 1500 parallel links: deleting them one by one would recurse 1500 deep;
    # contracting any one leaves the later ones as nonzero loops
    fan = IntegralGainGraph(2, [(1, 2, g) for g in range(1500)])
    assert total_poly(fan, max_edges=1500) == Q**2 - 1500 * Q + 1499 * Z
    assert total_poly(IntegralGainGraph(3000)) == Q**3000


def test_ordinary_chromatic_poly():
    k3 = ordinary_chromatic_poly(3, [(1, 2), (2, 3), (1, 3)])
    assert k3 == Q * (Q - 1) * (Q - 2)
    assert ordinary_chromatic_poly(1, [(1, 1)]) == Poly2.zero()
    assert ordinary_chromatic_poly(2, [(1, 2)] * 3) == Q * (Q - 1)
    for q in range(5):
        count = sum(
            1
            for kappa in product(range(q), repeat=3)
            if kappa[0] != kappa[1] and kappa[1] != kappa[2] and kappa[0] != kappa[2]
        )
        assert k3.evaluate(q) == count


@pytest.mark.parametrize("n, pairs", [(2, [(1, 3)]), (2, [(0, 1)]), (1, [(2, 2)])], ids=["head", "zero", "loop"])
def test_ordinary_chromatic_poly_rejects_vertices_out_of_range(n, pairs):
    with pytest.raises(ValueError, match="out of range"):
        ordinary_chromatic_poly(n, pairs)


# -- multi-zero ------------------------------------------------------------------


def naive_multizero(g: ModularGainGraph, k: int, z: int) -> int:
    m = g.modulus
    colors = [("null", a) for a in range(z)] + [("pair", t, x) for t in range(k) for x in range(m)]
    count = 0
    for kappa in product(colors, repeat=g.n):
        ok = True
        for t, h, gain in g.edges:
            ct, ch = kappa[t - 1], kappa[h - 1]
            if ct[0] == "null" and ch[0] == "null" and ct == ch:
                ok = False
                break
            if ct[0] == "pair" and ch[0] == "pair" and ct[1] == ch[1] and ch[2] == (ct[2] + gain) % m:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_multizero_examples():
    assert count_multizero_colorings(IntegralGainGraph(1).reduce_mod(2), 1, 1) == 3
    c2m5 = catalan_graph(2).reduce_mod(5)
    assert count_multizero_colorings(c2m5, 1, 0) == 10
    assert count_multizero_colorings(c2m5, 1, 1) == 20
    assert count_multizero_colorings(c2m5, 1, 1) == total_poly(c2m5).evaluate(6, 1)


def test_multizero_against_naive():
    rng = random.Random(31)
    sample = rng.sample(list(fixture_corpus()), 40)
    for g in sample:
        for m, k, z in [(2, 1, 1), (3, 1, 0), (2, 0, 2), (3, 2, 1)]:
            gm = g.reduce_mod(m)
            assert count_multizero_colorings(gm, k, z) == naive_multizero(gm, k, z)


# -- regions ----------------------------------------------------------------------


def test_region_counts():
    assert region_count(shi_graph(2)) == 3
    assert region_count(catalan_graph(2)) == 4
    assert region_count(IntegralGainGraph(4)) == 1
    assert region_count(linial_graph(2)) == 2


def test_neutral_deletion_contraction_spot():
    g = shi_graph(3)
    neutral = g.neutral_indices()
    e = neutral[0]
    deleted = g.delete_edges([e])
    contracted = g.contract_neutral_set([e])
    for q in range(7):
        assert count_integral_colorings(g, q) == count_integral_colorings(
            deleted, q
        ) - count_integral_colorings(contracted, q)
    assert total_poly(g) == total_poly(deleted) - total_poly(contracted)


def test_memoised_terms_store_no_zero_coefficient():
    from gainchrom import chromatic

    chromatic._memos.clear()
    # one memo per engine rule: repeats and equal rules share it
    for _ in range(2):
        total_poly(catalan_graph(4))
        integral_count(shi_graph(4), 5)
        zero_free_poly(catalan_graph(4))
        total_poly(catalan_graph(4).reduce_mod(3))
    values = [terms for memo in chromatic._memos.values() for terms in memo.values()]
    assert len(chromatic._memos) == 4 and len(values) > 20
    assert all(0 not in terms.values() for terms in values)


def test_memo_stores_no_value_twice():
    # a finished value that is its state's own terms (the integral count of
    # a graph with nothing peeled) is not stored again under the root key
    from gainchrom import chromatic

    chromatic._memos.clear()
    assert integral_count(shi_graph(3), 5) == count_integral_colorings(shi_graph(3), 5)
    for g in (catalan_graph(3), linial_graph(3), shi_graph(4)):
        integral_count(g, 4)
        total_poly(g)
    values = [terms for memo in chromatic._memos.values() for terms in memo.values()]
    assert len({id(terms) for terms in values}) == len(values)
    chromatic._memos.clear()
