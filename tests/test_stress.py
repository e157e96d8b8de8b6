"""Randomized differential stress tests for the intricate code paths.

Everything is seeded; the naive reference implementations live in the
sibling test modules and share no code with the library paths.
"""

from __future__ import annotations

import inspect
import random
import sys
from itertools import combinations, product

from gainchrom import chromatic
from gainchrom.chromatic import (
    count_integral_colorings,
    count_modular_colorings,
    count_multizero_colorings,
    enumerate_integral_colorings,
    total_poly,
    zero_free_poly,
)
from gainchrom.combinatorics import closure
from gainchrom.gaingraph import IntegralGainGraph, ModularGainGraph
from gainchrom.poly import Q, Z

from test_chromatic import (
    _naive_stats,
    naive_integral,
    naive_modular,
    naive_multizero,
    naive_total,
)
from test_gaingraph import brute_max_circle_gain


def random_graph(rng: random.Random, max_n: int = 5, max_m: int = 7, gain_bound: int = 4):
    n = rng.randint(0, max_n)
    edges = []
    for _ in range(rng.randint(0, max_m if n else 0)):
        t = rng.randint(1, n)
        h = rng.randint(1, n)
        edges.append((t, h, rng.randint(-gain_bound, gain_bound)))
    return IntegralGainGraph(n, edges)


def test_total_poly_random_differential():
    rng = random.Random(97)
    for _ in range(120):
        g = random_graph(rng)
        assert total_poly(g) == naive_total(g)
        for modulus in (2, 3, 5):
            gm = g.reduce_mod(modulus)
            assert total_poly(gm) == naive_total(gm)


def test_zero_free_slice_random_differential():
    rng = random.Random(193)
    for _ in range(120):
        g = random_graph(rng)
        assert zero_free_poly(g) == total_poly(g).substitute_z(0)


def test_modular_zero_free_with_loops_random_differential():
    # loops whose gain is 0 mod m zero the polynomial; the others must drop
    # out of the zero-free one
    rng = random.Random(401)
    shapes = set()
    for i in range(120):
        m = 2 + i % 4
        g = random_graph(rng, max_n=5, max_m=6, gain_bound=6)
        edges = list(g.edges)
        for _ in range(rng.randint(0, 2) if g.n else 0):
            v = rng.randint(1, g.n)
            edges.append((v, v, rng.randint(-2, 2) * m + rng.choice([0, 1, 1, m - 1])))
        gm = ModularGainGraph(g.n, edges, m)
        for t, h, gain in gm.edges:
            if t == h:
                shapes.add("null loop" if gain == 0 else "loop")
        assert zero_free_poly(gm) == naive_total(gm).substitute_z(0), gm
    assert shapes == {"null loop", "loop"}


def test_coloring_oracles_random_differential():
    # gains up to +-5 on loops and parallel edges; every modulus 1..5 with
    # every k, z in 0..2 comes up twice
    rng = random.Random(61)
    multizero_cases = list(product(range(1, 6), range(3), range(3)))
    shapes = set()
    for i in range(2 * len(multizero_cases)):
        g = random_graph(rng, max_n=4, max_m=6, gain_bound=5)
        links = [(t, h) for t, h, _ in g.edges if t != h]
        if len(links) < len(g.edges):
            shapes.add("loop")
        if len(set(links)) < len(links):
            shapes.add("parallel")
        for q in range(7):
            count = count_integral_colorings(g, q)
            assert count == naive_integral(g, q), (g, q)
            listed = list(enumerate_integral_colorings(g, q))
            keys = [tuple(kappa[v] for v in range(1, g.n + 1)) for kappa in listed]
            assert len(listed) == count and keys == sorted(set(keys)), (g, q)
            assert all(
                set(kappa) == set(range(1, g.n + 1))
                and all(1 <= c <= q for c in kappa.values())
                and all(kappa[h] != kappa[t] + gain for t, h, gain in g.edges)
                for kappa in listed
            ), (g, q)
            if q:
                assert count_modular_colorings(g, q) == naive_modular(g, q), (g, q)
        m, k, z = multizero_cases[i % len(multizero_cases)]
        gm = g.reduce_mod(m)
        assert count_multizero_colorings(gm, k, z) == naive_multizero(gm, k, z), (gm, k, z)
    assert shapes == {"loop", "parallel"}


def test_potential_union_find_random_differential():
    # components, balance and flat closure all come from one union-find;
    # each is checked on every subset of up to 6 edges against the DFS of
    # _naive_stats.  Gain bounds cycle through 4, 1 and 0 so that the gain-0
    # pairs closure works on are plentiful.
    rng = random.Random(113)
    shapes = set()
    for i in range(90):
        g = random_graph(rng, max_n=5, max_m=7, gain_bound=(4, 1, 0)[i % 3])
        links = [(t, h) for t, h, _ in g.edges if t != h]
        if len(links) < len(g.edges):
            shapes.add("loop")
        if len(set(links)) < len(links):
            shapes.add("parallel")
        m = len(g.edges)
        for size in range(min(m, 6) + 1):
            for subset in combinations(range(m), size):
                stats = _naive_stats(g.n, [g.edges[j] for j in subset], None)
                # any order of the indices: unions then join roots of every rank
                order = rng.sample(subset, len(subset))
                assert g.components_stats(order) == stats, (g, order)
                assert g.is_balanced(order) == (stats[0] == stats[1]), (g, order)
                if stats[0] != stats[1]:
                    shapes.add("unbalanced")
        neutral = [e for e in g.edges if e[2] == 0]
        pairs = [(t, h) for t, h, _ in neutral]
        for size in range(min(len(pairs), 6) + 1):
            for subset in combinations(range(len(pairs)), size):
                chosen = [neutral[j] for j in subset]
                comps = _naive_stats(g.n, chosen, None)[0]
                expected = frozenset(
                    j
                    for j in range(len(pairs))
                    if _naive_stats(g.n, chosen + [neutral[j]], None)[0] == comps
                )
                order = rng.sample(subset, len(subset))
                assert closure(g.n, pairs, order) == expected, (g, order)
                if expected - set(subset) - {j for j, (t, h) in enumerate(pairs) if t == h}:
                    shapes.add("closure-adds-a-link")
    assert shapes == {"loop", "parallel", "unbalanced", "closure-adds-a-link"}


def test_max_circle_gain_random_differential():
    rng = random.Random(55)
    for _ in range(150):
        g = random_graph(rng, max_n=4, max_m=6, gain_bound=5)
        assert g.max_circle_gain() == brute_max_circle_gain(g)


def test_deletion_contraction_for_every_link():
    # the total polynomial obeys deletion-contraction for all links, with
    # contraction of a nonzero-gain link going through the top switching
    rng = random.Random(7)
    for _ in range(80):
        g = random_graph(rng, max_n=4, max_m=5, gain_bound=3)
        lhs = total_poly(g)
        for i, (t, h, gain) in enumerate(g.edges):
            if t == h:
                continue
            deleted = g.delete_edges([i])
            contracted = g.contract_balanced_set([i])
            assert lhs == total_poly(deleted) - total_poly(contracted), (g, i)


def test_balanced_contraction_commutes_with_switching_up_to_functions():
    # contracting the same balanced set before and after a switching yields
    # switching-equivalent graphs, so every switching-invariant function of
    # the two contractions agrees
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, max_n=4, max_m=5, gain_bound=3)
        m = len(g.edges)
        subsets = [s for size in range(min(m, 3) + 1) for s in combinations(range(m), size)]
        rng.shuffle(subsets)
        eta = {v: rng.randint(-3, 3) for v in range(1, g.n + 1)}
        switched = g.switch(eta)
        for subset in subsets[:6]:
            if not g.is_balanced(subset):
                continue
            a = g.contract_balanced_set(subset)
            b = switched.contract_balanced_set(subset)
            assert total_poly(a) == total_poly(b), (g, eta, subset)


def _memo_states() -> int:
    return sum(map(len, chromatic._memos.values()))


def test_shared_memo_is_independent_of_call_history():
    # the memo outlives each call, so switchings, doublings and reductions
    # of one graph hit entries left by another; every answer must still be
    # the one computed alone, in either call order
    rng = random.Random(613)
    # one memo key for both, balanced mod 2 only: the circle 2-3-1-2 has gain 2
    circle = IntegralGainGraph(3, [(1, 2, 0), (1, 3, 0), (2, 3, 1), (1, 2, 1)])
    cases = [circle, circle.reduce_mod(2)]
    for _ in range(40):
        g = random_graph(rng, max_n=5, max_m=6, gain_bound=3)
        edges = list(g.edges)
        if g.n:
            t, h, gain = rng.choice(edges) if edges else (1, g.n, 0)
            edges.append((t, h, gain + rng.choice([-2, -1, 1, 2])))  # a parallel link
            v = rng.randint(1, g.n)
            edges.append((v, v, rng.choice([-2, -1, 1, 2])))  # a nonzero loop
        g = IntegralGainGraph(g.n, edges)
        switched = g.switch([rng.randint(-3, 3) for _ in range(g.n)])
        doubled = IntegralGainGraph(g.n, edges + edges[: len(edges) // 2])
        for graph in (g, switched, doubled):
            cases.append(graph)
            cases.append(graph.reduce_mod(rng.randint(2, 5)))
    expected = [naive_total(graph) for graph in cases]
    chromatic._memos.clear()
    for order in (range(len(cases)), reversed(range(len(cases)))):
        for i in order:
            assert total_poly(cases[i]) == expected[i], cases[i]
            assert zero_free_poly(cases[i]) == expected[i].substitute_z(0), cases[i]
    assert _memo_states() > 0


def test_shared_memo_is_bounded_between_calls(monkeypatch):
    rng = random.Random(5)
    edges = [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(-2, 2)) for _ in range(16)]
    g = IntegralGainGraph(6, [e for e in edges if e[0] != e[1]])
    chromatic._memos.clear()
    expected = total_poly(g)
    assert _memo_states() > 20
    monkeypatch.setattr(chromatic, "_MEMO_STATES", 20)
    chromatic._memos.clear()
    assert total_poly(g) == expected
    assert len(chromatic._memos) + _memo_states() <= 20
    # a call that stays within the bound keeps its states
    small = IntegralGainGraph(3, [(1, 2, 1), (2, 3, 0), (1, 3, 2)])
    assert total_poly(small) == naive_total(small)
    assert 0 < len(chromatic._memos) + _memo_states() <= 20


def test_deep_contraction_needs_no_recursion():
    # every contraction of a long circle merges its top vertex into the one
    # below; the solver must not spend a Python frame per contraction
    n = 200
    g = IntegralGainGraph(n, [(i, i + 1, 1) for i in range(1, n)] + [(1, n, 0)])
    expected = (Q - 1) ** n + (-1) ** n * (Z - 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = total_poly(g, max_edges=n)
    finally:
        sys.setrecursionlimit(limit)
    assert result == expected
