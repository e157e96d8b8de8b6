"""Randomized differential stress tests for the intricate code paths.

Everything is seeded; the naive reference implementations live in the
sibling test modules and in perfbench/, and share no code with the library
paths.
"""

from __future__ import annotations

import importlib.util
import inspect
import random
import sys
from functools import partial
from itertools import combinations, product
from pathlib import Path

import pytest

from gainchrom import chromatic
from gainchrom.chromatic import (
    count_integral_colorings,
    count_modular_colorings,
    count_multizero_colorings,
    enumerate_integral_colorings,
    integral_count,
    total_poly,
    zero_free_poly,
)
from gainchrom.combinatorics import closure
from gainchrom.gaingraph import IntegralGainGraph, ModularGainGraph
from gainchrom.identities import fixture_corpus
from gainchrom.poly import Poly2, Q, Z

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


def _counting_solves(monkeypatch) -> list:
    """Patch chromatic._solve to record each entry; returns the record."""
    entries: list = []
    solve = chromatic._solve

    def counted(*args):
        entries.append(args[0])
        return solve(*args)

    monkeypatch.setattr(chromatic, "_solve", counted)
    return entries


def test_a_solved_graph_is_one_lookup(monkeypatch):
    # the memo keeps each graph's finished value under its normalised state,
    # so a repeat, a switching and a repeated reduction mod q of a solved
    # graph enter no _solve and add no memo entry
    g = IntegralGainGraph(4, [(1, 2, 1), (1, 2, 3), (2, 3, -1), (3, 4, 2), (1, 4, 3), (2, 4, 1), (3, 3, 2)])
    switched = g.switch([2, -1, 0, 3])
    assert switched != g
    chromatic._memos.clear()
    first = (total_poly(g), zero_free_poly(g), total_poly(g.reduce_mod(3)))
    width_count = integral_count(g, 5)
    entries = _memo_states()
    solves = _counting_solves(monkeypatch)
    for graph in (g, switched):
        assert (total_poly(graph), zero_free_poly(graph), total_poly(graph.reduce_mod(3))) == first
    assert integral_count(g, 5) == width_count == naive_integral(g, 5)
    assert first[0] == naive_total(g)
    assert solves == [] and _memo_states() == entries


def test_finished_values_are_cleared_with_the_states(monkeypatch):
    small = IntegralGainGraph(3, [(1, 2, 1), (2, 3, 0), (1, 3, 2)])
    chromatic._memos.clear()
    total_poly(small)
    [memo] = chromatic._memos.values()
    # a state key is (n, links, labels), a finished value's (peeled labels, state key)
    assert sum(len(key) == 2 for key in memo) == 1
    # one entry short of what the call leaves, so it clears them all
    monkeypatch.setattr(chromatic, "_MEMO_STATES", len(chromatic._memos) + _memo_states() - 1)
    chromatic._memos.clear()
    assert total_poly(small) == naive_total(small)
    assert not chromatic._memos
    solves = _counting_solves(monkeypatch)
    assert total_poly(small) == naive_total(small)
    assert solves


def _state_adding_every_link(links: frozenset, labels: tuple, rule) -> tuple:
    """The reference for chromatic._state: every link, parallel ones
    included, enters a plain union-find in sorted order.  Each vertex keeps
    a parent and its potential over that parent, reduced mod the rule's
    modulus; nothing is shared with _state or gaingraph._potentials."""
    n = max((h for _, h, _ in links), default=0)
    if n == 0:
        return labels[1:], chromatic._EMPTY
    if rule.switch:
        modulus = rule.modulus
        parent = list(range(n + 1))
        over_parent = [0] * (n + 1)

        def find(v: int) -> tuple[int, int]:
            """(root of v, potential of v over the root)"""
            pot = 0
            while parent[v] != v:
                pot += over_parent[v]
                v = parent[v]
            return v, pot

        ordered = sorted(links)
        for t, h, gain in ordered:
            (rt, pt), (rh, ph) = find(t), find(h)
            if rt != rh:
                parent[rh] = rt
                over_parent[rh] = gain + pt - ph if modulus is None else (gain + pt - ph) % modulus
        pot = [find(v)[1] for v in range(n + 1)]
        links = frozenset(chromatic._link(t, h, gain - pot[h] + pot[t], modulus) for t, h, gain in ordered)
    return labels[n + 1 :], (n, links, labels[: n + 1])


def _benchmark_shaped(rng: random.Random, n: int, edges: int) -> IntegralGainGraph:
    """Edges as perfbench/gen.py places them: a tenth nonzero loops, a fifth
    (or as many as the distinct pairs leave) parallel to a link on a
    distinct pair with another gain, gains in [-2, 2], each edge in a
    random orientation."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    loops = round(0.1 * edges)
    parallel = max(round(0.2 * edges), edges - loops - len(pairs))
    out = [(i, j, rng.randint(-2, 2)) for i, j in rng.sample(pairs, edges - loops - parallel)]
    for _ in range(parallel):
        i, j, gain = rng.choice(out)
        out.append((i, j, gain + rng.choice([-2, -1, 1, 2])))
    out += [(v, v, rng.choice([-2, -1, 1, 2])) for v in rng.choices(range(1, n + 1), k=loops)]
    return IntegralGainGraph(n, [(h, t, -gain) if rng.random() < 0.5 else (t, h, gain) for t, h, gain in out])


def test_state_keys_equal_those_of_adding_every_link(monkeypatch):
    # _state adds only the first of each run of parallel links to the
    # union-find; every state the engines meet must get the key it gets
    # when every link is added
    rng = random.Random(2203)
    graphs = list(fixture_corpus(3)) + [_benchmark_shaped(rng, rng.randint(5, 6), rng.randint(8, 12)) for _ in range(30)]
    # and two the size of perfbench's regions graphs
    graphs += [_benchmark_shaped(rng, n, edges) for n, edges in ((6, 27), (7, 28))]
    state = chromatic._state
    with_parallels = 0

    def checked(links, labels, rule):
        nonlocal with_parallels
        key = state(links, labels, rule)
        assert key == _state_adding_every_link(links, labels, rule), (sorted(links), labels, rule.modulus)
        with_parallels += len({(t, h) for t, h, _ in links}) < len(links)
        return key

    monkeypatch.setattr(chromatic, "_state", checked)
    chromatic._memos.clear()
    for g in graphs:
        assert zero_free_poly(g, 30) == total_poly(g, 30).substitute_z(0)
        total_poly(g.reduce_mod(3), 30)
    chromatic._memos.clear()
    assert with_parallels > 100


def _unfolded_children(key: tuple, rule) -> list:
    """The reference for chromatic._children: one child per contraction,
    each normalised on its own, with coefficient 1 for the deletion and -1
    for each contraction."""
    n, links, labels = key
    at_top = sorted((e for e in links if e[1] == n), reverse=True)
    rest = links.difference(at_top)
    children = [(1, *chromatic._state(rest, labels, rule))]
    for i, (t, _, gain) in enumerate(at_top):
        later = at_top[i + 1 :]
        label, lo = rule.merge(labels[t], labels[n], gain, rule.loops and bool(later) and later[0][0] == t)
        merged = {(a, b, g + lo if b == t else g - lo if a == t else g) for a, b, g in rest}
        merged.update(chromatic._link(x, t, other - gain + lo, rule.modulus) for x, _, other in later if x != t)
        children.append((-1, *chromatic._state(frozenset(merged), labels[:t] + (label,) + labels[t + 1 : n], rule)))
    return children


def test_folded_children_give_the_values_and_states_of_unfolded_ones(monkeypatch):
    # _children normalises each distinct contraction once and sums equal
    # children; on graphs the size of perfbench's regions graphs that must
    # change no value and no memo size under any rule
    rng = random.Random(2810)
    graphs = [_benchmark_shaped(rng, n, edges) for n, edges in ((6, 26), (7, 27), (7, 28))]
    engines = (
        partial(total_poly, max_edges=30),
        partial(zero_free_poly, max_edges=30),
        lambda g: total_poly(g.reduce_mod(3), 30),
        lambda g: integral_count(g, 7, 30),
    )
    children = chromatic._children
    folded = 0

    def checked(key, rule):
        nonlocal folded
        out = children(key, rule)
        assert all(c for c, _, _ in out), key
        assert len({(peeled, child) for _, peeled, child in out}) == len(out), key
        folded += sum(abs(c) for c, _, _ in out) > len(out)
        return out

    results = {}
    for name, rule_children in (("folded", checked), ("unfolded", _unfolded_children)):
        monkeypatch.setattr(chromatic, "_children", rule_children)
        results[name] = []
        for g in graphs:
            for engine in engines:
                chromatic._memos.clear()
                results[name].append((engine(g), _memo_states()))
    chromatic._memos.clear()
    assert results["folded"] == results["unfolded"]
    assert folded > 100


@pytest.mark.parametrize("labels", ["flags", "widths"])
def test_deep_contraction_needs_no_recursion(labels):
    # every contraction of a long circle merges its top vertex into the one
    # below; the solver must not spend a Python frame per contraction,
    # whichever labels its vertices carry
    n = 200
    if labels == "flags":
        g = IntegralGainGraph(n, [(i, i + 1, 1) for i in range(1, n)] + [(1, n, 0)])
        solve, expected = partial(total_poly, g, max_edges=n), (Q - 1) ** n + (-1) ** n * (Z - 1)
    else:
        # the gain-0 circle counts the proper 7-colourings of C_200
        g = IntegralGainGraph(n, [(i, i + 1, 0) for i in range(1, n)] + [(1, n, 0)])
        solve, expected = partial(integral_count, g, 7, max_edges=n), 6**n + 6
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = solve()
    finally:
        sys.setrecursionlimit(limit)
    assert result == expected


def _perfbench(name: str):
    """perfbench/NAME.py, loaded by path; it imports nothing from gainchrom."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engines_at_sizes_the_oracles_cannot_reach():
    # 8-12 vertices and 14-20 edges, drawn as perfbench draws its graphs.  A
    # relabelling gives the engines another elimination order and so other
    # states; a switching alone would meet the first graph's memo entry.
    # perfbench's dc_total shares no code with the engines and normalises
    # its states by breadth-first potentials instead.
    gen, reference = _perfbench("gen"), _perfbench("reference")
    rng = random.Random(2026)
    for _ in range(20):
        n = rng.randint(8, 12)
        doc = gen.gain_graph(rng, rng, n, rng.randint(14, 20), gain_lo=-3, gain_hi=3)
        g = IntegralGainGraph(n, doc["edges"])
        perm = rng.sample(range(1, n + 1), n)
        relabelled = IntegralGainGraph(n, [(perm[t - 1], perm[h - 1], gain) for t, h, gain in g.edges])
        moved = relabelled.switch([rng.randint(-3, 3) for _ in range(n)])
        assert total_poly(moved) == total_poly(g) == Poly2(reference.dc_total(n, moved.edges)), g.edges
        assert zero_free_poly(moved) == zero_free_poly(g), g.edges
        assert integral_count(relabelled, 7) == integral_count(g, 7), g.edges
