"""Gain graph structure: canonical storage, switching, contraction, circles."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest

from gainchrom.chromatic import count_modular_colorings, zero_free_poly
from gainchrom.families import catalan_graph, hollow_catalan_graph, linial_graph, shi_graph
from gainchrom.gaingraph import (
    IntegralGainGraph,
    ModularGainGraph,
    NonNeutralEdgeInSet,
    UnbalancedSet,
    _blocks,
    _potentials,
)
from gainchrom.identities import fixture_corpus
from gainchrom.poly import Q


def test_canonical_storage():
    g = IntegralGainGraph(2, [(2, 1, 3)])
    assert g.edges == ((1, 2, -3),)
    assert IntegralGainGraph(1, [(1, 1, -5)]).edges == ((1, 1, 5),)
    with pytest.raises(ValueError):
        IntegralGainGraph(2, [(1, 3, 0)])


def test_reversal_round_trip():
    for g in fixture_corpus():
        reversed_edges = [(h, t, -gain) for t, h, gain in g.edges]
        assert IntegralGainGraph(g.n, reversed_edges) == g


def test_switching():
    g = IntegralGainGraph(2, [(1, 2, 5)])
    assert g.switch({1: 0, 2: 0}) == g
    assert IntegralGainGraph(2, [(1, 2, 0)]).switch({1: 0, 2: 5}) == g
    loop = IntegralGainGraph(1, [(1, 1, 4)])
    for value in (-3, 0, 17):
        assert loop.switch({1: value}) == loop
    with pytest.raises(ValueError):
        g.switch({1: 0})


def test_switching_preserves_balance():
    rng = random.Random(5)
    for g in fixture_corpus():
        if not g.edges:
            continue
        indices = [i for i in range(len(g.edges)) if rng.random() < 0.6]
        eta = {v: rng.randint(-3, 3) for v in range(1, g.n + 1)}
        assert g.is_balanced(indices) == g.switch(eta).is_balanced(indices)


def test_deletion():
    c2 = catalan_graph(2)
    assert c2.delete_edges(range(3)).edges == ()
    assert c2.delete_edges([]) == c2
    zero = [i for i, e in enumerate(c2.edges) if e[2] == 0]
    assert c2.delete_edges(zero) == hollow_catalan_graph(2)
    assert c2.delete_neutral_edges() == hollow_catalan_graph(2)


def test_balance():
    forest = IntegralGainGraph(3, [(1, 2, 7), (2, 3, -4)])
    assert forest.is_balanced()
    digon = IntegralGainGraph(2, [(1, 2, 0), (1, 2, 1)])
    assert not digon.is_balanced()
    loops = IntegralGainGraph(1, [(1, 1, 0), (1, 1, 1)])
    assert loops.is_balanced([0])
    assert not loops.is_balanced([1])


def test_components_stats():
    g = IntegralGainGraph(3, [(1, 2, 0), (1, 2, 1)])
    assert g.components_stats([]) == (3, 3)
    assert g.components_stats([0, 1]) == (2, 1)
    assert IntegralGainGraph(3, [(1, 2, 0)]).components_stats() == (2, 2)


def test_balanced_components_are_all_balanced():
    for g in fixture_corpus():
        m = len(g.edges)
        for size in range(m + 1):
            for subset in combinations(range(m), size):
                c, b = g.components_stats(subset)
                if g.is_balanced(subset):
                    assert c == b
                else:
                    assert b < c


def _bfs_components(n: int, edges: list) -> list[tuple[list[int], dict, bool]]:
    """(sorted vertices, potentials from the least vertex, balanced) of each
    component of (1..n, edges), by breadth-first search, without _potentials."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for t, h, gain in edges:
        adjacency[t].append((h, gain))
        adjacency[h].append((t, -gain))
    out, placed = [], set()
    for start in range(1, n + 1):
        if start in placed:
            continue
        pot, queue = {start: 0}, [start]
        for v in queue:
            for w, gain in adjacency[v]:
                if w not in pot:
                    pot[w] = pot[v] + gain
                    queue.append(w)
        placed.update(pot)
        balanced = all(pot[h] - pot[t] == gain for t, h, gain in edges if t in pot)
        out.append((sorted(pot), pot, balanced))
    return out


def test_potentials_against_breadth_first_search():
    # every prefix of a random edge sequence, loops and parallel edges included
    rng = random.Random(2407)
    for _ in range(150):
        n = rng.randint(1, 8)
        added, forest = [], []
        comps = _bfs_components(n, added)
        for _ in range(rng.randint(0, 14)):
            t, h, gain = rng.randint(1, n), rng.randint(1, n), rng.randint(-3, 3)
            if not any(t in vertices and h in vertices for vertices, _, _ in comps):
                forest.append((t, h, gain))
            added.append((t, h, gain))
            root, pot, unbalanced = _potentials(n, added)
            comps = _bfs_components(n, added)
            assert _blocks(root) == [vertices for vertices, _, _ in comps]
            assert unbalanced == {root[vertices[0]] for vertices, _, balanced in comps if not balanced}
            for vertices, bfs_pot, balanced in comps:
                assert len({root[v] for v in vertices}) == 1
                if balanced:
                    # potentials are unique up to one shift per balanced component
                    assert len({pot[v] - bfs_pot[v] for v in vertices}) == 1
            # every edge that closed no circle holds its gain as a potential difference
            assert all(pot[h] - pot[t] == gain for t, h, gain in forest)
        assert len(forest) == n - len(comps)


def test_contract_neutral_set():
    c2 = catalan_graph(2)
    zero = [i for i, e in enumerate(c2.edges) if e[2] == 0]
    contracted = c2.contract_neutral_set(zero)
    assert contracted.n == 1
    assert contracted.edges == ((1, 1, 1), (1, 1, 1))
    assert c2.contract_neutral_set([]) == c2
    with pytest.raises(NonNeutralEdgeInSet):
        c2.contract_neutral_set([i for i, e in enumerate(c2.edges) if e[2] == 1])


def test_contract_neutral_spanning_tree():
    # Contracting a 2-edge spanning tree of the all-neutral triangle removes
    # the tree and turns the third edge into a single gain-0 loop.
    k3 = IntegralGainGraph(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
    contracted = k3.contract_neutral_set([0, 1])
    assert contracted.n == 1
    assert contracted.edges == ((1, 1, 0),)


def test_contract_balanced_set_matches_neutral_on_neutral_sets():
    for g in fixture_corpus():
        neutral = g.neutral_indices()
        for size in range(len(neutral) + 1):
            for subset in combinations(neutral, size):
                if g.is_balanced(subset):
                    assert g.contract_balanced_set(subset) == g.contract_neutral_set(subset)


def test_contract_balanced_set_path_example():
    # Contract a single gain-3 edge; the top switching shifts nothing at the
    # third vertex, so the surviving edge keeps its gain.
    g = IntegralGainGraph(3, [(1, 2, 3), (2, 3, 5)])
    contracted = g.contract_balanced_set([0])
    assert contracted.n == 2
    assert contracted.edges == ((1, 2, 5),)
    with pytest.raises(UnbalancedSet):
        IntegralGainGraph(2, [(1, 2, 0), (1, 2, 1)]).contract_balanced_set([0, 1])


def test_contract_balanced_set_root_independence():
    # The union-find's roots follow the order the edges are united in, so
    # feeding each balanced subset in several orders contracts it from
    # different roots (609 of these subsets get differing roots).
    graphs = list(fixture_corpus())
    graphs += [shi_graph(4), linial_graph(4), catalan_graph(3)]
    for g in graphs:
        m = len(g.edges)
        for size in range(min(m, 3) + 1):
            for subset in combinations(range(m), size):
                if not g.is_balanced(subset):
                    continue
                base = g.contract_balanced_set(subset)
                assert g.contract_balanced_set(subset[::-1]) == base
                for k in range(1, size):
                    assert g.contract_balanced_set(subset[k:] + subset[:k]) == base


def test_contract_balanced_preserves_switching_invariant_counts():
    # Contracting a balanced set must not change the modular count ratio the
    # deletion-contraction ladder predicts; spot check via direct counts on a
    # balanced two-edge set.
    g = IntegralGainGraph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
    assert g.is_balanced()
    contracted = g.contract_balanced_set([0, 1, 2])
    assert contracted.n == 1
    assert contracted.edges == ()
    for q in range(1, 6):
        assert count_modular_colorings(contracted, q) == q


def test_contract_partition():
    l2 = linial_graph(2)
    assert l2.contract_partition([(1,), (2,)]) == l2
    one = l2.contract_partition([(1, 2)])
    assert one.edges == ((1, 1, 1),)
    hollow = hollow_catalan_graph(2).contract_partition([(1, 2)])
    assert hollow.edges == ((1, 1, 1), (1, 1, 1))
    assert hollow.simplify().edges == ((1, 1, 1),)
    with pytest.raises(ValueError):
        l2.contract_partition([(1,)])


def test_simplify():
    g = IntegralGainGraph(2, [(1, 2, 1), (1, 2, 1), (1, 2, -1)])
    assert g.simplify().edges == ((1, 2, -1), (1, 2, 1))
    loops = IntegralGainGraph(1, [(1, 1, 3), (1, 1, -3)])
    assert loops.simplify().edges == ((1, 1, 3),)
    for g in fixture_corpus():
        assert g.simplify().simplify() == g.simplify()


def test_add_neutral_complete():
    assert linial_graph(3).add_neutral_complete() == shi_graph(3)
    assert hollow_catalan_graph(3).add_neutral_complete() == catalan_graph(3)
    assert IntegralGainGraph(2).add_neutral_complete().edges == ((1, 2, 0),)
    # already-present gain-0 links are not duplicated
    assert shi_graph(2).add_neutral_complete() == shi_graph(2)


def brute_max_circle_gain(g: IntegralGainGraph) -> int | None:
    """Independent oracle: scan all edge subsets for circles (connected,
    every vertex degree 2) and take the best absolute traversal gain."""
    best = None
    m = len(g.edges)
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            gain = _circle_gain(g, subset)
            if gain is not None and (best is None or gain > best):
                best = gain
    return best


def _circle_gain(g: IntegralGainGraph, subset: tuple[int, ...]) -> int | None:
    edges = [g.edges[i] for i in subset]
    degree: dict[int, int] = {}
    for t, h, _ in edges:
        degree[t] = degree.get(t, 0) + 1
        degree[h] = degree.get(h, 0) + 1
    if any(d != 2 for d in degree.values()):
        return None
    verts = sorted(degree)
    if len(edges) == 1:
        t, h, gain = edges[0]
        return abs(gain) if t == h else None
    if any(t == h for t, h, _ in edges):
        return None
    # walk the closed trail from the least vertex, refusing to reuse edges
    start = verts[0]
    used = [False] * len(edges)
    v, total = start, 0
    for _ in range(len(edges)):
        for i, (t, h, gain) in enumerate(edges):
            if used[i]:
                continue
            if t == v:
                used[i] = True
                v, total = h, total + gain
                break
            if h == v:
                used[i] = True
                v, total = t, total - gain
                break
        else:
            return None
    if v != start or not all(used):
        return None
    # connected single circle iff the walk consumed everything
    return abs(total)


def test_max_circle_gain_against_oracle():
    for g in fixture_corpus():
        if len(g.edges) > 4:
            continue
        assert g.max_circle_gain() == brute_max_circle_gain(g)


def test_max_circle_gain_families():
    assert IntegralGainGraph(3, [(1, 2, 5), (2, 3, -7)]).max_circle_gain() is None
    for n in (2, 3, 4):
        assert catalan_graph(n).max_circle_gain() == n
    assert linial_graph(3).max_circle_gain() == 1
    assert brute_max_circle_gain(linial_graph(3)) == 1
    assert shi_graph(3).max_circle_gain() == 2
    assert IntegralGainGraph(1, [(1, 1, 9)]).max_circle_gain() == 9
    # a path longer than the recursion limit, alone and closed by a chord
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        path = [(i, i + 1, 1) for i in range(1, 300)]
        assert IntegralGainGraph(300, path).max_circle_gain() is None
        assert IntegralGainGraph(300, [*path, (1, 300, 5)]).max_circle_gain() == 299 - 5
    finally:
        sys.setrecursionlimit(limit)


def test_induced_and_disjoint_union():
    s3 = shi_graph(3)
    assert s3.induced([1, 3]) == shi_graph(2)
    pair = shi_graph(1).disjoint_union(linial_graph(2))
    assert pair.n == 3
    assert pair.edges == ((2, 3, 1),)
    two = IntegralGainGraph(2, [(1, 2, 1)])
    assert two.induced([2, 1, 2]) == two and two.induced([]) == IntegralGainGraph(0)
    for bad in ([1, 99], [0, 1, 2], [-1]):
        with pytest.raises(ValueError, match="vertices must lie in 1..2"):
            two.induced(bad)
    assert two.delete_edges([0, 0]) == IntegralGainGraph(2) and two.delete_edges([]) == two
    for bad in ([5], [1], [-1, 0]):
        with pytest.raises(ValueError, match=r"edge indices must lie in range\(1\)"):
            two.delete_edges(bad)


def test_every_method_that_takes_edge_indices_refuses_one_out_of_range():
    # -1 used to count from the end: contracting [-1] contracted edge 2 but
    # kept it as a gain-0 loop, whose zero-free polynomial is 0
    g = IntegralGainGraph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 1)])
    assert g.edges == ((1, 2, 0), (1, 3, 1), (2, 3, 0))
    assert zero_free_poly(g.contract_neutral_set([2])) == Q**2 - 2 * Q
    assert g.contract_balanced_set([2]) == g.contract_neutral_set([2])
    takers = (g.delete_edges, g.contract_neutral_set, g.contract_balanced_set, g.is_balanced, g.components_stats,
              g.underlying_pairs)
    for method in takers:
        for bad in ([-1], [3], [2, -3], [0, 3]):
            with pytest.raises(ValueError, match=r"edge indices must lie in range\(3\)"):
                method(bad)
    with pytest.raises(ValueError, match=r"switching function defined outside 1\.\.3"):
        g.switch({1: 0, 2: 0, 3: 1, 7: 9})
    with pytest.raises(ValueError, match="switching function undefined on vertex 3"):
        g.switch({1: 0, 2: 0, 7: 9})


def test_dict_round_trip_and_canonicalization_on_load():
    g = IntegralGainGraph.from_dict({"n": 3, "edges": [[3, 1, 2], [2, 2, -1]]})
    assert g.edges == ((1, 3, -2), (2, 2, 1))
    assert IntegralGainGraph.from_dict(g.to_dict()) == g
    for bad in ({"n": 2, "edges": [[1, 2, 0.5]]}, {"n": 2, "edges": [[1, 2, True]]}, {"n": 2.0}):
        with pytest.raises(ValueError):
            IntegralGainGraph.from_dict(bad)


def test_modular_reduction():
    g = IntegralGainGraph(2, [(1, 2, -1), (1, 1, 3), (2, 2, -2)])
    gm = g.reduce_mod(5)
    assert isinstance(gm, ModularGainGraph)
    assert gm.modulus == 5
    # a loop of gain 3 mod 5 read backwards has gain 2, the lesser residue
    assert gm.edges == ((1, 1, 2), (1, 2, 4), (2, 2, 2))
    with pytest.raises(ValueError):
        g.reduce_mod(0)


def test_modular_loop_orientations_compare_equal():
    for m in (2, 3, 4, 5, 6):
        for gain in range(-2 * m, 2 * m + 1):
            forward = ModularGainGraph(1, [(1, 1, gain)], m)
            backward = ModularGainGraph(1, [(1, 1, -gain)], m)
            assert forward == backward and hash(forward) == hash(backward)
            shifted = IntegralGainGraph(1, [(1, 1, gain + m)]).reduce_mod(m)
            assert IntegralGainGraph(1, [(1, 1, gain)]).reduce_mod(m) == shifted
            assert 0 <= forward.edges[0][2] <= m // 2


def test_modular_count_equals_zero_free_of_reduction():
    # counting mod q is the same as the zero-free value of the mod-q graph
    # at q, for every q
    for g in list(fixture_corpus())[:80]:
        for q in (1, 2, 3, 4):
            assert count_modular_colorings(g, q) == zero_free_poly(g.reduce_mod(q)).evaluate(q)


def _shaped(rng: random.Random, n: int, edges: int) -> IntegralGainGraph:
    """A tenth loops and a fifth links parallel to an earlier one, as
    perfbench/gen.py places them, gains in [-2, 2], random orientations."""
    loops, parallel = round(0.1 * edges), round(0.2 * edges)
    out = [(rng.randint(1, n), rng.randint(1, n), rng.randint(-2, 2)) for _ in range(edges - loops - parallel)]
    out = [(t, h, g) for t, h, g in out if t != h] or [(1, n, 1)]
    out += [(t, h, g + rng.choice([-1, 1])) for t, h, g in rng.choices(out, k=parallel)]
    out += [(v, v, rng.randint(-2, 2)) for v in rng.choices(range(1, n + 1), k=loops)]
    return IntegralGainGraph(n, [(h, t, -g) if rng.random() < 0.5 else (t, h, g) for t, h, g in out])


def test_operations_that_skip_validation_build_what_the_constructor_builds():
    # switch, induced, delete_edges, without_nonneutral_loops and
    # disjoint_union hand their edges over as they are; the constructor,
    # given the same edges, must store the same graph with the same hash
    rng = random.Random(2311)
    shaped = [_shaped(rng, rng.randint(2, 7), rng.randint(3, 14)) for _ in range(200)]
    graphs = list(fixture_corpus(3)) + shaped
    assert sum(len(set(g.underlying_pairs())) < len(g.edges) for g in shaped) > 100

    def same(built: IntegralGainGraph) -> None:
        checked = IntegralGainGraph(built.n, built.edges)
        assert (built.n, built.edges, hash(built)) == (checked.n, checked.edges, hash(checked))
        assert hash(built) == hash((built.n, built.edges))

    for g in graphs:
        same(g)
        eta = [rng.randint(-3, 3) for _ in range(g.n)]
        same(g.switch(eta))
        same(g.switch(dict(enumerate(eta, 1))))
        same(g.induced(rng.sample(range(1, g.n + 1), rng.randint(0, g.n))))
        same(g.delete_edges(rng.sample(range(len(g.edges)), rng.randint(0, len(g.edges)))))
        same(g.delete_neutral_edges())
        same(g.without_nonneutral_loops())
        same(g.disjoint_union(rng.choice(graphs)))
