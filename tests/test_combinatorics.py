"""Partitions, Stirling numbers, flats, descending paths, degree sequences."""

from __future__ import annotations

import random
import sys
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from gainchrom.combinatorics import (
    InvalidSequence,
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
    normalize_partition,
    overlap_graph,
    partition_mobius,
    realize_lds,
    set_partitions,
    stable_partitions,
    stirling1_signed,
    stirling2,
)


def is_partition_of(pi, n: int) -> bool:
    return sorted(v for b in pi for v in b) == list(range(1, n + 1))


def independent_bell(n: int) -> int:
    # B(n+1) = sum_k C(n,k) B(k), independent of the stirling2 recurrence
    bells = [1]
    for m in range(n):
        bells.append(sum(comb(m, k) * bells[k] for k in range(m + 1)))
    return bells[n]


def test_set_partitions_counts_and_shape():
    assert list(set_partitions(0)) == [()]
    assert len(list(set_partitions(3))) == 5
    assert len(list(set_partitions(5))) == 52
    for n in range(8):
        parts = list(set_partitions(n))
        assert len(parts) == independent_bell(n) == bell_number(n)
        assert len(set(parts)) == len(parts)
        for pi in parts:
            assert is_partition_of(pi, n)
            mins = [b[0] for b in pi]
            assert mins == sorted(mins)


@pytest.mark.parametrize(
    "call",
    [lambda: list(set_partitions(-1)), lambda: bell_number(-1), lambda: stirling2(-1, 0), lambda: cycle_count(0, -1)],
    ids=["set_partitions", "bell_number", "stirling2", "cycle_count"],
)
def test_partition_counts_refuse_negative_sizes(call):
    # bell_number(-1) summed an empty range to 0
    with pytest.raises(ValueError, match="nonnegative"):
        call()


def test_stirling_numbers():
    assert stirling2(3, 2) == 3
    assert sum(1 for pi in set_partitions(3) if len(pi) == 2) == 3
    # cycle counts against direct permutation enumeration
    def cycles(perm: tuple[int, ...]) -> int:
        seen, count = set(), 0
        for start in range(len(perm)):
            if start in seen:
                continue
            count += 1
            v = start
            while v not in seen:
                seen.add(v)
                v = perm[v]
        return count

    for n in range(1, 6):
        for k in range(n + 1):
            direct = sum(1 for p in permutations(range(n)) if cycles(p) == k)
            assert cycle_count(n, k) == direct
            assert stirling1_signed(n, k) == (-1) ** (n - k) * direct
    for n in range(6):
        assert stirling1_signed(n, n) == 1


def test_stirling_numbers_need_no_recursion():
    # n = 2000 is deeper than the default recursion limit, so neither may
    # recurse once per n
    assert sys.getrecursionlimit() <= 2000
    assert stirling2(2000, 2) == 2**1999 - 1
    assert stirling2(2000, 1999) == comb(2000, 2)
    assert cycle_count(2000, 1) == factorial(1999)
    assert cycle_count(2000, 2) == sum(factorial(1999) // i for i in range(1, 2000))
    for n in range(12):
        for k in range(n + 3):
            if n == 0 or k == 0 or k > n:
                assert stirling2(n, k) == cycle_count(n, k) == (n == k == 0)
            else:
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
                assert cycle_count(n, k) == (n - 1) * cycle_count(n - 1, k) + cycle_count(n - 1, k - 1)


def test_partition_mobius():
    assert partition_mobius(((1,), (2,), (3,))) == 1
    assert partition_mobius(((1, 2, 3),)) == 2
    assert sum(partition_mobius(pi) for pi in set_partitions(4) if len(pi) == 2) == stirling1_signed(4, 2) == 11
    for n in range(1, 8):
        for j in range(1, n + 1):
            total = sum(partition_mobius(pi) for pi in set_partitions(n) if len(pi) == j)
            assert total == stirling1_signed(n, j)


def test_closure_properties():
    pairs = [(1, 2), (2, 3), (1, 3), (1, 2)]
    n = 3
    m = len(pairs)
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            s = frozenset(subset)
            cl = closure(n, pairs, s)
            assert s <= cl
            assert closure(n, pairs, cl) == cl


def test_closed_sets_of_triangle():
    pairs = [(1, 2), (1, 3), (2, 3)]
    flats = closed_edge_sets(3, pairs)
    assert len(flats) == 5
    assert frozenset() in flats
    assert flat_mobius(3, pairs, frozenset({0, 1, 2})) == 2
    assert flat_mobius(3, pairs, frozenset()) == 1


def test_closed_sets_edgeless_and_loops():
    assert closed_edge_sets(2, []) == [frozenset()]
    assert flat_mobius(2, [], frozenset()) == 1
    loopy = [(1, 1), (1, 2)]
    for flat in closed_edge_sets(2, loopy):
        assert flat_mobius(2, loopy, flat) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: closure(3, [(1, 2), (2, 3), (1, 3)], [-1]),
        lambda: closure(3, [(1, 2), (2, 3), (1, 3)], [3]),
        lambda: closure(3, [(1, 4)], [0]),
        lambda: closure(3, [(0, 1)], []),
        lambda: flat_mobius(3, [(1, 2), (2, 3), (1, 3)], frozenset([-1])),
        lambda: flat_mobius(3, [(1, 2)], frozenset([1])),
        lambda: flat_mobius(2, [(1, 3)], frozenset()),
        lambda: closed_edge_sets(2, [(1, 2), (2, 3)]),
    ],
    ids=["closure-negative", "closure-past-end", "closure-vertex", "closure-vertex-0",
         "mobius-negative", "mobius-past-end", "mobius-vertex", "flats-vertex"],
)
def test_flat_functions_refuse_edges_out_of_range(call):
    # before, -1 counted from the end and an unknown vertex raised IndexError
    with pytest.raises(ValueError):
        call()


def random_multigraph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    # up to 6 pairs on n <= 4 vertices, drawn with repetition so loops and
    # parallel pairs are common
    n = rng.randint(1, 4)
    return n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))]


def test_closed_edge_sets_are_ordered_by_size_then_lexicographically():
    rng = random.Random(13)
    for _ in range(60):
        n, pairs = random_multigraph(rng)
        flats = closed_edge_sets(n, pairs)
        every = [frozenset(s) for k in range(len(pairs) + 1) for s in combinations(range(len(pairs)), k)]
        assert flats == [s for s in every if closure(n, pairs, s) == s]
        keys = [(len(f), sorted(f)) for f in flats]
        assert keys == sorted(keys)


def test_flat_mobius_is_the_signed_count_of_subsets_closing_to_it():
    rng = random.Random(7)
    for _ in range(60):
        n, pairs = random_multigraph(rng)
        m = len(pairs)
        weights: dict[frozenset[int], int] = {}
        for k in range(m + 1):
            for s in combinations(range(m), k):
                cl = closure(n, pairs, s)
                weights[cl] = weights.get(cl, 0) + (-1) ** k
        for k in range(m + 1):
            for s in combinations(range(m), k):
                arg = frozenset(s)
                # every subset is an argument; those that are not closed get 0
                assert flat_mobius(n, pairs, arg) == (weights.get(arg, 0) if closure(n, pairs, arg) == arg else 0)


def test_stable_partitions():
    assert len(list(stable_partitions(3, []))) == 5
    assert list(stable_partitions(3, [(1, 2), (1, 3), (2, 3)])) == [((1,), (2,), (3,))]
    assert list(stable_partitions(3, [(1, 2), (2, 3)])) == [((1, 3), (2,)), ((1,), (2,), (3,))]
    assert list(stable_partitions(2, [(1, 1)])) == []
    # a path deeper than the recursion limit: its first stable partition is odds | evens
    first = next(stable_partitions(1200, [(i, i + 1) for i in range(1, 1200)]))
    assert first == (tuple(range(1, 1201, 2)), tuple(range(2, 1201, 2)))


def test_pruned_partition_walks_match_filtered_set_partitions():
    # every labelled simple graph on at most 5 vertices, against filters of all Bell(n) partitions
    def stable(pi, edges):
        return not any((a, b) in edges for block in pi for a, b in combinations(block, 2))

    def descending_paths(pi, edges):
        return all((a, b) in edges for block in pi for a, b in zip(block, block[1:]))

    checked = 0
    for n in range(6):
        pairs = list(combinations(range(1, n + 1), 2))
        for size in range(len(pairs) + 1):
            for chosen in combinations(pairs, size):
                edges = set(chosen)
                everything = list(set_partitions(n))
                assert list(stable_partitions(n, chosen)) == [pi for pi in everything if stable(pi, edges)]
                counts = [0] * (n + 1)
                for pi in everything:
                    if descending_paths(pi, edges):
                        counts[len(pi)] += 1
                assert descending_path_partitions(SimpleGraph.from_pairs(n, chosen)) == counts
                checked += 1
    assert checked == 1100


def test_descending_path_partitions():
    for k in range(1, 6):
        complete = SimpleGraph.from_pairs(k, [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)])
        p = descending_path_partitions(complete)
        for r in range(1, k + 1):
            assert p[r] == stirling2(k, r)
        assert sum(p) == bell_number(k)
    edgeless = SimpleGraph.from_pairs(4, [])
    p = descending_path_partitions(edgeless)
    assert p[4] == 1 and sum(p) == 1
    single = SimpleGraph.from_pairs(3, [(1, 2)])
    assert descending_path_partitions(single) == [0, 0, 1, 1]


def test_overlap_graph():
    g, intervals = overlap_graph(((1, 3), (2, 5), (4, 6)))
    assert intervals == ((1, 3), (2, 5), (4, 6))
    assert g.edges == frozenset({(1, 2), (2, 3)})
    singles, _ = overlap_graph(((1,), (2,), (3,)))
    assert singles.edges == frozenset()
    nested, _ = overlap_graph(((1, 4), (2, 3)))
    assert nested.edges == frozenset({(1, 2)})


def test_lower_degrees():
    assert lower_degrees(((1, 3), (2, 5), (4, 6))) == (0, 1, 1)
    assert lower_degrees(((1,), (2,), (3,), (4,))) == (0, 0, 0, 0)
    assert lower_degrees(((1, 4), (2, 3))) == (0, 1)


def test_lower_degrees_read_off_the_overlap_graph():
    # the direct span count against the earlier neighbours in overlap_graph,
    # also on blocks given out of order and unsorted
    for n in range(8):
        for pi in set_partitions(n):
            g, _ = overlap_graph(pi)
            degrees = tuple(sum(1 for j in range(1, i) if g.has_edge(j, i)) for i in range(1, g.n + 1))
            assert lower_degrees(pi) == degrees
            assert lower_degrees(tuple(tuple(reversed(b)) for b in reversed(pi))) == degrees


def test_ascents():
    assert ascents((0, 1, 1)) == frozenset({1})
    assert ascents((0, 0, 0)) == frozenset()
    assert ascents((0, 1, 2, 0)) == frozenset({1, 2})


def test_vertex_order_lds():
    assert is_vertex_order_lds((0, 1, 1), 6)
    assert not is_vertex_order_lds((0, 2), 99)
    assert not is_vertex_order_lds((0, 1), 2)
    # exhaustive: no partition of [2] has lower degrees (0, 1)
    assert all(lower_degrees(pi) != (0, 1) for pi in set_partitions(2))


def test_increasing_lds():
    assert is_increasing_lds((0, 1, 1), 4)
    assert not is_increasing_lds((0, 1, 2), 4)
    assert all(sorted(lower_degrees(pi)) != [0, 1, 2] for pi in set_partitions(4))
    for k in range(1, 6):
        assert is_increasing_lds((0,) * k, k)


def test_realize_lds_examples():
    assert realize_lds((0, 1, 1)) == ((1, 4), (2,), (3,))
    assert lower_degrees(((1, 4), (2,), (3,))) == (0, 1, 1)
    assert realize_lds((0,)) == ((1,),)
    assert realize_lds((0, 0)) == ((1,), (2,))
    with pytest.raises(InvalidSequence):
        realize_lds((0, 2))
    with pytest.raises(InvalidSequence):
        realize_lds((1,))


def all_shape_sequences(max_k: int):
    """Every d with d_1 = 0 and unit jumps, lengths 1..max_k."""
    def extend(prefix: list[int]):
        yield tuple(prefix)
        if len(prefix) < max_k:
            for nxt in range(prefix[-1] + 2):
                prefix.append(nxt)
                yield from extend(prefix)
                prefix.pop()

    yield from extend([0])


def test_realize_round_trip_small():
    for d in all_shape_sequences(4):
        pi = realize_lds(d)
        n_d = len(d) + len(ascents(d))
        assert is_partition_of(pi, n_d)
        assert lower_degrees(pi) == d


def test_lds_necessity_small():
    for n in range(6):
        for pi in set_partitions(n):
            d = lower_degrees(pi)
            assert is_vertex_order_lds(d, n)
            assert is_increasing_lds(tuple(sorted(d)), n)


def test_normalize_partition():
    assert normalize_partition([(2, 5), (3, 1), (4,)]) == ((1, 3), (2, 5), (4,))


def test_simple_graph_value_semantics():
    edges = frozenset({(1, 2)})
    g = SimpleGraph(2, edges)
    assert g == SimpleGraph(n=2, edges=edges) == SimpleGraph.from_pairs(2, [(2, 1)])
    assert (g.n, g.edges) == (2, edges)
    assert hash(g) == hash(SimpleGraph(2, frozenset({(1, 2)}))) == hash((2, edges))
    assert g != SimpleGraph(2, frozenset())
    assert repr(g) == "SimpleGraph(n=2, edges=frozenset({(1, 2)}))"
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(AttributeError):
        g.edges = frozenset()
