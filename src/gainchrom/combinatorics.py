"""Set partitions, Stirling numbers, flats, and overlap-degree machinery.

Partitions of [n] are tuples of tuples: blocks sorted internally, blocks
ordered by least element.  Enumeration follows restricted-growth order, so
iteration is deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import combinations
from math import comb, factorial, prod

from .gaingraph import _canonical_edge, _edge_indices, _potentials

SetPartition = tuple[tuple[int, ...], ...]


class InvalidSequence(ValueError):
    """Raised when a degree sequence fails the realizability shape conditions."""


def _partitions(n: int, fits: Callable[[list[int], int], bool]) -> Iterator[SetPartition]:
    """Partitions of [n] in restricted-growth order, where element i joins an
    earlier block only if ``fits(block, i)`` and may always open a new one.
    home[i] is the block index that i takes next; one past the last is new."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    blocks: list[list[int]] = []
    home = [0] * (n + 2)
    i = 1
    while i:
        if i > n:
            yield tuple(map(tuple, blocks))
        else:
            b = home[i]
            while b < len(blocks) and not fits(blocks[b], i):
                b += 1
            if b <= len(blocks):
                if b == len(blocks):
                    blocks.append([])
                blocks[b].append(i)
                home[i], home[i + 1] = b + 1, 0
                i += 1
                continue
        i -= 1  # every choice for i is spent: take back i - 1
        if i:
            block = blocks[home[i] - 1]
            block.pop()
            if not block:
                blocks.pop()


def set_partitions(n: int) -> Iterator[SetPartition]:
    """All partitions of [n], blocks ordered by least element; Bell(n) of them."""
    yield from _partitions(n, lambda block, i: True)


def normalize_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    out = sorted((tuple(sorted(set(b))) for b in blocks), key=lambda b: b[0])
    return tuple(out)


def _valid_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """normalize_partition(blocks), once the blocks are nonempty, disjoint and cover 1..n."""
    blocks = [tuple(b) for b in blocks]
    flat = sorted(v for b in blocks for v in b)
    if not all(blocks) or flat != list(range(1, len(flat) + 1)):
        raise ValueError(f"blocks {blocks} do not partition 1..n")
    return normalize_partition(blocks)


def bell_number(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(stirling2(n, k) for k in range(n + 1))


def stirling2(n: int, k: int) -> int:
    """Partitions of [n] into k blocks: the surjections onto k labelled
    blocks, counted by inclusion-exclusion, over k!."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def cycle_count(n: int, k: int) -> int:
    """Permutations of [n] with k cycles (unsigned Stirling numbers of the
    first kind): the coefficient of q^k in q(q + 1)...(q + n - 1).

    The product is expanded one factor at a time and cut at q^k, since no
    higher power feeds q^k, so it costs O(n * k) coefficient updates."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    row = [1] + [0] * k  # row[j] is the coefficient of q^j
    for i in range(n):
        # times (q + i): q^j takes the old q^(j-1) plus i times the old q^j
        row = [i * row[0]] + [lower + i * same for lower, same in zip(row, row[1:])]
    return row[k]


def stirling1_signed(n: int, k: int) -> int:
    return (-1) ** (n - k) * cycle_count(n, k)


def partition_mobius(pi: SetPartition) -> int:
    """Mobius value of pi over the all-singletons partition: prod (-1)^(|B|-1) (|B|-1)!."""
    return prod((-1) ** (len(block) - 1) * factorial(len(block) - 1) for block in pi)


# -- closed edge sets (flats) of an ordinary multigraph ------------------------


def _check_edges(n: int, pairs: list[tuple[int, int]], indices: Iterable[int]) -> tuple[int, ...]:
    """``indices`` in order; ValueError unless each is in range(len(pairs)) and every pair lies in 1..n."""
    for a, b in pairs:
        _canonical_edge(n, a, b, 0)
    return _edge_indices(len(pairs), indices)


def _closure(n: int, pairs: list[tuple[int, int]], subset: Iterable[int]) -> frozenset[int]:
    root = _potentials(n, [(*pairs[i], 0) for i in subset])[0]
    return frozenset(i for i, (a, b) in enumerate(pairs) if root[a] == root[b])


def closure(n: int, pairs: list[tuple[int, int]], subset: Iterable[int]) -> frozenset[int]:
    """Indices of every edge whose endpoints the subset connects (loops always qualify)."""
    return _closure(n, pairs, _check_edges(n, pairs, subset))


def _flat_weights(
    n: int, pairs: list[tuple[int, int]], within: Iterable[int] | None = None
) -> dict[frozenset[int], int]:
    """sum of (-1)^|S| over the subsets S of ``within`` (every edge by
    default), keyed by closure(S): one closure per subset.  By default every
    flat is a key, since it closes to itself."""
    members = _check_edges(n, pairs, range(len(pairs)) if within is None else sorted(within))
    weights: dict[frozenset[int], int] = {}
    for size in range(len(members) + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(members, size):
            flat = _closure(n, pairs, subset)
            weights[flat] = weights.get(flat, 0) + sign
    return weights


def closed_edge_sets(n: int, pairs: list[tuple[int, int]]) -> list[frozenset[int]]:
    """All closure-fixed edge subsets, smallest first, then lexicographically."""
    return sorted(_flat_weights(n, pairs), key=lambda flat: (len(flat), sorted(flat)))


def flat_mobius(n: int, pairs: list[tuple[int, int]], flat: frozenset[int]) -> int:
    """sum of (-1)^|S| over subsets S with closure(S) == flat.

    Equals the Mobius value from the empty set in the lattice of flats, and
    is identically 0 whenever the empty set is not closed (loops present).
    """
    return _flat_weights(n, pairs, flat).get(flat, 0)


# -- simple graphs -------------------------------------------------------------


class SimpleGraph(namedtuple("SimpleGraph", "n edges")):
    """Loopless graph on vertices 1..n; edges is a frozenset of unordered
    edges (i, j), i < j."""

    __slots__ = ()

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        norm = set()
        for a, b in pairs:
            if a == b:
                raise ValueError("simple graphs have no loops")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            norm.add((min(a, b), max(a, b)))
        return cls(n, frozenset(norm))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def complement(self) -> "SimpleGraph":
        comp = {
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if (i, j) not in self.edges
        }
        return SimpleGraph(self.n, frozenset(comp))


def stable_partitions(n: int, pairs: Iterable[tuple[int, int]]) -> Iterator[SetPartition]:
    """Partitions of [n] whose blocks induce none of the given edges.

    Accepts multigraph pairs; a loop makes every block containing its vertex
    unstable, so a loopy graph has no stable partitions.
    """
    below: dict[int, set[int]] = {}  # the lesser ends of the pairs at each vertex
    for a, b in pairs:
        if a == b:
            return
        below.setdefault(max(a, b), set()).add(min(a, b))
    yield from _partitions(n, lambda block, i: i not in below or below[i].isdisjoint(block))


# -- descending paths and overlap graphs ---------------------------------------


def descending_path_partitions(g: SimpleGraph) -> list[int]:
    """p[r] = partitions of [n] into r blocks, each a descending path of g.

    A block qualifies iff its elements in decreasing order form a path; a
    singleton always qualifies.  Index 0 is used only for n = 0.
    """
    counts = [0] * (g.n + 1)
    for pi in _partitions(g.n, lambda block, i: g.has_edge(i, block[-1])):
        counts[len(pi)] += 1
    return counts


def overlap_graph(pi: SetPartition) -> tuple[SimpleGraph, tuple[tuple[int, int], ...]]:
    """Interval graph of the block spans [min B_i, max B_i], blocks by least element."""
    pi = normalize_partition(pi)
    intervals = tuple((b[0], b[-1]) for b in pi)
    k = len(pi)
    edges = {
        (i, j)
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        if intervals[j - 1][0] <= intervals[i - 1][1] and intervals[i - 1][0] <= intervals[j - 1][1]
    }
    return SimpleGraph(k, frozenset(edges)), intervals


def lower_degrees(pi: SetPartition) -> tuple[int, ...]:
    """d_i = number of earlier blocks whose span overlaps block i's span.

    Blocks are ordered by least element, so an earlier span overlaps span i
    exactly when it reaches past i's least element."""
    spans = [(b[0], b[-1]) for b in normalize_partition(pi)]
    return tuple(sum(1 for _, hi in spans[:i] if hi >= lo) for i, (lo, _) in enumerate(spans))


def ascents(d: tuple[int, ...]) -> frozenset[int]:
    """Positions i (1-based) with d_{i+1} > d_i."""
    return frozenset(i + 1 for i in range(len(d) - 1) if d[i + 1] > d[i])


def _shape_ok(d: tuple[int, ...]) -> bool:
    if not d:
        return True
    if d[0] != 0 or any(x < 0 for x in d):
        return False
    return all(d[i + 1] <= d[i] + 1 for i in range(len(d) - 1))


def is_vertex_order_lds(d: tuple[int, ...], n: int) -> bool:
    """Whether d arises as the lower degree sequence, in block order, of some
    partition of [n]."""
    return _shape_ok(d) and n >= len(d) + len(ascents(d))


def is_increasing_lds(d: tuple[int, ...], n: int) -> bool:
    """Whether the nondecreasing sequence d arises as a sorted lower degree
    sequence of some partition of [n]."""
    if any(d[i + 1] < d[i] for i in range(len(d) - 1)):
        return False
    return _shape_ok(d) and n >= len(d) + (d[-1] if d else 0)


def realize_lds(d: tuple[int, ...]) -> SetPartition:
    """A partition of [k + #ascents] whose vertex-order lower degrees equal d.

    Blocks are the two-point sets {a_i, b_i} with
      m_i = min{j >= i : d_{j+1} <= d_i}   (d_{k+1} = 0)
      t_i = #ascents at positions <= i
      a_i = i + t_{i-1} - d_i,  b_i = m_i + t_{m_i} - d_i.
    """
    if not _shape_ok(d):
        raise InvalidSequence(f"{d} is not a realizable lower degree sequence")
    k = len(d)
    if k == 0:
        return ()
    asc = ascents(d)
    t = [0] * (k + 1)
    for i in range(1, k + 1):
        t[i] = t[i - 1] + (1 if i in asc else 0)
    dd = list(d) + [0]  # dd[i] = d_{i+1}; trailing 0 is d_{k+1}

    blocks = []
    for i in range(1, k + 1):
        mi = i
        while dd[mi] > dd[i - 1]:  # compare d_{mi+1} with d_i
            mi += 1
        a = i + t[i - 1] - d[i - 1]
        b = mi + t[mi] - d[i - 1]
        blocks.append({a, b})
    return normalize_partition(blocks)
