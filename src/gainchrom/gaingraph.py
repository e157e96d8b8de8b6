"""Integral gain graphs and their structural operations.

A gain graph is a multigraph whose oriented edges carry integer gains;
reversing an edge negates its gain, so one stored triple represents both
orientations.  Canonical storage keeps every link as (tail, head, gain)
with tail < head and every loop with the lesser gain of its two
orientations (the nonnegative one, or the lesser residue mod m), and the
edge list sorted, so graphs built from any orientations of the same edges
compare equal.

The public constructor canonicalises and sorts what it is given.  The
operations whose output is canonical and sorted by construction skip that
pass (``IntegralGainGraph._of``): ``switch`` moves every link of one
(tail, head) class by the same amount and leaves loops alone, ``induced``
relabels monotonically, ``delete_edges`` and ``without_nonneutral_loops``
keep a sorted subsequence, and ``disjoint_union`` places the other graph's
edges past this one's vertices.  Contractions, ``simplify`` and
``add_neutral_complete`` still go through the constructor.

Vertices are labelled 1..n (n = 0 is legal: the empty graph is the
multiplicative identity for every chromatic function here).  Graphs are
immutable; every operation returns a new graph.  Edge subsets are passed
around as collections of indices into ``edges`` so that parallel copies
stay distinguishable.

A switching function is a vertex potential, so balance, components,
balanced contraction and the flat closure in combinatorics.py all read one
function: ``_potentials``, a one-pass union-find that gives each vertex's
root and its potential relative to that root, and the roots of the
unbalanced components.  A union re-roots the smaller component, so each
vertex moves O(log n) times.  The subset expansion in chromatic.py
normalises its states with the same union by size, written out in
``_state``, which runs once per distinct child of every state and would
pay for the call (its docstring gives the cost).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

Edge = tuple[int, int, int]


class NonNeutralEdgeInSet(ValueError):
    """Raised when a gain-0-only contraction receives an edge with gain != 0."""


class UnbalancedSet(ValueError):
    """Raised when a balanced-set contraction receives an unbalanced edge set."""


def strict_int(value: object) -> int:
    """``value`` if it is an int, not a bool or a float; ValueError otherwise."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _canonical_edge(n: int, tail: int, head: int, gain: int, modulus: int | None = None) -> Edge:
    """The stored form of an edge: tail < head, or a loop with the least gain
    of its two orientations; gains reduced into [0, modulus) when given."""
    if not (1 <= tail <= n and 1 <= head <= n):
        raise ValueError(f"edge ({tail},{head},{gain}) out of range for n={n}")
    if tail == head:
        return (tail, head, abs(gain) if modulus is None else min(gain % modulus, -gain % modulus))
    if tail > head:
        tail, head, gain = head, tail, -gain
    return (tail, head, gain if modulus is None else gain % modulus)


def _edge_indices(count: int, indices: Iterable[int]) -> tuple[int, ...]:
    """``indices`` in order; ValueError unless each is in range(count)."""
    idx = tuple(indices)
    if idx and (min(idx) < 0 or max(idx) >= count):
        raise ValueError(f"edge indices must lie in range({count})")
    return idx


def _potentials(n: int, edges: Iterable[Edge]) -> tuple[list[int], list[int], set[int]]:
    """(root, pot, unbalanced) of the union-find of (1..n, edges), in one
    pass over the edges in the order given.

    Every vertex gets its component's root and its potential relative to
    that root, so every edge that joined two components keeps pot[head] -
    pot[tail] == gain.  A joining edge moves the members of the smaller
    component, kept in a ring, under the larger one's root and re-bases
    their potentials.  An edge inside a component that closes a circle of
    nonzero gain adds the component's root to ``unbalanced``.
    """
    root = list(range(n + 1))
    pot = [0] * (n + 1)
    ring = list(range(n + 1))  # the members of a component, in a ring
    size = [1] * (n + 1)  # meaningful at roots
    unbalanced: set[int] = set()
    for t, h, gain in edges:
        rt, rh = root[t], root[h]
        delta = gain + pot[t] - pot[h]  # rh's potential relative to rt, or a circle's gain
        if rt == rh:
            if delta:
                unbalanced.add(rt)
            continue
        if size[rh] > size[rt]:
            # Union by size: read the edge backwards so that rh's side is the smaller.
            rt, rh, delta = rh, rt, -delta
        size[rt] += size[rh]
        v = rh
        while True:
            root[v] = rt
            pot[v] += delta
            v = ring[v]
            if v == rh:
                break
        ring[rt], ring[rh] = ring[rh], ring[rt]  # splice the two rings into one
        if rh in unbalanced:
            unbalanced.remove(rh)
            unbalanced.add(rt)
    return root, pot, unbalanced


def _blocks(root: list[int]) -> list[list[int]]:
    """The vertex sets of the components of a ``root`` list from
    ``_potentials``, each sorted, ordered by least vertex."""
    blocks: dict[int, list[int]] = {}
    for v in range(1, len(root)):
        blocks.setdefault(root[v], []).append(v)
    return list(blocks.values())


class IntegralGainGraph:
    """Multigraph on vertices 1..n with an integer gain per oriented edge."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(
            sorted(_canonical_edge(n, t, h, g) for t, h, g in edges)
        )

    @classmethod
    def _of(cls, n: int, edges: Iterable[Edge]) -> "IntegralGainGraph":
        """The graph whose stored edges are ``edges``, already canonical and sorted."""
        out = cls.__new__(cls)
        out.n = n
        out.edges = tuple(edges)
        return out

    # -- identity & serialization -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegralGainGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"IntegralGainGraph(n={self.n}, edges={list(self.edges)!r})"

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "IntegralGainGraph":
        if not isinstance(data, Mapping):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        edges = data.get("edges", [])
        return cls(strict_int(data["n"]), [tuple(map(strict_int, e)) for e in edges])

    # -- basic queries --------------------------------------------------------

    def neutral_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, _, g) in enumerate(self.edges) if g == 0)

    def has_neutral_loop(self) -> bool:
        return any(t == h and g == 0 for t, h, g in self.edges)

    def underlying_pairs(self, indices: Iterable[int] | None = None) -> list[tuple[int, int]]:
        """Endpoint pairs (gains dropped), loops included."""
        idx = range(len(self.edges)) if indices is None else _edge_indices(len(self.edges), indices)
        return [(self.edges[i][0], self.edges[i][1]) for i in idx]

    # -- component / balance machinery ---------------------------------------
    # Each query runs _potentials over the selected edges; contraction below
    # takes its blocks and potentials from the same pass.

    def _dsu(self, indices: Iterable[int] | None) -> tuple[list[int], list[int], set[int]]:
        """(root, pot, unbalanced) of (V, selected edges), from ``_potentials``."""
        edges = self.edges
        return _potentials(self.n, edges if indices is None else [edges[i] for i in _edge_indices(len(edges), indices)])

    def is_balanced(self, indices: Iterable[int] | None = None) -> bool:
        """True iff every circle inside the selected edges has total gain 0."""
        return not self._dsu(indices)[2]

    def components_stats(self, indices: Iterable[int] | None = None) -> tuple[int, int]:
        """(component count, balanced component count) of the spanning subgraph."""
        root, _, unbalanced = self._dsu(indices)
        components = len(set(root)) - 1  # vertex 0 is its own root
        return components, components - len(unbalanced)

    def max_circle_gain(self) -> int | None:
        """Largest |gain| over all circles (loops, digons, longer cycles); None if
        acyclic.  Each circle is walked from its least vertex on an explicit stack."""
        best = -1
        adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n + 1)]
        for i, (t, h, g) in enumerate(self.edges):
            adjacency[t].append((h, g, i))
            adjacency[h].append((t, -g, i))
        on_path = [False] * (self.n + 1)
        for start in range(1, self.n + 1):
            # (vertex, gain from start, edge in, edges out); a loop at start closes at once
            stack = [(start, 0, -1, iter(adjacency[start]))]
            while stack:
                v, gain, edge_in, out = stack[-1]
                for w, gw, ei in out:
                    if ei == edge_in:
                        continue
                    if w == start:
                        best = max(best, abs(gain + gw))
                    elif w > start and not on_path[w]:
                        on_path[w] = True
                        stack.append((w, gain + gw, ei, iter(adjacency[w])))
                        break
                else:
                    on_path[v] = False
                    stack.pop()
        return None if best < 0 else best

    # -- rewriting operations --------------------------------------------------

    def switch(self, eta: Mapping[int, int] | Sequence[int]) -> "IntegralGainGraph":
        """Re-gain every edge by -eta(tail) + gain + eta(head)."""
        if isinstance(eta, Mapping):
            values = [0] * (self.n + 1)
            for v in range(1, self.n + 1):
                if v not in eta:
                    raise ValueError(f"switching function undefined on vertex {v}")
                values[v] = eta[v]
            if len(eta) != self.n:
                raise ValueError(f"switching function defined outside 1..{self.n}")
        else:
            if len(eta) != self.n:
                raise ValueError("switching sequence must list a value per vertex")
            values = [0, *eta]
        return IntegralGainGraph._of(self.n, [(t, h, -values[t] + g + values[h]) for t, h, g in self.edges])

    def delete_edges(self, indices: Iterable[int]) -> "IntegralGainGraph":
        drop = set(_edge_indices(len(self.edges), indices))
        keep = [e for i, e in enumerate(self.edges) if i not in drop]
        return IntegralGainGraph._of(self.n, keep)

    def delete_neutral_edges(self) -> "IntegralGainGraph":
        return self.delete_edges(self.neutral_indices())

    def _contract_blocks(
        self, blocks: list[list[int]], drop: frozenset[int]
    ) -> "IntegralGainGraph":
        blocks = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
        vmap = [0] * (self.n + 1)
        for bi, members in enumerate(blocks, start=1):
            for v in members:
                vmap[v] = bi
        new_edges = [
            (vmap[t], vmap[h], g) for i, (t, h, g) in enumerate(self.edges) if i not in drop
        ]
        return IntegralGainGraph(len(blocks), new_edges)

    def contract_neutral_set(self, indices: Iterable[int]) -> "IntegralGainGraph":
        """Identify the components of a gain-0 edge set and remove those edges.

        The contracted vertices are ordered by least original vertex.
        """
        drop = frozenset(indices)
        root = self._dsu(drop)[0]  # checks the indices
        for i in drop:
            if self.edges[i][2] != 0:
                raise NonNeutralEdgeInSet(f"edge {self.edges[i]} has nonzero gain")
        return self._contract_blocks(_blocks(root), drop)

    def contract_balanced_set(self, indices: Iterable[int]) -> "IntegralGainGraph":
        """Contract a balanced edge set by first switching it neutral.

        The switching vanishes at each component's minimum potential and is
        nonnegative elsewhere, so the result does not depend on which vertex
        the union-find made each component's root.
        """
        indices = tuple(indices)  # union order picks the roots; _dsu checks them
        root, pot, unbalanced = self._dsu(indices)
        if unbalanced:
            raise UnbalancedSet("edge set contains a circle with nonzero gain")
        comps = _blocks(root)
        eta = [0] * (self.n + 1)
        for members in comps:
            low = min(-pot[v] for v in members)
            for v in members:
                eta[v] = -pot[v] - low
        # Switching keeps the components, so the blocks above still hold.
        return self.switch(eta[1:])._contract_blocks(comps, frozenset(indices))

    def contract_partition(self, blocks: Iterable[Iterable[int]]) -> "IntegralGainGraph":
        """Identify each block to one vertex, keeping every edge and its gain."""
        blocks = [sorted(set(b)) for b in blocks]
        flat = sorted(v for b in blocks for v in b)
        if flat != list(range(1, self.n + 1)):
            raise ValueError("blocks must partition the vertex set")
        return self._contract_blocks(blocks, frozenset())

    def simplify(self) -> "IntegralGainGraph":
        """Keep one edge per parallel class with equal gain; loops are kept."""
        return IntegralGainGraph(self.n, sorted(set(self.edges)))

    def add_neutral_complete(self) -> "IntegralGainGraph":
        """Add a gain-0 link on every vertex pair that lacks one."""
        present = {(t, h) for t, h, g in self.edges if g == 0 and t != h}
        extra = [
            (i, j, 0)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if (i, j) not in present
        ]
        return IntegralGainGraph(self.n, list(self.edges) + extra)

    def without_nonneutral_loops(self) -> "IntegralGainGraph":
        keep = [e for e in self.edges if not (e[0] == e[1] and e[2] != 0)]
        return IntegralGainGraph._of(self.n, keep)

    # -- graph building helpers -------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "IntegralGainGraph":
        """Subgraph induced by a vertex subset, relabelled 1..|W| in order."""
        verts = sorted(set(vertices))
        if verts and (verts[0] < 1 or verts[-1] > self.n):
            raise ValueError(f"vertices must lie in 1..{self.n}")
        vmap = {v: i for i, v in enumerate(verts, start=1)}
        edges = [(vmap[t], vmap[h], g) for t, h, g in self.edges if t in vmap and h in vmap]
        return IntegralGainGraph._of(len(verts), edges)

    def disjoint_union(self, other: "IntegralGainGraph") -> "IntegralGainGraph":
        shift = self.n
        edges = self.edges + tuple((t + shift, h + shift, g) for t, h, g in other.edges)
        return IntegralGainGraph._of(self.n + other.n, edges)

    def reduce_mod(self, modulus: int) -> "ModularGainGraph":
        return ModularGainGraph(self.n, self.edges, modulus)


class ModularGainGraph:
    """Gain graph with gains in Z_m, stored in the range [0, m), loops at most m / 2."""

    __slots__ = ("n", "modulus", "edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (), modulus: int = 1):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.n = n
        self.modulus = modulus
        self.edges: tuple[Edge, ...] = tuple(
            sorted(_canonical_edge(n, t, h, g, modulus) for t, h, g in edges)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModularGainGraph):
            return NotImplemented
        return (self.n, self.modulus, self.edges) == (other.n, other.modulus, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.modulus, self.edges))

    def __repr__(self) -> str:
        return f"ModularGainGraph(n={self.n}, m={self.modulus}, edges={list(self.edges)!r})"
