"""Integral gain graphs and their structural operations.

A gain graph is a multigraph whose oriented edges carry integer gains;
reversing an edge negates its gain, so one stored triple represents both
orientations.  Canonical storage keeps every link as (tail, head, gain)
with tail < head and every loop with the lesser gain of its two
orientations (the nonnegative one, or the lesser residue mod m), and the
edge list sorted, so graphs built from any orientations of the same edges
compare equal.

Vertices are labelled 1..n (n = 0 is legal: the empty graph is the
multiplicative identity for every chromatic function here).  Graphs are
immutable; every operation returns a new graph.  Edge subsets are passed
around as collections of indices into ``edges`` so that parallel copies
stay distinguishable.

A switching function is a vertex potential, so balance, components,
balanced contraction, the subset expansion in chromatic.py and the flat
closure in combinatorics.py all read one structure: ``_GainDSU``, a
union-find that keeps each vertex's potential relative to its root.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import permutations

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


class _GainDSU:
    """Union-find over vertices 1..n with gain potentials.

    find(v) gives v's root and its potential relative to that root; every
    consistent added edge (tail, head, gain) keeps pot(head) - pot(tail) ==
    gain, modulo ``modulus`` when one is given.  The counters n_comp and
    n_unbal (components containing a circle of nonzero gain) are what
    balance tests and the expansion exponents read.
    """

    __slots__ = ("parent", "rank", "offset", "unbal", "mod", "n_comp", "n_unbal")

    def __init__(self, n: int, modulus: int | None = None):
        self.parent = list(range(n + 1))
        self.rank = [0] * (n + 1)
        self.offset = [0] * (n + 1)  # potential relative to parent
        self.unbal = [False] * (n + 1)  # meaningful at roots
        self.mod = modulus
        self.n_comp = n
        self.n_unbal = 0

    def find(self, v: int) -> tuple[int, int]:
        pot = 0
        while self.parent[v] != v:
            pot += self.offset[v]
            v = self.parent[v]
        if self.mod is not None:
            pot %= self.mod
        return v, pot

    def add_edge(self, t: int, h: int, gain: int) -> None:
        rt, pt = self.find(t)
        rh, ph = self.find(h)
        if self.rank[rt] < self.rank[rh]:
            # Union by rank: read the edge backwards so that rt ranks higher.
            rt, pt, rh, ph, gain = rh, ph, rt, pt, -gain
        delta = gain + pt - ph  # rh's potential relative to rt, or a circle's gain
        if self.mod is not None:
            delta %= self.mod
        if rt == rh:
            if delta and not self.unbal[rt]:
                self.unbal[rt] = True
                self.n_unbal += 1
            return
        if self.rank[rt] == self.rank[rh]:
            self.rank[rt] += 1
        self.parent[rh] = rt
        self.offset[rh] = delta
        if self.unbal[rh]:
            if self.unbal[rt]:
                self.n_unbal -= 1
            self.unbal[rt] = True
        self.n_comp -= 1

    def components(self) -> list[list[int]]:
        """Vertex sets of the components, each sorted, ordered by least vertex."""
        blocks: dict[int, list[int]] = {}
        for v in range(1, len(self.parent)):
            blocks.setdefault(self.find(v)[0], []).append(v)
        return list(blocks.values())


class IntegralGainGraph:
    """Multigraph on vertices 1..n with an integer gain per oriented edge."""

    __slots__ = ("n", "edges", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]] = (),
        labels: Sequence[frozenset[int]] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(
            sorted(_canonical_edge(n, t, h, g) for t, h, g in edges)
        )
        if labels is not None:
            labels = tuple(frozenset(b) for b in labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.labels: tuple[frozenset[int], ...] | None = labels

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

    def effective_labels(self) -> tuple[frozenset[int], ...]:
        """Per-vertex provenance sets; each vertex names itself when unset."""
        if self.labels is not None:
            return self.labels
        return tuple(frozenset({v}) for v in range(1, self.n + 1))

    # -- basic queries --------------------------------------------------------

    def neutral_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, _, g) in enumerate(self.edges) if g == 0)

    def has_neutral_loop(self) -> bool:
        return any(t == h and g == 0 for t, h, g in self.edges)

    def underlying_pairs(self, indices: Iterable[int] | None = None) -> list[tuple[int, int]]:
        """Endpoint pairs (gains dropped), loops included."""
        idx = range(len(self.edges)) if indices is None else indices
        return [(self.edges[i][0], self.edges[i][1]) for i in idx]

    # -- component / balance machinery ---------------------------------------
    # Each query builds one _GainDSU over the selected edges; contraction
    # below takes its blocks and potentials from the same structure.

    def _dsu(self, indices: Iterable[int] | None) -> _GainDSU:
        """The potential union-find of (V, selected edges)."""
        dsu = _GainDSU(self.n)
        for i in range(len(self.edges)) if indices is None else indices:
            dsu.add_edge(*self.edges[i])
        return dsu

    def is_balanced(self, indices: Iterable[int] | None = None) -> bool:
        """True iff every circle inside the selected edges has total gain 0."""
        return not self._dsu(indices).n_unbal

    def components_stats(self, indices: Iterable[int] | None = None) -> tuple[int, int]:
        """(component count, balanced component count) of the spanning subgraph."""
        dsu = self._dsu(indices)
        return dsu.n_comp, dsu.n_comp - dsu.n_unbal

    def max_circle_gain(self) -> int | None:
        """Largest |gain| over all circles (loops, digons, longer cycles); None if acyclic."""
        best: int | None = None

        def consider(value: int) -> None:
            nonlocal best
            if best is None or value > best:
                best = value

        adjacency: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, self.n + 1)}
        for i, (t, h, g) in enumerate(self.edges):
            if t == h:
                consider(abs(g))
            else:
                adjacency[t].append((h, g, i))
                adjacency[h].append((t, -g, i))

        on_path = [False] * (self.n + 1)

        def extend(start: int, v: int, gain: int, used: set[int], depth: int) -> None:
            for w, gw, ei in adjacency[v]:
                if ei in used:
                    continue
                if w == start and depth >= 1:
                    consider(abs(gain + gw))
                elif w > start and not on_path[w]:
                    on_path[w] = True
                    used.add(ei)
                    extend(start, w, gain + gw, used, depth + 1)
                    used.discard(ei)
                    on_path[w] = False

        for start in range(1, self.n + 1):
            extend(start, start, 0, set(), 0)
        return best

    # -- rewriting operations --------------------------------------------------

    def switch(self, eta: Mapping[int, int] | Sequence[int]) -> "IntegralGainGraph":
        """Re-gain every edge by -eta(tail) + gain + eta(head)."""
        if isinstance(eta, Mapping):
            values = [0] * (self.n + 1)
            for v in range(1, self.n + 1):
                if v not in eta:
                    raise ValueError(f"switching function undefined on vertex {v}")
                values[v] = eta[v]
        else:
            if len(eta) != self.n:
                raise ValueError("switching sequence must list a value per vertex")
            values = [0, *eta]
        return IntegralGainGraph(
            self.n,
            [(t, h, -values[t] + g + values[h]) for t, h, g in self.edges],
            self.labels,
        )

    def delete_edges(self, indices: Iterable[int]) -> "IntegralGainGraph":
        drop = set(indices)
        keep = [e for i, e in enumerate(self.edges) if i not in drop]
        return IntegralGainGraph(self.n, keep, self.labels)

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
        old_labels = self.effective_labels()
        labels = tuple(
            frozenset().union(*(old_labels[v - 1] for v in members)) for members in blocks
        )
        new_edges = [
            (vmap[t], vmap[h], g) for i, (t, h, g) in enumerate(self.edges) if i not in drop
        ]
        return IntegralGainGraph(len(blocks), new_edges, labels)

    def contract_neutral_set(self, indices: Iterable[int]) -> "IntegralGainGraph":
        """Identify the components of a gain-0 edge set and remove those edges.

        The contracted vertices are ordered (and named, via labels) by least
        original vertex.
        """
        drop = frozenset(indices)
        for i in drop:
            if self.edges[i][2] != 0:
                raise NonNeutralEdgeInSet(f"edge {self.edges[i]} has nonzero gain")
        return self._contract_blocks(self._dsu(drop).components(), drop)

    def contract_balanced_set(
        self,
        indices: Iterable[int],
        root_pick: Callable[[list[int]], int] | None = None,
    ) -> "IntegralGainGraph":
        """Contract a balanced edge set by first switching it neutral.

        The switching function used is the one vanishing at the minimum
        potential of each component and nonnegative elsewhere, which makes
        the result independent of ``root_pick`` (the vertex of each component
        whose potential is set to 0; exposed so tests can exercise that
        independence).
        """
        sel = frozenset(indices)
        dsu = self._dsu(sel)
        comps = dsu.components()
        pot = [dsu.find(v)[1] for v in range(self.n + 1)]
        if root_pick is not None:
            for members in comps:
                root = root_pick(members)
                if root not in members:
                    raise ValueError("root_pick must choose a vertex of the component")
                base = pot[root]
                for v in members:
                    pot[v] -= base
        if dsu.n_unbal:
            raise UnbalancedSet("edge set contains a circle with nonzero gain")
        eta = [0] * (self.n + 1)
        for members in comps:
            low = min(-pot[v] for v in members)
            for v in members:
                eta[v] = -pot[v] - low
        # Switching keeps the components, so the blocks above still hold.
        return self.switch(eta[1:])._contract_blocks(comps, sel)

    def contract_partition(self, blocks: Iterable[Iterable[int]]) -> "IntegralGainGraph":
        """Identify each block to one vertex, keeping every edge and its gain."""
        blocks = [sorted(set(b)) for b in blocks]
        flat = sorted(v for b in blocks for v in b)
        if flat != list(range(1, self.n + 1)):
            raise ValueError("blocks must partition the vertex set")
        return self._contract_blocks(blocks, frozenset())

    def simplify(self) -> "IntegralGainGraph":
        """Keep one edge per parallel class with equal gain; loops are kept."""
        return IntegralGainGraph(self.n, sorted(set(self.edges)), self.labels)

    def add_neutral_complete(self) -> "IntegralGainGraph":
        """Add a gain-0 link on every vertex pair that lacks one."""
        present = {(t, h) for t, h, g in self.edges if g == 0 and t != h}
        extra = [
            (i, j, 0)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if (i, j) not in present
        ]
        return IntegralGainGraph(self.n, list(self.edges) + extra, self.labels)

    def without_nonneutral_loops(self) -> "IntegralGainGraph":
        keep = [e for e in self.edges if not (e[0] == e[1] and e[2] != 0)]
        return IntegralGainGraph(self.n, keep, self.labels)

    # -- graph building helpers -------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "IntegralGainGraph":
        """Subgraph induced by a vertex subset, relabelled 1..|W| in order."""
        verts = sorted(set(vertices))
        vmap = {v: i for i, v in enumerate(verts, start=1)}
        old_labels = self.effective_labels()
        edges = [(vmap[t], vmap[h], g) for t, h, g in self.edges if t in vmap and h in vmap]
        labels = tuple(old_labels[v - 1] for v in verts)
        return IntegralGainGraph(len(verts), edges, labels)

    def disjoint_union(self, other: "IntegralGainGraph") -> "IntegralGainGraph":
        shift = self.n
        edges = list(self.edges) + [(t + shift, h + shift, g) for t, h, g in other.edges]
        labels = None
        if self.labels is not None or other.labels is not None:
            labels = self.effective_labels() + other.effective_labels()
        return IntegralGainGraph(self.n + other.n, edges, labels)

    def relabel(self, perm: Mapping[int, int]) -> "IntegralGainGraph":
        """Apply a vertex permutation (labels are reset)."""
        if sorted(perm) != list(range(1, self.n + 1)) or sorted(perm.values()) != list(
            range(1, self.n + 1)
        ):
            raise ValueError("perm must permute 1..n")
        return IntegralGainGraph(self.n, [(perm[t], perm[h], g) for t, h, g in self.edges])

    def canonical_iso_key(self) -> tuple:
        """Least relabelled edge tuple over all vertex permutations (small n only)."""
        if self.n > 8:
            raise ValueError("isomorphism canonicalization is exponential; n > 8 refused")
        best = None
        for images in permutations(range(1, self.n + 1)):
            perm = {v: images[v - 1] for v in range(1, self.n + 1)}
            relabelled = tuple(
                sorted(_canonical_edge(self.n, perm[t], perm[h], g) for t, h, g in self.edges)
            )
            if best is None or relabelled < best:
                best = relabelled
        return (self.n, best)

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
