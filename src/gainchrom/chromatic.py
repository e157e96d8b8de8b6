"""Coloring oracles and the subset-expansion chromatic polynomials.

Every counting function is one backtracking colourer run on a different
colour set.  It colours vertices 1..n in order from the colours 0..q-1
(the enumeration reports them as 1..q).  Each edge carries a table that
maps the tail's colour to the one head colour it forbids, and a loop closes
every colour its table maps to itself.  The integral count uses
c -> c + gain, the modular count c -> c + gain mod q; the multi-zero count
turns each block of m paired colours by the gain mod m and adds null
colours that forbid themselves.  The last vertex is counted, not walked.
These counts are the ground truth every closed form and identity is tested
against.

The polynomial functions evaluate the alternating sum over edge subsets

    sum over S of (-1)^|S| q^(balanced components of S) z^(other components of S)

with the rollback potential union-find of gaingraph.py (``_GainDSU``), so
each subset costs amortized constant work.  The zero-free variant prunes to
balanced subsets only (unbalance is monotone under adding edges), which
keeps large instances feasible.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .gaingraph import IntegralGainGraph, ModularGainGraph, _GainDSU
from .poly import Poly2


class TooManyEdges(RuntimeError):
    """Subset expansion refused: 2^|E| would exceed the configured guard."""


# -- coloring oracles -----------------------------------------------------------

# Tables are memoised only for colour sets up to _MEMO_COLOURS, so the memo
# holds at most _MEMO_TABLES * _MEMO_COLOURS entries however large q gets.
_MEMO_TABLES = 256
_MEMO_COLOURS = 32

Table = tuple[int, ...]


def _build_table(q: int, m: int | None, z: int, gain: int) -> Table:
    """The head colour an edge of this gain forbids, for each tail colour 0..q-1.

    Colours below z are nulls and forbid themselves.  Colour z + c forbids
    z + (c - c % m) + (c + gain) % m: the same block of m colours, turned by
    the gain.  With m = None there is one unbounded block, so c forbids
    c + gain, which may lie outside 0..q-1.
    """
    if m is None:
        return tuple(range(gain, gain + q))
    return tuple(range(z)) + tuple(z + c - c % m + (c + gain) % m for c in range(q - z))


_memo_table = lru_cache(maxsize=_MEMO_TABLES)(_build_table)


def _constraints(
    g: IntegralGainGraph | ModularGainGraph, q: int, m: int | None, z: int
) -> tuple[list, list[list[tuple[int, Table]]]] | None:
    """The colours open to each vertex, and (tail, table) for each link into it.

    A loop closes every colour its table maps to itself.  None as soon as a
    loop leaves its vertex no colour; loops are read first, so that case
    looks up no link tables.  Both graph types store links with tail < head,
    so a table always reads a colour chosen before its head's.
    """
    table = _memo_table if q <= _MEMO_COLOURS else _build_table
    allowed: list = [range(q)] * (g.n + 1)
    for t, h, gain in g.edges:
        if t == h:
            forbid = table(q, m, z, gain)
            allowed[t] = [c for c in allowed[t] if forbid[c] != c]
            if not allowed[t]:
                return None
    into: list[list[tuple[int, Table]]] = [[] for _ in range(g.n + 1)]
    for t, h, gain in g.edges:
        if t != h:
            into[h].append((t, table(q, m, z, gain)))
    return allowed, into


def _last_vertex_bans(
    n: int, allowed: list, into: list[list[tuple[int, Table]]], colour: list[int]
) -> Iterator[set[int]]:
    """The one backtracking search behind every coloring oracle.

    Walks the proper colourings of vertices 1..n-1 in lexicographic order,
    leaves each in ``colour``, and yields the colours its links forbid at
    vertex n, so that callers count or list the last vertex's colours
    without walking them.
    """
    into_last = into[n]
    top = n - 1
    if top == 0:
        yield set()
        return
    # Links run from lower to higher vertices, so none bans a colour at vertex 1.
    bans: list = [set()] * n
    todo: list = [iter(allowed[1])] * n  # the colours each vertex has yet to try
    v = 1
    while v:
        here = bans[v]
        if v == top:
            for c in todo[v]:
                if c not in here:
                    colour[v] = c
                    yield {forbid[colour[t]] for t, forbid in into_last}
            v -= 1
            continue
        for c in todo[v]:
            if c not in here:
                colour[v] = c
                v += 1
                bans[v] = {forbid[colour[t]] for t, forbid in into[v]}
                todo[v] = iter(allowed[v])
                break
        else:
            v -= 1


def _count(g: IntegralGainGraph | ModularGainGraph, q: int, m: int | None, z: int) -> int:
    """Colourings by 0..q-1 under the (m, z) tables."""
    n = g.n
    if n == 0:
        return 1
    cons = _constraints(g, q, m, z)
    if cons is None:
        return 0
    allowed, into = cons
    last = frozenset(allowed[n])
    size = len(last)
    total = 0
    for bans in _last_vertex_bans(n, allowed, into, [0] * (n + 1)):
        total += size - len(last & bans)
    return total


def count_integral_colorings(g: IntegralGainGraph, q: int) -> int:
    """Colorations k: V -> [q] with k(head) != k(tail) + gain on every edge."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return _count(g, q, None, 0)


def enumerate_integral_colorings(g: IntegralGainGraph, q: int) -> Iterator[dict[int, int]]:
    """Proper colorations as {vertex: color} dicts, colors in 1..q."""
    n = g.n
    if n == 0:
        if q >= 0:
            yield {}
        return
    cons = _constraints(g, q, None, 0)
    if cons is None:
        return
    allowed, into = cons
    colour = [0] * (n + 1)
    for bans in _last_vertex_bans(n, allowed, into, colour):
        for c in allowed[n]:
            if c not in bans:
                colour[n] = c
                yield {v: colour[v] + 1 for v in range(1, n + 1)}


def count_modular_colorings(g: IntegralGainGraph, q: int) -> int:
    """Colorations k: V -> Z_q with k(head) != k(tail) + gain (mod q)."""
    if q < 1:
        raise ValueError("q must be positive")
    return _count(g, q, q, 0)


def count_multizero_colorings(g: ModularGainGraph, k: int, z: int) -> int:
    """Proper colorations by (Z_m x [k]) union [z].

    An edge (t, h, gain) excludes equal null colors at both ends, and paired
    colors with equal index whose group parts differ by the gain mod m.  At a
    loop the null clause is violated outright, so any loop bans null colors
    at its vertex, and a gain-0 (mod m) loop bans every color.  Colors are
    encoded 0..z-1 for nulls, then z + index*m + group.
    """
    if k < 0 or z < 0:
        raise ValueError("k and z must be nonnegative")
    return _count(g, k * g.modulus + z, g.modulus, z)


# -- subset expansion ------------------------------------------------------------


def _expand_subsets(
    n: int,
    edges: tuple[tuple[int, int, int], ...],
    modulus: int | None,
    balanced_only: bool,
) -> dict[tuple[int, int], int]:
    """Signed counts of (balanced components, unbalanced components) over subsets."""
    terms: dict[tuple[int, int], int] = {}
    dsu = _GainDSU(n, modulus)
    m = len(edges)

    def rec(i: int, sign: int) -> None:
        if i == m:
            key = (dsu.n_comp - dsu.n_unbal, dsu.n_unbal)
            value = terms.get(key, 0) + sign
            if value:
                terms[key] = value
            else:
                terms.pop(key, None)
            return
        rec(i + 1, sign)
        mk = len(dsu.journal)
        dsu.add_edge(*edges[i])
        if not (balanced_only and dsu.n_unbal):
            rec(i + 1, -sign)
        dsu.rollback(mk)

    rec(0, 1)
    return terms


def _modulus_of(g: IntegralGainGraph | ModularGainGraph) -> int | None:
    return getattr(g, "modulus", None)


def total_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = 26) -> Poly2:
    """The bivariate subset-expansion polynomial; q counts balanced components,
    z the unbalanced ones.  Guarded by max_edges since the sum has 2^|E| terms."""
    if len(g.edges) > max_edges:
        raise TooManyEdges(f"{len(g.edges)} edges exceed the expansion bound {max_edges}")
    terms = _expand_subsets(g.n, g.edges, _modulus_of(g), balanced_only=False)
    return Poly2(terms)


def zero_free_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = 26) -> Poly2:
    """The z = 0 slice of total_poly, summed over balanced subsets only."""
    if len(g.edges) > max_edges:
        raise TooManyEdges(f"{len(g.edges)} edges exceed the expansion bound {max_edges}")
    terms = _expand_subsets(g.n, g.edges, _modulus_of(g), balanced_only=True)
    return Poly2(terms)


def chromatic_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = 26) -> Poly2:
    """The z = 1 slice of total_poly, univariate in q."""
    return total_poly(g, max_edges).substitute_z(1)


def ordinary_chromatic_poly(n: int, pairs: list[tuple[int, int]]) -> Poly2:
    """Chromatic polynomial of an ordinary multigraph via the subset expansion.

    Loops make the polynomial vanish (their subset pairs cancel exactly).
    """
    edges = tuple((a, b, 0) for a, b in pairs)
    terms = _expand_subsets(n, edges, None, balanced_only=False)
    return Poly2(terms)


def region_count(g: IntegralGainGraph, max_edges: int = 26) -> int:
    """(-1)^n times the zero-free polynomial at q = -1: chambers of the
    arrangement of hyperplanes x_head = x_tail + gain."""
    return (-1) ** g.n * zero_free_poly(g, max_edges).evaluate(-1, 0)
