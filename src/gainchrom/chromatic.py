"""Coloring oracles and the chromatic polynomials by deletion-contraction.

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

The polynomial functions compute the alternating sum over edge subsets

    sum over S of (-1)^|S| q^(balanced components of S) z^(other components of S)

without walking the subsets.  They delete and contract the links at the
highest vertex, T(G) = T(G - e) - T(G / e), where G / e first switches e
to gain 0.  A contracted circle of nonzero gain becomes a flag on its
vertex (Zaslavsky's unbalanced contraction), and a vertex left without
links contributes q, or q - z when flagged.  Each state is memoised after
switching a spanning forest of it to gain 0 with the potential union-find
of gaingraph.py (``_GainDSU``), in the manner of Haggard, Pearce and Royle
("Computing Tutte polynomials", 2010).  The memo is shared by every call
with the same modulus and loop treatment, so a switching, doubling or minor
of a graph seen before reuses its states; it is cleared wholesale after any
call that leaves it above a fixed state count.  The zero-free variant drops
the nonzero loops, which no balanced subset holds, so its states are fewer.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .gaingraph import IntegralGainGraph, ModularGainGraph, _GainDSU
from .poly import Poly2


class TooManyEdges(RuntimeError):
    """Expansion refused: the graph has more edges than the configured guard."""


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


# -- deletion-contraction ----------------------------------------------------------

# A state is (n, links, flags): vertices 1..n, a set of links (tail, head,
# gain) with tail < head, and flags[v] when v carries a nonzero loop.  A set
# keeps one copy of equal parallel links, whose extra subsets cancel, and one
# flag stands for any number of nonzero loops at a vertex.
Terms = dict[tuple[int, int], int]


def _reduce(gain: int, modulus: int | None) -> int:
    return gain % modulus if modulus is not None else gain


def _link(t: int, h: int, gain: int, modulus: int | None) -> tuple[int, int, int]:
    if t > h:
        t, h, gain = h, t, -gain
    return (t, h, _reduce(gain, modulus))


def _normalized(n: int, links: frozenset, modulus: int | None) -> frozenset:
    """The links switched so that a spanning forest of them has gain 0.

    Switching changes no subset's balance, so equal results follow for
    every switching of a state; links are added in sorted order, so equal
    inputs give equal forests.
    """
    dsu = _GainDSU(n, modulus)
    ordered = sorted(links)
    for t, h, gain in ordered:
        dsu.add_edge(t, h, gain)
    pot = [dsu.find(v)[1] for v in range(n + 1)]
    return frozenset(_link(t, h, gain - pot[h] + pot[t], modulus) for t, h, gain in ordered)


def _times_vertices(terms: Terms, flags: tuple[bool, ...]) -> Terms:
    """terms times q for each unflagged vertex and q - z for each flagged one."""
    unflagged = flags.count(False)
    out = {(dq + unflagged, dz): c for (dq, dz), c in terms.items()}
    for _ in range(len(flags) - unflagged):
        step: Terms = {}
        for (dq, dz), c in out.items():
            step[dq + 1, dz] = step.get((dq + 1, dz), 0) + c
            step[dq, dz + 1] = step.get((dq, dz + 1), 0) - c
        out = {m: c for m, c in step.items() if c}
    return out


def _add_into(acc: Terms, terms: Terms, sign: int) -> None:
    for m, c in terms.items():
        value = acc.get(m, 0) + sign * c
        if value:
            acc[m] = value
        else:
            acc.pop(m, None)


def _contract_top(
    n: int, links: frozenset, flags: tuple[bool, ...], modulus: int | None, loops: bool,
    memo: dict,
) -> Terms:
    """Minus the sum of T((G - e_1 ... e_(i-1)) / e_i) over the links e_i at n.

    Contracting e_i = (t, n, g) switches n by -g and merges it into t, so a
    later link (x, n, g') becomes (x, t, g' - g).  When x == t that is a loop
    whose gain is nonzero, since the link set holds each gain once, so it
    only flags t.
    """
    at_top = sorted((e for e in links if e[1] == n), reverse=True)
    rest = links.difference(at_top)
    acc: Terms = {}
    for i, (t, _, gain) in enumerate(at_top):
        merged = set(rest)
        flag_t = flags[t] or flags[n]
        for x, _, other in at_top[i + 1 :]:
            if x != t:
                merged.add(_link(x, t, other - gain, modulus))
            else:
                flag_t = flag_t or loops
        new_flags = flags[:n]
        if flag_t != flags[t]:
            new_flags = new_flags[:t] + (flag_t,) + new_flags[t + 1 :]
        _add_into(acc, _total(n - 1, frozenset(merged), new_flags, modulus, loops, memo), -1)
    return acc


def _total(
    n: int, links: frozenset, flags: tuple[bool, ...], modulus: int | None, loops: bool,
    memo: dict,
) -> Terms:
    """The signed (balanced, unbalanced) component counts of a state.

    T(G) = T(G - L_n) - sum over i of T((G - e_1 ... e_(i-1)) / e_i) for
    the links e_1 ... e_k at the highest vertex n, and an isolated vertex
    contributes q, or q - z when flagged.  The deletions and isolated
    vertices are walked in a loop, so only a contraction recurses and the
    depth is at most n.  Each normalized state is memoised in ``memo``.
    """
    walked: list = []  # the states to compute, or (None, the flags peeled off)
    while True:
        top = max((h for _, h, _ in links), default=0)
        if top < n:
            walked.append((None, flags[top + 1 : n + 1]))
            n, flags = top, flags[: top + 1]
        if n == 0:
            value: Terms = {(0, 0): 1}
            break
        links = _normalized(n, links, modulus)
        key = (n, links, flags)
        value = memo.get(key)
        if value is not None:
            break
        walked.append(key)
        links = frozenset(e for e in links if e[1] != n)
    # Contract only once the deletions below are memoised, so that a
    # contraction which meets one of them (as along a path) stops there.
    for entry in reversed(walked):
        if entry[0] is None:
            value = _times_vertices(value, entry[1])
        else:
            acc = _contract_top(*entry, modulus, loops, memo)  # entry is (n, links, flags)
            _add_into(acc, value, 1)
            memo[entry] = value = acc
    return value


# One memo per (modulus, loops), shared by every call.  A call that leaves
# more than _MEMO_STATES states in them (each memo counting as one state
# itself) clears them all, so the memos hold at most that many between calls.
# Values are shared between calls and never mutated.
_MEMO_STATES = 4096
_memos: dict[tuple[int | None, bool], dict] = {}


def _expand_subsets(
    g: IntegralGainGraph | ModularGainGraph, max_edges: int, balanced_only: bool
) -> Poly2:
    """Signed counts of (balanced components, unbalanced components) over subsets.

    Computed by memoised deletion-contraction, never by walking the subsets;
    the one edge guard of every polynomial function.  A gain-0 loop makes
    the sum vanish; with ``balanced_only`` the nonzero loops are dropped,
    since no balanced subset holds one.
    """
    if len(g.edges) > max_edges:
        raise TooManyEdges(f"{len(g.edges)} edges exceed the expansion bound {max_edges}")
    modulus = getattr(g, "modulus", None)
    links = set()
    flags = [False] * (g.n + 1)
    for t, h, gain in g.edges:
        if t != h:
            links.add(_link(t, h, gain, modulus))
        elif _reduce(gain, modulus) == 0:
            return Poly2()
        elif not balanced_only:
            flags[t] = True
    loops = not balanced_only
    memo = _memos.setdefault((modulus, loops), {})
    try:
        return Poly2(_total(g.n, frozenset(links), tuple(flags), modulus, loops, memo))
    finally:
        if len(_memos) + sum(map(len, _memos.values())) > _MEMO_STATES:
            _memos.clear()


def total_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = 26) -> Poly2:
    """The bivariate subset-expansion polynomial; q counts balanced components,
    z the unbalanced ones.  Computed by memoised deletion-contraction, whose
    states can still grow exponentially, so guarded by max_edges.  The memo
    is keyed by the switching-normalised state and shared across calls, up
    to a bounded number of states, so switched graphs cost one lookup."""
    return _expand_subsets(g, max_edges, balanced_only=False)


def zero_free_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = 26) -> Poly2:
    """The z = 0 slice of total_poly: the sum over balanced subsets only."""
    return _expand_subsets(g, max_edges, balanced_only=True)


def chromatic_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = 26) -> Poly2:
    """The z = 1 slice of total_poly, univariate in q."""
    return total_poly(g, max_edges).substitute_z(1)


def ordinary_chromatic_poly(n: int, pairs: list[tuple[int, int]]) -> Poly2:
    """Chromatic polynomial of an ordinary multigraph: the total polynomial
    with every gain 0, so loops make it vanish."""
    return total_poly(IntegralGainGraph(n, [(a, b, 0) for a, b in pairs]), max_edges=len(pairs))


def region_count(g: IntegralGainGraph, max_edges: int = 26) -> int:
    """(-1)^n times the zero-free polynomial at q = -1: chambers of the
    arrangement of hyperplanes x_head = x_tail + gain."""
    return (-1) ** g.n * zero_free_poly(g, max_edges).evaluate(-1, 0)
