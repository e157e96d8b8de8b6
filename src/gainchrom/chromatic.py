"""Coloring oracles and the chromatic polynomials by deletion-contraction.

Every counting function is one backtracking colourer run on a different
colour set.  It colours vertices 1..n in order from the colours 0..q-1
(the enumeration reports them as 1..q).  Each edge carries a table that
maps the tail's colour to the one head colour it forbids, and a loop closes
every colour its table maps to itself.  The integral count uses
c -> c + gain, the modular count c -> c + gain mod q; the multi-zero count
turns each block of m paired colours by the gain mod m and adds null
colours that forbid themselves.  The last vertex is counted, not walked.
These counts are the ground truth every closed form, identity and engine
is tested and verified against; the CLI answers from the engines below and
falls back on the oracles only above its edge guard.

The polynomial functions compute the alternating sum over edge subsets

    sum over S of (-1)^|S| q^(balanced components of S) z^(other components of S)

without walking the subsets.  They delete and contract the links at the
highest vertex, T(G) = T(G - e) - T(G / e), where G / e first switches e
to gain 0.  A contracted circle of nonzero gain becomes a flag on its
vertex (Zaslavsky's unbalanced contraction), and a vertex left without
links contributes q, or q - z when flagged.  Each state is memoised after
switching a spanning forest of it to gain 0 with the potential union-find
of gaingraph.py (``_GainDSU``), in the manner of Haggard, Pearce and Royle
("Computing Tutte polynomials", 2010).  One rule gives the children of a
state (``_children``) and one loop over an explicit stack solves them
(``_solve``), so no function recurses and a long chain of contractions
needs no Python frames.  The memo is shared by every call with the same
modulus and loop treatment, so a switching, doubling or minor of a graph
seen before reuses its states; it is cleared wholesale after any call that
leaves it above a fixed state count.  The zero-free variant drops the
nonzero loops, which no balanced subset holds, so its states are fewer.

The integral count runs the same solver with another rule for the
children (``_integral_children``).  Contracting a link fixes one colour as
the other's plus the gain, so each vertex carries the width of the offset
interval its merged vertices span and has max(0, q - width) colours; the
count is a sum of products of such factors, exact at every q.  It is not
switching invariant, so these states are memoised unswitched.  The CLI
reads the modular count at q off the zero-free polynomial of the gains
mod q, evaluated at q: a subset counts there iff it is balanced mod q.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache, partial
from math import prod

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

# A state is (n, links, labels): vertices 1..n, a set of links (tail, head,
# gain) with tail < head, and one label per vertex after an unused one.  For
# the subset polynomials the label flags[v] is set when v carries a nonzero
# loop; for the integral count it is the width of v's offset interval.  A set
# keeps one copy of equal parallel links, whose extra subsets cancel, and one
# flag stands for any number of nonzero loops at a vertex.  A memo key has a
# link at n, or is the empty state.  Terms map a monomial to its coefficient:
# (balanced, unbalanced) component counts, or the sorted widths of a product
# of max(0, q - w) factors.
Terms = dict[tuple[int, ...], int]
_EMPTY = (0, frozenset(), (False,))


def _link(t: int, h: int, gain: int, modulus: int | None) -> tuple[int, int, int]:
    if t > h:
        t, h, gain = h, t, -gain
    return (t, h, gain % modulus if modulus is not None else gain)


def _state(links: frozenset, labels: tuple, modulus: int | None, switch: bool = True) -> tuple:
    """(labels of the isolated top vertices, memo key of the rest).

    With ``switch`` the key's links are switched so that a spanning forest
    of them has gain 0.  Switching changes no subset's balance, so every
    switching of a state gives one key; links are added in sorted order, so
    equal inputs give equal forests.  The integral count is not switching
    invariant, so its states are kept as they are.
    """
    n = max((h for _, h, _ in links), default=0)
    if n == 0:
        return labels[1:], _EMPTY
    if switch:
        dsu = _GainDSU(n, modulus)
        ordered = sorted(links)
        for t, h, gain in ordered:
            dsu.add_edge(t, h, gain)
        pot = [dsu.find(v)[1] for v in range(n + 1)]
        links = frozenset(_link(t, h, gain - pot[h] + pot[t], modulus) for t, h, gain in ordered)
    return labels[n + 1 :], (n, links, labels[: n + 1])


def _children(key: tuple, modulus: int | None, loops: bool) -> list[tuple[int, tuple, tuple]]:
    """(sign, peeled flags, child key) for T(G) = T(G - L_n) - sum T((G - e_1 ... e_(i-1)) / e_i).

    L_n holds the links e_1 ... e_k at the highest vertex n.  Contracting
    e_i = (t, n, g) switches n by -g and merges it into t, so a later link
    (x, n, g') becomes (x, t, g' - g).  When x == t that is a loop whose
    gain is nonzero, since the link set holds each gain once, so it only
    flags t, and only when ``loops`` keeps the nonzero loops.
    """
    n, links, flags = key
    at_top = sorted((e for e in links if e[1] == n), reverse=True)
    rest = links.difference(at_top)
    children = [(1, *_state(rest, flags, modulus))]
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
        children.append((-1, *_state(frozenset(merged), new_flags, modulus)))
    return children


def _integral_children(key: tuple) -> list[tuple[int, tuple, tuple]]:
    """The children of ``_children`` for the integral count, by widths.

    A vertex of width w stands for vertices at offsets 0..w from its own
    colour, so it has max(0, q - w) colours.  Contracting e_i = (t, n, g)
    forces x_n = x_t + g: t's offsets [0, w_t] and n's [g, g + w_n] join,
    and t is re-based to the lower end lo of their hull, which moves every
    link at t by lo.  A later link (x, n, g') becomes (x, t, g' - g + lo),
    or, when x == t, a nonzero loop that no colouring violates.
    """
    n, links, widths = key
    at_top = sorted((e for e in links if e[1] == n), reverse=True)
    rest = links.difference(at_top)
    children = [(1, *_state(rest, widths, None, switch=False))]
    for i, (t, _, gain) in enumerate(at_top):
        lo = min(0, gain)
        merged = {(a, b, g + lo if b == t else g - lo if a == t else g) for a, b, g in rest}
        merged.update(_link(x, t, other - gain + lo, None) for x, _, other in at_top[i + 1 :] if x != t)
        width = max(widths[t], gain + widths[n]) - lo
        new_widths = widths[:t] + (width,) + widths[t + 1 : n]
        children.append((-1, *_state(frozenset(merged), new_widths, None, switch=False)))
    return children


def _times_vertices(terms: Terms, flags: tuple[bool, ...]) -> Terms:
    """terms times q for each unflagged vertex and q - z for each flagged one."""
    if not flags:
        return terms
    unflagged = flags.count(False)
    out = {(dq + unflagged, dz): c for (dq, dz), c in terms.items()}
    for _ in range(len(flags) - unflagged):
        step: Terms = {}
        for (dq, dz), c in out.items():
            step[dq + 1, dz] = step.get((dq + 1, dz), 0) + c
            step[dq, dz + 1] = step.get((dq, dz + 1), 0) - c
        out = {m: c for m, c in step.items() if c}
    return out


def _times_widths(terms: Terms, widths: tuple[int, ...]) -> Terms:
    """terms times max(0, q - w) for each width w."""
    if not widths:
        return terms
    return {tuple(sorted(ws + widths)): c for ws, c in terms.items()}


def _add_into(acc: Terms, terms: Terms, sign: int) -> None:
    for m, c in terms.items():
        value = acc.get(m, 0) + sign * c
        if value:
            acc[m] = value
        else:
            acc.pop(m, None)


Children = Callable[[tuple], list[tuple[int, tuple, tuple]]]
Times = Callable[[Terms, tuple], Terms]


def _solve(key: tuple, children_of: Children, times: Times, memo: dict) -> Terms:
    """The terms of a memo key, whose children ``children_of`` gives.

    One explicit stack of (key, children) frames, so no depth of contraction
    meets Python's recursion limit.  A frame computes its children once and
    pushes those not in ``memo``, the deletion on top, so that a contraction
    meeting a memoised deletion (as along a path) stops there.  Once all are
    in ``memo`` it sums them, each ``times`` its peeled vertices.
    """
    stack: list = [(key, None)]
    while stack:
        top, children = stack[-1]
        if children is None:
            if top in memo:
                stack.pop()
                continue
            children = children_of(top)
            stack[-1] = (top, children)
            stack.extend((child, None) for _, _, child in reversed(children) if child not in memo)
            continue
        acc: Terms = {}
        for sign, peeled, child in children:
            _add_into(acc, times(memo[child], peeled), sign)
        memo[top] = acc
        stack.pop()
    return memo[key]


# One memo per (modulus, loops) and one for the integral count, shared by
# every call.  A call that leaves more than _MEMO_STATES states in them (each
# memo counting as one state itself) clears them all, so the memos hold at
# most that many between calls.  Values are shared between calls and never
# mutated.
_MEMO_STATES = 4096
_memos: dict[tuple, dict] = {}


def _memoised(name: tuple, empty: Terms, peeled: tuple, key: tuple, children_of: Children, times: Times) -> Terms:
    """``times(_solve(key), peeled)`` in the memo ``name``, whose empty state has the terms ``empty``."""
    memo = _memos.setdefault(name, {_EMPTY: empty})
    try:
        return times(_solve(key, children_of, times, memo), peeled)
    finally:
        if len(_memos) + sum(map(len, _memos.values())) > _MEMO_STATES:
            _memos.clear()


def _read(
    g: IntegralGainGraph | ModularGainGraph, max_edges: int, loops: bool
) -> tuple[frozenset, tuple[bool, ...]] | None:
    """The links of g and, with ``loops``, the flags of its nonzero loops,
    which are otherwise dropped; None when a gain-0 loop makes every sum
    vanish.  The one edge guard of every deletion-contraction."""
    if len(g.edges) > max_edges:
        raise TooManyEdges(f"{len(g.edges)} edges exceed the expansion bound {max_edges}")
    links = set()
    flags = [False] * (g.n + 1)
    for t, h, gain in g.edges:
        if t != h:
            links.add((t, h, gain))
        elif gain == 0:
            return None
        elif loops:
            flags[t] = True
    return frozenset(links), tuple(flags)


def _expand_subsets(
    g: IntegralGainGraph | ModularGainGraph, max_edges: int, balanced_only: bool
) -> Poly2:
    """Signed counts of (balanced components, unbalanced components) over subsets.

    Computed by memoised deletion-contraction, never by walking the subsets.
    With ``balanced_only`` the nonzero loops are dropped, since no balanced
    subset holds one.
    """
    loops = not balanced_only
    read = _read(g, max_edges, loops)
    if read is None:
        return Poly2()
    modulus = getattr(g, "modulus", None)
    peeled, key = _state(*read, modulus)
    children_of = partial(_children, modulus=modulus, loops=loops)
    return Poly2(_memoised((modulus, loops), {(0, 0): 1}, peeled, key, children_of, _times_vertices))


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


def _integral_terms(g: IntegralGainGraph, max_edges: int) -> Terms:
    """The integral count as sorted widths ws -> c, meaning the sum of
    c * prod(max(0, q - w) for w in ws), by deletion-contraction on widths.

    A nonzero loop never binds, so it is dropped; a gain-0 loop leaves no
    colouring.  The sum is exact at every q >= 0, and a polynomial in q from
    the largest width on.
    """
    read = _read(g, max_edges, loops=False)
    if read is None:
        return {}
    peeled, key = _state(read[0], (0,) * (g.n + 1), None, switch=False)
    return _memoised(("integral",), {(): 1}, peeled, key, _integral_children, _times_widths)


def integral_count(g: IntegralGainGraph, q: int, max_edges: int = 26) -> int:
    """count_integral_colorings(g, q) by memoised deletion-contraction, at
    any q; guarded by max_edges like the polynomial functions."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return sum(c * prod(max(0, q - w) for w in ws) for ws, c in _integral_terms(g, max_edges).items())


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
