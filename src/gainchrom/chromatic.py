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
is tested and verified against; the CLI answers from the engines below
alone.

The polynomial functions compute the alternating sum over edge subsets

    sum over S of (-1)^|S| q^(balanced components of S) z^(other components of S)

without walking the subsets, and the integral count is computed the same
way.  Both delete and contract the links at the highest vertex,
T(G) = T(G - e) - T(G / e), where G / e fixes the head's colour as the
tail's plus the gain.  One rule gives the children of a state
(``_children``) and one loop over an explicit stack solves them
(``_solve``), so no function recurses and a long chain of contractions
needs no Python frames.  The rule gives each vertex a label and merges the
two labels of a contracted link.  For the polynomials the label is a flag:
a contracted circle of nonzero gain flags its vertex (Zaslavsky's
unbalanced contraction), and a vertex left without links contributes q, or
q - z when flagged; the zero-free variant drops the nonzero loops, which no
balanced subset holds.  Their states are memoised after switching a
spanning forest of each to gain 0, in the manner of Haggard, Pearce and
Royle ("Computing Tutte polynomials", 2010); ``_state`` finds the forest
and its potentials in one pass of union by size over local lists.
Contractions that give one graph are normalised once, and equal children
are summed under one coefficient.  For the integral count the label is the
width of the offset interval its merged vertices span, so a vertex has
max(0, q - width) colours and the count, a sum of products of such factors,
is exact at every q; it is not switching invariant, so its states are
memoised unswitched.  The memos are shared by every call, so a switching,
doubling or minor of a graph seen before reuses its states.  They also keep
each graph's finished value under its normalised state, so a repeated or
switched graph is one normalisation and one lookup.  They are cleared
wholesale after any call that leaves them above a fixed entry count.  The
CLI reads the modular count at q off the zero-free polynomial of the gains
mod q, evaluated at q: a subset counts there iff it is balanced mod q.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import comb, prod

from .gaingraph import IntegralGainGraph, ModularGainGraph
from .poly import Poly2, _add_terms


class TooManyEdges(RuntimeError):
    """Expansion refused: the graph has more edges than the configured guard."""


DEFAULT_MAX_EDGES = 26  # every engine's edge guard unless the caller sets one


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
# the subset polynomials the label is a flag, set when the vertex carries a
# nonzero loop; for the integral count it is the width of the vertex's offset
# interval.  A set keeps one copy of equal parallel links, whose extra subsets
# cancel, and one flag stands for any number of nonzero loops at a vertex.  A
# memo key has a link at n, or is the empty state.  Terms map a monomial to
# its coefficient: (a, b) for q^a (q - z)^b, or the sorted widths of a product
# of max(0, q - w) factors.
Terms = dict[tuple[int, ...], int]
_EMPTY = (0, frozenset(), (False,))


def _link(t: int, h: int, gain: int, modulus: int | None) -> tuple[int, int, int]:
    """The link (t, h, gain) with its gain reduced; every caller has t < h."""
    return (t, h, gain % modulus if modulus is not None else gain)


def _flag_merge(f_t: bool, f_n: bool, gain: int, looped: bool) -> tuple[bool, int]:
    """t stays put and takes n's flag.  A later link (t, n, g') becomes a loop
    at t of gain g' - g, nonzero since the link set holds each gain once: a
    contracted circle, which flags t when the rule keeps nonzero loops."""
    return f_t or f_n or looped, 0


def _width_merge(w_t: int, w_n: int, gain: int, looped: bool) -> tuple[int, int]:
    """t's offsets [0, w_t] and n's [g, g + w_n] join, and t is re-based to
    the lower end of their hull.  A loop at t is nonzero and never binds."""
    lo = min(0, gain)
    return max(w_t, gain + w_n) - lo, lo


def _peel_flags(terms: Terms, flags: tuple[bool, ...]) -> Terms:
    """terms times q for each unflagged vertex and q - z for each flagged one."""
    flagged = sum(flags)
    return {(a + len(flags) - flagged, b + flagged): c for (a, b), c in terms.items()}


def _peel_widths(terms: Terms, widths: tuple[int, ...]) -> Terms:
    """terms times max(0, q - w) for each width w."""
    return {tuple(sorted(ws + widths)): c for ws, c in terms.items()}


@lru_cache(maxsize=64)
def _q_minus_z(b: int) -> tuple[tuple[int, int, int], ...]:
    """(q - z)^b as (q degree, z degree, coefficient) triples."""
    return tuple((b - k, k, comb(b, k) * (-1) ** k) for k in range(b + 1))


def _read_flags(terms: Terms) -> dict[tuple[int, int], int]:
    """The terms q^a (q - z)^b expanded to (q degree, z degree) -> coefficient."""
    return _add_terms({}, (((a + dq, dz), c * r) for (a, b), c in terms.items() for dq, dz, r in _q_minus_z(b)))


def _read_widths(terms: Terms) -> Terms:
    """The width terms are the integral count's finished value as they are."""
    return terms


# One engine: the modulus of its gains, whether _state switches, whether
# nonzero loops and contracted circles flag their vertex, how a contraction
# merges two labels, how terms take on peeled labels, a vertex's first label,
# the empty product, and how the finished terms of a graph are read out.
_Rule = namedtuple("_Rule", "modulus switch loops merge peel label unit read")
_WIDTHS = _Rule(None, False, False, _width_merge, _peel_widths, 0, (), _read_widths)


@lru_cache(maxsize=64)
def _subset_rule(modulus: int | None, loops: bool) -> _Rule:
    """The subset expansion's rule for gains mod ``modulus``, built once:
    nonzero loops flag their vertex iff ``loops``."""
    return _Rule(modulus, True, loops, _flag_merge, _peel_flags, False, (0, 0), _read_flags)


def _state(links: frozenset, labels: tuple, rule: _Rule) -> tuple:
    """(labels of the isolated top vertices, memo key of the rest).

    With ``rule.switch`` the key's links are switched so that a spanning
    forest of them has gain 0: each link's gain becomes gain - pot[h] +
    pot[t] under potentials that hold pot[h] - pot[t] == gain along the
    forest.  Switching changes no subset's balance, so every switching of a
    state gives one key.  The forest takes each link, in sorted order, that
    joins two components, so equal inputs give equal forests, and a link's
    two ends share a component, so the key does not depend on which vertex
    is its root.  One pass over local lists finds it: each component keeps
    its members, and a joining link moves the smaller one under the
    larger's root; a link within a component (a parallel link or a circle)
    moves no potential.  When no potential moves, the links are their own
    key.  This runs once per distinct child of every state, and calling
    ``gaingraph._potentials`` plus a scan for n cost 9-16% more per call.
    """
    if not links:
        return labels[1:], _EMPTY
    if rule.switch:
        modulus = rule.modulus
        root = list(range(len(labels)))  # every head has a label
        pot = [0] * len(labels)
        members = [[v] for v in root]
        moved = False
        n = 0
        ordered = sorted(links)
        for t, h, gain in ordered:
            if h > n:
                n = h
            rt, rh = root[t], root[h]
            if rt == rh:
                continue
            delta = gain + pot[t] - pot[h]  # rh's potential relative to rt
            if modulus is not None:
                delta %= modulus
            small, large = members[rh], members[rt]
            if len(small) > len(large):
                rt, rh, delta, small, large = rh, rt, -delta, large, small
            for v in small:
                root[v] = rt
                pot[v] += delta
            large += small
            moved = moved or delta != 0
        if moved:
            links = frozenset([_link(t, h, gain - pot[h] + pot[t], modulus) for t, h, gain in ordered])
    else:
        n = max(h for _, h, _ in links)
    return labels[n + 1 :], (n, links, labels[: n + 1])


def _children(key: tuple, rule: _Rule) -> list[tuple[int, tuple, tuple]]:
    """(coefficient, peeled labels, child key) for T(G) = T(G - L_n) - sum T((G - e_1 ... e_(i-1)) / e_i).

    L_n holds the links e_1 ... e_k at the highest vertex n.  Contracting
    e_i = (t, n, g) fixes n's colour as t's plus g and merges n into t:
    ``rule.merge`` gives t's label and the offset lo it is re-based by,
    which moves every link at t by lo, and a later link (x, n, g') becomes
    (x, t, g' - g + lo), or a loop at t when x == t.  Contractions at one t
    with one label, one lo and one shift g - lo of the later links at lesser
    tails (any shift, where there are none) give one graph, so each such
    graph is normalised once, and children with equal peeled labels and key
    are summed.  None sums to 0: every contraction counts -1, and the
    deletion keeps n's label, so it peels one label more than a contraction
    child with its key.
    """
    n, links, labels = key
    modulus, _, loops, merge, _, _, _, _ = rule
    at_top = sorted((e for e in links if e[1] == n), reverse=True)
    rest = links.difference(at_top)
    least = at_top[-1][0]  # a memo key has a link at n
    contracted: dict = {}
    for i, (t, _, gain) in enumerate(at_top):
        # sorted by descending tail, so a later link at t comes next
        label, lo = merge(labels[t], labels[n], gain, loops and i + 1 < len(at_top) and at_top[i + 1][0] == t)
        signature = (t, label, lo, gain - lo if t > least else None)
        contracted[signature] = contracted.get(signature, 0) - 1
    children = {_state(rest, labels, rule): 1}
    for (t, label, lo, shift), c in contracted.items():
        merged = {(a, b, g + lo if b == t else g - lo if a == t else g) for a, b, g in rest} if lo else rest
        if shift is not None:
            merged = merged.union([_link(x, t, other - shift, modulus) for x, _, other in at_top if x < t])
        child = _state(frozenset(merged), labels[:t] + (label,) + labels[t + 1 : n], rule)
        children[child] = children.get(child, 0) + c
    return [(c, peeled, child) for (peeled, child), c in children.items()]


def _solve(key: tuple, rule: _Rule, memo: dict) -> Terms:
    """The terms of a memo key under ``rule``.

    One explicit stack of (key, children) frames, so no depth of contraction
    meets Python's recursion limit.  A frame computes its children once and
    pushes those not in ``memo``, the deletion on top, so that a contraction
    meeting a memoised deletion (as along a path) stops there.  Once all are
    in ``memo`` it sums them, each re-keyed by its peeled labels.
    """
    stack: list = [(key, None)]
    while stack:
        top, children = stack[-1]
        if children is None:
            if top in memo:
                stack.pop()
                continue
            children = _children(top, rule)
            stack[-1] = (top, children)
            stack.extend((child, None) for _, _, child in reversed(children) if child not in memo)
            continue
        acc: Terms = {}
        for coefficient, peeled, child in children:
            terms = (rule.peel(memo[child], peeled) if peeled else memo[child]).items()
            _add_terms(acc, terms if coefficient == 1 else ((m, coefficient * c) for m, c in terms))
        memo[top] = acc
        stack.pop()
    return memo[key]


# One memo per rule, keyed by the rule itself and shared by every call.  It
# holds the terms of each solved state under its key (n, links, labels), and
# the read-out value of each graph a call finished under (peeled labels, key
# of the rest), so a repeated or switched graph costs one _state and one
# lookup.  A value that is its state's own terms (the integral count of a
# graph with nothing peeled) is that state's entry, not a second one.  A
# call that leaves more than _MEMO_STATES entries in them (each memo
# counting as one entry itself) clears them all, so the memos hold at most
# that many between calls.  Values are shared between calls and never
# mutated.
_MEMO_STATES = 4096
_memos: dict[_Rule, dict] = {}


def _guard(g: IntegralGainGraph | ModularGainGraph, max_edges: int) -> None:
    """The one edge guard of every deletion-contraction."""
    if len(g.edges) > max_edges:
        raise TooManyEdges(f"{len(g.edges)} edges exceed the expansion bound {max_edges}")


def _terms(g: IntegralGainGraph | ModularGainGraph, max_edges: int, rule: _Rule) -> dict:
    """The terms of g under ``rule``, read out by ``rule.read`` and kept in
    the rule's memo: {} when a gain-0 loop makes every sum vanish.  A
    nonzero loop flags its vertex when ``rule.loops`` holds and is dropped
    otherwise."""
    _guard(g, max_edges)
    links = set()
    labels = [rule.label] * (g.n + 1)
    for t, h, gain in g.edges:
        if t != h:
            links.add((t, h, gain))
        elif gain == 0:
            return {}
        elif rule.loops:
            labels[t] = True
    memo = _memos.get(rule)
    if memo is None:
        memo = _memos[rule] = {_EMPTY: {rule.unit: 1}}
    peeled, key = _state(frozenset(links), tuple(labels), rule)
    # with nothing peeled, the integral count's value is its state's terms
    root = key if not peeled and rule.read is _read_widths else (peeled, key)
    value = memo.get(root)
    if value is not None:
        return value
    try:
        terms = _solve(key, rule, memo)
    finally:
        # the finished value will be one more entry; it is read out after
        # any clear, so a full memo is freed before the value is built
        kept = len(_memos) + sum(map(len, _memos.values())) < _MEMO_STATES
        if not kept:
            _memos.clear()
    value = rule.read(rule.peel(terms, peeled) if peeled else terms)
    if kept:
        memo[root] = value
    return value


def total_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = DEFAULT_MAX_EDGES) -> Poly2:
    """The bivariate subset-expansion polynomial; q counts balanced components,
    z the unbalanced ones.  Computed by memoised deletion-contraction, whose
    states can still grow exponentially, so guarded by max_edges.  The memo
    is keyed by the switching-normalised state and shared across calls, up
    to a bounded number of entries; it keeps each graph's finished
    polynomial too, so a repeated or switched graph costs one normalisation
    and one lookup."""
    return Poly2._of(_terms(g, max_edges, _subset_rule(getattr(g, "modulus", None), True)))


def zero_free_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = DEFAULT_MAX_EDGES) -> Poly2:
    """The z = 0 slice of total_poly: the sum over balanced subsets only."""
    return Poly2._of(_terms(g, max_edges, _subset_rule(getattr(g, "modulus", None), False)))


def integral_count(g: IntegralGainGraph, q: int, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """count_integral_colorings(g, q) by memoised deletion-contraction, at
    any q; guarded by max_edges like the polynomial functions.  The engine's
    terms map sorted widths ws to c, meaning c * prod(max(0, q - w) for w in
    ws); a nonzero loop never binds and is dropped, and a gain-0 loop leaves
    no colouring.  The sum is exact at every q >= 0, and a polynomial in q
    from the largest width on."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return sum(c * prod(max(0, q - w) for w in ws) for ws, c in _terms(g, max_edges, _WIDTHS).items())


def chromatic_poly(g: IntegralGainGraph | ModularGainGraph, max_edges: int = DEFAULT_MAX_EDGES) -> Poly2:
    """The z = 1 slice of total_poly, univariate in q."""
    return total_poly(g, max_edges).substitute_z(1)


def ordinary_chromatic_poly(n: int, pairs: list[tuple[int, int]]) -> Poly2:
    """Chromatic polynomial of an ordinary multigraph: the total polynomial
    with every gain 0, so loops make it vanish."""
    return total_poly(IntegralGainGraph(n, [(a, b, 0) for a, b in pairs]), max_edges=len(pairs))


def region_count(g: IntegralGainGraph, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """(-1)^n times the zero-free polynomial at q = -1: chambers of the
    arrangement of hyperplanes x_head = x_tail + gain."""
    return (-1) ** g.n * zero_free_poly(g, max_edges).evaluate(-1, 0)
