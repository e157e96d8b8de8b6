"""Independent references for the benchmark's expected outputs.

Nothing here imports gainchrom.  A graph is ``(n, edges)`` with vertices
1..n and edges ``(tail, head, gain)``, meaning the hyperplane
``x_head = x_tail + gain``; a polynomial is a dict mapping ``(dq, dz)`` to a
nonzero integer coefficient.

Two kinds of reference live here:

* naive ones, written to be obviously right: the plain subset sum with a
  DFS balance test (``naive_total``, ``subset_integral``, ``subset_modular``)
  and brute-force colouring (``brute_integral``, ``brute_modular``);
* ``dc_total``, a memoised deletion-contraction, used where the naive
  subset sum is too slow for a benchmark run (16-30 edges).  ``--selftest``
  checks it against ``naive_total`` on random graphs.

    python3 perfbench/reference.py --selftest   # cross-check the references
    python3 perfbench/reference.py --goldens    # rebuild expected.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent


# -- polynomials ------------------------------------------------------------------


def padd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + sign * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (aq, az), ac in a.items():
        for (bq, bz), bc in b.items():
            out = padd(out, {(aq + bq, az + bz): ac * bc})
    return out


def peval(p: dict, q: int, z: int = 0) -> int:
    return sum(c * q**dq * z**dz for (dq, dz), c in p.items())


def pslice_z(p: dict, z: int) -> dict:
    """Substitute a number for z."""
    out: dict = {}
    for (dq, dz), c in p.items():
        out = padd(out, {(dq, 0): c * z**dz})
    return out


def interpolate_q(points: list[tuple[int, int]]) -> dict:
    """The univariate polynomial in q through the (q, value) points (Lagrange)."""
    acc = [Fraction(0)] * len(points)
    for i, (qi, vi) in enumerate(points):
        basis = [Fraction(1)]  # coefficients, lowest degree first
        for j, (qj, _) in enumerate(points):
            if j == i:
                continue
            shifted = [Fraction(0)] + basis
            for k, c in enumerate(basis):
                shifted[k] -= qj * c
            basis = [c / (qi - qj) for c in shifted]
        for k, c in enumerate(basis):
            acc[k] += vi * c
    out = {}
    for k, c in enumerate(acc):
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {c} of q^{k}")
        if c:
            out[(k, 0)] = int(c)
    return out


_TERM = re.compile(r"^(-?)(\d*)\*?(q(?:\^(\d+))?)?\*?(z(?:\^(\d+))?)?$")


def parse_poly(text: str) -> dict:
    """Read the CLI's text form, e.g. ``q^2*z - 3*q + 2``, into a dict."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(chunk.strip())
        if not m or chunk.strip() in ("", "-"):
            raise ValueError(f"cannot parse term {chunk!r}")
        sign, digits, qpart, qexp, zpart, zexp = m.groups()
        if not (digits or qpart or zpart):
            raise ValueError(f"cannot parse term {chunk!r}")
        c = int(digits) if digits else 1
        dq = (int(qexp) if qexp else 1) if qpart else 0
        dz = (int(zexp) if zexp else 1) if zpart else 0
        out = padd(out, {(dq, dz): -c if sign else c})
    return out


# -- naive references ---------------------------------------------------------------


def _components(n: int, edges, modulus: int | None = None):
    """DFS over the edge set: (components, potentials, balanced flags).

    components is a list of vertex lists; potentials maps each vertex to its
    potential relative to its component's root; a component is balanced when
    every edge agrees with the potentials (mod ``modulus`` if given)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for t, h, g in edges:
        adj[t].append((h, g))
        adj[h].append((t, -g))
    pot: dict[int, int] = {}
    comps, balanced = [], []
    for root in range(1, n + 1):
        if root in pot:
            continue
        pot[root] = 0
        comp, stack, ok = [root], [root], True
        while stack:
            v = stack.pop()
            for w, g in adj[v]:
                if w not in pot:
                    pot[w] = pot[v] + g
                    comp.append(w)
                    stack.append(w)
                else:
                    diff = pot[w] - pot[v] - g
                    if (diff % modulus if modulus else diff) != 0:
                        ok = False
        comps.append(comp)
        balanced.append(ok)
    return comps, pot, balanced


def _subsets(edges):
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            yield subset


def naive_total(n: int, edges) -> dict:
    """sum over S of (-1)^|S| q^(balanced components) z^(unbalanced components)."""
    out: dict = {}
    for subset in _subsets(edges):
        _, _, balanced = _components(n, subset)
        b = sum(balanced)
        out = padd(out, {(b, len(balanced) - b): (-1) ** len(subset)})
    return out


def subset_integral(n: int, edges, q: int) -> int:
    """Integral count by inclusion-exclusion over violated edge sets S: a
    balanced S fixes every component up to a shift, and a component whose
    potentials span s has max(0, q - s) shifts inside [1, q]."""
    total = 0
    for subset in _subsets(edges):
        comps, pot, balanced = _components(n, subset)
        if not all(balanced):
            continue
        term = 1
        for comp in comps:
            span = max(pot[v] for v in comp) - min(pot[v] for v in comp)
            term *= max(0, q - span)
        total += (-1) ** len(subset) * term
    return total


def subset_modular(n: int, edges, q: int) -> int:
    """Modular count: sum over S balanced mod q of (-1)^|S| q^(components)."""
    total = 0
    for subset in _subsets(edges):
        comps, _, balanced = _components(n, subset, q)
        if all(balanced):
            total += (-1) ** len(subset) * q ** len(comps)
    return total


def brute_integral(n: int, edges, q: int) -> int:
    return sum(
        all(k[h - 1] != k[t - 1] + g for t, h, g in edges)
        for k in itertools.product(range(1, q + 1), repeat=n)
    )


def brute_modular(n: int, edges, q: int) -> int:
    return sum(
        all((k[h - 1] - k[t - 1] - g) % q for t, h, g in edges)
        for k in itertools.product(range(q), repeat=n)
    )


# -- memoised deletion-contraction ------------------------------------------------


def dc_total(n: int, edges) -> dict:
    """The total polynomial by deletion-contraction on the highest vertex.

    For a link e = (t, v, g), T(G) = T(G - e) - T(G / e), where G / e merges
    v into t with potentials p(v) = p(t) + g, so an edge (x, v, g') becomes
    (x, t, g' - g).  Equal parallel edges collapse (the duplicate pairs
    cancel), a gain-0 loop makes T vanish, and any set of nonzero loops at a
    vertex acts like one.  A vertex without links contributes q, or q - z if
    it carries a nonzero loop.  Results are memoised on the switched graph
    whose BFS forest has gain 0.
    """
    links: set[tuple[int, int, int]] = set()
    flags = [False] * (n + 1)
    for t, h, g in edges:
        if t == h:
            if g == 0:
                return {}
            flags[t] = True
        else:
            links.add((t, h, g) if t < h else (h, t, -g))
    memo: dict = {}
    return _dc(n, frozenset(links), tuple(flags), memo)


def _normalize(n: int, links: frozenset) -> frozenset:
    adj: dict[int, list[tuple[int, int]]] = {}
    for t, h, g in links:
        adj.setdefault(t, []).append((h, g))
        adj.setdefault(h, []).append((t, -g))
    pot: dict[int, int] = {}
    for root in range(1, n + 1):
        if root in pot:
            continue
        pot[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, g in adj.get(v, ()):
                if w not in pot:
                    pot[w] = pot[v] + g
                    stack.append(w)
    return frozenset((t, h, g - pot[h] + pot[t]) for t, h, g in links)


def _dc(n: int, links: frozenset, flags: tuple, memo: dict) -> dict:
    if n == 0:
        return {(0, 0): 1}
    links = _normalize(n, links)
    key = (n, links, flags)
    if key in memo:
        return memo[key]
    at_v = [e for e in links if e[1] == n]
    if not at_v:
        factor = {(1, 0): 1, (0, 1): -1} if flags[n] else {(1, 0): 1}
        result = pmul(factor, _dc(n - 1, links, flags[:n], memo))
    else:
        e = max(at_v)
        t, _, g = e
        deleted = _dc(n, links - {e}, flags, memo)
        merged: set[tuple[int, int, int]] = set()
        new_flags = list(flags[:n])
        new_flags[t] = new_flags[t] or flags[n]
        neutral_loop = False
        for x, h, gx in links:
            if (x, h, gx) == e:
                continue
            if h != n:
                merged.add((x, h, gx))
                continue
            gx -= g  # (x, n, gx) becomes (x, t, gx - g)
            if x == t:
                if gx == 0:
                    neutral_loop = True
                new_flags[t] = True
            else:
                merged.add((x, t, gx) if x < t else (t, x, -gx))
        contracted = {} if neutral_loop else _dc(n - 1, frozenset(merged), tuple(new_flags), memo)
        result = padd(deleted, contracted, -1)
    memo[key] = result
    return result


def region_count(n: int, edges) -> int:
    return (-1) ** n * peval(dc_total(n, edges), -1, 0)


# -- families -----------------------------------------------------------------------


def family_graph(name: str, n: int) -> tuple[int, list[tuple[int, int, int]]]:
    gains = {"catalan": (0, 1, -1), "hollow-catalan": (1, -1), "shi": (0, 1), "linial": (1,)}[name]
    return n, [(i, j, g) for i in range(1, n + 1) for j in range(i + 1, n + 1) for g in gains]


def sc_partition_graph(blocks: list[list[int]]) -> tuple[int, list[tuple[int, int, int]]]:
    """Shi graph on the blocks (ordered by least element), plus gain -1 on
    each pair of blocks whose spans [min, max] overlap."""
    spans = sorted((min(b), max(b)) for b in blocks)
    k = len(spans)
    edges = [(i, j, g) for i in range(1, k + 1) for j in range(i + 1, k + 1) for g in (0, 1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            (a0, a1), (b0, b1) = spans[i - 1], spans[j - 1]
            if b0 <= a1 and a0 <= b1:
                edges.append((i, j, -1))
    return k, edges


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def hollow_catalan_integral(n: int, q: int) -> int:
    """Colours with no two used values adjacent: choose j pairwise
    non-adjacent values in [q], C(q-j+1, j) ways, and map [n] onto them."""
    return sum(
        stirling2(n, j) * factorial(j) * comb(q - j + 1, j) if q - j + 1 >= 0 else 0
        for j in range(1, n + 1)
    )


def linial_integral(n: int, q: int) -> int:
    """Integral count of the Linial graph (gain 1 on every i < j, so colour
    k_j may not equal k_i + 1 for any earlier i), by a DP whose state is the
    set of colours used so far."""
    states = {frozenset(): 1}
    for _ in range(n):
        nxt: dict[frozenset, int] = {}
        for used, count in states.items():
            for c in range(1, q + 1):
                if c - 1 not in used:
                    key = used | {c}
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return sum(states.values())


# -- self-test and goldens ------------------------------------------------------------


def selftest(rounds: int = 60, seed: int = 1) -> None:
    rng = random.Random(seed)
    for _ in range(rounds):
        n = rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(0, 7)):
            t, h = rng.randint(1, n), rng.randint(1, n)
            edges.append((t, h, rng.randint(-2, 2)))
        assert dc_total(n, edges) == naive_total(n, edges), (n, edges)
        for q in range(0, 5):
            assert subset_integral(n, edges, q) == brute_integral(n, edges, q), (n, edges, q)
        for q in range(1, 5):
            assert subset_modular(n, edges, q) == brute_modular(n, edges, q), (n, edges, q)
    for name, size, regions in (("catalan", 3, 30), ("shi", 4, 125), ("linial", 4, 36), ("hollow-catalan", 4, 183)):
        assert region_count(*family_graph(name, size)) == regions, name
    for size in (2, 3, 4):
        n, edges = family_graph("hollow-catalan", size)
        for q in range(0, 7):
            assert hollow_catalan_integral(size, q) == brute_integral(n, edges, q)
        n, edges = family_graph("linial", size)
        for q in range(0, 7):
            assert linial_integral(size, q) == brute_integral(n, edges, q)
    print("selftest ok")


def poly_key(p: dict) -> list[list[int]]:
    """JSON form: sorted [dq, dz, coefficient] triples."""
    return sorted([dq, dz, c] for (dq, dz), c in p.items())


def _interpolated(count, degree: int, q0: int) -> dict:
    points = [(q, count(q)) for q in range(q0, q0 + degree + 2)]
    poly = interpolate_q(points[:-1])
    if peval(poly, points[-1][0]) != points[-1][1]:
        raise ArithmeticError("count is not a polynomial of the expected degree there")
    return poly


def goldens() -> dict:
    """Expected outputs of every family job in workloads.py."""
    out: dict = {}
    for name, size in (("shi", 5), ("catalan", 4), ("hollow-catalan", 5)):
        out[f"total {name} {size}"] = poly_key(dc_total(*family_graph(name, size)))
    for name, size in (("catalan", 5), ("shi", 6), ("hollow-catalan", 6), ("linial", 7)):
        total = dc_total(*family_graph(name, size))
        out[f"zero_free {name} {size}"] = poly_key(pslice_z(total, 0))
        out[f"regions {name} {size}"] = (-1) ** size * peval(total, -1, 0)
    # Integral polynomials, interpolated through exact counts at q above
    # every balanced span (so the count is a polynomial there), and checked
    # at one more point.
    out["integral_poly linial 8"] = poly_key(_interpolated(lambda q: linial_integral(8, q), 8, 8))
    n, edges = sc_partition_graph([[1, 3], [2, 5], [4, 6]])
    out["integral_poly sc 1 3|2 5|4 6"] = poly_key(
        _interpolated(lambda q: brute_integral(n, edges, q), n, 2 * n)
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--goldens", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if args.selftest:
        selftest()
    if args.goldens:
        path = HERE / "expected.json"
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in goldens().items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
