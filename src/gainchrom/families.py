"""Catalan, Shi, Linial, and intermediate gain graphs with their closed forms.

Conventions: all families live on the complete graph over [n].  Gains are
0/1/-1 per family, always oriented low vertex to high vertex:

  catalan          gains {0, 1, -1} on every pair
  hollow catalan   gains {1, -1}
  shi              gains {0, 1}
  linial           gain 1 only
  sc(G)            shi plus a gain -1 edge on every pair in G

Closed forms return exact polynomials plus the least q from which the
integral and modular counting functions are claimed to match them.  The
thresholds are data, never enforced; evaluating below them is allowed and
simply may disagree with the coloring counts.

Each family gives its integral form as data: a list of (w, roots) terms
standing for sum w * prod_i (q - r_i), expanded by ``poly._product_sum``.
Its zero-free form, which is also its modular form, follows term by term:
w * prod_i (q - r_i) becomes w * q * prod_{i>=2} (q - r_i - 1), so the
first factor turns into q and every later root moves up by one.  For the
sc partition and Linial forms the first root must be the one of the block
with lower degree 0.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from math import comb, gcd

from .combinatorics import (
    SetPartition,
    SimpleGraph,
    _valid_partition,
    cycle_count,
    descending_path_partitions,
    lower_degrees,
    overlap_graph,
    set_partitions,
    stirling2,
)
from .chromatic import DEFAULT_MAX_EDGES, region_count
from .gaingraph import IntegralGainGraph
from .poly import ONE, Poly2, _product_sum


class NonIntegerResult(ArithmeticError):
    """A computation that must clear to integer coefficients failed to."""


# -- constructors -----------------------------------------------------------------


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def catalan_graph(n: int) -> IntegralGainGraph:
    return IntegralGainGraph(n, [(i, j, g) for i, j in _pairs(n) for g in (0, 1, -1)])


def hollow_catalan_graph(n: int) -> IntegralGainGraph:
    return IntegralGainGraph(n, [(i, j, g) for i, j in _pairs(n) for g in (1, -1)])


def shi_graph(n: int) -> IntegralGainGraph:
    return IntegralGainGraph(n, [(i, j, g) for i, j in _pairs(n) for g in (0, 1)])


def linial_graph(n: int) -> IntegralGainGraph:
    return IntegralGainGraph(n, [(i, j, 1) for i, j in _pairs(n)])


def sc_graph(minus: SimpleGraph) -> IntegralGainGraph:
    """Shi graph on [n] plus a gain -1 edge on every pair of ``minus``."""
    edges = [(i, j, g) for i, j in _pairs(minus.n) for g in (0, 1)]
    edges += [(i, j, -1) for i, j in sorted(minus.edges)]
    return IntegralGainGraph(minus.n, edges)


def sc_partition_graph(pi: SetPartition) -> IntegralGainGraph:
    """sc graph on the blocks of pi, with -1 edges on overlapping block pairs."""
    return sc_graph(overlap_graph(_valid_partition(pi))[0])


# -- closed forms -------------------------------------------------------------------


class ClosedForms(namedtuple("ClosedForms", "integral modular zero_free integral_min_q modular_min_q")):
    """Exact polynomials (Poly2) for one family instance.

    integral_min_q / modular_min_q are the least q for which the respective
    counting function is claimed to equal the polynomial; the zero-free
    polynomial is an identity, valid coefficientwise.
    """

    __slots__ = ()


def _closed_forms(terms: list[tuple[int, Sequence[int]]], integral_min_q: int, modular_min_q: int) -> ClosedForms:
    """The forms whose integral polynomial is sum w * prod_i (q - r_i) over the
    (w, roots) terms; the zero-free polynomial, also the modular one, takes
    each term to w * q * prod_{i>=2} (q - r_i - 1)."""
    integral = _product_sum(terms)
    zero_free = _product_sum((w, [0, *(r + 1 for r in roots[1:])]) for w, roots in terms)
    return ClosedForms(integral, zero_free, zero_free, integral_min_q, modular_min_q)


def shi_closed_forms(n: int) -> ClosedForms:
    """integral (q-n+1)^n from q >= n-1; modular and zero-free q(q-n)^(n-1),
    modular from q > n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _closed_forms([(1, [n - 1] * n)], n - 1, n + 1)


def catalan_closed_forms(n: int) -> ClosedForms:
    """integral (q-n+1)_n from q >= n-1; modular and zero-free q(q-n-1)_(n-1),
    modular from q > n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _closed_forms([(1, range(n - 1, 2 * n - 1))], n - 1, n + 1)


def hollow_catalan_closed_forms(n: int) -> ClosedForms:
    """integral sum_j S(n,j)(q-j+1)_j; modular and zero-free
    q sum_j S(n,j)(q-j-1)_(j-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _closed_forms([(stirling2(n, j), range(j - 1, 2 * j - 1)) for j in range(1, n + 1)], n - 1, n + 1)


def sc_path_closed_forms(minus: SimpleGraph) -> ClosedForms:
    """Forms for sc(G) from descending path partitions of the complement:
    integral sum_r p_r (q-n+1)_r, zero-free q sum_r p_r (q-n-1)_(r-1)."""
    n = minus.n
    if n < 1:
        raise ValueError("graphs on at least one vertex only")
    p = descending_path_partitions(minus.complement())
    return _closed_forms([(p[r], range(n - 1, n - 1 + r)) for r in range(1, n + 1) if p[r]], n - 1, n + 1)


def sc_partition_closed_forms(pi: SetPartition) -> ClosedForms:
    """Forms for sc of the overlap graph of pi, in terms of the lower degrees:
    integral prod_i (q-k+1-d_i), zero-free q prod_{i>=2} (q-k-d_i)."""
    pi = _valid_partition(pi)
    k = len(pi)
    if k == 0:
        return ClosedForms(ONE, ONE, ONE, 0, 1)
    d = lower_degrees(pi)
    dmax = max(d)
    return _closed_forms([(1, [k - 1 + di for di in d])], k - 1 + dmax, k + dmax)


def linial_closed_forms(n: int) -> ClosedForms:
    """Sums of the sc partition forms over all partitions of [n]; integral
    valid from q >= n-1, modular from q >= n.

    The forms depend only on the block count and the multiset of lower
    degrees, so each distinct pair is one term, weighted by the number of
    partitions sharing it (54 terms instead of Bell(8) = 4140 at n = 8).
    Sorted degrees start with the d_1 = 0 the zero-free rule drops.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shapes = Counter((len(pi), tuple(sorted(lower_degrees(pi)))) for pi in set_partitions(n))
    return _closed_forms([(count, [k - 1 + di for di in d]) for (k, d), count in shapes.items()], n - 1, n)


def linial_athanasiadis(n: int) -> Poly2:
    """Independent cross-check form (q/2) sum_j binom(n,j) ((q-j)/2)^(n-1).

    Computed exactly as integer numerators over 2^n; raises NonIntegerResult
    if it fails to clear to integer coefficients.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = [0] * n
    for j in range(n + 1):
        w = comb(n, j)
        # (q - j)^(n-1) expanded by the binomial theorem
        for i in range(n):
            acc[i] += w * comb(n - 1, i) * (-j) ** (n - 1 - i)
    scale = 2**n
    terms: dict[tuple[int, int], int] = {}
    for i, c in enumerate(acc):
        value, rest = divmod(c, scale)
        if rest:
            d = gcd(c, scale)
            raise NonIntegerResult(f"coefficient of q^{i + 1} is {c // d}/{scale // d}")
        if value:
            terms[(i + 1, 0)] = value
    return Poly2(terms)


class RegionCounts(namedtuple("RegionCounts", "direct via_recurrence hollow")):
    """Catalan region count both ways, with the hollow counts used by the
    recurrence r_n = sum_j c(n,j) r'_j; hollow[j-1] = regions of the hollow
    graph on j vertices."""

    __slots__ = ()


def catalan_region_counts(n: int, max_edges: int = DEFAULT_MAX_EDGES) -> RegionCounts:
    if n < 1:
        raise ValueError("n must be >= 1")
    hollow = tuple(region_count(hollow_catalan_graph(j), max_edges) for j in range(1, n + 1))
    via = sum(cycle_count(n, j) * hollow[j - 1] for j in range(1, n + 1))
    direct = region_count(catalan_graph(n), max_edges)
    return RegionCounts(direct, via, hollow)


FAMILY_BUILDERS = {
    "catalan": catalan_graph,
    "hollow-catalan": hollow_catalan_graph,
    "shi": shi_graph,
    "linial": linial_graph,
}

FAMILY_CLOSED_FORMS = {
    "catalan": catalan_closed_forms,
    "hollow-catalan": hollow_catalan_closed_forms,
    "shi": shi_closed_forms,
    "linial": linial_closed_forms,
}
