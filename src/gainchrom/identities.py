"""Machine verification of the reduction identities.

Every check evaluates both sides of an identity through concrete chromatic
functions: the counting selectors ("integral", "modular") compare values at
a finite q sample, the polynomial selectors ("zero_free", "total") compare
coefficientwise.  The default sample 0..2n+3 exceeds the degree of every
polynomial involved, so sample equality implies polynomial equality for the
polynomial-valued cases.

Checks return CheckReport values; nothing is asserted here, callers decide
what a failure means.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .chromatic import (
    count_integral_colorings,
    count_modular_colorings,
    count_multizero_colorings,
    ordinary_chromatic_poly,
    total_poly,
    zero_free_poly,
)
from .combinatorics import (
    closed_edge_sets,
    flat_mobius,
    partition_mobius,
    set_partitions,
    stable_partitions,
    stirling1_signed,
    stirling2,
)
from .families import (
    FAMILY_BUILDERS,
    catalan_graph,
    hollow_catalan_graph,
    sc_partition_graph,
)
from .gaingraph import IntegralGainGraph
from .poly import Poly2, Q, Z, falling_factorial

COUNTING_SELECTORS = ("integral", "modular")
POLY_SELECTORS = ("zero_free", "total")
SELECTORS = COUNTING_SELECTORS + POLY_SELECTORS


class NeutralEdgePresent(ValueError):
    """Raised by the complete-graph reduction when the input has gain-0 edges."""


@dataclass
class CheckReport:
    """Outcome of one identity verification; passed iff lhs == rhs exactly."""

    identity: str
    instance: str
    passed: bool
    lhs: object
    rhs: object
    witness: object = None
    notes: str | None = None

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "instance": self.instance,
            "passed": self.passed,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "witness": None if self.witness is None else str(self.witness),
            "notes": self.notes,
        }


def default_sample_q(n: int) -> range:
    return range(0, 2 * n + 4)


@lru_cache(maxsize=None)
def _cached_integral(g: IntegralGainGraph, q: int) -> int:
    return count_integral_colorings(g, q)


@lru_cache(maxsize=None)
def _cached_modular(g: IntegralGainGraph, q: int) -> int:
    return count_modular_colorings(g, q)


def apply_selector(
    selector: str,
    g: IntegralGainGraph,
    sample_q: Sequence[int],
    max_edges: int = 26,
) -> dict[int, int] | Poly2:
    """The chromatic function named by ``selector``, as sampled values or a poly."""
    if selector == "integral":
        return {q: _cached_integral(g, q) for q in sample_q}
    if selector == "modular":
        return {q: _cached_modular(g, q) for q in sample_q if q >= 1}
    if selector == "zero_free":
        return zero_free_poly(g, max_edges)
    if selector == "total":
        return total_poly(g, max_edges)
    raise ValueError(f"unknown selector {selector!r}")


def _zero_value(selector: str, sample_q: Sequence[int]) -> dict[int, int] | Poly2:
    if selector in COUNTING_SELECTORS:
        qs = sample_q if selector == "integral" else [q for q in sample_q if q >= 1]
        return {q: 0 for q in qs}
    return Poly2.zero()


def _add_scaled(acc, value, coeff: int):
    if isinstance(acc, Poly2):
        return acc + coeff * value
    return {q: acc[q] + coeff * value[q] for q in acc}


def _first_mismatch(lhs, rhs):
    if isinstance(lhs, Poly2):
        if lhs == rhs:
            return None
        diff = lhs - rhs
        return ("monomial", diff.items()[0][0])
    for q in lhs:
        if lhs[q] != rhs.get(q):
            return ("q", q, lhs[q], rhs.get(q))
    return None


def _report(identity: str, instance: str, lhs, rhs, notes: str | None = None) -> CheckReport:
    witness = _first_mismatch(lhs, rhs)
    return CheckReport(identity, instance, witness is None, lhs, rhs, witness, notes)


# -- ordinary graphs ------------------------------------------------------------


def check_ordinary_expansions(n: int, pairs: list[tuple[int, int]]) -> CheckReport:
    """Subset expansion == stable-partition falling-factorial expansion ==
    direct coloring counts, for an ordinary multigraph."""
    whitney = ordinary_chromatic_poly(n, pairs)
    stable_sum = Poly2.zero()
    for pi in stable_partitions(n, pairs):
        stable_sum = stable_sum + falling_factorial(len(pi))
    neutral = IntegralGainGraph(n, [(a, b, 0) for a, b in pairs])
    counts = {q: count_integral_colorings(neutral, q) for q in range(n + 3)}
    evals = {q: whitney.evaluate(q) for q in range(n + 3)}
    passed = whitney == stable_sum and counts == evals
    witness = None if passed else (_first_mismatch(counts, evals) or _first_mismatch(whitney, stable_sum))
    return CheckReport(
        "ordinary-expansions", f"graph(n={n}, m={len(pairs)})", passed, whitney, stable_sum, witness
    )


# -- gain graph reductions --------------------------------------------------------


def check_neutral_subset_reduction(
    g: IntegralGainGraph,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = 26,
) -> CheckReport:
    """F(graph) == alternating sum over gain-0 subsets S of F((graph/S) minus
    all gain-0 edges), and the same sum grouped over flats with Mobius weights."""
    sq = list(sample_q if sample_q is not None else default_sample_q(g.n))
    neutral = g.neutral_indices()
    neutral_pairs = [(g.edges[i][0], g.edges[i][1]) for i in neutral]
    lhs = apply_selector(selector, g, sq, max_edges)

    def minor_value(local_subset: Iterable[int]):
        chosen = [neutral[i] for i in local_subset]
        minor = g.contract_neutral_set(chosen).delete_neutral_edges()
        return apply_selector(selector, minor, sq, max_edges)

    subset_rhs = _zero_value(selector, sq)
    for size in range(len(neutral) + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(range(len(neutral)), size):
            subset_rhs = _add_scaled(subset_rhs, minor_value(subset), sign)

    mobius_rhs = _zero_value(selector, sq)
    for flat in closed_edge_sets(g.n, neutral_pairs):
        mu = flat_mobius(g.n, neutral_pairs, flat)
        if mu:
            mobius_rhs = _add_scaled(mobius_rhs, minor_value(flat), mu)

    report = _report("neutral-subset-reduction", _describe(g), lhs, subset_rhs)
    if report.passed and _first_mismatch(subset_rhs, mobius_rhs) is not None:
        report.passed = False
        report.witness = ("mobius-form", _first_mismatch(subset_rhs, mobius_rhs))
    return report


def check_stable_partition_reduction(
    g: IntegralGainGraph,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = 26,
) -> CheckReport:
    """F(graph) == sum over stable partitions pi of the gain-0 subgraph of
    F(graph/pi with the complete gain-0 graph added)."""
    sq = list(sample_q if sample_q is not None else default_sample_q(g.n))
    neutral_pairs = [(t, h) for t, h, gain in g.edges if gain == 0]
    lhs = apply_selector(selector, g, sq, max_edges)
    rhs = _zero_value(selector, sq)
    for pi in stable_partitions(g.n, neutral_pairs):
        minor = g.contract_partition(pi).add_neutral_complete()
        rhs = _add_scaled(rhs, apply_selector(selector, minor, sq, max_edges), 1)
    return _report("stable-partition-reduction", _describe(g), lhs, rhs)


def check_partition_complete_reduction(
    g: IntegralGainGraph,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = 26,
) -> CheckReport:
    """For graphs without gain-0 edges: F(graph + complete gain-0 part) ==
    Mobius-weighted sum of F(graph/pi), and F(graph) == sum of
    F((graph/pi) + complete gain-0 part), over all partitions pi."""
    if g.neutral_indices():
        raise NeutralEdgePresent("the complete-graph reduction needs a gain-0-free graph")
    sq = list(sample_q if sample_q is not None else default_sample_q(g.n))
    a_lhs = apply_selector(selector, g.add_neutral_complete(), sq, max_edges)
    b_lhs = apply_selector(selector, g, sq, max_edges)
    a_rhs = _zero_value(selector, sq)
    b_rhs = _zero_value(selector, sq)
    for pi in set_partitions(g.n):
        contracted = g.contract_partition(pi)
        a_rhs = _add_scaled(a_rhs, apply_selector(selector, contracted, sq, max_edges), partition_mobius(pi))
        b_rhs = _add_scaled(
            b_rhs, apply_selector(selector, contracted.add_neutral_complete(), sq, max_edges), 1
        )
    report = _report("partition-complete-reduction", _describe(g), a_lhs, a_rhs)
    if report.passed:
        second = _report("partition-complete-reduction", _describe(g), b_lhs, b_rhs)
        if not second.passed:
            return second
    return report


def check_catalan_hollow_relations(
    n: int,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = 32,
) -> CheckReport:
    """F(hollow_n) == sum_j S(n,j) F(catalan_j) and
    F(catalan_n) == sum_j s(n,j) F(hollow_j).

    Both relations drop gain-1 loops, so they hold for functions that ignore
    nonzero-gain loops; mod q that needs q >= 2 (mod 1 every loop is neutral),
    hence the modular default sample starts at 2.
    """
    default_lo = 2 if selector == "modular" else 0
    sq = list(sample_q if sample_q is not None else range(default_lo, n + 4))
    hollow = [apply_selector(selector, hollow_catalan_graph(j), sq, max_edges) for j in range(1, n + 1)]
    full = [apply_selector(selector, catalan_graph(j), sq, max_edges) for j in range(1, n + 1)]
    first_rhs = _zero_value(selector, sq)
    second_rhs = _zero_value(selector, sq)
    for j in range(1, n + 1):
        first_rhs = _add_scaled(first_rhs, full[j - 1], stirling2(n, j))
        second_rhs = _add_scaled(second_rhs, hollow[j - 1], stirling1_signed(n, j))
    report = _report("catalan-hollow-relations", f"n={n}, {selector}", hollow[n - 1], first_rhs)
    if report.passed:
        second = _report("catalan-hollow-relations", f"n={n}, {selector}", full[n - 1], second_rhs)
        if not second.passed:
            return second
    return report


def check_linial_partition_expansion(
    n: int,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = 26,
) -> CheckReport:
    """F(linial_n) == sum over partitions pi of [n] of F(sc(overlap graph of pi)).

    The expansion drops gain-1 loops, so the modular default sample starts at
    q = 2 (mod 1 every loop is neutral and the hypothesis fails).
    """
    default_lo = 2 if selector == "modular" else 0
    sq = list(sample_q if sample_q is not None else range(default_lo, n + 4))
    lhs = apply_selector(selector, FAMILY_BUILDERS["linial"](n), sq, max_edges)
    rhs = _zero_value(selector, sq)
    for pi in set_partitions(n):
        rhs = _add_scaled(rhs, apply_selector(selector, sc_partition_graph(pi), sq, max_edges), 1)
    return _report("linial-partition-expansion", f"n={n}, {selector}", lhs, rhs)


# -- total polynomial identities -----------------------------------------------------


def _zero_free_shifted(g: IntegralGainGraph, max_edges: int) -> Poly2:
    """Zero-free polynomial of g with q replaced by q - z."""
    return zero_free_poly(g, max_edges).substitute_q(Q - Z)


def check_total_split(g: IntegralGainGraph, max_edges: int = 26) -> CheckReport:
    """total(q, z) == sum over vertex subsets W of
    ordinary_chromatic(underlying graph on V-W)(z) * zero_free(g|W)(q - z)."""
    lhs = total_poly(g, max_edges)
    vertices = list(range(1, g.n + 1))
    rhs = Poly2.zero()
    for size in range(g.n + 1):
        for w in combinations(vertices, size):
            inside = set(w)
            outside = [v for v in vertices if v not in inside]
            out_pairs = [
                (t, h) for t, h, _ in g.edges if t not in inside and h not in inside
            ]
            relabel = {v: i for i, v in enumerate(outside, start=1)}
            out_poly = ordinary_chromatic_poly(
                len(outside), [(relabel[a], relabel[b]) for a, b in out_pairs]
            ).substitute_q(Z)
            rhs = rhs + out_poly * _zero_free_shifted(g.induced(w), max_edges)
    return _report("total-split", _describe(g), lhs, rhs)


def check_total_uniform(family: str, n: int, max_edges: int = 26) -> CheckReport:
    """For the uniform complete families: total(q, z) expands over induced
    subgraphs both by order (binomial * falling factorial coefficients) and
    by explicit vertex subsets."""
    build = FAMILY_BUILDERS[family]
    whole = build(n)
    lhs = total_poly(whole, max_edges)
    rhs_uniform = Poly2.zero()
    for j in range(n + 1):
        part = build(j) if j else IntegralGainGraph(0)
        ff_z = falling_factorial(n - j).substitute_q(Z)
        rhs_uniform = rhs_uniform + comb(n, j) * ff_z * _zero_free_shifted(part, max_edges)
    report = _report("total-uniform", f"{family}, n={n}", lhs, rhs_uniform)
    if not report.passed:
        return report
    rhs_subsets = Poly2.zero()
    for size in range(n + 1):
        for w in combinations(range(1, n + 1), size):
            ff_z = falling_factorial(n - size).substitute_q(Z)
            rhs_subsets = rhs_subsets + ff_z * _zero_free_shifted(whole.induced(w), max_edges)
    return _report("total-complete", f"{family}, n={n}", lhs, rhs_subsets)


def check_disjoint_union_product(
    g1: IntegralGainGraph, g2: IntegralGainGraph, max_edges: int = 26
) -> CheckReport:
    """total(g1 + g2) == total(g1) * total(g2) for disjoint unions."""
    lhs = total_poly(g1.disjoint_union(g2), max_edges)
    rhs = total_poly(g1, max_edges) * total_poly(g2, max_edges)
    return _report("disjoint-union-product", f"{_describe(g1)} + {_describe(g2)}", lhs, rhs)


# -- modular threshold and multi-zero agreement ----------------------------------------


def check_modular_threshold(g: IntegralGainGraph, span: int = 4, max_edges: int = 26) -> CheckReport:
    """Modular counts equal the zero-free polynomial for q above the largest
    circle gain.  The value at the threshold itself is recorded, not asserted."""
    top = g.max_circle_gain()
    start = (top if top is not None else 0) + 1
    zf = zero_free_poly(g, max_edges)
    lhs = {q: _cached_modular(g, q) for q in range(start, start + span)}
    rhs = {q: zf.evaluate(q) for q in range(start, start + span)}
    notes = None
    if top is not None and top >= 1:
        notes = f"at q = {top}: modular {_cached_modular(g, top)}, zero-free {zf.evaluate(top)}"
    return _report("modular-threshold", _describe(g), lhs, rhs, notes)


def check_multizero_agreement(
    g: IntegralGainGraph, modulus: int, k: int, z: int, max_edges: int = 26
) -> CheckReport:
    """Multi-zero coloration count of g mod m equals the total polynomial of
    g mod m evaluated at (k*m + z, z)."""
    gm = g.reduce_mod(modulus)
    lhs = count_multizero_colorings(gm, k, z)
    rhs = total_poly(gm, max_edges).evaluate(k * modulus + z, z)
    instance = f"{_describe(g)} mod {modulus}, k={k}, z={z}"
    return CheckReport("multizero-agreement", instance, lhs == rhs, lhs, rhs)


# -- invariance suite ---------------------------------------------------------------


def random_switching(g: IntegralGainGraph, rng: random.Random, bound: int = 3) -> dict[int, int]:
    return {v: rng.randint(-bound, bound) for v in range(1, g.n + 1)}


def _describe(g: IntegralGainGraph) -> str:
    return f"graph(n={g.n}, edges={list(g.edges)})"


def _doubled(g: IntegralGainGraph) -> IntegralGainGraph:
    return IntegralGainGraph(g.n, list(g.edges) + list(g.edges))


def run_invariance_suite(
    corpus: Sequence[IntegralGainGraph],
    switchings: int = 100,
    seed: int = 0,
    union_samples: int = 50,
    max_edges: int = 26,
) -> list[CheckReport]:
    """Property sweep over a corpus: switching invariance of the modular,
    zero-free, and total functions (with the integral non-invariance witness),
    gain-0 loop nullity, invariance under simplification, loop independence,
    deletion-contraction for gain-0 links, and multiplicativity on disjoint
    unions."""
    rng = random.Random(seed)
    reports: list[CheckReport] = []
    mod_sample = (3, 4)

    # Switching invariance of modular / zero-free / total.  Random switchings
    # of a small graph repeat, so the counts are kept for this call only.
    failures: list = []
    checked = 0
    switched_mod: dict[tuple[IntegralGainGraph, int], int] = {}

    def modular(h: IntegralGainGraph, q: int) -> int:
        if (h, q) not in switched_mod:
            switched_mod[h, q] = count_modular_colorings(h, q)
        return switched_mod[h, q]

    for g in corpus:
        base_total = total_poly(g, max_edges)
        base_zero_free = zero_free_poly(g, max_edges)
        base_mod = {q: _cached_modular(g, q) for q in mod_sample}
        for _ in range(switchings):
            eta = random_switching(g, rng)
            switched = g.switch(eta)
            checked += 1
            switched_total = total_poly(switched, max_edges)
            if switched_total != base_total:
                failures.append((_describe(g), eta, "total"))
                break
            if switched_total.substitute_z(0) != base_zero_free:
                failures.append((_describe(g), eta, "zero-free"))
                break
            if any(modular(switched, q) != base_mod[q] for q in mod_sample):
                failures.append((_describe(g), eta, "modular"))
                break
    reports.append(
        CheckReport(
            "switching-invariance",
            f"{len(corpus)} graphs x {switchings} switchings",
            not failures,
            f"{checked} switched comparisons",
            "all equal",
            failures or None,
        )
    )

    # The integral count must NOT be switching invariant: a single edge of
    # gain 1 switches to gain 0 with different counts (q(q-1)+1 vs q(q-1)).
    one_edge = IntegralGainGraph(2, [(1, 2, 1)])
    switched = one_edge.switch({1: 0, 2: -1})
    witness_counts = (_cached_integral(one_edge, 2), _cached_integral(switched, 2))
    witness_found = (
        switched == IntegralGainGraph(2, [(1, 2, 0)]) and witness_counts[0] != witness_counts[1]
    )
    reports.append(
        CheckReport(
            "integral-noninvariance-witness",
            "edge of gain 1 vs its gain-0 switching at q=2",
            witness_found,
            witness_counts[0],
            witness_counts[1],
            None if witness_found else witness_counts,
        )
    )

    # Gain-0 loop nullity.
    failures = []
    nullity_graphs = 0
    for g in corpus:
        if not g.has_neutral_loop():
            continue
        nullity_graphs += 1
        if any(_cached_integral(g, q) for q in range(5)):
            failures.append((_describe(g), "integral"))
        elif any(_cached_modular(g, q) for q in range(1, 5)):
            failures.append((_describe(g), "modular"))
        elif total_poly(g, max_edges):
            failures.append((_describe(g), "total"))
    reports.append(
        CheckReport(
            "neutral-loop-nullity",
            f"{nullity_graphs} corpus graphs with a gain-0 loop",
            not failures,
            "all zero",
            "all zero",
            failures or None,
        )
    )

    # Invariance under simplification (duplicate every edge, compare).
    failures = []
    for g in corpus:
        doubled = _doubled(g)
        if doubled.simplify() != g.simplify():
            failures.append((_describe(g), "simplify"))
            continue
        if any(count_integral_colorings(doubled, q) != _cached_integral(g, q) for q in range(5)):
            failures.append((_describe(g), "integral"))
        elif any(
            count_modular_colorings(doubled, q) != _cached_modular(g, q) for q in range(1, 5)
        ):
            failures.append((_describe(g), "modular"))
        elif total_poly(doubled, max_edges) != total_poly(g, max_edges):
            failures.append((_describe(g), "total"))
    reports.append(
        CheckReport(
            "simplification-invariance",
            f"{len(corpus)} graphs, every edge doubled",
            not failures,
            "functions unchanged",
            "functions unchanged",
            failures or None,
        )
    )

    # Loop independence: dropping nonzero-gain loops changes nothing except
    # the total polynomial (which is excluded here by design).  The modular
    # count is compared only at the q where every dropped gain stays nonzero
    # mod q.
    failures = []
    loopy = 0
    for g in corpus:
        stripped = g.without_nonneutral_loops()
        if stripped == g:
            continue
        loopy += 1
        dropped = [gain for t, h, gain in g.edges if t == h and gain != 0]
        loop_qs = [q for q in range(2, 6) if all(gain % q for gain in dropped)]
        if any(_cached_integral(stripped, q) != _cached_integral(g, q) for q in range(5)):
            failures.append((_describe(g), "integral"))
        elif any(_cached_modular(stripped, q) != _cached_modular(g, q) for q in loop_qs):
            failures.append((_describe(g), "modular"))
        elif zero_free_poly(stripped, max_edges) != zero_free_poly(g, max_edges):
            failures.append((_describe(g), "zero-free"))
    reports.append(
        CheckReport(
            "loop-independence",
            f"{loopy} corpus graphs with nonzero-gain loops",
            not failures,
            "counts unchanged",
            "counts unchanged",
            failures or None,
        )
    )

    # Deletion-contraction on gain-0 links.
    failures = []
    dc_checked = 0
    for g in corpus:
        for i, (t, h, gain) in enumerate(g.edges):
            if gain != 0 or t == h:
                continue
            dc_checked += 1
            deleted = g.delete_edges([i])
            contracted = g.contract_neutral_set([i])
            ok = all(
                _cached_integral(g, q)
                == _cached_integral(deleted, q) - _cached_integral(contracted, q)
                for q in range(5)
            )
            ok = ok and all(
                _cached_modular(g, q)
                == _cached_modular(deleted, q) - _cached_modular(contracted, q)
                for q in range(1, 5)
            )
            ok = ok and total_poly(g, max_edges) == total_poly(deleted, max_edges) - total_poly(
                contracted, max_edges
            )
            if not ok:
                failures.append((_describe(g), i))
    reports.append(
        CheckReport(
            "neutral-deletion-contraction",
            f"{dc_checked} gain-0 links across the corpus",
            not failures,
            "recurrence holds",
            "recurrence holds",
            failures or None,
        )
    )

    # Multiplicativity over disjoint unions.
    failures = []
    for _ in range(union_samples):
        g1 = rng.choice(corpus)
        g2 = rng.choice(corpus)
        report = check_disjoint_union_product(g1, g2, max_edges)
        if not report.passed:
            failures.append(report.instance)
    reports.append(
        CheckReport(
            "disjoint-union-product",
            f"{union_samples} random corpus pairs",
            not failures,
            "products equal",
            "products equal",
            failures or None,
        )
    )

    return reports


# -- fixture corpus -----------------------------------------------------------------


@lru_cache(maxsize=None)
def fixture_corpus(max_n: int = 3, max_edges: int = 4) -> tuple[IntegralGainGraph, ...]:
    """Every gain graph with n <= max_n, gains in {-1, 0, 1}, and at most
    max_edges edges, one representative per isomorphism class."""
    graphs: list[IntegralGainGraph] = []
    seen: set[tuple] = set()
    for n in range(max_n + 1):
        universe: list[tuple[int, int, int]] = []
        for i in range(1, n + 1):
            universe.append((i, i, 0))
            universe.append((i, i, 1))
            for j in range(i + 1, n + 1):
                for gain in (-1, 0, 1):
                    universe.append((i, j, gain))
        for size in range(min(max_edges, len(universe)) + 1):
            for subset in combinations(universe, size):
                g = IntegralGainGraph(n, subset)
                key = g.canonical_iso_key()
                if key not in seen:
                    seen.add(key)
                    graphs.append(g)
    return tuple(graphs)
