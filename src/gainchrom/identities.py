"""Machine verification of the reduction identities.

Each check builds both sides of an identity as an element of the free
abelian group on gain graphs: a formal integer combination, held as a
mapping from graph to coefficient with equal graphs merged and zero
coefficients dropped.  It is keyed by the graph itself, never by its
switching class, because the integral count is not switching invariant.
One evaluator applies a chromatic function to a combination: the counting
selectors ("integral", "modular") give values at a finite q sample, the
polynomial selectors ("zero_free", "total") a polynomial.  The default
sample 0..2n+3 exceeds the degree of every polynomial involved, so sample
equality implies polynomial equality.  The invariance suite holds four
laws (nullity, simplification, loop independence, deletion-contraction)
as rows of one table of combinations that must vanish; its switching
sweep and disjoint-union sweep are separate.

Each minor is built once per process as far as the suites need it.  The
verify suites check a corpus graph under two selectors back to back, so
the minors of the gain-0 subset expansion, of the stable-partition
reduction and of the complete-graph reduction are memoised for the last
two graphs.  The total split memoises the shifted zero-free polynomial of
each induced graph and the chromatic polynomial in z of each outside
graph, up to 128 of each, since small induced graphs repeat across the
corpus.  Oracle counts are memoised up to 8192.

The fixture corpus holds the first graph of each isomorphism class in the
order ``combinations`` walks each n's edge universe.  A subset of the
universe is a bitmask; each vertex permutation maps every edge's bit to
the bit of its image, so a kept graph marks its whole orbit seen with one
sum per permutation, and every other subset costs one sum and one set
lookup.  No graph is canonicalised, and only the kept ones are built.

Checks return CheckReport values; nothing is asserted here, callers decide
what a failure means.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from types import SimpleNamespace

from .chromatic import (
    DEFAULT_MAX_EDGES,
    _guard,
    count_integral_colorings,
    count_modular_colorings,
    count_multizero_colorings,
    ordinary_chromatic_poly,
    total_poly,
    zero_free_poly,
)
from .combinatorics import (
    _flat_weights,
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
    linial_athanasiadis,
    linial_closed_forms,
    sc_partition_graph,
)
from .gaingraph import IntegralGainGraph, _canonical_edge
from .poly import Poly2, Q, Z, _add_terms, _product_sum, falling_factorial

COUNTING_SELECTORS = ("integral", "modular")
POLY_SELECTORS = ("zero_free", "total")

# Oracle counts kept across checks; the least recently used go first.
# `verify --suite all --n 3` makes 13,575 oracle runs with this bound and
# 13,288 with none; the switching sweep keeps its counts apart.
_ORACLE_MEMO = 8192
# A corpus check runs under two selectors back to back, so its minors are
# kept for the last two graphs.  The pieces of the total split are kept per
# induced graph and per outside graph: `verify --suite all --n 3` meets 435
# and 77 distinct ones.  128 entries answer 85% of its 3185 lookups of the
# first kind; 512 answer 86% and raise its peak RSS by 0.25 MB more.  The
# memoised combinations and polynomials are shared, so nothing mutates them.
_MINOR_MEMO = 2
_SPLIT_MEMO = 128
_SWITCHING_BOUND = 3  # random switchings take values in [-3, 3]

_Combination = dict[IntegralGainGraph, int]


class NeutralEdgePresent(ValueError):
    """Raised by the complete-graph reduction when the input has gain-0 edges."""


class CheckReport(SimpleNamespace):
    """Outcome of one identity verification; passed iff lhs == rhs exactly."""

    def __init__(
        self,
        identity: str,
        instance: str,
        passed: bool,
        lhs: object,
        rhs: object,
        witness: object = None,
        notes: str | None = None,
    ) -> None:
        super().__init__(
            identity=identity, instance=instance, passed=passed, lhs=lhs, rhs=rhs, witness=witness, notes=notes
        )

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


@lru_cache(maxsize=_ORACLE_MEMO)
def _count(selector: str, g: IntegralGainGraph, q: int) -> int:
    if selector == "integral":
        return count_integral_colorings(g, q)
    return count_modular_colorings(g, q)


def _combine(terms: Iterable[tuple[IntegralGainGraph, int]]) -> _Combination:
    """The formal combination of (graph, coefficient) terms: equal graphs
    merged, zero coefficients dropped, each graph placed where its sum last
    became nonzero."""
    return _add_terms({}, terms)


def _sample(
    selector: str, sample_q: Sequence[int] | None, default: Iterable[int],
    largest: IntegralGainGraph | None = None, max_edges: int = DEFAULT_MAX_EDGES,
) -> list[int]:
    """The q sample of a selector check, sample_q or else the default, once the largest graph it
    sums (if given) is guarded and a selector that names no chromatic function is refused."""
    if largest is not None:
        _guard(largest, max_edges)
    if selector not in COUNTING_SELECTORS + POLY_SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    return list(sample_q if sample_q is not None else default)


def _evaluate(
    selector: str, combination: _Combination, sample_q: Iterable[int], max_edges: int
) -> dict[int, int] | Poly2:
    """The chromatic function named by ``selector``, applied to a combination."""
    if selector in COUNTING_SELECTORS:
        qs = [q for q in sample_q if q >= 1 or selector == "integral"]
        values = dict.fromkeys(qs, 0)
        for g, coeff in combination.items():
            for q in qs:
                values[q] += coeff * _count(selector, g, q)
        return values
    poly = total_poly if selector == "total" else zero_free_poly
    value = Poly2.zero()
    for g, coeff in combination.items():
        term = poly(g, max_edges)
        value = value + (term if coeff == 1 else coeff * term)
    return value


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


def _relations(
    identity: str,
    instance: str,
    selector: str,
    sides: Iterable[tuple[_Combination, _Combination]],
    sample_q: Sequence[int],
    max_edges: int,
) -> CheckReport:
    """Report on the first (lhs, rhs) pair of combinations whose values under
    the selector differ, or on the first pair if none do."""
    first = None
    for lhs, rhs in sides:
        report = _report(
            identity,
            instance,
            _evaluate(selector, lhs, sample_q, max_edges),
            _evaluate(selector, rhs, sample_q, max_edges),
        )
        if not report.passed:
            return report
        first = first or report
    return first


# -- ordinary graphs ------------------------------------------------------------


def check_ordinary_expansions(n: int, pairs: list[tuple[int, int]]) -> CheckReport:
    """Subset expansion == stable-partition falling-factorial expansion ==
    direct coloring counts, for an ordinary multigraph."""
    whitney = ordinary_chromatic_poly(n, pairs)
    stable_sum = _product_sum((1, range(len(pi))) for pi in stable_partitions(n, pairs))
    neutral = IntegralGainGraph(n, [(a, b, 0) for a, b in pairs])
    counts = {q: count_integral_colorings(neutral, q) for q in range(n + 3)}
    evals = {q: whitney.evaluate(q) for q in range(n + 3)}
    passed = whitney == stable_sum and counts == evals
    witness = None if passed else (_first_mismatch(counts, evals) or _first_mismatch(whitney, stable_sum))
    return CheckReport(
        "ordinary-expansions", f"graph(n={n}, m={len(pairs)})", passed, whitney, stable_sum, witness
    )


# -- gain graph reductions --------------------------------------------------------


def _neutral_expansions(g: IntegralGainGraph) -> tuple[list, list]:
    """The (minor, coefficient) terms of the neutral-subset expansion of g,
    one per gain-0 subset S, and those of its grouping over flats.  One walk
    contracts each subset to its minor; a flat is one of the subsets, so its
    term reuses that minor, weighted by _flat_weights."""
    neutral = g.neutral_indices()
    weights = _flat_weights(g.n, g.underlying_pairs(neutral))
    subsets, flats = [], []
    for size in range(len(neutral) + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(range(len(neutral)), size):
            minor = g.contract_neutral_set([neutral[i] for i in subset]).delete_neutral_edges()
            subsets.append((minor, sign))
            weight = weights.get(frozenset(subset))
            if weight is not None:
                flats.append((minor, weight))
    return subsets, flats


@lru_cache(maxsize=_MINOR_MEMO)
def _neutral_combinations(g: IntegralGainGraph) -> tuple[_Combination, _Combination]:
    """The subset and flat expansions of g, each as one combination."""
    subset_terms, flat_terms = _neutral_expansions(g)
    return _combine(subset_terms), _combine(flat_terms)


def check_neutral_subset_reduction(
    g: IntegralGainGraph,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> CheckReport:
    """F(graph) == alternating sum over gain-0 subsets S of F((graph/S) minus
    all gain-0 edges), and the same sum grouped over flats with Mobius weights.

    A subset and its closure give the same minor, so the two sums are equal
    as combinations; the flat form is evaluated only where they are not.
    The graph itself is the largest one summed, refused before any walk."""
    sq = _sample(selector, sample_q, default_sample_q(g.n), g, max_edges)
    subsets, flats = _neutral_combinations(g)
    report = _relations(
        "neutral-subset-reduction", _describe(g), selector, [({g: 1}, subsets)], sq, max_edges
    )
    if report.passed and flats != subsets:
        mobius = _first_mismatch(report.rhs, _evaluate(selector, flats, sq, max_edges))
        if mobius is not None:
            report.passed = False
            report.witness = ("mobius-form", mobius)
    return report


@lru_cache(maxsize=_MINOR_MEMO)
def _stable_minors(g: IntegralGainGraph) -> _Combination:
    """The sum over stable partitions pi of g/pi plus the complete gain-0 graph."""
    neutral_pairs = [(t, h) for t, h, gain in g.edges if gain == 0]
    return _combine(
        (g.contract_partition(pi).add_neutral_complete(), 1) for pi in stable_partitions(g.n, neutral_pairs)
    )


def check_stable_partition_reduction(
    g: IntegralGainGraph,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> CheckReport:
    """F(graph) == sum over stable partitions pi of the gain-0 subgraph of
    F(graph/pi with the complete gain-0 graph added).  The largest graph
    summed, graph + K or, when a gain-0 loop leaves no stable partition, the
    graph itself, is refused at once when over max_edges, before any walk."""
    largest = g if g.has_neutral_loop() else g.add_neutral_complete()
    sq = _sample(selector, sample_q, default_sample_q(g.n), largest, max_edges)
    return _relations(
        "stable-partition-reduction", _describe(g), selector, [({g: 1}, _stable_minors(g))], sq, max_edges
    )


@lru_cache(maxsize=_MINOR_MEMO)
def _complete_sides(g: IntegralGainGraph) -> tuple[tuple[_Combination, _Combination], ...]:
    """The two relations of the complete-graph reduction, as (lhs, rhs) pairs."""
    contracted = [(g.contract_partition(pi), partition_mobius(pi)) for pi in set_partitions(g.n)]
    return (
        ({g.add_neutral_complete(): 1}, _combine(contracted)),
        ({g: 1}, _combine((h.add_neutral_complete(), 1) for h, _ in contracted)),
    )


def check_partition_complete_reduction(
    g: IntegralGainGraph,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> CheckReport:
    """For graphs without gain-0 edges: F(graph + complete gain-0 part) ==
    Mobius-weighted sum of F(graph/pi), and F(graph) == sum of
    F((graph/pi) + complete gain-0 part), over all partitions pi.  The
    graph + complete part is refused at once when over max_edges."""
    if g.neutral_indices():
        raise NeutralEdgePresent("the complete-graph reduction needs a gain-0-free graph")
    sq = _sample(selector, sample_q, default_sample_q(g.n), g.add_neutral_complete(), max_edges)
    return _relations("partition-complete-reduction", _describe(g), selector, _complete_sides(g), sq, max_edges)


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
    hence the modular default sample starts at 2.  catalan_n has the most
    edges of the graphs summed, so the guard reads it before any other is
    built.
    """
    catalan = catalan_graph(n)
    sq = _sample(selector, sample_q, range(2 if selector == "modular" else 0, n + 4), catalan, max_edges)
    orders = range(1, n + 1)
    catalans = _combine((catalan_graph(j), stirling2(n, j)) for j in orders)
    hollows = _combine((hollow_catalan_graph(j), stirling1_signed(n, j)) for j in orders)
    sides = [({hollow_catalan_graph(n): 1}, catalans), ({catalan: 1}, hollows)]
    instance = f"n={n}, {selector}"
    return _relations("catalan-hollow-relations", instance, selector, sides, sq, max_edges)


def check_linial_partition_expansion(
    n: int,
    selector: str,
    sample_q: Sequence[int] | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> CheckReport:
    """F(linial_n) == sum over partitions pi of [n] of F(sc(overlap graph of pi)).

    The expansion drops gain-1 loops, so the modular default sample starts at
    q = 2 (mod 1 every loop is neutral and the hypothesis fails).  linial_n is
    refused before the Bell(n) partitions are walked, and each sc graph
    before any graph is counted.
    """
    linial = FAMILY_BUILDERS["linial"](n)
    sq = _sample(selector, sample_q, range(2 if selector == "modular" else 0, n + 4), linial, max_edges)
    partitions = _combine((sc_partition_graph(pi), 1) for pi in set_partitions(n))
    for g in partitions:  # one may have more edges than linial_n: 12 against 6 at n = 4
        _guard(g, max_edges)
    sides = [({linial: 1}, partitions)]
    instance = f"n={n}, {selector}"
    return _relations("linial-partition-expansion", instance, selector, sides, sq, max_edges)


# -- total polynomial identities -----------------------------------------------------


@lru_cache(maxsize=_SPLIT_MEMO)
def _zero_free_shifted(g: IntegralGainGraph, max_edges: int) -> Poly2:
    """Zero-free polynomial of g with q replaced by q - z."""
    return zero_free_poly(g, max_edges).substitute_q(Q - Z)


@lru_cache(maxsize=_SPLIT_MEMO)
def _chromatic_in_z(n: int, pairs: tuple[tuple[int, int], ...]) -> Poly2:
    """Chromatic polynomial of an ordinary multigraph, in z."""
    return ordinary_chromatic_poly(n, list(pairs)).substitute_q(Z)


def _vertex_split(g: IntegralGainGraph, outside: Callable[[list[int]], Poly2], max_edges: int) -> Poly2:
    """sum over vertex subsets W of outside(V - W) * zero_free(g|W)(q - z),
    where outside gives a polynomial in z."""
    vertices = range(1, g.n + 1)
    total = Poly2.zero()
    for size in range(g.n + 1):
        for w in combinations(vertices, size):
            out_z = outside([v for v in vertices if v not in w])
            total = total + out_z * _zero_free_shifted(g.induced(w), max_edges)
    return total


def check_total_split(g: IntegralGainGraph, max_edges: int = DEFAULT_MAX_EDGES) -> CheckReport:
    """total(q, z) == sum over vertex subsets W of
    ordinary_chromatic(underlying graph on V-W)(z) * zero_free(g|W)(q - z).
    total(g) comes first, so g over max_edges is refused before any walk."""

    def outside(rest: list[int]) -> Poly2:
        return _chromatic_in_z(len(rest), tuple(g.induced(rest).underlying_pairs()))

    lhs = total_poly(g, max_edges)
    return _report("total-split", _describe(g), lhs, _vertex_split(g, outside, max_edges))


def check_total_uniform(family: str, n: int, max_edges: int = DEFAULT_MAX_EDGES) -> CheckReport:
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
    rhs_subsets = _vertex_split(whole, lambda rest: falling_factorial(len(rest)).substitute_q(Z), max_edges)
    return _report("total-complete", f"{family}, n={n}", lhs, rhs_subsets)


def check_disjoint_union_product(
    g1: IntegralGainGraph, g2: IntegralGainGraph, max_edges: int = DEFAULT_MAX_EDGES
) -> CheckReport:
    """total(g1 + g2) == total(g1) * total(g2) for disjoint unions."""
    lhs = total_poly(g1.disjoint_union(g2), max_edges)
    rhs = total_poly(g1, max_edges) * total_poly(g2, max_edges)
    return _report("disjoint-union-product", f"{_describe(g1)} + {_describe(g2)}", lhs, rhs)


# -- modular threshold and multi-zero agreement ----------------------------------------


def check_modular_threshold(g: IntegralGainGraph, span: int = 4, max_edges: int = DEFAULT_MAX_EDGES) -> CheckReport:
    """Modular counts equal the zero-free polynomial for q above the largest
    circle gain.  The value at the threshold itself is recorded, not asserted.
    The zero-free polynomial comes first, so g over max_edges is refused before any walk."""
    zf = zero_free_poly(g, max_edges)
    top = g.max_circle_gain()
    start = (top if top is not None else 0) + 1
    lhs = {q: _count("modular", g, q) for q in range(start, start + span)}
    rhs = {q: zf.evaluate(q) for q in range(start, start + span)}
    notes = None
    if top is not None and top >= 1:
        notes = f"at q = {top}: modular {_count('modular', g, top)}, zero-free {zf.evaluate(top)}"
    return _report("modular-threshold", _describe(g), lhs, rhs, notes)


def check_multizero_agreement(
    g: IntegralGainGraph, modulus: int, k: int, z: int, max_edges: int = DEFAULT_MAX_EDGES
) -> CheckReport:
    """Multi-zero coloration count of g mod m equals the total polynomial of
    g mod m evaluated at (k*m + z, z).  It comes first, so g over max_edges is refused before any walk."""
    gm = g.reduce_mod(modulus)
    rhs = total_poly(gm, max_edges).evaluate(k * modulus + z, z)
    lhs = count_multizero_colorings(gm, k, z)
    instance = f"{_describe(g)} mod {modulus}, k={k}, z={z}"
    return CheckReport("multizero-agreement", instance, lhs == rhs, lhs, rhs)


# -- invariance suite ---------------------------------------------------------------


def _random_switching(n: int, rng: random.Random) -> list[int]:
    """n values of rng.randint(-_SWITCHING_BOUND, _SWITCHING_BOUND), drawn as
    randint draws them: getrandbits of the width's bit length, redrawn while
    past the width.  The values and the generator state after them are
    randint's, with one call per draw where randint makes four."""
    width = 2 * _SWITCHING_BOUND + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    eta: list[int] = []
    while len(eta) < n:
        r = getrandbits(bits)
        if r < width:
            eta.append(r - _SWITCHING_BOUND)
    return eta


def _describe(g: IntegralGainGraph) -> str:
    return f"graph(n={g.n}, edges={list(g.edges)})"


# (label, selector, sample) for each function a law is checked under, in order.
_LAW_FUNCTIONS = (
    ("integral", "integral", range(5)),
    ("modular", "modular", range(1, 5)),
    ("total", "total", ()),
)


def _nonvanishing(combination: _Combination, functions, max_edges: int) -> str | None:
    """The label of the first function under which the combination is not 0."""
    for label, selector, sample in functions:
        zero = _evaluate(selector, {}, sample, max_edges)
        if _evaluate(selector, combination, sample, max_edges) != zero:
            return label
    return None


def _loop_functions(g: IntegralGainGraph) -> tuple:
    """The functions loop independence is checked under: the modular count
    only at the q where every nonzero loop gain of g stays nonzero mod q."""
    dropped = [gain for t, h, gain in g.edges if t == h and gain != 0]
    loop_qs = [q for q in range(2, 6) if all(gain % q for gain in dropped)]
    return _LAW_FUNCTIONS[0], ("modular", "modular", loop_qs), ("zero-free", "zero_free", ())


def _sweep(
    identity: str, instance: str, failures: list, lhs: str, rhs: str | None = None
) -> CheckReport:
    """A corpus sweep passes iff it collected no failures."""
    return CheckReport(identity, instance, not failures, lhs, rhs or lhs, failures or None)


def run_invariance_suite(
    corpus: Sequence[IntegralGainGraph],
    switchings: int = 100,
    seed: int = 0,
    union_samples: int = 50,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> list[CheckReport]:
    """Property sweep over a corpus: switching invariance of the modular, zero-free
    and total functions (with the integral non-invariance witness), gain-0 loop nullity,
    invariance under simplification, loop independence, deletion-contraction for gain-0
    links, and multiplicativity on disjoint unions.  The four laws in between are the
    rows of one table of combinations that must vanish.  Union samples need a nonempty corpus."""
    if union_samples > 0 and not corpus:
        raise ValueError("union_samples > 0 needs a nonempty corpus")
    rng = random.Random(seed)
    reports: list[CheckReport] = []
    mod_sample = (3, 4)

    # Switching invariance of modular / zero-free / total.  Random switchings
    # of small graphs repeat, so each distinct switched graph of g is built
    # and compared once; a repeat still counts as checked.  A switched graph
    # is known by its gains in g's stored edge order: parallel links shift
    # together and loops keep their gain, so the stored order stays sorted
    # and the gains determine the graph.  The set starts empty, so the
    # first switching is always compared.  A switching is compared at z = 0
    # only once its total equals the base total, so that comparison is the
    # same for every switching of a graph.  The modular check assumes that
    # the count mod q reads nothing but n and the gains mod q, as its
    # definition says (test_modular_count_reads_only_the_gains_mod_q holds it
    # to that), so switched counts are kept under that key, over the whole
    # sweep and apart from the _count memo, where they would evict corpus
    # counts.  The key names n and the (tail, head) pairs by the id of that
    # skeleton, so it holds the gains mod q and little else.
    skeletons: dict[tuple, int] = {}
    switched_mod: dict[tuple, int] = {}
    failures: list = []
    checked = 0
    for g in corpus:
        base_total = total_poly(g, max_edges)
        zero_free_agrees = base_total.substitute_z(0) == zero_free_poly(g, max_edges)
        base_mod = tuple(_count("modular", g, q) for q in mod_sample)
        compared: set[tuple[int, ...]] = set()
        pairs = [(t, h) for t, h, _ in g.edges]
        skeleton = skeletons.setdefault((g.n, tuple(pairs)), len(skeletons))
        for _ in range(switchings):
            eta = _random_switching(g.n, rng)
            checked += 1
            gains = tuple([gain - eta[t - 1] + eta[h - 1] for t, h, gain in g.edges])
            if gains in compared:
                continue
            compared.add(gains)
            # g.switch(eta), from the gains just computed
            switched = IntegralGainGraph._of(g.n, [(t, h, gain) for (t, h), gain in zip(pairs, gains)])
            if total_poly(switched, max_edges) != base_total:
                failures.append((_describe(g), dict(enumerate(eta, 1)), "total"))
                break
            if not zero_free_agrees:
                failures.append((_describe(g), dict(enumerate(eta, 1)), "zero-free"))
                break
            counts = []
            for q in mod_sample:
                key = (q, skeleton, tuple([gain % q for gain in gains]))
                count = switched_mod.get(key)
                if count is None:
                    count = switched_mod[key] = count_modular_colorings(switched, q)
                counts.append(count)
            if tuple(counts) != base_mod:
                failures.append((_describe(g), dict(enumerate(eta, 1)), "modular"))
                break
    reports.append(
        _sweep(
            "switching-invariance",
            f"{len(corpus)} graphs x {switchings} switchings",
            failures,
            f"{checked} switched comparisons",
            "all equal",
        )
    )

    # The integral count must NOT be switching invariant: a single edge of
    # gain 1 switches to gain 0 with different counts (q(q-1)+1 vs q(q-1)).
    one_edge = IntegralGainGraph(2, [(1, 2, 1)])
    switched = one_edge.switch({1: 0, 2: -1})
    witness_counts = (_count("integral", one_edge, 2), _count("integral", switched, 2))
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

    # The vanishing laws, one row (identity, what, holds, cases) each.  A case
    # (g, tag, combination, functions) fails if it has no combination or one
    # that is not 0 under a function; its witness is g with the tag, or with
    # that function's label if the tag is None.
    laws = (
        ("neutral-loop-nullity", "corpus graphs with a gain-0 loop", "all zero",
         [(g, None, {g: 1}, _LAW_FUNCTIONS) for g in corpus if g.has_neutral_loop()]),
        # Simplification: once g with every edge doubled simplifies to
        # g.simplify(), {doubled: 1, g: -1} vanishes.
        ("simplification-invariance", "graphs, every edge doubled", "functions unchanged",
         [(g, None, _combine([(d, 1), (g, -1)]), _LAW_FUNCTIONS) if d.simplify() == g.simplify()
          else (g, "simplify", None, ()) for g in corpus for d in [IntegralGainGraph(g.n, list(g.edges) * 2)]]),
        # Loop independence: dropping nonzero-gain loops changes nothing but the
        # total polynomial (excluded by design), so {stripped: 1, g: -1} vanishes.
        ("loop-independence", "corpus graphs with nonzero-gain loops", "counts unchanged",
         [(g, None, {s: 1, g: -1}, _loop_functions(g))
          for g in corpus for s in [g.without_nonneutral_loops()] if s != g]),
        ("neutral-deletion-contraction", "gain-0 links across the corpus", "recurrence holds",
         [(g, i, _combine([(g, 1), (g.delete_edges([i]), -1), (g.contract_neutral_set([i]), 1)]),
           _LAW_FUNCTIONS) for g in corpus for i, (t, h, gain) in enumerate(g.edges) if gain == 0 and t != h]),
    )
    for identity, what, holds, cases in laws:
        failures = []
        for g, tag, combination, functions in cases:
            label = tag if combination is None else _nonvanishing(combination, functions, max_edges)
            if label is not None:
                failures.append((_describe(g), label if tag is None else tag))
        reports.append(_sweep(identity, f"{len(cases)} {what}", failures, holds))

    # Multiplicativity over disjoint unions.
    failures = []
    for _ in range(union_samples):
        g1 = rng.choice(corpus)
        g2 = rng.choice(corpus)
        report = check_disjoint_union_product(g1, g2, max_edges)
        if not report.passed:
            failures.append(report.instance)
    instance = f"{union_samples} random corpus pairs"
    reports.append(_sweep("disjoint-union-product", instance, failures, "products equal"))

    return reports


# -- fixture corpus -----------------------------------------------------------------


def fixture_corpus(max_n: int = 3, max_edges: int = 4) -> tuple[IntegralGainGraph, ...]:
    """Every gain graph with n <= max_n, gains in {-1, 0, 1}, and at most
    max_edges edges, one representative per isomorphism class."""
    return _corpus(max_n, max_edges)


# Keyed by value: the builder is called positionally, however the caller
# spelled the arguments.  Callers use at most four keys in one process.
@lru_cache(maxsize=4)
def _corpus(max_n: int, max_edges: int) -> tuple[IntegralGainGraph, ...]:
    """Each n's edge subsets in ``combinations`` order, the first of each
    orbit under the vertex permutations kept, as the module docstring says."""
    graphs: list[IntegralGainGraph] = []
    for n in range(max_n + 1):
        universe: list[tuple[int, int, int]] = []
        for i in range(1, n + 1):
            universe.append((i, i, 0))
            universe.append((i, i, 1))
            for j in range(i + 1, n + 1):
                for gain in (-1, 0, 1):
                    universe.append((i, j, gain))
        index = {e: i for i, e in enumerate(universe)}
        # the identity comes first; a reversed link negates its gain, a loop keeps it
        images = [
            [1 << index[_canonical_edge(n, p[t - 1], p[h - 1], g)] for t, h, g in universe]
            for p in permutations(range(1, n + 1))
        ]
        identity = images[0]
        seen: set[int] = set()
        for size in range(min(max_edges, len(universe)) + 1):
            for subset in combinations(range(len(universe)), size):
                if sum(map(identity.__getitem__, subset)) in seen:
                    continue
                seen.update(sum(map(image.__getitem__, subset)) for image in images)
                # the universe is canonical and sorted, and so is each subset of it
                graphs.append(IntegralGainGraph._of(n, [universe[i] for i in subset]))
    return tuple(graphs)


# -- verify suites ------------------------------------------------------------------

# The suites of `gainchrom verify`, in the order `--suite all` runs them.
SUITES = ("first", "second", "complete", "catalan", "linial", "total", "invariance")

# Checks are looked up by suite name in module-level dicts, never compared
# or captured as function objects, so that a wrapper re-bound in the dict
# (as a tracer does) is the one that runs.
_CORPUS_CHECKS = {
    "first": check_neutral_subset_reduction,
    "second": check_stable_partition_reduction,
    "complete": check_partition_complete_reduction,
}
_FAMILY_CHECKS = {"catalan": check_catalan_hollow_relations, "linial": check_linial_partition_expansion}


def _suite_reports(
    suites: Iterable[str], graph: IntegralGainGraph | None, n: int, switchings: int, max_edges: int
) -> list[CheckReport]:
    """The reports of the named suites, in order, over ``graph`` alone or
    else the fixture corpus up to min(n, 3) vertices, built once.  The
    Catalan and Linial suites run sizes 1..n, the total-uniform families
    1..min(n, 3); complete skips graphs with gain-0 edges."""
    corpus = (graph,) if graph is not None else fixture_corpus(max_n=min(n, 3))
    reports: list[CheckReport] = []
    for suite in suites:
        if suite in _CORPUS_CHECKS:
            for g in corpus:
                if suite == "complete" and g.neutral_indices():
                    continue
                reports.append(_CORPUS_CHECKS[suite](g, "integral", range(0, 6), max_edges))
                reports.append(_CORPUS_CHECKS[suite](g, "zero_free", max_edges=max_edges))
        elif suite in _FAMILY_CHECKS:
            for size in range(1, n + 1):
                for selector in ("integral", "modular", "zero_free"):
                    reports.append(_FAMILY_CHECKS[suite](size, selector, max_edges=max_edges))
                if suite == "linial":
                    ath, closed = linial_athanasiadis(size), linial_closed_forms(size).zero_free
                    reports.append(CheckReport("linial-athanasiadis", f"n={size}", ath == closed, ath, closed))
        elif suite == "total":
            reports.extend(check_total_split(g, max_edges) for g in corpus)
            for family in ("catalan", "hollow-catalan", "shi", "linial"):
                for size in range(1, min(n, 3) + 1):
                    reports.append(check_total_uniform(family, size, max_edges))
        elif suite == "invariance":
            reports.extend(run_invariance_suite(corpus, switchings=switchings, max_edges=max_edges))
            reports.extend(check_modular_threshold(g, max_edges=max_edges) for g in corpus)
            reports.extend(check_multizero_agreement(g, m, 1, 1, max_edges) for g in corpus for m in (2, 3))
    return reports
