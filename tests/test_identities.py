"""Identity checkers: worked instances, sensitivity, and corpus structure."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from gainchrom import identities
from gainchrom.chromatic import TooManyEdges, count_integral_colorings, count_modular_colorings, total_poly
from gainchrom.families import catalan_graph, hollow_catalan_graph, linial_graph, shi_graph
from gainchrom.gaingraph import IntegralGainGraph
from gainchrom.combinatorics import stirling1_signed
from gainchrom.identities import (
    CheckReport,
    NeutralEdgePresent,
    _combine,
    _describe,
    _neutral_expansions,
    check_catalan_hollow_relations,
    check_disjoint_union_product,
    check_linial_partition_expansion,
    check_modular_threshold,
    check_multizero_agreement,
    check_neutral_subset_reduction,
    check_ordinary_expansions,
    check_partition_complete_reduction,
    check_stable_partition_reduction,
    check_total_split,
    check_total_uniform,
    fixture_corpus,
    run_invariance_suite,
)
from gainchrom.poly import Q, Z, Poly2, falling_factorial


def test_ordinary_expansions():
    assert check_ordinary_expansions(3, [(1, 2), (2, 3), (1, 3)]).passed
    path = check_ordinary_expansions(3, [(1, 2), (2, 3)])
    assert path.passed
    assert path.lhs == falling_factorial(3) + falling_factorial(2)
    assert path.lhs == Q * (Q - 1) * (Q - 1)
    assert check_ordinary_expansions(2, [(1, 1), (1, 2)]).passed  # loop: 0 == 0
    assert check_ordinary_expansions(2, [(1, 2), (1, 2)]).passed  # parallel pair


def test_neutral_subset_reduction_worked_instance():
    # chi(shi_2) = chi(linial_2) - chi(one-vertex gain-1 loop) at q = 5:
    # 16 = 21 - 5
    report = check_neutral_subset_reduction(shi_graph(2), "integral", [5])
    assert report.passed
    assert report.lhs == {5: 16}
    assert count_integral_colorings(linial_graph(2), 5) == 21


def test_neutral_subset_reduction_no_neutral_edges():
    g = linial_graph(3)
    report = check_neutral_subset_reduction(g, "integral", range(5))
    assert report.passed  # only the empty subset contributes


def test_neutral_subset_reduction_neutral_loop():
    g = IntegralGainGraph(2, [(1, 1, 0), (1, 2, 1)])
    for selector in ("integral", "zero_free", "total"):
        report = check_neutral_subset_reduction(g, selector, range(5))
        assert report.passed


def test_neutral_subset_and_flat_expansions_are_equal_combinations():
    # the first reduction before any chromatic function is applied: a gain-0
    # subset and its closure contract to the same minor, so the subset terms
    # and the Mobius-weighted flat terms combine to the same element
    terms = distinct = nonzero = 0
    for g in fixture_corpus():
        subsets, flats = _neutral_expansions(g)
        combination = _combine(subsets)
        assert combination == _combine(flats)
        terms += len(subsets)
        distinct += len({minor for minor, _ in subsets})
        nonzero += len(combination)
    assert (terms, distinct, nonzero) == (1357, 723, 328)


def test_combine_drops_graphs_whose_coefficients_cancel():
    a, b, c = IntegralGainGraph(1), IntegralGainGraph(2), IntegralGainGraph(2, [(1, 2, 1)])
    assert _combine([(a, 1), (b, 2), (a, -1), (c, 1), (b, -2)]) == {c: 1}
    assert _combine([(a, 2), (a, -2)]) == {}
    assert _combine([(a, 1), (b, 1), (a, -1), (a, 3)]) == {a: 3, b: 1}


def test_neutral_subset_reduction_zero_free_catalan():
    assert check_neutral_subset_reduction(catalan_graph(3), "zero_free").passed


# 11 links of nonzero gain on 9 vertices: with the 36 gain-0 links of K_9
# both reductions sum a 47-edge graph, over the default guard of 26
_LINKS_9 = [(1, 2, 1), (1, 5, 1), (4, 9, 1), (5, 8, 2), (2, 8, 2), (1, 8, -1), (8, 9, -1), (3, 4, 2), (3, 7, 2), (3, 4, -1), (7, 9, -1)]


def test_stable_partition_reduction():
    assert check_stable_partition_reduction(shi_graph(2), "modular", [5]).passed
    assert check_stable_partition_reduction(catalan_graph(3), "total").passed
    assert check_stable_partition_reduction(linial_graph(3), "integral", range(7)).passed
    # a gain-0 loop leaves no stable partition, so both sides are 0 and no
    # graph plus K_9 is summed
    looped = IntegralGainGraph(9, _LINKS_9 + [(4, 4, 0)])
    assert check_stable_partition_reduction(looped, "zero_free").passed
    assert check_stable_partition_reduction(looped, "integral", range(4)).passed


def test_partition_complete_reduction():
    report = check_partition_complete_reduction(hollow_catalan_graph(2), "integral", [3])
    assert report.passed
    assert check_partition_complete_reduction(linial_graph(3), "integral", [4, 5, 6]).passed
    assert check_partition_complete_reduction(IntegralGainGraph(3), "zero_free").passed
    with pytest.raises(NeutralEdgePresent):
        check_partition_complete_reduction(shi_graph(2), "integral", [3])


_K8 = IntegralGainGraph(8, [(i, j, 0) for i in range(1, 9) for j in range(i + 1, 9)])


@pytest.mark.parametrize(
    "check", [check_neutral_subset_reduction, check_stable_partition_reduction, check_partition_complete_reduction]
)
@pytest.mark.parametrize("selector", ["integral", "modular", "zero_free", "total"])
def test_partition_reductions_refuse_before_walking(monkeypatch, check, selector):
    # the largest graph the first reduction sums is the graph itself, here
    # K_8 with 28 gain-0 links; the other two sum 11 links plus K_9's 36
    def walk(*args):
        raise AssertionError("a subset or partition walk started")

    for name in ("stable_partitions", "set_partitions", "combinations", "_flat_weights", "count_integral_colorings",
                 "count_modular_colorings"):
        monkeypatch.setattr(identities, name, walk)
    g, edges = (_K8, 28) if check is check_neutral_subset_reduction else (IntegralGainGraph(9, _LINKS_9), 47)
    with pytest.raises(TooManyEdges, match=f"^{edges} edges exceed the expansion bound 26$"):
        check(g, selector)


@pytest.mark.parametrize(
    "check",
    [check_total_split, check_modular_threshold, lambda g: check_multizero_agreement(g, 3, 1, 1)],
    ids=["total-split", "modular-threshold", "multizero-agreement"],
)
def test_engine_checks_refuse_before_walking(monkeypatch, check):
    # each computes its guarded engine value before it walks vertex subsets,
    # circles or colourings
    def walk(*args):
        raise AssertionError("a walk started")

    for name in ("_vertex_split", "count_modular_colorings", "count_multizero_colorings"):
        monkeypatch.setattr(identities, name, walk)
    monkeypatch.setattr(IntegralGainGraph, "max_circle_gain", walk)
    with pytest.raises(TooManyEdges, match="^28 edges exceed the expansion bound 26$"):
        check(_K8)


@pytest.mark.parametrize("selector", ["integral", "modular", "zero_free", "total"])
@pytest.mark.parametrize(
    "check, n, walks, edges, bound",
    [
        (check_catalan_hollow_relations, 6, ("set_partitions",), 45, 32),
        (check_linial_partition_expansion, 8, ("set_partitions",), 28, 26),
        # linial_6 has 15 edges; the sc graph of the six singletons has 30
        (check_linial_partition_expansion, 6, (), 30, 26),
    ],
    ids=["catalan-6", "linial-8", "linial-6"],
)
def test_family_relations_refuse_before_walking(monkeypatch, check, n, walks, edges, bound, selector):
    # catalan_n and linial_n are guarded before anything is walked, and the
    # sc graphs of the Linial expansion before any graph is counted
    def walk(*args):
        raise AssertionError("a walk or a count started")

    for name in (*walks, "count_integral_colorings", "count_modular_colorings", "total_poly", "zero_free_poly"):
        monkeypatch.setattr(identities, name, walk)
    with pytest.raises(TooManyEdges, match=f"^{edges} edges exceed the expansion bound {bound}$"):
        check(n, selector)


_NO_NEUTRAL = IntegralGainGraph(3, [(1, 2, 1), (2, 3, -1)])


@pytest.mark.parametrize(
    "check, arg",
    [
        (check_neutral_subset_reduction, _NO_NEUTRAL),
        (check_stable_partition_reduction, _NO_NEUTRAL),
        (check_partition_complete_reduction, _NO_NEUTRAL),
        (check_catalan_hollow_relations, 3),
        (check_linial_partition_expansion, 3),
    ],
    ids=["neutral-subset", "stable-partition", "partition-complete", "catalan-hollow", "linial"],
)
def test_unknown_selector_is_refused_before_any_minor(monkeypatch, check, arg):
    def walk(*args):
        raise AssertionError("a subset or partition walk started")

    for name in ("set_partitions", "stable_partitions", "combinations"):
        monkeypatch.setattr(identities, name, walk)
    with pytest.raises(ValueError, match="unknown selector 'bogus'"):
        check(arg, "bogus")


def test_catalan_hollow_worked_instance():
    # F(hollow_2) = 5 = S(2,1) F(catalan_1) + S(2,2) F(catalan_2) = 3 + 2 at q=3
    assert count_integral_colorings(hollow_catalan_graph(2), 3) == 5
    assert count_integral_colorings(catalan_graph(1), 3) == 3
    assert count_integral_colorings(catalan_graph(2), 3) == 2
    report = check_catalan_hollow_relations(2, "integral", [3])
    assert report.passed
    for selector in ("integral", "modular", "zero_free"):
        assert check_catalan_hollow_relations(1, selector).passed
        assert check_catalan_hollow_relations(3, selector).passed


def test_linial_expansion_worked_instance():
    # F(linial_2) = 7 = F(shi_2) + F(shi_1) = 4 + 3 at q=3
    report = check_linial_partition_expansion(2, "integral", [3])
    assert report.passed
    assert report.lhs == {3: 7}
    for selector in ("integral", "modular", "zero_free"):
        assert check_linial_partition_expansion(3, selector).passed
        assert check_linial_partition_expansion(1, selector).passed


def test_total_split_hand_expansion():
    # catalan_2: q^2 - 3q + 2z = z(z-1) + 2 z (q-z) + (q-z)(q-z-3)
    report = check_total_split(catalan_graph(2))
    assert report.passed
    hand = Z * (Z - 1) + 2 * Z * (Q - Z) + (Q - Z) * (Q - Z - 3)
    assert hand == total_poly(catalan_graph(2))
    # one edgeless vertex: q = z + (q - z)
    assert check_total_split(IntegralGainGraph(1)).passed
    assert check_total_split(shi_graph(2)).passed
    assert check_total_split(IntegralGainGraph(2, [(1, 1, 1), (1, 2, -1)])).passed


def test_total_split_builds_each_outside_polynomial_once(monkeypatch):
    # the outside graphs of the corpus repeat; each distinct one is built
    # and turned into a polynomial in z once, however many splits meet it
    made = Counter()
    build = identities.ordinary_chromatic_poly

    def counted(n, pairs):
        made[n, tuple(pairs)] += 1
        return build(n, pairs)

    monkeypatch.setattr(identities, "ordinary_chromatic_poly", counted)
    identities._chromatic_in_z.cache_clear()
    corpus = fixture_corpus(3)
    assert all(check_total_split(g).passed for g in corpus)
    identities._chromatic_in_z.cache_clear()
    assert max(made.values()) == 1 and sum(made.values()) < len(corpus)


@pytest.mark.parametrize(
    "check, method, graph",
    [
        (check_neutral_subset_reduction, "contract_neutral_set", IntegralGainGraph(3, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (1, 1, 1)])),
        (check_stable_partition_reduction, "contract_partition", IntegralGainGraph(3, [(1, 2, 0), (2, 3, 1), (1, 3, -1)])),
        (check_partition_complete_reduction, "contract_partition", IntegralGainGraph(3, [(1, 2, 1), (2, 3, -1)])),
    ],
    ids=["neutral-subset", "stable-partition", "partition-complete"],
)
def test_both_selectors_of_a_check_share_one_build_of_its_minors(monkeypatch, check, method, graph):
    # the verify suites check each graph under integral, then zero_free
    calls = Counter()
    contract = getattr(IntegralGainGraph, method)

    def counted(self, arg):
        calls[method] += 1
        return contract(self, arg)

    monkeypatch.setattr(IntegralGainGraph, method, counted)
    for memo in (identities._neutral_combinations, identities._stable_minors, identities._complete_sides):
        memo.cache_clear()
    assert check(graph, "integral", range(6)).passed
    built = calls[method]
    assert built > 1
    assert check(graph, "zero_free").passed
    assert calls[method] == built


def test_total_uniform_small():
    for family in ("catalan", "hollow-catalan", "shi", "linial"):
        for n in (1, 2, 3):
            assert check_total_uniform(family, n).passed
    # shi_1: q = z + (q - z)
    report = check_total_uniform("shi", 1)
    assert report.lhs == Q


def test_disjoint_union_product():
    assert check_disjoint_union_product(shi_graph(2), catalan_graph(2)).passed
    assert check_disjoint_union_product(IntegralGainGraph(0), shi_graph(2)).passed


def test_modular_threshold():
    report = check_modular_threshold(catalan_graph(2))
    assert report.passed
    assert report.notes is not None  # records (not asserts) the boundary value
    assert check_modular_threshold(IntegralGainGraph(2, [(1, 2, 7)])).passed


def test_multizero_agreement():
    assert check_multizero_agreement(catalan_graph(2), 5, 1, 0).passed
    assert check_multizero_agreement(catalan_graph(2), 5, 1, 1).passed
    assert check_multizero_agreement(IntegralGainGraph(1, [(1, 1, 1)]), 2, 0, 1).passed


def test_report_fails_on_wrong_identity():
    # sanity: a deliberately wrong expected value must not pass
    report = check_neutral_subset_reduction(shi_graph(2), "integral", [5])
    assert report.lhs != {5: 15}


def test_fixture_corpus_structure():
    corpus = fixture_corpus()
    assert len(corpus) == 418
    sizes = {g.n for g in corpus}
    assert sizes == {0, 1, 2, 3}
    assert all(len(g.edges) <= 4 for g in corpus)
    assert all(abs(gain) <= 1 for g in corpus for _, _, gain in g.edges)
    keys = [_iso_key(g) for g in corpus]
    assert len(set(keys)) == len(keys)


def _iso_key(g: IntegralGainGraph) -> tuple:
    """Least relabelled edge tuple over all n! vertex permutations."""
    relabelled = [[(p[t - 1], p[h - 1], gain) for t, h, gain in g.edges] for p in permutations(range(1, g.n + 1))]
    return (g.n, min(IntegralGainGraph(g.n, edges).edges for edges in relabelled))


def _first_of_each_iso_class(max_n: int, max_edges: int = 4) -> list[IntegralGainGraph]:
    """The corpus by its definition: every subset of each n's edge universe
    in combinations order, kept when its _iso_key is new."""
    graphs, seen = [], set()
    for n in range(max_n + 1):
        loops = [(v, v, gain) for v in range(1, n + 1) for gain in (0, 1)]
        links = [(t, h, gain) for t, h in combinations(range(1, n + 1), 2) for gain in (-1, 0, 1)]
        universe = sorted(loops + links)
        for size in range(min(max_edges, len(universe)) + 1):
            for subset in combinations(universe, size):
                g = IntegralGainGraph(n, subset)
                key = _iso_key(g)
                if key not in seen:
                    seen.add(key)
                    graphs.append(g)
    return graphs


def test_fixture_corpus_keeps_the_first_graph_of_each_iso_class():
    # the corpus is built from permutation orbits of edge bitmasks, never
    # searching permutations per graph; it must be the same graphs in the same order
    for max_n in range(4):
        corpus = fixture_corpus(max_n)
        reference = _first_of_each_iso_class(max_n)
        assert [(g.n, g.edges) for g in corpus] == [(g.n, g.edges) for g in reference]
    larger = fixture_corpus(4)
    assert len(larger) == 1323
    assert len({_iso_key(g) for g in larger}) == 1323


def test_fixture_corpus_is_cached_by_value():
    identities._corpus.cache_clear()
    corpus = fixture_corpus()
    assert fixture_corpus(3) is corpus and fixture_corpus(max_n=3) is corpus
    assert identities._corpus.cache_info().misses == 1


def test_invariance_suite_smoke():
    corpus = fixture_corpus()[:60]
    reports = run_invariance_suite(corpus, switchings=5, union_samples=10)
    by_name = {r.identity: r for r in reports}
    assert by_name["switching-invariance"].passed
    assert by_name["neutral-loop-nullity"].passed
    assert by_name["simplification-invariance"].passed
    assert by_name["loop-independence"].passed
    assert by_name["neutral-deletion-contraction"].passed
    assert by_name["disjoint-union-product"].passed


def test_invariance_suite_on_one_graph_with_a_gain_2_loop():
    # one graph holds no corpus witness pair, and its gain-2 loop is 0 mod 2
    g = IntegralGainGraph(2, [(1, 1, 2), (1, 2, 1)])
    reports = run_invariance_suite([g], switchings=3, union_samples=2)
    assert [r.identity for r in reports if not r.passed] == []


def test_invariance_suite_refuses_an_empty_corpus_it_must_sample():
    # the union sample drew from the empty corpus with rng.choice
    with pytest.raises(ValueError, match="nonempty corpus"):
        run_invariance_suite([], switchings=1)
    reports = run_invariance_suite([], switchings=1, union_samples=0)
    assert all(r.passed for r in reports)


@pytest.fixture
def fresh_oracle_memo():
    identities._count.cache_clear()
    yield
    identities._count.cache_clear()


# each function the invariance suite reads, and the label its failures carry
_FAKED = [
    ("count_integral_colorings", "integral"),
    ("count_modular_colorings", "modular"),
    ("total_poly", "total"),
    ("zero_free_poly", "zero-free"),
]


@pytest.mark.parametrize("name, label", _FAKED)
def test_invariance_laws_report_their_failures(monkeypatch, fresh_oracle_memo, name, label):
    # a function that counts edges breaks every law it takes part in, and
    # each law names the first function it fails under
    if name.startswith("count_"):
        monkeypatch.setattr(identities, name, lambda g, q: len(g.edges))
    else:
        monkeypatch.setattr(identities, name, lambda g, max_edges=26: Poly2.const(len(g.edges)))
    loop = IntegralGainGraph(2, [(1, 1, 0), (1, 2, 1)])  # a gain-0 loop
    link = IntegralGainGraph(2, [(1, 1, 1), (1, 2, 0)])  # a gain-1 loop and a gain-0 link
    reports = run_invariance_suite([loop, link], switchings=1, union_samples=1)
    witnesses = {r.identity: r.witness for r in reports}
    # nullity, simplification and deletion-contraction cover the integral,
    # modular and total functions; loop independence swaps total for zero-free
    covered = label in ("integral", "modular", "total")
    loop_covered = label in ("integral", "modular", "zero-free")
    expected = {
        "neutral-loop-nullity": [(_describe(loop), label)] if covered else None,
        "simplification-invariance": [(_describe(loop), label), (_describe(link), label)]
        if covered
        else None,
        "loop-independence": [(_describe(link), label)] if loop_covered else None,
        "neutral-deletion-contraction": [(_describe(link), 1)] if covered else None,
    }
    assert {identity: witnesses[identity] for identity in expected} == expected


def test_simplification_reports_a_doubled_graph_that_does_not_simplify(monkeypatch, fresh_oracle_memo):
    # the doubled graph is compared with g.simplify() before any function
    monkeypatch.setattr(IntegralGainGraph, "simplify", lambda self: self)
    loop = IntegralGainGraph(2, [(1, 1, 0), (1, 2, 1)])
    link = IntegralGainGraph(2, [(1, 1, 1), (1, 2, 0)])
    reports = run_invariance_suite([loop, link, IntegralGainGraph(1)], switchings=1, union_samples=1)
    [report] = [r for r in reports if r.identity == "simplification-invariance"]
    assert not report.passed
    assert report.instance == "3 graphs, every edge doubled"
    assert report.witness == [(_describe(loop), "simplify"), (_describe(link), "simplify")]


def test_switching_sweep_makes_each_distinct_comparison_once(monkeypatch, fresh_oracle_memo):
    corpus, switchings = fixture_corpus(2), 30
    # the switched graphs of the seed-0 stream, built by the constructor
    rng = random.Random(0)
    graphs = 0
    keys = set()
    for g in corpus:
        etas = [{v: rng.randint(-3, 3) for v in range(1, g.n + 1)} for _ in range(switchings)]
        switched = {IntegralGainGraph(g.n, [(t, h, gain - eta[t] + eta[h]) for t, h, gain in g.edges]) for eta in etas}
        graphs += len(switched)
        keys.update((q, s.n, tuple((t, h, gain % q) for t, h, gain in s.edges)) for s in switched for q in (3, 4))
    assert graphs < len(corpus) * switchings and len(keys) < 2 * graphs  # the sweep meets repeats

    calls = Counter()

    def counted(name):
        f = getattr(identities, name)

        def call(*args):
            calls[name] += 1
            return f(*args)

        return call

    for name in ("total_poly", "count_modular_colorings"):
        monkeypatch.setattr(identities, name, counted(name))

    def sweep_calls(switchings):
        # with no union samples the rest of the suite makes the same calls at any number of switchings
        identities._count.cache_clear()
        calls.clear()
        reports = run_invariance_suite(corpus, switchings=switchings, union_samples=0)
        assert all(r.passed for r in reports)
        return Counter(calls)

    made = sweep_calls(switchings)
    made.subtract(sweep_calls(0))
    assert made == {"total_poly": graphs, "count_modular_colorings": len(keys)}


def test_switching_draws_are_randint_draws():
    # the sweep draws its switchings without randint, on randint's stream, so
    # the union samples after it see the same generator state
    for seed in range(10):
        for n in range(5):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(30):
                assert identities._random_switching(n, ours) == [theirs.randint(-3, 3) for _ in range(n)]
            assert ours.getstate() == theirs.getstate()


def test_modular_count_reads_only_the_gains_mod_q():
    # the switching sweep keys its modular counts by the gains mod q, so a
    # count may not change when any gain moves by a multiple of q
    rng = random.Random(11)
    for g in fixture_corpus():
        for q in range(1, 6):
            count = count_modular_colorings(g, q)
            reduced = IntegralGainGraph(g.n, [(t, h, gain % q) for t, h, gain in g.edges])
            shifted = IntegralGainGraph(g.n, [(t, h, gain + q * rng.randint(-3, 3)) for t, h, gain in g.edges])
            assert count_modular_colorings(reduced, q) == count == count_modular_colorings(shifted, q), (g.edges, q)


@pytest.mark.parametrize("name, label", _FAKED)
def test_switching_and_union_sweeps_report_their_failures(monkeypatch, fresh_oracle_memo, name, label):
    # a function that sums the gains changes under switching, and its total
    # is no product over a disjoint union
    if name.startswith("count_"):
        monkeypatch.setattr(identities, name, lambda g, q: sum(gain for _, _, gain in g.edges))
    else:
        monkeypatch.setattr(identities, name, lambda g, max_edges=26: Poly2.const(sum(gain for _, _, gain in g.edges)))
    loop = IntegralGainGraph(2, [(1, 1, 0), (1, 2, 1)])
    link = IntegralGainGraph(2, [(1, 1, 1), (1, 2, 0)])
    reports = run_invariance_suite([loop, link], switchings=1, union_samples=1)
    witnesses = {r.identity: r.witness for r in reports}
    # the seed-0 switching {1: 3, 2: 0} changes the gain of each link
    switched = [(_describe(g), {1: 3, 2: 0}, label) for g in (loop, link)]
    assert witnesses["switching-invariance"] == (None if label == "integral" else switched)
    assert witnesses["integral-noninvariance-witness"] is None
    union = [f"{_describe(loop)} + {_describe(link)}"] if label == "total" else None
    assert witnesses["disjoint-union-product"] == union


def test_catalan_relations_report_the_relation_that_fails(monkeypatch, fresh_oracle_memo):
    # hollow_2 enters only the second relation, F(catalan_3) == sum_j
    # s(3,j) F(hollow_j), so a count off by one there fails that relation alone
    hollow_2 = hollow_catalan_graph(2)

    def off_by_one(g, q):
        return count_integral_colorings(g, q) + (g == hollow_2)

    monkeypatch.setattr(identities, "count_integral_colorings", off_by_one)
    report = check_catalan_hollow_relations(3, "integral", [4])
    lhs = count_integral_colorings(catalan_graph(3), 4)
    assert not report.passed
    assert report.lhs == {4: lhs}
    assert report.witness == ("q", 4, lhs, lhs + stirling1_signed(3, 2))


def test_check_report_is_a_mutable_record():
    report = CheckReport("id", "n=1", True, Q, Q)
    assert report == CheckReport(identity="id", instance="n=1", passed=True, lhs=Q, rhs=Q)
    assert (report.identity, report.instance, report.passed) == ("id", "n=1", True)
    assert (report.lhs, report.rhs, report.witness, report.notes) == (Q, Q, None, None)
    assert repr(report) == (
        f"CheckReport(identity='id', instance='n=1', passed=True, lhs={Q!r}, rhs={Q!r}, "
        "witness=None, notes=None)"
    )
    report.passed, report.witness, report.notes = False, ("q", 1, 2, 3), "changed"
    assert report == CheckReport("id", "n=1", False, Q, Q, ("q", 1, 2, 3), "changed")
    assert report != CheckReport("id", "n=1", True, Q, Q)
    with pytest.raises(TypeError):
        hash(report)
