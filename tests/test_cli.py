"""Command line surface: output formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gainchrom
from gainchrom import identities
from gainchrom.chromatic import count_integral_colorings, count_modular_colorings
from gainchrom.cli import main, parse_partition
from gainchrom.families import hollow_catalan_graph, linial_closed_forms
from gainchrom.gaingraph import IntegralGainGraph
from gainchrom.poly import parse_poly

from test_poly import poly_from_term_list


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_shi_closed_form(capsys):
    code, out = run_cli(capsys, "eval", "--family", "shi", "--n", "3", "--function", "integral", "--q", "5")
    assert code == 0
    assert out == "5\t27\n"


def test_eval_repeatable_q_and_validity_annotation(capsys):
    code, out = run_cli(
        capsys, "eval", "--family", "shi", "--n", "3", "--function", "integral", "--q", "1", "--q", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1\t") and lines[0].endswith("# below_valid_range")
    assert lines[1] == "5\t27"


def test_poly_linial_zero_free(capsys):
    code, out = run_cli(capsys, "poly", "--family", "linial", "--n", "2", "--function", "zero-free")
    assert code == 0
    assert out == "q^2 - q\n"


def test_poly_json_round_trip(capsys):
    code, out = run_cli(
        capsys, "poly", "--family", "linial", "--n", "3", "--function", "zero-free", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert poly_from_term_list(doc["polynomial"]) == linial_closed_forms(3).zero_free


def test_poly_text_parses_back(capsys):
    code, out = run_cli(capsys, "poly", "--family", "catalan", "--n", "3", "--function", "total")
    assert code == 0
    parsed = parse_poly(out.strip())
    from gainchrom.chromatic import total_poly
    from gainchrom.families import catalan_graph

    assert parsed == total_poly(catalan_graph(3))


def test_graph_file_sources(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 2, "edges": [[2, 1, -1], [1, 2, 0]]}))
    code, out = run_cli(capsys, "eval", "--graph", str(path), "--function", "integral", "--q", "3")
    assert code == 0
    # canonicalized to the shi graph on two vertices
    assert out == "3\t4\n"


# A 5-vertex graph on which the colouring oracle walks about q^4
# colourings, so it never finishes at q = 10^9.
G5 = {"n": 5, "edges": [[1, 2, 1], [2, 3, -1], [3, 4, 2], [4, 5, 0], [1, 5, 3], [2, 4, 1]]}


def _interpolate(points: list[tuple[int, int]], x: int) -> int:
    """The polynomial through the points (Lagrange), at x."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    assert total.denominator == 1
    return int(total)


def test_eval_file_graph_integral_at_huge_q_finishes(tmp_path):
    path = tmp_path / "g5.json"
    path.write_text(json.dumps(G5))
    src = str(Path(gainchrom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    q = 10**9
    proc = subprocess.run(
        [sys.executable, "-m", "gainchrom.cli", "eval", "--graph", str(path), "--function", "integral", "--q", str(q)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    # g5's widths stay below 4, so from q = 4 on its count is a polynomial
    # of degree 5: six oracle counts fix it
    g = IntegralGainGraph.from_dict(G5)
    expected = _interpolate([(x, count_integral_colorings(g, x)) for x in range(4, 10)], q)
    assert proc.stdout == f"{q}\t{expected}\n"


def _digit_limit() -> int:
    """Python's int-to-str digit limit; 0 (none) before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _past_the_limit(convert, value) -> str:
    """convert(value) with the digit limit lifted."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = _digit_limit()
    set_limit(0)
    try:
        return convert(value)
    finally:
        set_limit(limit)


def test_exact_answers_longer_than_the_digit_limit_print(tmp_path, capsys):
    limit = _digit_limit()
    q = 10**1500
    code, out = run_cli(capsys, "eval", "--family", "shi", "--n", "3", "--function", "integral", "--q", str(q))
    assert code == 0
    assert out == f"{q}\t{_past_the_limit(str, (q - 2) ** 3)}\n"
    # an edgeless graph on 15,000 vertices has 2^15000 colourings at q = 2
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"n": 15000, "edges": []}))
    argv = ["eval", "--graph", str(path), "--function", "integral", "--q", "2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == f"2\t{_past_the_limit(str, 2**15000)}\n"
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 0
    results = [{"q": 2, "z": None, "value": 2**15000}]
    doc = {"function": "integral", "graph": str(path), "results": results, "polynomial": None}
    assert out == _past_the_limit(json.dumps, doc) + "\n"
    # the limit is lifted for the output alone
    assert _digit_limit() == limit


def test_regions_prints_exact_answers_past_the_digit_limit(monkeypatch, capsys):
    limit = _digit_limit()
    monkeypatch.setattr("gainchrom.cli.region_count", lambda g, max_edges: 10**5000)
    code, out = run_cli(capsys, "regions", "--family", "shi", "--n", "2")
    assert code == 0
    assert out == _past_the_limit(str, 10**5000) + "\n" and len(out) == 5002
    assert _digit_limit() == limit


@pytest.mark.skipif(_digit_limit() == 0, reason="this Python has no int-to-str digit limit")
def test_integers_past_the_digit_limit_stay_usage_errors(tmp_path, capsys):
    huge = "1" + "0" * _digit_limit()
    assert main(["eval", "--family", "shi", "--n", "3", "--function", "integral", "--q", huge]) == 2
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "edges": [[1, 2, %s]]}' % huge)
    assert main(["eval", "--graph", str(path), "--function", "integral", "--q", "3"]) == 2
    assert "cannot read graph file" in capsys.readouterr().err


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # Every CLI job is a fresh interpreter, so its import graph is part of
    # every job's time. -S keeps modules that site hooks preload out of it.
    src = str(Path(gainchrom.__file__).resolve().parents[1])
    probe = "import json, sys, gainchrom.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert loaded & {"dataclasses", "inspect", "fractions", "decimal"} == set()
    modules = ("chromatic", "cli", "combinatorics", "families", "gaingraph", "identities", "poly")
    assert {m for m in loaded if m.split(".")[0] == "gainchrom"} == {"gainchrom", *(f"gainchrom.{m}" for m in modules)}


@pytest.mark.parametrize("function", ["integral", "modular"])
def test_file_counts_refuse_above_the_edge_guard(tmp_path, capsys, function):
    # g5 plus one link has 7 edges: refused at --max-edges 6, counted at 7
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 5, "edges": G5["edges"] + [[2, 5, -2]]}))
    argv = ["eval", "--graph", str(path), "--function", function, "--q", "1", "--q", "3", "--q", "6"]
    assert main([*argv, "--max-edges", "6"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 7 edges exceed the expansion bound 6\n")
    oracle = count_integral_colorings if function == "integral" else count_modular_colorings
    g = IntegralGainGraph.from_dict(json.loads(path.read_text()))
    expected = "".join(f"{q}\t{oracle(g, q)}\n" for q in (1, 3, 6))
    assert run_cli(capsys, *argv, "--max-edges", "7") == (0, expected)


@pytest.mark.parametrize(
    "argv",
    [
        *(["eval", "--function", f, "--q", "3"] for f in ("integral", "modular", "zero-free", "chromatic", "total")),
        ["eval", "--function", "regions"],
        *(["poly", "--function", f] for f in ("zero-free", "chromatic", "total")),
        ["regions"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("-") and a != "3"),
)
def test_every_function_trips_the_one_edge_guard(tmp_path, capsys, argv):
    path = tmp_path / "g5.json"
    path.write_text(json.dumps(G5))
    assert main([*argv, "--graph", str(path), "--max-edges", "5"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 6 edges exceed the expansion bound 5\n")


def test_eval_modular_and_total(capsys):
    code, out = run_cli(
        capsys, "eval", "--family", "catalan", "--n", "2", "--function", "modular", "--q", "5"
    )
    assert code == 0
    assert out == "5\t10\n"
    code, out = run_cli(
        capsys,
        "eval", "--family", "catalan", "--n", "2", "--function", "total", "--q", "6", "--z", "1",
    )
    assert code == 0
    assert out == "6\t20\n"


def test_eval_json_document(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--family", "shi", "--n", "2", "--function", "zero-free", "--q", "4", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["function"] == "zero-free"
    assert doc["results"] == [{"q": 4, "z": 0, "value": 8}]
    assert poly_from_term_list(doc["polynomial"]).evaluate(4) == 8


def test_regions_subcommand(capsys):
    code, out = run_cli(capsys, "regions", "--family", "catalan", "--n", "2")
    assert code == 0
    assert out == "4\n"


def test_eval_regions_function(capsys):
    code, out = run_cli(capsys, "eval", "--family", "shi", "--n", "2", "--function", "regions")
    assert code == 0
    assert out == "regions\t3\n"


def test_eval_chromatic_function(capsys):
    # chromatic = total at z = 1; for catalan_2 that is q^2 - 3q + 2
    code, out = run_cli(
        capsys, "eval", "--family", "catalan", "--n", "2", "--function", "chromatic", "--q", "4"
    )
    assert code == 0
    assert out == "4\t6\n"


def test_sc_minus_edges_file(tmp_path, capsys):
    path = tmp_path / "minus.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    code, out = run_cli(
        capsys, "eval", "--family", "sc", "--minus-edges", str(path), "--function", "integral", "--q", "4"
    )
    assert code == 0
    assert out == "4\t6\n"  # sc with a full minus graph on [2] is catalan_2


@pytest.mark.parametrize(
    "source, regions",
    [(["--family", "linial", "--n", "7"], 21652), (["--family", "sc", "--partition", "1 3|2 5|4 6"], 25)],
    ids=["linial-7", "sc-partition"],
)
def test_regions_build_no_closed_forms(monkeypatch, capsys, source, regions):
    # region counts print no closed form, so none may be built
    def refuse(*_):
        raise AssertionError("closed forms built for a region count")

    monkeypatch.setattr("gainchrom.cli.FAMILY_CLOSED_FORMS", {"linial": refuse})
    monkeypatch.setattr("gainchrom.cli.sc_partition_closed_forms", refuse)
    assert run_cli(capsys, "regions", *source) == (0, f"{regions}\n")
    assert run_cli(capsys, "eval", "--function", "regions", *source) == (0, f"regions\t{regions}\n")


def test_closed_forms_build_no_graph(tmp_path, monkeypatch, capsys):
    # a family's integral, modular and zero-free functions are read from its closed forms alone
    k20 = tmp_path / "k20.json"
    k20.write_text(json.dumps({"n": 20, "edges": [[i, j] for i in range(1, 21) for j in range(i + 1, 21)]}))
    commands = [
        [command, "--function", function, *q, *source]
        for source in (
            ["--family", "shi", "--n", "40"],
            ["--family", "sc", "--partition", "1 3|2 5|4 6"],
            ["--family", "sc", "--minus-edges", str(k20)],
        )
        for function in ("integral", "modular", "zero-free")
        for command, q in (("eval", ["--q", "40"]), ("poly", []))
    ]
    expected = [run_cli(capsys, *argv) for argv in commands]
    assert all(code == 0 and out for code, out in expected)

    def refuse(*_):
        raise AssertionError("graph built for a closed form")

    monkeypatch.setattr("gainchrom.cli.FAMILY_BUILDERS", {"shi": refuse})
    monkeypatch.setattr("gainchrom.cli.sc_graph", refuse)
    monkeypatch.setattr("gainchrom.cli.sc_partition_graph", refuse)
    assert [run_cli(capsys, *argv) for argv in commands] == expected


@pytest.mark.parametrize(
    "argv",
    [["regions"], ["eval", "--function", "regions"], ["poly", "--function", "chromatic"],
     ["eval", "--function", "integral", "--q", "3"]],
    ids=["regions", "eval-regions", "poly-chromatic", "eval-integral"],
)
def test_sc_minus_edges_on_no_vertices_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "minus.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    code = main([*argv, "--family", "sc", "--minus-edges", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: graphs on at least one vertex only\n"


def test_sc_family_partition(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--family", "sc", "--partition", "1 3|2 5|4 6", "--function", "integral", "--q", "4",
    )
    assert code == 0
    assert out == "4\t2\n"


def test_verify_exit_codes_and_json(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "catalan", "--n", "2")
    assert code == 0
    assert all(line.startswith(("PASS", "#")) for line in out.splitlines())
    code, out = run_cli(capsys, "verify", "--suite", "catalan", "--n", "2", "--json")
    assert code == 0
    for line in out.splitlines():
        doc = json.loads(line)
        assert doc["passed"] is True


def test_verify_single_graph(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2, 0], [2, 3, 1], [1, 3, -1]]}))
    code, out = run_cli(capsys, "verify", "--suite", "first", "--graph", str(path))
    assert code == 0
    assert "PASS" in out


def test_verify_graph_file_every_suite(tmp_path, capsys):
    # the integral non-invariance witness no longer needs a second graph
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2, 0], [2, 3, 1], [1, 3, -1]]}))
    code, out = run_cli(capsys, "verify", "--graph", str(path))
    assert code == 0
    assert "PASS\tintegral-noninvariance-witness\t" in out


def test_verify_reports_failing_checks(monkeypatch, capsys):
    # a count off by one on hollow_2 breaks the Catalan relations at n = 2,
    # where hollow_2 is the left side, and at n = 3, where it is a summand
    hollow_2 = hollow_catalan_graph(2)

    def off_by_one(g, q):
        return count_integral_colorings(g, q) + (g == hollow_2)

    monkeypatch.setattr(identities, "count_integral_colorings", off_by_one)
    identities._count.cache_clear()
    try:
        code, out = run_cli(capsys, "verify", "--suite", "catalan", "--n", "3")
        assert code == 1
        lines = out.splitlines()
        assert [line for line in lines if not line.startswith("PASS")] == [
            "FAIL\tcatalan-hollow-relations\tn=2, integral\twitness=('q', 0, 1, 0)",
            "FAIL\tcatalan-hollow-relations\tn=3, integral\twitness=('q', 0, 0, -3)",
            "# 7/9 checks passed",
        ]
        code, out = run_cli(capsys, "verify", "--suite", "catalan", "--n", "3", "--json")
        assert code == 1
        docs = [json.loads(line) for line in out.splitlines()]
        assert [(doc["instance"], doc["witness"]) for doc in docs if doc["passed"] is False] == [
            ("n=2, integral", "('q', 0, 1, 0)"),
            ("n=3, integral", "('q', 0, 0, -3)"),
        ]
        assert sum(doc["passed"] is True for doc in docs) == 7
    finally:
        identities._count.cache_clear()


# No gain-0 link: the second and complete suites sum the graph plus the 36
# gain-0 links of K_9, 47 edges.
_LINKS_9 = {"n": 9, "edges": [[1, 2, 1], [1, 5, 1], [4, 9, 1], [5, 8, 2], [2, 8, 2], [1, 8, -1], [8, 9, -1], [3, 4, 2], [3, 7, 2], [3, 4, -1], [7, 9, -1]]}
# 28 gain-0 links: every suite that sums it refuses K_8 itself.
_K8 = {"n": 8, "edges": [[i, j, 0] for i in range(1, 9) for j in range(i + 1, 9)]}
# A 24-vertex cycle with three chords, 27 edges, none of gain 0: plus K_24 it is 303.
_P24 = {"n": 24, "edges": [[i, i + 1, 1] for i in range(1, 24)] + [[1, 24, 2], [1, 12, 1], [5, 20, -1], [3, 9, 2]]}


@pytest.mark.parametrize(
    "graph, suite, edges",
    [
        pytest.param(_LINKS_9, "second", 47, id="second"),
        pytest.param(_LINKS_9, "complete", 47, id="complete"),
        *(pytest.param(_K8, suite, 28, id=f"K8-{suite}") for suite in ("first", "second", "total", "invariance", "all")),
        *(pytest.param(_P24, suite, 27, id=f"P24-{suite}") for suite in ("first", "total", "invariance", "all")),
        *(pytest.param(_P24, suite, 303, id=f"P24-{suite}") for suite in ("second", "complete")),
    ],
)
def test_verify_graph_refuses_before_walking_partitions(tmp_path, monkeypatch, capsys, graph, suite, edges):
    # Each check guards the largest graph it sums before it walks a subset
    # or a partition or counts a colouring.  Where a check walked first,
    # K8 and P24 ran past 20 s, so a walk here fails the test.
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))

    def walk(*args):
        raise AssertionError("a walk started")

    for name in ("stable_partitions", "set_partitions", "combinations", "_flat_weights", "_vertex_split",
                 "count_integral_colorings", "count_modular_colorings", "count_multizero_colorings"):
        monkeypatch.setattr(identities, name, walk)
    code = main(["verify", "--suite", suite, "--graph", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {edges} edges exceed the expansion bound 26\n")


def test_verify_graph_runs_complete_on_k8_with_no_check(tmp_path, capsys):
    # every link of K_8 has gain 0, so the complete suite skips it
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_K8))
    assert run_cli(capsys, "verify", "--suite", "complete", "--graph", str(path)) == (0, "# 0/0 checks passed\n")


# sha256 of the full stdout of `verify --suite all --n 2`.  A change of
# digest must be a deliberate change of output, never a side effect of
# reworking an engine: update the digest in the same change and say why.
@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "51e46bf52a879a943ac4810268c08f20f51495dfd733145574cca2890db9be72"),
        (["--json"], "9ab1d4a79f6b709f6ed9341824136554fc0eabb75d86c36f71e9f270fced9c07"),
    ],
    ids=["text", "json"],
)
def test_verify_all_output_bytes_are_pinned(capsys, extra, digest):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--n", "2", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The same pin at the two ends of --n: at 4 the Catalan and Linial suites
# reach 4 while the corpus and the total-uniform families stop at 3; at 0
# the corpus is the empty graph alone.
@pytest.mark.parametrize(
    "n, extra, digest",
    [
        ("4", [], "7648cdf657564e316973f871926a4086391292bd3f907c2de3af97a33ea4755e"),
        ("0", ["--json"], "4811d66619d9cbe624289c94f9debbe7f5a979fb3a2c2d6189b69dfa0a77a673"),
    ],
    ids=["n4-text", "n0-json"],
)
def test_verify_all_output_bytes_at_the_ends_of_n_are_pinned(capsys, n, extra, digest):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--n", n, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The perfbench tracer wraps every public function and re-binds it wherever
# a module or module-level dict holds it, so code that compares functions by
# identity or keeps them in closures behaves differently under it.  One job
# per entry point of the perfbench workloads; GRAPH is a file graph with a
# loop and parallel links, as the workloads' generated graphs have.
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "all", "--n", "2"],
        ["poly", "--family", "shi", "--n", "3", "--function", "total"],
        ["eval", "--graph", "GRAPH", "--function", "chromatic", "--q", "3"],
        ["eval", "--graph", "GRAPH", "--function", "modular", "--q", "3"],
        ["regions", "--graph", "GRAPH"],
    ],
    ids=["verify", "poly", "eval-chromatic", "eval-modular", "regions"],
)
def test_traced_run_matches_the_plain_run(tmp_path, argv):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[1, 2, 1], [1, 2, 0], [2, 3, -1], [3, 4, 2], [1, 4, 0], [2, 2, 1]]}))
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
    plain = subprocess.run(
        [sys.executable, "-m", "gainchrom.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_child.py"), str(tmp_path / "spans.bin"), "job", "--", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert plain.returncode == 0


# The first-reduction and total suites at n = 3, where corpus graphs carry
# up to 4 gain-0 edges, so the flat sums and vertex splits do real work.
@pytest.mark.parametrize(
    "suite, digest",
    [
        ("first", "c6a14440a5bb3cf92f74d16be99f2e963891753a9d3a2d90bacd6c2b2f506737"),
        ("total", "27bf49b0b1f50e60840975844733d0269614bb63c666842b73e18b5de377580d"),
    ],
)
def test_verify_suite_output_bytes_at_n3_are_pinned(capsys, suite, digest):
    code, out = run_cli(capsys, "verify", "--suite", suite, "--n", "3", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The same pin for `verify --graph` on one 5-vertex graph with a gain-2 loop,
# a parallel pair and two gain-0 links: its reports print sampled counts and
# polynomials of graphs beyond the n <= 2 corpus.
@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "fe42cd409022eeb88d5ad884120e9ea903383df86596aab32e6bbb6fe36a8d4b"),
        (["--json"], "19a3926f51675d5798bd5bbd60703fca79a96ea1994a4e16f0d97ea578873298"),
    ],
    ids=["text", "json"],
)
def test_verify_graph_output_bytes_are_pinned(tmp_path, capsys, extra, digest):
    path = tmp_path / "graph.json"
    edges = [[3, 2, 0], [1, 3, 2], [5, 3, 1], [3, 3, 2], [4, 5, 1], [3, 2, 2], [2, 5, 0]]
    path.write_text(json.dumps({"n": 5, "edges": edges}))
    code, out = run_cli(capsys, "verify", "--graph", str(path), *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("n", ["-1", "5"])
def test_verify_refuses_n_outside_the_suites(capsys, n):
    # the corpus stops at 3 vertices and the Catalan and Linial suites at 4
    code = main(["verify", "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: argument --n: invalid choice: {n}" in captured.err


@pytest.mark.parametrize(
    "argv, lines",
    [
        # about 110 KB of reports, more than the pipe holds: a print fails
        (["verify", "--suite", "all", "--n", "2", "--json"], 1),
        # one short line, still buffered when the command returns
        (["eval", "--family", "shi", "--n", "3", "--function", "integral", "--q", "5"], 0),
    ],
    ids=["during-output", "at-flush"],
)
def test_reader_closing_stdout_early_exits_quietly(tmp_path, argv, lines):
    src = str(Path(gainchrom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered, as on a pipe by default
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gainchrom.cli", *argv], stdout=subprocess.PIPE, stderr=err, env=env
        )
        for _ in range(lines):
            assert json.loads(proc.stdout.readline())["passed"] is True
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        err.seek(0)
        assert err.read() == b""


def _function_matrix():
    """eval, poly and regions over every function, output format, a
    below-threshold and a negative --q, a missing --q and a tripped edge guard."""
    for function in ("integral", "modular", "zero-free", "chromatic", "total"):
        for extra in (
            ["--q", "0", "--q", "1", "--q", "5"],
            ["--q", "2", "--q", "-1"],
            ["--q", "3", "--json"],
            ["--q", "3", "--max-edges", "2"],
            [],
        ):
            yield ["eval", "--function", function, *extra]
        for extra in ([], ["--json"], ["--max-edges", "2"]):
            yield ["poly", "--function", function, *extra]
    for z in ("0", "2"):
        yield ["eval", "--function", "total", "--q", "3", "--z", z]
        yield ["eval", "--function", "total", "--q", "3", "--z", z, "--json"]
    for extra in ([], ["--json"], ["--max-edges", "2"]):
        yield ["eval", "--function", "regions", *extra]
    for extra in ([], ["--max-edges", "2"]):
        yield ["regions", *extra]


# sha256 of the exit code, stdout and stderr of every command of
# _function_matrix on one source, pinned like the verify output above.
@pytest.mark.parametrize(
    "source, digest",
    [
        (["--graph", "g.json"], "72dd7ade8d76ddcd1e62d17cc904077869ea9004f2b3dd4ff197cf11bab82add"),
        (["--family", "shi", "--n", "3"], "7c008263b281784c55d9cfb611bd4f38329ef4f66261f07a435f5b071aed3a37"),
        (["--family", "sc", "--partition", "1 3|2 5|4 6"], "2a69dbd607a079d62f4cd9b309d9a5e6429546bd9e427bf163116f137fae6186"),
        (["--family", "sc", "--minus-edges", "minus.json"], "f0f0d350859dfdb2bee2157cf7ea033ba79459b766b4c451f6a327ae154e3f70"),
    ],
    ids=["file", "family", "sc-partition", "sc-minus-edges"],
)
def test_function_matrix_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, source, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"n": 3, "edges": [[1, 2, 1], [2, 3, -1], [1, 3, 0], [2, 2, 1]]}))
    (tmp_path / "minus.json").write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
    sha = hashlib.sha256()
    for argv in _function_matrix():
        code = main([*argv, *source])
        captured = capsys.readouterr()
        sha.update(repr((argv, code, captured.out, captured.err)).encode("utf-8"))
    assert sha.hexdigest() == digest


@pytest.mark.parametrize(
    "argv, name, doc",
    [
        (["--graph"], "g.json", {"n": 2, "edges": [[1, 2, 0.5]]}),
        (["--graph"], "g.json", {"n": 2, "edges": [[1, 2, True]]}),
        (["--family", "sc", "--minus-edges"], "minus.json", {"n": 2, "edges": [[1.5, 2]]}),
        (["--graph"], "g.json", [1, 2]),
        (["--graph"], "g.json", "x"),
    ],
    ids=["float-gain", "bool-gain", "float-minus-edge", "list-document", "string-document"],
)
def test_non_integer_input_is_a_usage_error(tmp_path, capsys, argv, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "eval", *argv, str(path), "--function", "integral", "--q", "3")
    assert code == 2
    assert out == ""


def test_lds_realize_and_check(capsys):
    code, out = run_cli(capsys, "lds", "realize", "--d", "0 1 1")
    assert code == 0
    assert out == "1 4|2|3\n"
    code, out = run_cli(capsys, "lds", "check", "--d", "0 1 1", "--n", "6")
    assert code == 0
    assert out == "true\n"
    code, out = run_cli(capsys, "lds", "check", "--d", "0 1", "--n", "2")
    assert code == 0
    assert out == "false\n"
    code, out = run_cli(capsys, "lds", "check", "--d", "0 1 1", "--n", "4", "--increasing")
    assert code == 0
    assert out == "true\n"


def test_usage_errors(tmp_path, capsys):
    code, _ = run_cli(capsys, "eval", "--function", "integral", "--q", "3")
    assert code == 2  # no graph source
    code, _ = run_cli(capsys, "eval", "--family", "shi", "--n", "2", "--function", "integral")
    assert code == 2  # missing --q
    code, _ = run_cli(capsys, "lds", "realize", "--d", "0 2")
    assert code == 2  # unrealizable shape
    code, _ = run_cli(capsys, "eval", "--family", "sc", "--function", "integral", "--q", "3")
    assert code == 2  # sc without partition or minus edges
    code, _ = run_cli(capsys, "eval", "--graph", "/nonexistent.json", "--function", "integral", "--q", "3")
    assert code == 2  # unreadable graph file
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 2, 1]]}))
    code, _ = run_cli(capsys, "eval", "--graph", str(path), "--function", "modular", "--q", "0")
    assert code == 2  # modular counting needs q >= 1
    code, out = run_cli(capsys, "eval", "--family", "catalan", "--n", "3", "--function", "zero-free", "--q", "4", "--z", "7")
    assert (code, out) == (2, "")  # --z is read by --function total only
    code, out = run_cli(capsys, "eval", "--family", "shi", "--n", "2", "--function", "regions", "--q", "3")
    assert (code, out) == (2, "")  # a region count has no q


@pytest.mark.parametrize(
    "argv",
    [
        # a 0-edge graph used to trip its own guard: "0 edges exceed the expansion bound -1"
        ["regions", "--graph", "{empty}", "--max-edges", "-1"],
        # the oracle route used to answer silently
        ["eval", "--graph", "{empty}", "--function", "integral", "--q", "3", "--max-edges", "-1"],
        ["eval", "--family", "shi", "--n", "2", "--function", "zero-free", "--q", "3", "--max-edges", "-1"],
        ["poly", "--family", "shi", "--n", "2", "--function", "total", "--max-edges", "-1"],
        ["verify", "--suite", "total", "--max-edges", "-1"],
        # used to report PASS over -5 switchings per graph
        ["verify", "--suite", "invariance", "--switchings", "-5"],
    ],
    ids=["regions", "eval-oracle", "eval-engine", "poly", "verify-max-edges", "verify-switchings"],
)
def test_negative_bounds_are_usage_errors(tmp_path, capsys, argv):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 2, "edges": []}))
    code = main([arg.format(empty=empty) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: argument {argv[-2]}: must be nonnegative: {argv[-1]}" in captured.err


def test_family_closed_form_below_validity_still_prints(capsys):
    # below-threshold closed-form values are printed with the annotation,
    # not refused
    code, out = run_cli(
        capsys, "eval", "--family", "shi", "--n", "2", "--function", "modular", "--q", "0"
    )
    assert code == 0
    assert out == "0\t0\t# below_valid_range\n"


def test_expansion_guard_exit_code(capsys):
    code, _ = run_cli(
        capsys, "poly", "--family", "catalan", "--n", "5", "--function", "total"
    )
    assert code == 3


def test_deterministic_output(capsys):
    args = ("poly", "--family", "linial", "--n", "4", "--function", "zero-free")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_parse_partition():
    assert parse_partition("1 3|2 5|4 6") == ((1, 3), (2, 5), (4, 6))
    assert parse_partition("2 1") == ((1, 2),)


def test_parse_partition_rejects_non_partitions(capsys):
    for text in ("1 3|3 5", "1 1 2", "1 2|4"):
        code = main(["eval", "--family", "sc", "--partition", text, "--function", "integral", "--q", "3"])
        assert (code, capsys.readouterr().err) == (2, f"error: blocks in {text!r} must partition 1..n\n")
