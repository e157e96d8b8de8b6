"""Command line surface: output formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gainchrom
from gainchrom.cli import main, parse_partition
from gainchrom.families import linial_closed_forms
from gainchrom.poly import parse_poly, poly_from_term_list


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
        (["--graph", "g.json"], "d1ade0abec6b3d089881c69765ffe697c92c3c89ccf7af5df7b18498b2b62be2"),
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
    assert code == 2  # the modular counting oracle needs q >= 1


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
    code, _ = run_cli(
        capsys, "eval", "--family", "sc", "--partition", "1 3|3 5", "--function", "integral", "--q", "3"
    )
    assert code == 2
