"""Command line front end.

Subcommands: eval, poly, regions, verify, lds.  Graphs come from a JSON
file ({"n": ..., "edges": [[tail, head, gain], ...]}) or from a named
family.  Output is TSV by default, JSON with --json; exit codes are 0 for
success / all checks passed, 1 for a failed check, 2 for usage errors,
3 when an edge guard trips, and 141 (128 + SIGPIPE) when the reader closes
stdout before the output ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from .chromatic import (
    TooManyEdges,
    chromatic_poly,
    count_integral_colorings,
    count_modular_colorings,
    region_count,
    total_poly,
    zero_free_poly,
)
from .combinatorics import (
    InvalidSequence,
    SimpleGraph,
    is_increasing_lds,
    is_vertex_order_lds,
    normalize_partition,
    realize_lds,
)
from .families import (
    FAMILY_BUILDERS,
    FAMILY_CLOSED_FORMS,
    ClosedForms,
    linial_athanasiadis,
    linial_closed_forms,
    sc_graph,
    sc_partition_closed_forms,
    sc_partition_graph,
    sc_path_closed_forms,
)
from .gaingraph import IntegralGainGraph, strict_int
from .identities import (
    CheckReport,
    check_catalan_hollow_relations,
    check_linial_partition_expansion,
    check_modular_threshold,
    check_multizero_agreement,
    check_neutral_subset_reduction,
    check_partition_complete_reduction,
    check_stable_partition_reduction,
    check_total_split,
    check_total_uniform,
    fixture_corpus,
    run_invariance_suite,
)
from .poly import Poly2, format_poly, poly_to_term_list

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _usage_error(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Blocks separated by '|', elements by spaces, e.g. '1 3|2 5|4 6'."""
    blocks = []
    for chunk in text.split("|"):
        items = chunk.split()
        if not items:
            raise _usage_error(f"empty block in partition {text!r}")
        blocks.append(tuple(int(x) for x in items))
    flat = sorted(v for b in blocks for v in b)
    if flat != list(range(1, len(flat) + 1)):
        raise _usage_error(f"blocks in {text!r} must partition 1..n")
    return normalize_partition(blocks)


def _load_graph_file(path: str) -> IntegralGainGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return IntegralGainGraph.from_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _usage_error(f"cannot read graph file {path}: {exc}")


def _load_minus_edges(path: str) -> SimpleGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        pairs = [tuple(map(strict_int, e)) for e in data["edges"]]
        return SimpleGraph.from_pairs(strict_int(data["n"]), pairs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _usage_error(f"cannot read minus-edge file {path}: {exc}")


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", metavar="FILE", help="JSON gain graph file")
    parser.add_argument(
        "--family",
        choices=["catalan", "hollow-catalan", "shi", "linial", "sc"],
        help="named graph family",
    )
    parser.add_argument("--n", type=int, help="order of the family graph")
    parser.add_argument("--partition", help="partition for --family sc, e.g. '1 3|2 5|4 6'")
    parser.add_argument("--minus-edges", metavar="FILE", help="JSON simple graph for --family sc")


def _resolve_source(args) -> tuple[IntegralGainGraph, Callable[[], ClosedForms] | None, str]:
    """Build the graph, plus a builder of its closed forms when the source
    is a family; only _polynomial calls the builder."""
    if bool(args.graph) == bool(args.family):
        raise _usage_error("exactly one of --graph or --family is required")
    if args.graph:
        return _load_graph_file(args.graph), None, args.graph
    name = args.family
    if name == "sc":
        if bool(args.partition) == bool(args.minus_edges):
            raise _usage_error("--family sc needs exactly one of --partition or --minus-edges")
        if args.partition:
            pi = parse_partition(args.partition)
            return sc_partition_graph(pi), lambda: sc_partition_closed_forms(pi), f"sc({args.partition})"
        minus = _load_minus_edges(args.minus_edges)
        if minus.n < 1:
            raise _usage_error("graphs on at least one vertex only")
        return sc_graph(minus), lambda: sc_path_closed_forms(minus), f"sc({args.minus_edges})"
    if args.n is None or args.n < 1:
        raise _usage_error(f"--family {name} needs --n >= 1")
    return FAMILY_BUILDERS[name](args.n), lambda: FAMILY_CLOSED_FORMS[name](args.n), f"{name}({args.n})"


def _polynomial(
    function: str, graph: IntegralGainGraph, forms: Callable[[], ClosedForms] | None, max_edges: int
) -> tuple[Poly2 | None, int | None]:
    """The polynomial a function is read from, and the least q it holds from.

    A family's integral, modular and zero-free functions are its closed
    forms; the zero-free, chromatic and total functions of any other graph
    come from deletion-contraction.  (None, None) leaves a file graph's
    integral and modular counts to the colouring oracles.
    """
    if forms is not None and function not in ("chromatic", "total"):
        built = forms()
        return {
            "integral": (built.integral, built.integral_min_q),
            "modular": (built.modular, built.modular_min_q),
            "zero-free": (built.zero_free, None),
        }[function]
    if function in ("integral", "modular"):
        return None, None
    engine = {"zero-free": zero_free_poly, "chromatic": chromatic_poly, "total": total_poly}[function]
    return engine(graph, max_edges), None


def _print_rows(rows: list[dict], args, function: str, source: str, poly: Poly2 | None) -> None:
    if args.json:
        doc = {
            "function": function,
            "graph": source,
            "results": rows,
            "polynomial": None if poly is None else poly_to_term_list(poly),
        }
        print(json.dumps(doc))
        return
    for row in rows:
        line = f"{row['q']}\t{row['value']}"
        if row.get("below_valid_range"):
            line += "\t# below_valid_range"
        print(line)


def _cmd_eval(args) -> int:
    function = args.function
    graph, forms, source = _resolve_source(args)
    if function == "regions":
        value = region_count(graph, args.max_edges)
        if args.json:
            print(json.dumps({"function": function, "graph": source, "results": [{"q": None, "z": None, "value": value}], "polynomial": None}))
        else:
            print(f"regions\t{value}")
        return EXIT_OK
    qs = args.q
    if not qs:
        raise _usage_error("--q is required (repeatable)")
    poly, min_q = _polynomial(function, graph, forms, args.max_edges)
    if poly is None and function == "modular" and min(qs) < 1:
        raise _usage_error("modular counting needs q >= 1")
    oracle = count_integral_colorings if function == "integral" else count_modular_colorings
    z = {"zero-free": 0, "chromatic": 1, "total": args.z}.get(function)
    rows: list[dict] = []
    for q in qs:
        value = oracle(graph, q) if poly is None else poly.evaluate(q, z or 0)
        row = {"q": q, "z": z, "value": value}
        if min_q is not None and q < min_q:
            row["below_valid_range"] = True
        rows.append(row)
    _print_rows(rows, args, function, source, poly)
    return EXIT_OK


def _cmd_poly(args) -> int:
    function = args.function
    graph, forms, source = _resolve_source(args)
    poly, _ = _polynomial(function, graph, forms, args.max_edges)
    if poly is None:
        raise _usage_error(f"{function} is a closed form for families only; file graphs have no {function} polynomial")
    if args.json:
        print(json.dumps({"function": function, "graph": source, "results": None, "polynomial": poly_to_term_list(poly)}))
    else:
        print(format_poly(poly))
    return EXIT_OK


def _cmd_regions(args) -> int:
    graph, _, _ = _resolve_source(args)
    print(region_count(graph, args.max_edges))
    return EXIT_OK


def _emit_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.as_dict()))
    else:
        status = "PASS" if report.passed else "FAIL"
        line = f"{status}\t{report.identity}\t{report.instance}"
        if not report.passed and report.witness is not None:
            line += f"\twitness={report.witness}"
        print(line)


_CORPUS_CHECKS = {
    "first": check_neutral_subset_reduction,
    "second": check_stable_partition_reduction,
    "complete": check_partition_complete_reduction,
}


def _cmd_verify(args) -> int:
    n = args.n
    reports = []
    if args.graph:
        corpus: tuple[IntegralGainGraph, ...] = (_load_graph_file(args.graph),)
    else:
        corpus = fixture_corpus(max_n=min(n, 3))
    suites = (
        ["first", "second", "complete", "catalan", "linial", "total", "invariance"]
        if args.suite == "all"
        else [args.suite]
    )
    for suite in suites:
        if suite in _CORPUS_CHECKS:
            check = _CORPUS_CHECKS[suite]
            for g in corpus:
                if suite == "complete" and g.neutral_indices():
                    continue
                reports.append(check(g, "integral", range(0, 6), args.max_edges))
                reports.append(check(g, "zero_free", max_edges=args.max_edges))
        elif suite == "catalan":
            for size in range(1, n + 1):
                for selector in ("integral", "modular", "zero_free"):
                    reports.append(check_catalan_hollow_relations(size, selector, max_edges=args.max_edges))
        elif suite == "linial":
            for size in range(1, n + 1):
                for selector in ("integral", "modular", "zero_free"):
                    reports.append(check_linial_partition_expansion(size, selector, max_edges=args.max_edges))
                ath = linial_athanasiadis(size)
                closed = linial_closed_forms(size).zero_free
                reports.append(
                    CheckReport("linial-athanasiadis", f"n={size}", ath == closed, ath, closed)
                )
        elif suite == "total":
            for g in corpus:
                reports.append(check_total_split(g, args.max_edges))
            for family in ("catalan", "hollow-catalan", "shi", "linial"):
                for size in range(1, min(n, 3) + 1):
                    reports.append(check_total_uniform(family, size, args.max_edges))
        elif suite == "invariance":
            reports.extend(run_invariance_suite(corpus, switchings=args.switchings, max_edges=args.max_edges))
            for g in corpus:
                reports.append(check_modular_threshold(g, max_edges=args.max_edges))
            for g in corpus:
                for m in (2, 3):
                    reports.append(check_multizero_agreement(g, m, 1, 1, args.max_edges))
    failures = 0
    for report in reports:
        _emit_report(report, args.json)
        if not report.passed:
            failures += 1
    if not args.json:
        print(f"# {len(reports) - failures}/{len(reports)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _parse_degree_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split())
    except ValueError:
        raise _usage_error(f"cannot parse degree sequence {text!r}")


def _cmd_lds(args) -> int:
    d = _parse_degree_sequence(args.d)
    if args.action == "realize":
        try:
            pi = realize_lds(d)
        except InvalidSequence as exc:
            raise _usage_error(str(exc))
        print("|".join(" ".join(str(v) for v in block) for block in pi))
        return EXIT_OK
    if args.n is None:
        raise _usage_error("lds check needs --n")
    ok = is_increasing_lds(d, args.n) if args.increasing else is_vertex_order_lds(d, args.n)
    print("true" if ok else "false")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainchrom",
        description="Exact chromatic functions of integral gain graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a chromatic function at integer points")
    _add_source_args(p_eval)
    p_eval.add_argument(
        "--function",
        required=True,
        choices=["integral", "modular", "zero-free", "chromatic", "total", "regions"],
    )
    p_eval.add_argument("--q", type=int, action="append", help="evaluation point (repeatable)")
    p_eval.add_argument("--z", type=int, default=1, help="z value for --function total")
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("--max-edges", type=int, default=26, help="deletion-contraction edge guard")
    p_eval.set_defaults(run=_cmd_eval)

    p_poly = sub.add_parser("poly", help="print a chromatic polynomial")
    _add_source_args(p_poly)
    p_poly.add_argument(
        "--function",
        required=True,
        choices=["integral", "modular", "zero-free", "chromatic", "total"],
    )
    p_poly.add_argument("--json", action="store_true")
    p_poly.add_argument("--max-edges", type=int, default=26, help="deletion-contraction edge guard")
    p_poly.set_defaults(run=_cmd_poly)

    p_regions = sub.add_parser("regions", help="count the regions of the arrangement")
    _add_source_args(p_regions)
    p_regions.add_argument("--max-edges", type=int, default=26, help="deletion-contraction edge guard")
    p_regions.set_defaults(run=_cmd_regions)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=["all", "first", "second", "complete", "catalan", "linial", "total", "invariance"],
    )
    p_verify.add_argument(
        "--n",
        type=int,
        default=3,
        choices=range(5),
        help="size bound for the suites, default 3: the corpus stops at 3 vertices, the Catalan and Linial suites at 4",
    )
    p_verify.add_argument("--graph", metavar="FILE", help="verify this graph instead of the corpus")
    p_verify.add_argument("--switchings", type=int, default=25, help="random switchings per graph")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--max-edges", type=int, default=26, help="deletion-contraction edge guard")
    p_verify.set_defaults(run=_cmd_verify)

    p_lds = sub.add_parser("lds", help="lower degree sequences of overlap graphs")
    p_lds.add_argument("action", choices=["realize", "check"])
    p_lds.add_argument("--d", required=True, help="degree sequence, e.g. '0 1 1'")
    p_lds.add_argument("--n", type=int, help="ground set size for check")
    p_lds.add_argument("--increasing", action="store_true", help="check the nondecreasing variant")
    p_lds.set_defaults(run=_cmd_lds)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except TooManyEdges as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
