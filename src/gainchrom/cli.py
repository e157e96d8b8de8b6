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
    DEFAULT_MAX_EDGES,
    TooManyEdges,
    chromatic_poly,
    integral_count,
    region_count,
    total_poly,
    zero_free_poly,
)
from .combinatorics import (
    InvalidSequence,
    SimpleGraph,
    _valid_partition,
    is_increasing_lds,
    is_vertex_order_lds,
    realize_lds,
)
from .families import (
    FAMILY_BUILDERS,
    FAMILY_CLOSED_FORMS,
    ClosedForms,
    sc_graph,
    sc_partition_closed_forms,
    sc_partition_graph,
    sc_path_closed_forms,
)
from .gaingraph import IntegralGainGraph, strict_int
from .identities import SUITES, _suite_reports
from .poly import Poly2, format_poly, poly_to_term_list

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# The --function choices of poly; eval adds "regions".
_FUNCTIONS = ("integral", "modular", "zero-free", "chromatic", "total")


def _usage_error(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _nonnegative(text: str) -> int:
    """The argparse type of --max-edges and --switchings."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
    return value


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Blocks separated by '|', elements by spaces, e.g. '1 3|2 5|4 6'."""
    blocks = []
    for chunk in text.split("|"):
        items = chunk.split()
        if not items:
            raise _usage_error(f"empty block in partition {text!r}")
        blocks.append(tuple(int(x) for x in items))
    try:
        return _valid_partition(blocks)
    except ValueError:
        raise _usage_error(f"blocks in {text!r} must partition 1..n")


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
    parser.add_argument("--family", choices=[*FAMILY_BUILDERS, "sc"], help="named graph family")
    parser.add_argument("--n", type=int, help="order of the family graph")
    parser.add_argument("--partition", help="partition for --family sc, e.g. '1 3|2 5|4 6'")
    parser.add_argument("--minus-edges", metavar="FILE", help="JSON simple graph for --family sc")


def _resolve_source(args) -> tuple[Callable[[], IntegralGainGraph], Callable[[], ClosedForms] | None, str]:
    """Builders of the graph and, for a family, of its closed forms, called only
    where an engine reads them; a graph file is read at once, so a bad one fails first."""
    if bool(args.graph) == bool(args.family):
        raise _usage_error("exactly one of --graph or --family is required")
    if args.graph:
        graph = _load_graph_file(args.graph)
        return lambda: graph, None, args.graph
    name = args.family
    if name == "sc":
        if bool(args.partition) == bool(args.minus_edges):
            raise _usage_error("--family sc needs exactly one of --partition or --minus-edges")
        if args.partition:
            pi = parse_partition(args.partition)
            return lambda: sc_partition_graph(pi), lambda: sc_partition_closed_forms(pi), f"sc({args.partition})"
        minus = _load_minus_edges(args.minus_edges)
        if minus.n < 1:
            raise _usage_error("graphs on at least one vertex only")
        return lambda: sc_graph(minus), lambda: sc_path_closed_forms(minus), f"sc({args.minus_edges})"
    if args.n is None or args.n < 1:
        raise _usage_error(f"--family {name} needs --n >= 1")
    return lambda: FAMILY_BUILDERS[name](args.n), lambda: FAMILY_CLOSED_FORMS[name](args.n), f"{name}({args.n})"


def _polynomial(
    function: str, graph: Callable[[], IntegralGainGraph], forms: Callable[[], ClosedForms] | None, max_edges: int
) -> tuple[Poly2 | None, int | None, Callable[[int, int], int]]:
    """How a function of a source is evaluated: the polynomial it is read
    from (None if it has none), the least q that polynomial holds from, and
    its value at (q, z).

    A family's integral, modular and zero-free functions are its closed
    forms; the zero-free, chromatic and total functions of any other graph
    come from deletion-contraction.  So do a file graph's integral and
    modular counts, which have no polynomial here: ``integral_count`` is
    exact at every q, and the modular count at q is the zero-free
    polynomial of the gains mod q, evaluated at q, since a subset counts
    there iff it is balanced mod q.  Every engine trips the one edge guard.
    """
    if forms is not None and function not in ("chromatic", "total"):
        built = forms()
        poly, min_q = {
            "integral": (built.integral, built.integral_min_q),
            "modular": (built.modular, built.modular_min_q),
            "zero-free": (built.zero_free, None),
        }[function]
        return poly, min_q, poly.evaluate
    g = graph()
    if function == "integral":
        return None, None, lambda q, z: integral_count(g, q, max_edges)
    if function == "modular":
        return None, None, lambda q, z: zero_free_poly(g.reduce_mod(q), max_edges).evaluate(q, 0)
    engine = {"zero-free": zero_free_poly, "chromatic": chromatic_poly, "total": total_poly}[function]
    poly = engine(g, max_edges)
    return poly, None, poly.evaluate


def _json_doc(function: str, source: str, results: list[dict] | None, poly: Poly2 | None) -> str:
    polynomial = None if poly is None else poly_to_term_list(poly)
    return json.dumps({"function": function, "graph": source, "results": results, "polynomial": polynomial})


def _print_exact(text: Callable[[], str]) -> None:
    """Print exact answers at any length: Python's int-to-str digit limit is
    lifted for output alone, so oversized --q and graph-file integers stay errors."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)  # absent before 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        print(text())
    finally:
        set_limit(limit)


def _cmd_eval(args) -> int:
    function = args.function
    if args.z is not None and function != "total":
        raise _usage_error("--z applies to --function total only")
    if args.q and function == "regions":
        raise _usage_error("--function regions takes no --q")
    graph, forms, source = _resolve_source(args)
    if function == "regions":
        value = region_count(graph(), args.max_edges)
        rows = [{"q": None, "z": None, "value": value}]
        _print_exact(lambda: _json_doc(function, source, rows, None) if args.json else f"regions\t{value}")
        return EXIT_OK
    qs = args.q
    if not qs:
        raise _usage_error("--q is required (repeatable)")
    poly, min_q, value = _polynomial(function, graph, forms, args.max_edges)
    if poly is None and function == "modular" and min(qs) < 1:
        raise _usage_error("modular counting needs q >= 1")
    z = {"zero-free": 0, "chromatic": 1, "total": 1 if args.z is None else args.z}.get(function)
    rows: list[dict] = []
    for q in qs:
        row = {"q": q, "z": z, "value": value(q, z or 0)}
        if min_q is not None and q < min_q:
            row["below_valid_range"] = True
        rows.append(row)
    # A generator, so the values turn into digits only inside _print_exact
    tsv = (f"{row['q']}\t{row['value']}" + ("\t# below_valid_range" if row.get("below_valid_range") else "") for row in rows)
    _print_exact(lambda: _json_doc(function, source, rows, poly) if args.json else "\n".join(tsv))
    return EXIT_OK


def _cmd_poly(args) -> int:
    function = args.function
    graph, forms, source = _resolve_source(args)
    poly, _, _ = _polynomial(function, graph, forms, args.max_edges)
    if poly is None:
        raise _usage_error(f"{function} is a closed form for families only; file graphs have no {function} polynomial")
    _print_exact(lambda: _json_doc(function, source, None, poly) if args.json else format_poly(poly))
    return EXIT_OK


def _cmd_regions(args) -> int:
    graph, _, _ = _resolve_source(args)
    value = region_count(graph(), args.max_edges)
    _print_exact(lambda: str(value))
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


def _cmd_verify(args) -> int:
    graph = _load_graph_file(args.graph) if args.graph else None
    suites = SUITES if args.suite == "all" else (args.suite,)
    reports = _suite_reports(suites, graph, args.n, args.switchings, args.max_edges)
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
    p_eval.add_argument("--function", required=True, choices=[*_FUNCTIONS, "regions"])
    p_eval.add_argument("--q", type=int, action="append", help="evaluation point (repeatable)")
    p_eval.add_argument("--z", type=int, help="z value for --function total, default 1")
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(run=_cmd_eval)

    p_poly = sub.add_parser("poly", help="print a chromatic polynomial")
    _add_source_args(p_poly)
    p_poly.add_argument("--function", required=True, choices=_FUNCTIONS)
    p_poly.add_argument("--json", action="store_true")
    p_poly.set_defaults(run=_cmd_poly)

    p_regions = sub.add_parser("regions", help="count the regions of the arrangement")
    _add_source_args(p_regions)
    p_regions.set_defaults(run=_cmd_regions)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITES],
    )
    p_verify.add_argument(
        "--n",
        type=int,
        default=3,
        choices=range(5),
        help="size bound for the suites, default 3: the corpus stops at 3 vertices, the Catalan and Linial suites at 4",
    )
    p_verify.add_argument("--graph", metavar="FILE", help="verify this graph instead of the corpus")
    p_verify.add_argument("--switchings", type=_nonnegative, default=25, help="random switchings per graph")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(run=_cmd_verify)

    for p in (p_eval, p_poly, p_regions, p_verify):
        p.add_argument("--max-edges", type=_nonnegative, default=DEFAULT_MAX_EDGES, help="deletion-contraction edge guard")

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
