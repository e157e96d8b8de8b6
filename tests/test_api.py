"""The public API: the names ``import gainchrom`` exports, and rules every module keeps."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import gainchrom


def test_exported_names_are_pinned():
    # A name that leaves this list is a change to the public API.
    assert sorted(gainchrom.__all__) == [
        "CheckReport", "ClosedForms", "IntegralGainGraph", "InvalidSequence", "ModularGainGraph",
        "NeutralEdgePresent", "NonIntegerResult", "NonNeutralEdgeInSet", "Poly1", "Poly2", "Q",
        "RegionCounts", "SetPartition", "SimpleGraph", "TooManyEdges", "UnbalancedSet", "Z", "ascents",
        "bell_number", "catalan_closed_forms", "catalan_graph", "catalan_region_counts",
        "check_catalan_hollow_relations", "check_disjoint_union_product", "check_linial_partition_expansion",
        "check_modular_threshold", "check_multizero_agreement", "check_neutral_subset_reduction",
        "check_ordinary_expansions", "check_partition_complete_reduction", "check_stable_partition_reduction",
        "check_total_split", "check_total_uniform", "chromatic", "chromatic_poly", "closed_edge_sets",
        "closure", "combinatorics", "count_integral_colorings", "count_modular_colorings",
        "count_multizero_colorings", "cycle_count", "descending_path_partitions", "enumerate_integral_colorings",
        "falling_factorial", "families", "fixture_corpus", "flat_mobius", "format_poly", "gaingraph",
        "hollow_catalan_closed_forms", "hollow_catalan_graph", "identities", "integral_count",
        "is_increasing_lds", "is_vertex_order_lds", "linial_athanasiadis", "linial_closed_forms",
        "linial_graph", "lower_degrees", "ordinary_chromatic_poly", "overlap_graph", "parse_poly",
        "partition_mobius", "poly", "realize_lds", "region_count", "run_invariance_suite", "sc_graph",
        "sc_partition_closed_forms", "sc_partition_graph", "sc_path_closed_forms", "set_partitions",
        "shi_closed_forms", "shi_graph", "stable_partitions", "stirling1_signed", "stirling2",
        "total_poly", "zero_free_poly",
    ]


def _self_calls(tree: ast.AST, scope: str = "") -> Iterator[str]:
    """Qualified names of the functions under ``tree`` that call themselves by
    name or through ``self.``/``cls.``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == node.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == node.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    yield f"{scope}{node.name}"
                    break
        yield from _self_calls(node, f"{scope}{node.name}." if hasattr(node, "name") else scope)


def test_no_function_in_the_package_recurses():
    # deep inputs must not depend on the interpreter's recursion limit
    package = Path(gainchrom.__file__).parent
    found = [
        f"{path.name}:{name}"
        for path in sorted(package.glob("*.py"))
        for name in _self_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _name(node: ast.AST) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded_caches(tree: ast.AST) -> Iterator[str]:
    """The functions under ``tree`` (or, outside a decorator, the lines)
    that cache with ``functools.cache`` or with an ``lru_cache`` whose
    ``maxsize`` is missing or None."""
    owner = {
        id(inner): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        for inner in ast.walk(decorator)
    }
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"] or node.args[:1]
            unbounded = not size or (isinstance(size[0], ast.Constant) and size[0].value is None)
        else:
            unbounded = _name(node) == "cache" or (_name(node) == "lru_cache" and id(node) not in called)
        if unbounded:
            yield owner.get(id(node), f"line {node.lineno}")


def test_every_cache_in_the_package_is_bounded():
    # an unbounded cache grows for the life of the process
    package = Path(gainchrom.__file__).parent
    found = [
        f"{path.name}:{name}"
        for path in sorted(package.glob("*.py"))
        for name in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_cli_import_loads_the_pinned_modules():
    # perfbench's traced line carries one import time per gainchrom module
    # that `import gainchrom.cli` loads, so a module added to that import or
    # loaded lazily changes the line's metric names
    src = Path(gainchrom.__file__).resolve().parents[1]
    code = "import sys, gainchrom.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gainchrom'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.split() == ["gainchrom"] + [
        f"gainchrom.{name}"
        for name in ("chromatic", "cli", "combinatorics", "families", "gaingraph", "identities", "poly")
    ]
