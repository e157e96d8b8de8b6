"""The measurement scripts under tools/ against the package names they use."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from gainchrom import chromatic, gaingraph, identities, poly

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_verify_sweep_counts_names_that_exist():
    # its child process wraps these by name, so a renamed function would
    # only show when the tool is run
    tool = _load("bench_verify_sweep")
    assert tool.FUNCTIONS and tool.METHODS
    for name in tool.FUNCTIONS:
        assert callable(getattr(chromatic, name, None)), name
        assert getattr(identities, name, None) is getattr(chromatic, name), name
    assert callable(chromatic._solve) and callable(chromatic._state)
    for cls, name in tool.METHODS:
        owner = getattr(gaingraph, cls, None) or getattr(poly, cls)
        assert callable(getattr(owner, name, None)), (cls, name)
    # every module that reads _potentials by name gets the counted wrapper
    assert callable(gaingraph._potentials)
    for module in tool.POTENTIALS:
        assert importlib.import_module(f"gainchrom.{module}")._potentials is gaingraph._potentials, module
