"""Parent/change measurements of a change to the package, written as one JSON file.

    python3 tools/bench_verify_sweep.py --parent DIR [--out FILE]

DIR is a checkout of the parent commit (say, ``git archive`` of it unpacked
next to this one) with the same ``perfbench/`` directory as the checkout
that holds this script.  The script compares the two and writes FILE,
by default ``BENCH_verify_sweep.json`` at the root of its own checkout, in
four sections, each as soon as it is done:

* ``calls``: how often ``identities`` calls each chromatic function during
  a CLI run, how often the engines enter ``chromatic._solve`` and
  normalise a state (``chromatic._state``), how often gain graphs are
  built by the validating constructor (``IntegralGainGraph.__init__``) and
  contracted, how often polynomials are substituted into, and how often
  the potential union-find (``gaingraph._potentials``) runs, counted by
  wrapping the names in-process (``_potentials`` in every module that
  imports it; null on a side without it).  The counts repeat exactly from
  run to run.
* ``outputs``: stdout, stderr and exit code of every perfbench job of
  seeds 1 and 2, on both sides, and the jobs where they differ.
* ``rss_mb``: peak RSS of the counted commands, from ``os.wait4`` on the
  child, median of alternating runs, with ``src/gainchrom/__pycache__``
  removed before every run, since stale or missing bytecode reads about
  1 MB more.
* ``pairs``: ``perfbench/run.py --trace 0`` runs of each (workload, seed,
  pairs) item of PLAN, as long as BENCHMARK.json's ``run_seconds``,
  alternating which side runs first, with
  ``src/gainchrom/__pycache__`` removed before every run.  Each metric gets
  both sides' runs, medians and quartiles, the pairs the change read lower
  and higher in (ties count for neither side), the difference of the
  medians and the distance between the parent's quartiles.  The ``raw``
  lines of each run give its pass and probe counts and its raw seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
OUT = CHANGE / "BENCH_verify_sweep.json"
SECONDS = json.loads((CHANGE / "BENCHMARK.json").read_text())["run_seconds"]
# (workload, seed, pairs) of the perfbench runs
PLAN = (("regions", 1, 10), ("regions", 2, 4), ("verify", 1, 4), ("expand", 1, 4), ("count", 1, 4))
# The commands whose calls are counted and whose peak RSS is measured.
COUNTED = (
    ("verify", "--suite", "invariance", "--switchings", "100"),
    ("verify", "--suite", "all", "--n", "3"),
    ("regions", "--family", "linial", "--n", "7", "--max-edges", "30"),
)
FUNCTIONS = (
    "total_poly", "zero_free_poly", "count_modular_colorings", "count_integral_colorings", "ordinary_chromatic_poly"
)
# (class, method) pairs counted wherever they are called from
METHODS = (
    ("IntegralGainGraph", "__init__"),
    ("IntegralGainGraph", "contract_neutral_set"),
    ("IntegralGainGraph", "contract_partition"),
    ("Poly2", "substitute_q"),
)
# modules that bind gaingraph._potentials by name, each wrapped
POTENTIALS = ("gaingraph", "combinatorics")
RSS_RUNS = 5

# Run in the child: wrap each function name that identities reads at call
# time, the engines' _solve and _state, _potentials and the methods, then
# run the CLI with its output discarded.
_COUNT_CALLS = """
import collections, importlib, io, json, sys, contextlib
from gainchrom import chromatic, identities, cli, gaingraph, poly
calls = collections.Counter()
def wrap(name, f):
    def counted(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)
    return counted
for name in {functions!r}:
    setattr(identities, name, wrap(name, getattr(identities, name)))
chromatic._solve = wrap("_solve", chromatic._solve)
chromatic._state = wrap("_state", chromatic._state)
potentials = getattr(gaingraph, "_potentials", None)
if potentials is not None:
    counted_potentials = wrap("_potentials", potentials)
    for module in {potentials_in!r}:
        setattr(importlib.import_module(f"gainchrom.{{module}}"), "_potentials", counted_potentials)
methods = [f"{{cls}}.{{name}}" for cls, name in {methods!r}]
for cls, name in {methods!r}:
    owner = getattr(gaingraph, cls, None) or getattr(poly, cls)
    setattr(owner, name, wrap(f"{{cls}}.{{name}}", getattr(owner, name)))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
counts = {{name: calls[name] for name in (*{functions!r}, "_solve", "_state", *methods)}}
print(json.dumps({{"exit": code, **counts, "_potentials": calls["_potentials"] if potentials else None}}))
"""


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def _clear_bytecode(tree: Path) -> None:
    shutil.rmtree(tree / "src" / "gainchrom" / "__pycache__", ignore_errors=True)


def count_calls(tree: Path, argv: tuple[str, ...]) -> dict:
    code = _COUNT_CALLS.format(functions=FUNCTIONS, methods=METHODS, potentials_in=POTENTIALS, argv=list(argv))
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), cwd=tree, capture_output=True, check=True)
    return json.loads(out.stdout)


def perfbench_jobs(tree: Path, workload: str, seed: int, workdir: Path) -> list:
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import workloads

        return workloads.build(workload, seed, workdir)
    finally:
        sys.path.pop(0)


def compare_outputs(parent: Path, change: Path) -> dict:
    """Every perfbench job of seeds 1 and 2 on both sides; the graph files
    are written once, so both sides read the same inputs."""
    differing, total = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2):
            for workload in ("expand", "regions", "verify", "count"):
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                for job in perfbench_jobs(change, workload, seed, workdir):
                    argv = [sys.executable, "-m", "gainchrom.cli", *job.argv]
                    results = [
                        subprocess.run(argv, env=_env(tree), cwd=tree, capture_output=True)
                        for tree in (parent, change)
                    ]
                    total += 1
                    if len({(r.returncode, r.stdout, r.stderr) for r in results}) > 1:
                        differing.append(f"seed {seed} {job.id} {' '.join(job.argv)}")
    return {"jobs": total, "differing": differing}


# A child's max RSS counts the memory of the process that forked it, so the
# CLI is started from a fresh interpreter without site imports, far smaller
# than the CLI itself, which reaps it with os.wait4.
_LAUNCH = (
    "import os, subprocess, sys; "
    "pid = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).pid; "
    "print(os.wait4(pid, 0)[2].ru_maxrss)"
)


def peak_rss_mb(tree: Path, argv: tuple[str, ...]) -> float:
    launch = [sys.executable, "-S", "-c", _LAUNCH, sys.executable, "-m", "gainchrom.cli", *argv]
    out = subprocess.run(launch, env=_env(tree), cwd=tree, capture_output=True, text=True, check=True)
    return int(out.stdout) / 1024


def perfbench_run(tree: Path, workload: str, seed: int) -> dict:
    _clear_bytecode(tree)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {
        # the pass and probe counts, raw seconds and speed factor of the run
        "raw": [line for line in lines if line.startswith(("# raw", "# speed")) or "passes of" in line],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def _summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": [round(v, 4) for v in values], "median": round(statistics.median(values), 4),
            "quartiles": [round(quartiles[0], 4), round(quartiles[2], 4)]}


def pair_runs(parent: Path, change: Path, workload: str, seed: int, pairs: int) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(perfbench_run(parent if side == "parent" else change, workload, seed))
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        parent_side, change_side = _summary(p), _summary(c)
        metrics[name] = {
            "parent": parent_side,
            "change": change_side,
            "change_lower_in_pairs": sum(b < a for a, b in zip(p, c)),
            "change_higher_in_pairs": sum(b > a for a, b in zip(p, c)),
            "median_change_minus_parent": round(change_side["median"] - parent_side["median"], 4),
            "parent_quartile_distance": round(parent_side["quartiles"][1] - parent_side["quartiles"][0], 4),
        }
    health = {side: [(r["correct"], r["attempted"], r["failed"]) for r in rs] for side, rs in runs.items()}
    raw = {side: [r["raw"] for r in rs] for side, rs in runs.items()}
    return {"pairs": pairs, "first_in_pair": "parent in odd pairs, change in even", "metrics": metrics,
            "correct_attempted_failed": health, "raw": raw}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    parent, change, out = args.parent.resolve(), CHANGE, args.out
    report: dict = {
        "machine": f"{os.cpu_count()} CPUs; Python {sys.version.split()[0]}",
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {SECONDS:g} --trace 0",
    }

    def save() -> None:
        out.write_text(json.dumps(report, indent=1) + "\n")

    report["calls"] = {
        " ".join(cmd): {"parent": count_calls(parent, cmd), "change": count_calls(change, cmd)} for cmd in COUNTED
    }
    save()
    report["outputs"] = compare_outputs(parent, change)
    save()
    rss: dict = {}
    for cmd in COUNTED:
        samples: dict[str, list[float]] = {"parent": [], "change": []}
        for i in range(RSS_RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                tree = parent if side == "parent" else change
                _clear_bytecode(tree)
                samples[side].append(peak_rss_mb(tree, cmd))
        rss[" ".join(cmd)] = {side: _summary(values) for side, values in samples.items()}
    report["rss_mb"] = rss
    save()
    report["pairs"] = {}
    for workload, seed, pairs in PLAN:
        report["pairs"][f"{workload} seed {seed}"] = pair_runs(parent, change, workload, seed, pairs)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
