"""The four workloads: fixed job lists plus seeded file graphs.

A job is one CLI invocation, ``python -m gainchrom.cli ARGS``.  Each job
carries the check its stdout must pass; the expected values come from
``expected.json`` (family jobs, built by ``reference.py --goldens``) or from
``reference.py`` run on the generated file (file-graph jobs).

Why each workload exists, and which layer it stresses:

* expand: ``poly --function total`` and ``eval --function chromatic``.  The
  unpruned 2^|E| subset expansion does nearly all the work in a few large
  calls; the oracles and identities do none.
* regions: ``regions`` and ``poly --function zero-free`` with
  ``--max-edges 30``.  The same expansion layer, pruned to balanced subsets
  over more edges: an engine that speeds up expand but loses the pruning
  slows down here.  The family ``poly`` jobs print closed forms only.
* verify: thousands of tiny expansion and oracle calls from the identity
  suites.  Per-call overhead, caches, Poly2 construction, graph minors and
  canonical_iso_key dominate.  ``verify --graph`` fails at the parent
  commit (see known_defects) and is kept so the failure stays visible.
* count: integral and modular oracles at small q (<= n) and large q (>= 2n),
  plus closed-form queries (families, Poly2, set partitions) at sizes the
  verify suites never reach.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import reference as ref

HERE = Path(__file__).resolve().parent
WORKLOADS = ("expand", "regions", "verify", "count")


def known_defects(edges) -> tuple[str, ...]:
    """Checks that ``verify --graph`` fails on this graph at the parent
    commit although the program's counts are right.  A job failing only
    these counts as failed, not as wrong."""
    # looks for a two-graph witness pair in the one-graph corpus: always fails
    known = ("integral-noninvariance-witness",)
    # compares modular counts at q = 2..5 with and without the nonzero loops,
    # which differ when a loop's gain is 0 mod q (gain +-2 at q = 2)
    if any(t == h and g and any(g % q == 0 for q in range(2, 6)) for t, h, g in edges):
        known += ("loop-independence",)
    return known


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    # (exit code, stdout) -> "ok", "known" (the known defect) or "wrong"
    check: Callable[[int, str], str]


def _ok(good: bool) -> str:
    return "ok" if good else "wrong"


def expect_poly(expected: dict) -> Callable[[int, str], str]:
    def check(code: int, out: str) -> str:
        try:
            return _ok(code == 0 and ref.parse_poly(out) == expected)
        except ValueError:
            return "wrong"

    return check


def expect_values(expected: dict[int, int]) -> Callable[[int, str], str]:
    """eval's TSV: one ``q<TAB>value[<TAB># below_valid_range]`` row per q."""

    def check(code: int, out: str) -> str:
        try:
            rows = {int(line.split("\t")[0]): int(line.split("\t")[1]) for line in out.splitlines()}
        except (ValueError, IndexError):
            return "wrong"
        return _ok(code == 0 and rows == expected)

    return check


def expect_int(expected: int) -> Callable[[int, str], str]:
    def check(code: int, out: str) -> str:
        return _ok(code == 0 and out.strip() == str(expected))

    return check


def expect_verify(known: tuple[str, ...] = ()) -> Callable[[int, str], str]:
    """Every check passes, or only checks in ``known`` fail;
    ``# k/n checks passed`` closes the report."""

    def check(code: int, out: str) -> str:
        lines = out.splitlines()
        summary = re.fullmatch(r"# (\d+)/(\d+) checks passed", lines[-1]) if lines else None
        if not summary or int(summary[2]) != len(lines) - 1:
            return "wrong"
        failed = [line for line in lines[:-1] if not line.startswith("PASS\t")]
        if not failed and code == 0 and summary[1] == summary[2]:
            return "ok"
        if code == 1 and all(line.split("\t")[:2] in (["FAIL", d] for d in known) for line in failed):
            return "known"
        return "wrong"

    return check


def _goldens() -> dict:
    data = json.loads((HERE / "expected.json").read_text())
    return {k: ({(dq, dz): c for dq, dz, c in v} if isinstance(v, list) else v) for k, v in data.items()}


def _write_graph(workdir: Path, name: str, seed: int, n: int, m: int) -> tuple[str, int, list]:
    """Graph slot ``name``: a fixed shape, gains drawn from the seed."""
    graph = gen.gain_graph(random.Random(f"shape:{name}"), random.Random(f"gains:{name}:{seed}"), n, m)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(graph))
    edges = [tuple(e) for e in graph["edges"]]
    return str(path), n, edges


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of one pass; writes the seeded graph files to workdir."""
    golden = _goldens()
    jobs: list[Job] = []

    def add(argv: str | list[str], check) -> None:
        args = argv.split() if isinstance(argv, str) else argv
        jobs.append(Job(f"{workload}-{len(jobs):02d}", tuple(args), check))

    if workload == "expand":
        total = golden["total shi 5"]
        add("poly --family shi --n 5 --function total", expect_poly(total))
        total = golden["total catalan 4"]
        add("poly --family catalan --n 4 --function total", expect_poly(total))
        add("eval --family catalan --n 4 --function chromatic --q 5 --q 7",
            expect_values({q: ref.peval(total, q, 1) for q in (5, 7)}))
        total = golden["total hollow-catalan 5"]
        add("eval --family hollow-catalan --n 5 --function chromatic --q 6",
            expect_values({6: ref.peval(total, 6, 1)}))
        for k, (n, m) in enumerate(((5, 16), (5, 17), (6, 18), (6, 19))):
            path, n, edges = _write_graph(workdir, f"expand{k}", seed, n, m)
            total = ref.dc_total(n, edges)
            if k % 2 == 0:
                add(["poly", "--graph", path, "--function", "total"], expect_poly(total))
            else:
                qs = (n - 1, 2 * n)
                add(["eval", "--graph", path, "--function", "chromatic"] + [f"--q={q}" for q in qs],
                    expect_values({q: ref.peval(total, q, 1) for q in qs}))
    elif workload == "regions":
        for family, n in (("catalan", 5), ("shi", 6), ("hollow-catalan", 6), ("linial", 7)):
            add(f"regions --family {family} --n {n} --max-edges 30",
                expect_int(golden[f"regions {family} {n}"]))
            add(f"poly --family {family} --n {n} --function zero-free --max-edges 30",
                expect_poly(golden[f"zero_free {family} {n}"]))
        for k, (n, m) in enumerate(((6, 26), (6, 27), (7, 27), (7, 28))):
            path, n, edges = _write_graph(workdir, f"regions{k}", seed, n, m)
            total = ref.dc_total(n, edges)
            if k % 2 == 0:
                add(["regions", "--graph", path, "--max-edges", "30"],
                    expect_int((-1) ** n * ref.peval(total, -1, 0)))
            else:
                add(["poly", "--graph", path, "--function", "zero-free", "--max-edges", "30"],
                    expect_poly(ref.pslice_z(total, 0)))
    elif workload == "verify":
        add("verify --suite all --n 3", expect_verify())
        add("verify --suite invariance --switchings 100", expect_verify())
        path, _, edges = _write_graph(workdir, "verify0", seed, 5, 7)
        add(["verify", "--graph", path], expect_verify(known_defects(edges)))
    elif workload == "count":
        for k, (n, m, small, large) in enumerate((
            (6, 9, (3, 4, 6), (12,)),
            (6, 10, (2, 5, 6), (12,)),
            (7, 10, (4, 6), ()),
            (7, 11, (3, 7), ()),
        )):
            path, n, edges = _write_graph(workdir, f"count{k}", seed, n, m)
            for qs in (small, large):
                if not qs:
                    continue
                q_args = [f"--q={q}" for q in qs]
                add(["eval", "--graph", path, "--function", "integral"] + q_args,
                    expect_values({q: ref.subset_integral(n, edges, q) for q in qs}))
                add(["eval", "--graph", path, "--function", "modular"] + q_args,
                    expect_values({q: ref.subset_modular(n, edges, q) for q in qs}))
        add("poly --family linial --n 8 --function integral",
            expect_poly(golden["integral_poly linial 8"]))
        qs = (9, 20, 100)
        add("eval --family hollow-catalan --n 9 --function integral --q 9 --q 20 --q 100",
            expect_values({q: ref.hollow_catalan_integral(9, q) for q in qs}))
        add(["poly", "--family", "sc", "--partition", "1 3|2 5|4 6", "--function", "integral"],
            expect_poly(golden["integral_poly sc 1 3|2 5|4 6"]))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return jobs
