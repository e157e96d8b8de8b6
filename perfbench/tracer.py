"""Per-layer tracing of gainchrom from outside the program.

``install()`` wraps every public function and method of the gainchrom
modules, in the module that defines it and in every module or module-level
dict that holds it by name, so ``from .chromatic import total_poly`` in the
CLI is wrapped too.  Each call appends one span to in-memory arrays: name, start, end, parent
span and flags.  ``flags`` has CALL set for a call (a generator's later
resumptions are spans without it) and OUTER when no span of the same layer
is open.  A span's nominal work is 2^|E| subsets for an expansion, q^n
colourings for an oracle and |a|*|b| term pairs for a Poly2 product; a span
is a duplicate when the same function already ran on equal arguments in
this process.  ``Tracer.dump`` writes everything once, when the job ends.

``summarize`` turns the dumps of a set of jobs into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

CALL, OUTER = 1, 2

MODULE_LAYERS = ("cli", "identities", "families", "gaingraph", "poly", "combinatorics")
EXPAND = ("total_poly", "zero_free_poly", "chromatic_poly", "ordinary_chromatic_poly", "region_count")
ORACLE = (
    "count_integral_colorings",
    "count_modular_colorings",
    "count_multizero_colorings",
    "enumerate_integral_colorings",
)
LAYERS = MODULE_LAYERS + ("chromatic.expand", "chromatic.oracle")
POLY_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__neg__")
IMPORTED_MODULES = ("gainchrom",) + tuple(f"gainchrom.{m}" for m in MODULE_LAYERS + ("chromatic",))


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _expand_work(fn_name: str):
    if fn_name == "ordinary_chromatic_poly":
        return lambda a, k: 2 ** len(_arg(a, k, 1, "pairs"))
    return lambda a, k: 2 ** len(_arg(a, k, 0, "g").edges)


def _oracle_work(fn_name: str):
    if fn_name == "count_multizero_colorings":
        def work(a, k):
            g = _arg(a, k, 0, "g")
            return (_arg(a, k, 1, "k") * g.modulus + _arg(a, k, 2, "z")) ** g.n
        return work
    return lambda a, k: max(_arg(a, k, 1, "q"), 0) ** _arg(a, k, 0, "g").n


def _mul_work(a, k):
    other = a[1]
    return len(a[0]._terms) * (len(other._terms) if hasattr(other, "_terms") else 1)


def _freeze(value):
    """Lists (edge lists, pair lists) as tuples, so equal arguments hash equal."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    """Spans in parallel arrays; ``work`` and ``dups`` hold the few spans
    that have nominal work or repeat an earlier call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.flags = array("b")
        self.work: dict[int, int] = {}
        self.dups: list[int] = []
        self.stack: list[int] = []
        self.depth = {layer: 0 for layer in LAYERS}

    def _span_open(self, name_id: int, layer: str, flags: int, work: int, dup: int) -> int:
        if not self.depth[layer]:
            flags |= OUTER
        self.depth[layer] += 1
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.flags.append(flags)
        self.ends.append(0.0)
        if work:
            self.work[index] = work
        if dup:
            self.dups.append(index)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _span_close(self, index: int, layer: str) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()
        self.depth[layer] -= 1

    def wrap(self, fn, name: str, layer: str, work=None, dedupe: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        seen: set = set()
        depth = self.depth
        opened, closed = self._span_open, self._span_close

        def call_info(args, kwargs) -> tuple[int, int]:
            w = work(args, kwargs) if work is not None and not depth[layer] else 0
            dup = 0
            if dedupe:
                try:
                    key = (_freeze(args), tuple(sorted(kwargs.items())))
                    dup = int(key in seen)
                    seen.add(key)
                except TypeError:
                    pass
            return w, dup

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                w, dup = call_info(args, kwargs)
                it = fn(*args, **kwargs)
                flags = CALL
                while True:
                    span = opened(name_id, layer, flags, w, dup)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        closed(span, layer)
                    flags, w, dup = 0, 0, 0
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w, dup = call_info(args, kwargs)
            span = opened(name_id, layer, CALL, w, dup)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(span, layer)

        return wrapper

    def dump(self, path: str, job: str) -> None:
        """One JSON header line, then the raw span arrays."""
        header = {
            "job": job,
            "names": self.names,
            "layers": self.layers,
            "count": len(self.starts),
            "work": self.work,
            "dups": self.dups,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.starts, self.ends, self.parents, self.flags):
                column.tofile(fh)


def load(path: str) -> dict:
    with open(path, "rb") as fh:
        doc = json.loads(fh.readline())
        for key, code in (("name_ids", "i"), ("starts", "d"), ("ends", "d"), ("parents", "i"), ("flags", "b")):
            column = array(code)
            column.fromfile(fh, doc["count"])
            doc[key] = column
    doc["work"] = {int(k): v for k, v in doc["work"].items()}
    return doc


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if (
            inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and not issubclass(obj, BaseException)
        ):
            yield name, obj


def install() -> Tracer:
    """Wrap gainchrom's public API in place and return the tracer."""
    tracer = Tracer()
    modules = [importlib.import_module(m) for m in IMPORTED_MODULES]
    replaced: dict[int, object] = {}

    def layer_of(module_short: str, fn_name: str) -> str | None:
        if module_short == "chromatic":
            return "chromatic.expand" if fn_name in EXPAND else "chromatic.oracle" if fn_name in ORACLE else None
        return module_short

    for module in modules[1:]:
        short = module.__name__.split(".", 1)[1]
        for name, fn in _public_functions(module):
            layer = layer_of(short, name)
            if layer is None:
                continue
            if layer == "chromatic.expand":
                replaced[id(fn)] = tracer.wrap(fn, name, layer, _expand_work(name), dedupe=True)
            elif layer == "chromatic.oracle":
                replaced[id(fn)] = tracer.wrap(fn, name, layer, _oracle_work(name), dedupe=True)
            else:
                replaced[id(fn)] = tracer.wrap(fn, name, layer)
        for cname, cls in _public_classes(module):
            layer = layer_of(short, "")
            if layer is None:
                continue
            for name, attr in list(vars(cls).items()):
                public = not name.startswith("_") or (cname == "Poly2" and name in POLY_OPERATORS)
                if not public:
                    continue
                kind = type(attr) if isinstance(attr, (staticmethod, classmethod)) else None
                fn = attr.__func__ if kind else attr
                if not inspect.isfunction(fn):
                    continue
                work = _mul_work if name in ("__mul__", "__rmul__") else None
                wrapped = tracer.wrap(fn, f"{cname}.{name}", layer, work)
                setattr(cls, name, kind(wrapped) if kind else wrapped)

    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
    return tracer


# -- summaries ------------------------------------------------------------------------


def _quantile(values: list[float], p: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(p * len(ordered))) - 1))]


def summarize(docs: list[dict], job_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics over the given job dumps (one traced pass).

    self time is a span's duration minus that of its direct children, so the
    self times of all layers add up to the time spent inside traced calls;
    ``trace.untraced_s`` is the rest of each job's wall time (interpreter
    start, imports, argument parsing before cli.main, exit).
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.total_s"] = 0.0
    iso_calls, iso_self = 0, 0.0
    subsets = colorings = term_pairs = 0
    dup = {"chromatic.expand": [0, 0], "chromatic.oracle": [0, 0]}
    check_times: list[float] = []
    traced = 0.0
    span_count = 0
    for doc in docs:
        names, layers = doc["names"], doc["layers"]
        name_ids, starts, ends, parents, flags = (
            doc["name_ids"], doc["starts"], doc["ends"], doc["parents"], doc["flags"]
        )
        work, dups = doc["work"], set(doc["dups"])
        span_count += doc["count"]
        child = [0.0] * doc["count"]
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        for i, name_id in enumerate(name_ids):
            layer, name, flag = layers[name_id], names[name_id], flags[i]
            duration = ends[i] - starts[i]
            self_time = duration - child[i]
            out[f"{layer}.self_s"] += self_time
            if flag & OUTER:
                out[f"{layer}.total_s"] += duration
            if parents[i] < 0:
                traced += duration
            if not flag & CALL:
                continue
            out[f"{layer}.calls"] += 1
            if layer in dup:
                dup[layer][0] += i in dups
                dup[layer][1] += 1
            if layer == "chromatic.expand":
                subsets += work.get(i, 0)
            elif layer == "chromatic.oracle":
                colorings += work.get(i, 0)
            elif layer == "poly":
                term_pairs += work.get(i, 0)
            if name == "IntegralGainGraph.canonical_iso_key":
                iso_calls += 1
                iso_self += self_time
            if layer == "identities" and flag & OUTER and (name.startswith("check_") or name == "run_invariance_suite"):
                check_times.append(duration)
    expand_s = out["chromatic.expand.total_s"]
    out["chromatic.expand.subsets_nominal"] = subsets
    out["chromatic.expand.subsets_per_s"] = subsets / expand_s if expand_s > 0 else 0.0
    out["chromatic.oracle.colorings_nominal"] = colorings
    for layer, (dups, calls) in dup.items():
        out[f"{layer}.dup_frac"] = dups / calls if calls else 0.0
    out["poly.mul_term_pairs"] = term_pairs
    out["gaingraph.canonical_iso_key.calls"] = iso_calls
    out["gaingraph.canonical_iso_key.self_s"] = iso_self
    out["identities.checks"] = len(check_times)
    out["identities.check_p90_s"] = _quantile(check_times, 0.9)
    out["trace.spans"] = span_count
    out["trace.untraced_s"] = sum(job_walls) - traced
    return out
