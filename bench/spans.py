"""Span tracing of colorgraph from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span (name, parent, start, duration, calls) and the
work counts that can be computed from the call's arguments and outputs. The
wrapper is installed at the module attribute and at every other module
attribute that holds the same function object, so names bound with
``from .graph import generate`` are traced as well. Nothing in ``src/`` is
edited; ``uninstall`` restores every original.

Spans stay in memory. A leaf call that repeats under the same parent (the
per-point ``law_cdf`` callback of ``ks_statistic``) is folded into the
previous record with a call count, so memory stays bounded. The program is
single threaded, so child spans never overlap and a span's self time is its
duration minus the sum of its children's durations.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import time
from collections import Counter

LAYERS = ("graph", "census", "spectral", "extremal", "rng", "colorsim", "limits", "moments", "stats", "cli")

# record fields
_NAME, _PARENT, _START, _DUR, _CALLS, _CHILD_DUR, _CHILDREN = range(7)

# per-layer metric name -> the traced function names whose outermost calls it sums
INCLUSIVE = {
    "colorsim.simulate_s": ("colorsim.simulate",),
    "colorsim.exact_s": ("colorsim.exact_distribution",),
    "limits.sample_law_s": ("limits.sample_law",),
    "limits.law_cdf_s": ("limits.law_cdf",),
    "limits.limit_for_s": ("limits.limit_for",),
    "census.count_cycles_s": ("census.count_cycles",),
    "census.tuple_census_s": ("census.count_multigraph_tuples",),
    "census.traces_s": ("census._trace_powers", "census.four_cycle_count_from_traces"),
    "census.cycle_list_s": ("census.cycle_list",),
    "spectral.eigenvalues_s": ("spectral.eigenvalues",),
    "extremal.gamma_s": ("extremal.gamma",),
    "extremal.deficiency_s": ("extremal.deficiency",),
    "moments.conditional_moment_s": ("moments.conditional_moment",),
    "stats.two_sample_ks_s": ("stats.two_sample_ks",),
    "stats.ks_statistic_s": ("stats.ks_statistic",),
    "stats.tv_s": ("stats.tv_distance",),
    "graph.build_s": ("graph.generate", "graph.parse_edge_list_text", "graph.from_edge_list", "graph.Graph"),
}

# work counts that must repeat exactly for one commit and seed
COUNTS = (
    "rng.words",
    "colorsim.colorings",
    "colorsim.edge_tests",
    "colorsim.color_bytes_computed",
    "colorsim.exact_colorings",
    "limits.law_draws",
    "limits.law_cdf_calls",
    "limits.law_pmf_calls",
    "census.cycle_list_hits",
    "census.cycle_list_misses",
    "spectral.max_n",
    "moments.tuples",
    "stats.points",
    "graph.edges_built",
    "cli.bytes_written",
)

# private functions traced because a per-layer metric names them; absent ones are skipped
_PRIVATE = {"census": ("_trace_powers",)}


class Tracer:
    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.last_closed: dict = {}
        self.counts: Counter = Counter()
        self.open_names: Counter = Counter()
        self.cycle_lengths: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        idx = len(self.records)
        self.records.append([name, parent, 0.0, 0.0, 1, 0.0, 0])
        if parent is not None:
            self.records[parent][_CHILDREN] += 1
        self.stack.append(idx)
        self.open_names[name] += 1
        self.records[idx][_START] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        rec = self.records[idx]
        dur = end - rec[_START]
        rec[_DUR] = dur
        self.stack.pop()
        self.open_names[rec[_NAME]] -= 1
        parent = rec[_PARENT]
        prev = self.last_closed.get(parent)
        if (
            prev is not None
            and rec[_CHILDREN] == 0
            and idx == len(self.records) - 1
            and self.records[prev][_NAME] == rec[_NAME]
            and self.records[prev][_CHILDREN] == 0
        ):
            self.records.pop()
            self.records[prev][_DUR] += dur
            self.records[prev][_CALLS] += 1
            if parent is not None:
                self.records[parent][_CHILDREN] -= 1
        else:
            self.last_closed[parent] = idx
        if parent is not None:
            self.records[parent][_CHILD_DUR] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def parent_name(self) -> str | None:
        return self.records[self.stack[-1]][_NAME] if self.stack else None

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"colorgraph.{layer}")
            names = [n for n, obj in vars(mod).items() if _is_public_function(mod, n, obj)]
            names += [n for n in _PRIVATE.get(layer, ()) if hasattr(mod, n)]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for layer in LAYERS:
            mod = importlib.import_module(f"colorgraph.{layer}")
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        graph_cls = importlib.import_module("colorgraph.graph").Graph
        self._patches.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self._wrap_graph_init(graph_cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        cache_info = getattr(fn, "cache_info", None) if name == "census.cycle_list" else None
        tracer = self

        def wrapper(*args, **kwargs):
            before = cache_info() if cache_info else None
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if before is not None:
                after = cache_info()
                tracer.counts["census.cycle_list_hits"] += after.hits - before.hits
                tracer.counts["census.cycle_list_misses"] += after.misses - before.misses
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_graph_init(self, init):
        tracer = self

        def __init__(graph, *args, **kwargs):
            idx = tracer.open("graph.Graph")
            try:
                init(graph, *args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts["graph.edges_built"] += len(graph.edges)

        return __init__

    # -- results -----------------------------------------------------------------

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for rec in self.records:
            layer = rec[_NAME].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + rec[_DUR] - rec[_CHILD_DUR]
        return out

    def inclusive(self, names) -> float:
        names = set(names)
        total = 0.0
        for rec in self.records:
            if rec[_NAME] in names and not self._has_ancestor(rec, names):
                total += rec[_DUR]
        return total

    def self_of(self, name: str) -> float:
        return sum(r[_DUR] - r[_CHILD_DUR] for r in self.records if r[_NAME] == name)

    def calls(self, name: str) -> int:
        return sum(r[_CALLS] for r in self.records if r[_NAME] == name)

    def _has_ancestor(self, rec, names) -> bool:
        parent = rec[_PARENT]
        while parent is not None:
            if self.records[parent][_NAME] in names:
                return True
            parent = self.records[parent][_PARENT]
        return False

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric that one traced process can measure."""
        layer_self = self.self_by_layer()
        m = {name: self.inclusive(fns) for name, fns in INCLUSIVE.items()}
        m.update({name: self.counts.get(name, 0) for name in COUNTS})
        m["limits.law_cdf_calls"] = self.calls("limits.law_cdf")
        m["limits.law_pmf_calls"] = self.calls("limits.law_pmf")
        m["rng.self_s"] = layer_self.get("rng", 0.0)
        m["rng.words_per_s"] = _ratio(m["rng.words"], m["rng.self_s"])
        m["colorsim.kernel_self_s"] = self.self_of("colorsim.simulate")
        m["colorsim.edge_tests_per_s"] = _ratio(m["colorsim.edge_tests"], m["colorsim.kernel_self_s"])
        m["cli.self_s"] = layer_self.get("cli", 0.0)
        # the benchmark's own spans (bench.*) count as unattributed: program time no layer span covers
        m["trace.unattributed_s"] = wall_s - sum(layer_self.get(layer, 0.0) for layer in LAYERS)
        return m

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": r[_NAME], "parent": r[_PARENT], "start": r[_START],
             "dur": r[_DUR], "self": r[_DUR] - r[_CHILD_DUR], "calls": r[_CALLS]}
            for i, r in enumerate(self.records)
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _is_public_function(mod, name: str, obj) -> bool:
    if name.startswith("_"):
        return False
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


# -- work counts computed from arguments and outputs ------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_words(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["rng.words"] += int(out.size)
    _count_rng_output(tracer, args, kwargs, out)


def _count_rng_output(tracer: Tracer, args, kwargs, out) -> None:
    # outermost rng call made while a simulation runs: the color matrix it returns
    parent = tracer.parent_name()
    if tracer.open_names["colorsim.simulate"] and not (parent or "").startswith("rng."):
        tracer.counts["colorsim.color_bytes_computed"] += int(out.nbytes)


def _count_cycle_list(tracer: Tracer, args, kwargs, out) -> None:
    g, length = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "length")
    tracer.cycle_lengths[(g, length)] = len(out)


def _count_simulate(tracer: Tracer, args, kwargs, out) -> None:
    g = _arg(args, kwargs, 0, "g")
    stat = _arg(args, kwargs, 2, "stat")
    samples = _arg(args, kwargs, 3, "samples")
    if type(stat).__name__ == "MonoCycles":
        length = stat.g
        cycles = tracer.cycle_lengths.get((g, length))
        if cycles is None:
            uncached = inspect.unwrap(importlib.import_module("colorgraph.census").cycle_list)
            cycles = len(uncached(g, length))
        per_sample = cycles * length
    else:
        per_sample = g.m
    tracer.counts["colorsim.colorings"] += samples
    tracer.counts["colorsim.edge_tests"] += samples * per_sample


def _count_exact(tracer: Tracer, args, kwargs, out) -> None:
    g, c = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "c")
    tracer.counts["colorsim.exact_colorings"] += c**g.n


def _count_sample_law(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["limits.law_draws"] += int(_arg(args, kwargs, 1, "count"))


def _count_eigenvalues(tracer: Tracer, args, kwargs, out) -> None:
    g = _arg(args, kwargs, 0, "g")
    tracer.counts["spectral.max_n"] = max(tracer.counts["spectral.max_n"], g.n)


def _count_tuples(tracer: Tracer, args, kwargs, out) -> None:
    if tracer.open_names["moments.conditional_moment"]:
        g, k = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "k")
        tracer.counts["moments.tuples"] += math.comb(g.m + k - 1, k)


def _count_two_sample(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["stats.points"] += len(_arg(args, kwargs, 0, "a")) + len(_arg(args, kwargs, 1, "b"))


def _count_ks(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["stats.points"] += len(_arg(args, kwargs, 0, "samples"))


def _count_tv(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["stats.points"] += len(set(_arg(args, kwargs, 0, "p")) | set(_arg(args, kwargs, 1, "q")))


_HOOKS = {
    "rng.words": _count_words,
    **{f"rng.{fn}": _count_rng_output for fn in
       ("uniforms", "uniforms_open", "uniform_ints", "normals", "poissons", "permutation")},
    "census.cycle_list": _count_cycle_list,
    "colorsim.simulate": _count_simulate,
    "colorsim.exact_distribution": _count_exact,
    "limits.sample_law": _count_sample_law,
    "spectral.eigenvalues": _count_eigenvalues,
    "census.count_multigraph_tuples": _count_tuples,
    "stats.two_sample_ks": _count_two_sample,
    "stats.ks_statistic": _count_ks,
    "stats.tv_distance": _count_tv,
}
