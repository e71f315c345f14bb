"""Per-layer tracing of ``metric_repair`` from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent) and, for some functions, adds to a counter.
A function is replaced under every module attribute that is bound to it, so
calls between modules (``detect.apsp``, ``fpt.verify_support``, ...) are
counted too; ``uninstall`` puts the originals back.  Spans stay in memory
until ``metrics`` or ``dump`` reads them.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import defaultdict

import metric_repair


def _runner_split(tracer, result, elapsed):
    tracer.counters["runner.solve_s"] += result.time_ms / 1000.0
    tracer.counters["runner.validate_s"] += elapsed - result.time_ms / 1000.0


# (module, attribute path, counter hook).  A hook gets the tracer, the call's
# arguments, its result and its wall time.
RUN_TARGETS = (
    ("fileio", "parse_graph_text",
     lambda t, a, r, s: t.count("fileio.bytes_in", len(a[0]))),
    ("fileio", "serialize_delta_tsv", None),
    ("graphs", "WeightedGraph.__init__", None),
    ("graphs", "WeightedGraph.integer_form", None),
    ("graphs", "apply_delta", None),
    ("graphs", "DistanceMatrix.to_graph", None),
    ("graphs", "DistanceMatrix.from_graph", None),
    ("paths", "apsp", None),  # engine and cache counters are taken in _apsp_wrapper
    ("paths", "ApspResult.parents", None),
    ("detect", "is_metric", None),
    ("detect", "find_broken_witness", None),
    ("detect", "broken_triangles",
     lambda t, a, r, s: t.count("detect.triangles_found", len(r))),
    ("exact", "verify_support",
     lambda t, a, r, s: t.count("exact.verify_support.accepted", int(r.accepted))),
    ("exact", "decrease_repair", None),
    ("approx", "shortest_path_cover",
     lambda t, a, r, s: t.count("approx.iterations", r.iterations)),
    ("approx", "general_shortest_path_cover",
     lambda t, a, r, s: t.count("approx.iterations", r.iterations)),
    ("approx", "five_cycle_cover",
     lambda t, a, r, s: t.count("approx.iterations", r.iterations)),
    ("approx", "matrix_sweep_repair", None),
    ("chordal", "perfect_elimination_ordering", None),
    ("fpt", "fpt_min_repair",
     lambda t, a, r, s: (t.count("fpt.rounds", r.budget + 1),
                         t.count("fpt.search_nodes", r.stats.nodes))),
    ("runner", "run_algo", lambda t, a, r, s: _runner_split(t, r, s)),
)

SETUP_TARGETS = (
    ("gadgets", "planted_complete", None),
    ("gadgets", "planted_chordal", None),
    ("gadgets", "random_connected_graph", None),
    ("gadgets", "metric_closure_weights", None),
    ("gadgets", "dense_block_matrix", None),
    ("gadgets", "sweep_worst_matrix", None),
    ("gadgets", "cycle_tight", None),
    ("gadgets", "suspension", None),
)

RUN_COUNTERS = ("fileio.bytes_in", "paths.apsp.dense", "paths.apsp.sparse",
                "paths.apsp.cached", "detect.triangles_found",
                "exact.verify_support.accepted", "approx.iterations", "fpt.rounds",
                "fpt.search_nodes", "runner.solve_s", "runner.validate_s")


def is_time(key: str) -> bool:
    """Whether metric ``key`` is a time in seconds (the rest are counts)."""
    return key.endswith((".s", "_s"))


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


def _modules():
    yield metric_repair
    for info in pkgutil.iter_modules(metric_repair.__path__):
        yield importlib.import_module(f"metric_repair.{info.name}")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _apsp_wrapper(self, fn):
        # The engine that ran, or a cache hit, shows as the key the call adds
        # to the graph's per-engine APSP cache.
        def apsp(g, *args, **kwargs):
            cache = getattr(g, "_apsp_cache", {})
            before = set(cache)
            result = fn(g, *args, **kwargs)
            added = set(cache) - before
            self.count(f"paths.apsp.{added.pop() if added else 'cached'}", 1)
            return result

        return self._wrap("paths.apsp", apsp, None)

    def install(self, targets) -> None:
        modules = list(_modules())
        for module_name, path, hook in targets:
            owner = importlib.import_module(f"metric_repair.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method: patch the class, which every caller goes through
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(span_name(module_name, path), fn, hook)
                self._patch(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = (self._apsp_wrapper(fn) if path == "apsp"
                       else self._wrap(span_name(module_name, path), fn, hook))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self, targets, counters=()) -> dict:
        """Calls, inclusive busy time and self time per traced function, plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for module_name, path, _ in targets:
            name = span_name(module_name, path)
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
        for name in counters:
            out[name] = self.counters.get(name, 0)
        out["top_spans_s"] = sum(end - start for _, start, end, parent in self.spans
                                 if parent < 0)
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = min((s[1] for s in self.spans), default=0.0)
        return {
            "names": names,
            "spans": [[index[n], round(a - origin, 7), round(b - origin, 7), p]
                      for n, a, b, p in self.spans],
            "counters": dict(self.counters),
        }
