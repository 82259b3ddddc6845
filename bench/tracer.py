"""Layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of every layer module of
lefscalc where callers look them up: the attribute of each lefscalc module
that binds the function (the defining module included), and the class
attribute for public methods.  Each wrapper counts the call and records a
span (id, parent id, name, start, end).  Self time is aggregated online,
per span name, as the span's duration minus the time covered by its child
spans, so a layer's self time is the sum over its span names.  Spans are
kept in memory, up to ``SPAN_CAP``, and written out by ``write_spans``.

A few wrappers also derive sizes from arguments or results (matrix
shapes, boundary nonzeros, subdivision sizes, bytes parsed and printed),
and two ratios count distinct inputs, so repeated work shows.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = (
    "exact", "complexes", "maps", "homology", "fixedpoint", "euler",
    "morse", "flags", "io", "reports", "cli", "verify",
)
# Modules whose namespaces may bind a layer function; fixtures and the
# package itself are callers, not layers.
CALLER_MODULES = LAYERS + ("fixtures", "__init__")
# Dunder methods that are real work and worth a span.
TRACED_DUNDERS = ("__matmul__",)
# Leaf helpers called millions of times per round: a span each would cost
# more than the work it measures, so their time stays with the caller.
UNTRACED = frozenset({"complexes.vertex_key"})
SPAN_CAP = 200_000

# name of the traced callable -> per-layer metric it feeds
CALL_COUNTERS = {
    "exact.RationalMatrix.__matmul__": "exact.matmul.calls",
    "exact.row_echelon": "exact.elim.calls",
    "exact.RationalMatrix.det": "exact.det.calls",
    "exact.RationalMatrix.char_poly": "exact.char_poly.calls",
    "exact.has_nonneg_solution": "exact.lp.calls",
    "homology.chain_complex": "homology.chain_complex.calls",
    "homology.self_map_endomorphism": "homology.endomorphism.calls",
    "fixedpoint.fixed_subcomplex": "fixedpoint.fixed_subcomplex.calls",
    "complexes.barycentric_subdivide": "complexes.subdivide.calls",
    "complexes.canonical_tuple": "complexes.canonical_tuple.calls",
    "maps.SimplicialMap.build": "maps.build.calls",
    "morse.cc_table": "morse.cc_table.calls",
    "flags.bruhat_leq": "flags.bruhat_leq.calls",
}
SELF_TIME_SPANS = {
    "exact.lp.self_s": "exact.has_nonneg_solution",
    "exact.matmul.self_s": "exact.RationalMatrix.__matmul__",
}


def _module(name: str):
    return importlib.import_module("lefscalc" if name == "__init__" else f"lefscalc.{name}")


def _layer_targets(layer: str):
    """(qualified name, owner, attribute, raw attribute) of each public
    callable defined in the layer module; owner is the module or class."""
    module = _module(layer)
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        if f"{layer}.{attr}" in UNTRACED:
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield f"{layer}.{attr}", module, attr, value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for name, raw in sorted(vars(value).items()):
                if name.startswith("_") and name not in TRACED_DUNDERS:
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    yield f"{layer}.{value.__name__}.{name}", value, name, raw


def _nnz_and_dense(cc) -> tuple:
    nnz = dense = 0
    for matrix in cc.boundaries:
        dense += matrix.nrows * matrix.ncols
        nnz += sum(1 for row in matrix.rows for x in row if x != 0)
    return nnz, dense


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self._stack = []     # frames: [span id, time covered by children]
        self._next_id = 0
        self._distinct = {"homology.chain_complex": set(), "fixedpoint.fixed_subcomplex": set()}
        self._restore = []
        self._sd_cache_start = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        before = self._before_hooks().get(name)
        after = self._after_hooks().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if before is not None:
                before(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, start, end))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _before_hooks(self) -> dict:
        counts = self.counts
        distinct = self._distinct

        def matmul(args, kwargs):
            a, b = args[0], args[1]
            counts["exact.matmul.scalar_mults"] += a.nrows * a.ncols * b.ncols

        def chain_complex(args, kwargs):
            rel = args[1] if len(args) > 1 else kwargs.get("relative_to")
            key = None if rel is None else frozenset(
                frozenset(c) for c in getattr(rel, "members", getattr(rel, "simplices", rel))
            )
            distinct["homology.chain_complex"].add((hash(args[0]), hash(key)))

        def fixed_subcomplex(args, kwargs):
            spec = args[0]
            distinct["fixedpoint.fixed_subcomplex"].add(
                (hash(spec.base), spec.level, hash(frozenset(spec.vertex_map.items())))
            )

        def loads(args, kwargs):
            counts["io.bytes_in"] += len(args[0].encode("utf-8"))

        return {
            "exact.RationalMatrix.__matmul__": matmul,
            "homology.chain_complex": chain_complex,
            "fixedpoint.fixed_subcomplex": fixed_subcomplex,
            "io.loads": loads,
        }

    def _after_hooks(self) -> dict:
        counts = self.counts

        def chain_complex(args, cc):
            nnz, dense = _nnz_and_dense(cc)
            counts["homology.boundary.nnz"] += nnz
            counts["homology.boundary.dense_entries"] += dense

        def subdivide(args, result):
            counts["complexes.subdivide.cells_out"] += len(result[0].simplices)

        def print_report(args, text):
            counts["reports.bytes_out"] += len(text.encode("utf-8"))

        return {
            "homology.chain_complex": chain_complex,
            "complexes.barycentric_subdivide": subdivide,
            "reports.print_report": print_report,
        }

    def install(self) -> None:
        callers = [_module(name) for name in CALLER_MODULES]
        for layer in LAYERS:
            for name, owner, attr, raw in list(_layer_targets(layer)):
                if inspect.isclass(owner):
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__))
                    elif isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                wrapper = self._wrap(name, raw)
                for caller in callers:
                    for bound_name, value in list(vars(caller).items()):
                        if value is raw:
                            self._restore.append((caller, bound_name, raw))
                            setattr(caller, bound_name, wrapper)
        self._sd_cache_start = _module("maps").subdivided_complex.cache_info()

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and self times of everything traced since install().
        Sums of summaries stay meaningful; `ratios` turns one into the
        per-layer metrics."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer
            )
        for span, metric in CALL_COUNTERS.items():
            out[metric] = self.calls[span]
        for metric, span in SELF_TIME_SPANS.items():
            out[metric] = self.self_time[span]
        for name, seen in self._distinct.items():
            out[f"{name}.distinct"] = len(seen)
        for key in ("exact.matmul.scalar_mults", "homology.boundary.nnz",
                    "homology.boundary.dense_entries", "complexes.subdivide.cells_out",
                    "io.bytes_in", "reports.bytes_out"):
            out[key] = self.counts[key]
        # subdivided_complex is an lru_cache, not a plain function, so it is
        # not wrapped; its own counters give the hit ratio.
        info = _module("maps").subdivided_complex.cache_info()
        out["maps.sd_cache.hits"] = info.hits - self._sd_cache_start.hits
        out["maps.sd_cache.misses"] = info.misses - self._sd_cache_start.misses
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "dropped": self.dropped, "spans": self.spans}, handle)


def ratios(summary: dict) -> dict:
    """Per-layer metrics from a summary, or from a sum of summaries: the
    distinct-input and cache counts become ratios."""
    out = dict(summary)
    for name in ("homology.chain_complex", "fixedpoint.fixed_subcomplex"):
        distinct, calls = out.pop(f"{name}.distinct"), out[CALL_COUNTERS[name]]
        out[f"{name}.distinct_ratio"] = distinct / calls if calls else 0.0
    hits, misses = out.pop("maps.sd_cache.hits"), out.pop("maps.sd_cache.misses")
    out["maps.sd_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
