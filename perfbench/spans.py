"""In-memory span tracer that wraps glme's public functions from outside.

``install`` replaces each public function of every layer module with a
wrapper that records a span (name, start, end, parent, item id). It also
replaces the same functions wherever another glme module imported them by
binding (``from .model import validate_model``), wraps the dense engines'
methods, and counts the matrix exponentials ``lyapunov`` calls.
``uninstall`` restores the originals, so untraced rounds run the unmodified
library. The library source is never touched.

A span's self time is its duration minus the time its child spans cover.
Span times are process CPU seconds, the clock of the end-to-end metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("model", "reservoir", "bosonic", "fermionic", "lyapunov", "entanglement",
          "io", "oracle", "cli")

# Dense-engine methods and the span name each is recorded under.
ENGINE_METHODS = {
    ("DenseBosonicEngine", "__init__"): "oracle.engine_build",
    ("DenseFermionicEngine", "__init__"): "oracle.engine_build",
    ("_DenseEngine", "liouvillian"): "oracle.liouvillian",
    ("_DenseEngine", "liouvillian_adjoint"): "oracle.liouvillian_adjoint",
    ("_DenseEngine", "evolve"): "oracle.evolve",
    ("_DenseEngine", "superoperator"): "oracle.superoperator",
    ("DenseBosonicEngine", "extract_mean_and_v"): "oracle.moments",
    ("DenseFermionicEngine", "extract_sigma"): "oracle.moments",
    ("DenseBosonicEngine", "check_truncation"): "oracle.checks",
}
# io.format_float runs once per serialized number; a span per call would
# dominate both the trace and the traced run time. io.dumps renders the JSON
# writers' payloads; unwrapped, its time stays in the writer's own span.
UNTRACED = {"io.format_float", "io.dumps"}
# Public oracle functions that are consistency checks; their spans are
# aggregated under "oracle.checks".
ORACLE_CHECKS = {"trace_preservation_check", "hermiticity_preservation_check",
                 "adjoint_consistency_check", "moment_closure_check",
                 "dense_negativity_bosonic", "dense_negativity_fermionic",
                 "dissipator_linearity_check"}


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.item_id: int | None = None
        self.item_cls: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, tag: str | None = None) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "tag": tag, "item": self.item_id,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.process_time(), "end": None, "error": None})
        self._stack.append(sid)
        return sid

    def close(self, sid: int, error: str | None = None, **attrs):
        span = self.spans[sid]
        span["end"] = time.process_time()
        span["error"] = error
        span.update(attrs)
        self._stack.pop()

    def _wrap(self, name: str, fn, tagger=None, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name, tagger(args, kwargs) if tagger else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(sid, error=type(exc).__name__)
                raise
            self.close(sid, **(measure(args, kwargs, result) if measure else {}))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- patching ----------------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module(f"glme.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            if layer == "cli":
                continue    # CLI commands are timed as fresh processes, not in-process
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if f"{layer}.{attr}" in UNTRACED:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj, *self._annotations(layer, attr))
                wrappers[id(obj)] = wrapper
                self._set(mod, attr, wrapper)
        for mod in [*modules.values(), importlib.import_module("glme")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    self._set(mod, attr, wrappers[id(obj)])
        lyap = modules["lyapunov"]
        self._set(lyap, "expm", self._counter("lyapunov.expm", lyap.expm))
        oracle = modules["oracle"]
        for (cls_name, meth), span_name in ENGINE_METHODS.items():
            owner = getattr(oracle, cls_name)
            tagger = _evolve_method if meth == "evolve" else None
            measure = _engine_size if meth == "__init__" else None
            self._set(owner, meth, self._wrap(span_name, owner.__dict__[meth], tagger, measure))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _annotations(self, layer: str, attr: str):
        """(tagger, measure) for spans that carry a tag or a size."""
        if attr == "propagate_covariance":
            return (lambda args, kwargs: self.item_cls), _points
        if layer == "io" and "trajectory" in attr:
            return None, _bytes
        return None, None

    # -- derivation --------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [(s["end"] - s["start"]) - covered[s["id"]] for s in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate spans into <layer>.<function>[.<tag>].{calls,self_s,failed,points,bytes}."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            layer, _, func = span["name"].partition(".")
            if layer not in LAYERS:
                continue
            name = "oracle.checks" if layer == "oracle" and func in ORACLE_CHECKS else span["name"]
            keys = [name] + ([f"{name}.{span['tag']}"] if span["tag"] else [])
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += self_s
                # a StabilityError is glme's documented refusal of a non-Hurwitz drift
                out[f"{key}.failed"] += bool(span["error"]) and span["error"] != "StabilityError"
                for size in ("points", "bytes"):
                    if size in span:
                        out[f"{key}.{size}"] += span[size]
            if "superop_dim" in span:
                out["oracle.superop_dim"] = max(out["oracle.superop_dim"], span["superop_dim"])
            if layer == "io" and "bytes" in span:
                out["io.total_bytes"] += span["bytes"]
                out["io.total_self_s"] += self_s
        for name, value in self.counts.items():
            out[f"{name}.calls"] += value
        if out["io.total_self_s"] > 0:
            out["io.bytes_per_s"] = out["io.total_bytes"] / out["io.total_self_s"]
        return dict(out)


def _points(args, kwargs, result):
    times = kwargs["times"] if "times" in kwargs else args[2]
    return {"points": len(times)}


def _bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _evolve_method(args, kwargs):
    return kwargs.get("method", args[3] if len(args) > 3 else "rk4")


def _engine_size(args, kwargs, result):
    return {"superop_dim": int(args[0].dim) ** 2}
