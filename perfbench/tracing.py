"""Per-layer tracing from outside the package.

`Tracer.install` wraps every public function of each multihess module,
and every public method of the classes it defines, and rebinds the
wrapper under every name that points at the original, so a consumer's
``from .spectral import decompose`` is traced too.  Each call
records a span (name, start, end, parent span, request, extra) in memory;
`write` saves them when the run ends.  A span's self time is its duration
minus that of its child spans.

Two functions are not wrapped because they run thousands of times per
request and a span each would swamp the trace: `pbf.assemble_truncation`
(counted through its ``cache_info()``) and `serialize.format_float` (its
time stays in the emitter that calls it).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "generator", "pbf", "polynomials", "spectral", "quadrature",
          "markov", "montecarlo", "serialize", "rng")
UNWRAPPED = {"pbf.assemble_truncation", "serialize.format_float"}
# Recurrence levels each polynomial evaluator runs, from its arguments.
# Every evaluator takes (gen, N or count, ...) positionally; all but
# h_values take the points third.
_LEVELS = {"eval_type_ii": lambda a: (a[1] + 1) * _npoints(a[2]),
           "eval_truncated": lambda a: (a[1] + 1) * _npoints(a[2]),
           "eval_type_i": lambda a: a[1] * _npoints(a[2]),
           "eval_second_kind": lambda a: (a[1] + 1) * _npoints(a[2]),
           "h_values": lambda a: a[1]}


def _npoints(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, t0, t1, parent, request, extra]
        self.stack = []
        self.request = -1
        self._saved = []         # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        module, func = name.split(".", 1)
        levels = _LEVELS.get(func) if module == "polynomials" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.request, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if levels is not None:
                span[5] = (bool(kwargs.get("use_mp", False)), levels(args))
            elif name == "spectral.decompose":
                span[5] = out.dps if out.use_mp else None
            elif name == "montecarlo.simulate_chain":
                span[5] = out.trials * out.steps
            elif module == "serialize":
                span[5] = len(out)
            return out
        return traced

    def install(self):
        mods = {m: sys.modules[f"multihess.{m}"] for m in LAYERS}
        wrappers = {}
        for m, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{m}.{attr}" not in UNWRAPPED:
                    wrappers[id(obj)] = self._wrap(f"{m}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._saved.append((obj, meth, fn))
                            setattr(obj, meth,
                                    self._wrap(f"{m}.{attr}.{meth}", fn))
        for mod in list(mods.values()) + [sys.modules["multihess"]]:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _, _), c
                in zip(self.spans, child)]

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "request", "extra"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, requests: int, cache_delta: tuple,
                  overhead_pct: float, speed: float) -> dict:
    """The per-layer metrics, per request unless they are a ratio.  Times
    are multiplied by `speed`, the run's calibration factor."""
    selfs = [st * speed for st in tracer.self_times()]
    sums = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    dps = []
    for (name, t0, t1, parent, _, extra), st in zip(tracer.spans, selfs):
        module = name.split(".", 1)[0]
        if module in ("cli", "quadrature"):
            add(f"{module}.self_ms", st * 1e3)
        if name == "quadrature.reference_moment":
            add("quadrature.reference_moment.calls", 1)
        if module == "polynomials":
            kind = "mp" if extra[0] else "float"
            add(f"polynomials.{kind}.calls", 1)
            add(f"polynomials.{kind}.self_ms", st * 1e3)
            add("polynomials.point_steps", extra[1])
        if name in ("spectral.eigenvalues", "spectral.decompose",
                    "markov.finite_chain", "markov.to_stochastic_factors",
                    "montecarlo.simulate_chain"):
            add(f"{name}.self_ms", st * 1e3)
        if name == "spectral.eigenvalues":
            add("spectral.eigenvalues.calls", 1)
        if name == "spectral.decompose" and extra is not None:
            dps.append(extra)
        if name == "markov.recurrence_diagnostic":
            add("markov.recurrence_diagnostic.ms", (t1 - t0) * speed * 1e3)
        if name == "montecarlo.simulate_chain":
            add("montecarlo.transitions", extra)
            add("montecarlo.simulate_chain.self_s", st)
        if module == "serialize" and (
                parent < 0 or not tracer.spans[parent][0].startswith(
                    "serialize.")):
            add("serialize.ms", (t1 - t0) * speed * 1e3)
            add("serialize.bytes", extra)
    hits, misses = cache_delta
    out = {}
    for key, unit in METRICS:
        if key == "pbf.assemble_truncation.hit_ratio":
            value = hits / (hits + misses) if hits + misses else 0.0
        elif key == "pbf.assemble_truncation.misses":
            value = misses / requests
        elif key == "spectral.decompose.dps":
            value = sum(dps) / len(dps) if dps else 0.0
        elif key == "montecarlo.transitions_per_s":
            s = sums.get("montecarlo.simulate_chain.self_s", 0.0)
            value = sums.get("montecarlo.transitions", 0.0) / s if s else 0.0
        elif key == "trace.overhead_pct":
            value = overhead_pct
        else:
            value = sums.get(key, 0.0) / requests
        out[key] = {"value": value, "unit": unit}
    return out


METRICS = (
    ("polynomials.float.calls", "count"),
    ("polynomials.float.self_ms", "ms"),
    ("polynomials.point_steps", "count"),
    ("spectral.eigenvalues.self_ms", "ms"),
    ("quadrature.self_ms", "ms"),
    ("quadrature.reference_moment.calls", "count"),
    ("cli.self_ms", "ms"),
    ("polynomials.mp.calls", "count"),
    ("polynomials.mp.self_ms", "ms"),
    ("spectral.decompose.self_ms", "ms"),
    ("spectral.decompose.dps", "digits"),
    ("spectral.eigenvalues.calls", "count"),
    ("pbf.assemble_truncation.hit_ratio", "ratio"),
    ("pbf.assemble_truncation.misses", "count"),
    ("markov.finite_chain.self_ms", "ms"),
    ("markov.to_stochastic_factors.self_ms", "ms"),
    ("markov.recurrence_diagnostic.ms", "ms"),
    ("montecarlo.simulate_chain.self_ms", "ms"),
    ("montecarlo.transitions_per_s", "1/s"),
    ("serialize.ms", "ms"),
    ("serialize.bytes", "bytes"),
    ("trace.overhead_pct", "%"),
)
