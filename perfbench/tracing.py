"""In-memory layer tracing of the stubborn package, installed from outside it.

`install` wraps each layer's public function in every `stubborn` module
namespace (and module-level dict, such as `cli.COMMANDS`) that binds it,
and returns a function that puts the originals back.  Nothing in `src/`
is edited and the wrappers only observe: a traced pass must write the
same bytes as an untraced one.

Two kinds of wrapper:

* `Tracer.span` records (id, parent, name, start, end) for layer calls
  made at most tens of thousands of times per pass.  The parent is the
  innermost open span on the calling thread; on a worker thread with no
  open span it is the open span that fanned out to workers
  (`simulate_batch`).
* `Tracer.counted` keeps only a call count and busy time, for the
  ~200k per-point `derivatives` calls, and charges the time to the
  enclosing span on the same thread.  A counted function must not call
  another traced function, and must run on a thread that has an open
  span (true of `derivatives` here), or its time is charged to nobody.

Spans and counters live in per-thread buffers, so recording takes no
lock; `collect` merges them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

# check_* function -> suite name used in the validate report
CHECK_SUITES = {
    "check_gaussian_identity": "gaussian_integral_identity",
    "check_finite_differences": "derivative_consistency",
    "check_trivial_root": "trivial_root_law",
    "check_root_residuals": "root_residuals",
    "check_fk_cases": "feynman_kac_analytic",
}


class _Buffer:
    __slots__ = ("spans", "stack", "counters")

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, counted_child_s)
        self.stack: list[list] = []  # open spans: [id, counted_child_s]
        self.counters: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._ids = itertools.count(1)
        self._fanout: list[int] = []
        self.missing: set[str] = set()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _parent(self, buf: _Buffer) -> int:
        if buf.stack:
            return buf.stack[-1][0]
        with self._lock:
            return self._fanout[-1] if self._fanout else 0

    def span(self, name: str, fn: Callable, fanout: bool = False,
             on_result: Callable | None = None) -> Callable:
        """Wrap fn so that each call records a span; on_result(counters, args, kwargs, result)."""
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            parent = self._parent(buf)
            frame = [next(self._ids), 0.0]
            buf.stack.append(frame)
            if fanout:
                with self._lock:
                    self._fanout.append(frame[0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if fanout:
                    with self._lock:
                        self._fanout.remove(frame[0])
                buf.stack.pop()
                buf.spans.append((frame[0], parent, name, t0, t1, frame[1]))
            if on_result is not None:
                on_result(buf.counters, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap fn with an aggregate call count and busy time, no span."""
        clock = self._clock
        calls_key, busy_key = name + ".calls", name + ".busy_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                buf = self._buffer()
                buf.counters[calls_key] += 1
                buf.counters[busy_key] += elapsed
                if buf.stack:
                    buf.stack[-1][1] += elapsed

        return wrapper

    def collect(self) -> tuple[list[tuple], dict[str, float]]:
        """All finished spans and the summed counters, over every thread."""
        with self._lock:
            buffers = list(self._buffers)
        spans = [s for buf in buffers for s in buf.spans]
        counters: dict[str, float] = defaultdict(float)
        for buf in buffers:
            for key, value in buf.counters.items():
                counters[key] += value
        return spans, dict(counters)


# ---------------------------------------------------------------- span arithmetic

def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its child spans (clipped to the
    span) minus the counted-call time charged to it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1, _counted in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, counted in spans:
        kids = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(sid, ()) if hi > t0 and lo < t1]
        out[sid] = (t1 - t0) - union_length(kids) - counted
    return out


def layer_metrics(spans: list[tuple], counters: dict[str, float], n_passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans and counters of n_passes traced passes."""
    selfs = self_times(spans)
    per: dict[str, float] = defaultdict(float)
    for sid, _parent, name, t0, t1, _counted in spans:
        per[name + ".calls"] += 1
        per[name + ".busy_s"] += t1 - t0
        per[name + ".self_s"] += selfs[sid]
    for key, value in counters.items():
        per[key] += value
    names = {sid: name for sid, _p, name, *_ in spans}
    ranked = {p for _s, p, name, *_ in spans
              if name == "payoff.expected_payoff" and names.get(p) == "control.optimal_stubbornness"}
    per["control.ranked_cells"] = len(ranked)
    out = {key: value / n_passes for key, value in per.items()}
    n_opt = per["control.optimal_stubbornness.calls"]
    out["control.ranked_fraction"] = len(ranked) / n_opt if n_opt else 0.0
    n_ep = per["payoff.expected_payoff.calls"]
    out["payoff.expected_payoff.paths_per_call"] = per["payoff.expected_payoff.paths"] / n_ep if n_ep else 0.0
    n_d = per["lagrangian.derivatives.calls"]
    out["lagrangian.derivatives.us_per_call"] = 1e6 * per["lagrangian.derivatives.busy_s"] / n_d if n_d else 0.0
    return out


# ---------------------------------------------------------------- installation

def _arg(fn: Callable, name: str) -> Callable[[tuple, dict], object]:
    params = list(inspect.signature(fn).parameters.values())
    idx = [p.name for p in params].index(name)
    default = params[idx].default

    def get(args: tuple, kwargs: dict):
        if name in kwargs:
            return kwargs[name]
        return args[idx] if idx < len(args) else default

    return get


def _rebind(original: Callable, replacement: Callable, modules: list, undo: list) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((setattr, mod, attr, value))
                setattr(mod, attr, replacement)
            elif isinstance(value, dict) and attr != "__builtins__":
                for key, item in list(value.items()):
                    if item is original:
                        undo.append((dict.__setitem__, value, key, item))
                        value[key] = replacement


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer functions of the imported stubborn package; returns the undo."""
    modules = [m for n, m in sys.modules.items() if n == "stubborn" or n.startswith("stubborn.")]
    pkg = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("stubborn.")}
    undo: list = []

    def wrap(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        fn = getattr(pkg.get(module), attr, None)
        if fn is None:
            tracer.missing.add(f"{module}.{attr}")
            return
        _rebind(fn, make(fn), modules, undo)

    def add(key: str, value_of: Callable) -> Callable:
        def on_result(counters, args, kwargs, result):
            counters[key] += value_of(args, kwargs, result)
        return on_result

    steps = pkg["dynamics"].n_steps_for

    def sn(fn):
        n = _arg(fn, "n_paths")
        return tracer.span("dynamics.step_normals", fn,
                           on_result=add("dynamics.step_normals.normals", lambda a, k, r: n(a, k)))

    def sb(fn):
        n, h, dt = _arg(fn, "n_paths"), _arg(fn, "horizon"), _arg(fn, "dt")
        return tracer.span("dynamics.simulate_batch", fn, fanout=True,
                           on_result=add("dynamics.simulate_batch.path_steps",
                                         lambda a, k, r: n(a, k) * steps(h(a, k), dt(a, k))))

    def ep(fn):
        n = _arg(fn, "n_paths")
        return tracer.span("payoff.expected_payoff", fn,
                           on_result=add("payoff.expected_payoff.paths", lambda a, k, r: n(a, k)))

    def fk(fn):
        prob, s, n, dt = _arg(fn, "problem"), _arg(fn, "s"), _arg(fn, "n_paths"), _arg(fn, "dt")
        return tracer.span("feynman_kac.fk_estimate", fn,
                           on_result=add("feynman_kac.fk_estimate.path_steps",
                                         lambda a, k, r: n(a, k) * steps(prob(a, k).horizon - s(a, k), dt(a, k))))

    def step(fn):
        return tracer.span("density.step", fn,
                           on_result=add("density.boundary_warnings", lambda a, k, r: r.warning is not None))

    def fields(fn):
        @functools.wraps(fn)
        def model_fields(*args, **kwargs):
            return tracer.span("density.fields", fn(*args, **kwargs))
        return model_fields

    wrap("dynamics", "step_normals", sn)
    wrap("dynamics", "simulate_batch", sb)
    wrap("payoff", "expected_payoff", ep)
    wrap("lagrangian", "derivatives", lambda fn: tracer.counted("lagrangian.derivatives", fn))
    wrap("control", "optimal_stubbornness", lambda fn: tracer.span("control.optimal_stubbornness", fn))
    wrap("control", "root_scan", lambda fn: tracer.span("control.root_scan", fn))
    wrap("density", "model_fields", fields)
    wrap("density", "kernel_step", step)
    wrap("density", "schrodinger_step", step)
    wrap("feynman_kac", "fk_estimate", fk)
    for attr, suite in CHECK_SUITES.items():
        wrap("checks", attr, lambda fn, suite=suite: tracer.span("checks." + suite, fn))
    for command, fn in list(pkg["cli"].COMMANDS.items()):
        _rebind(fn, tracer.span("cli." + command, fn), modules, undo)

    def uninstall() -> None:
        for setter, container, key, value in reversed(undo):
            setter(container, key, value)

    return uninstall
