"""Span recorder that wraps the public functions of each anytime_iter module
from outside the package, plus the per-layer summary derived from the spans.

Nothing under the package is edited: `install` replaces module attributes
(and a few class attributes) in the running interpreter, so every call that
goes through a module global, a `from .x import y` binding or a method
lookup passes through a wrapper.  Calls made inside a function body to code
that is not a module attribute (numpy generator methods, per-step
`RmProblem.m_func`) stay invisible; `workloads.NOT_MEASURED` lists the
metrics that leaves unmeasured.

Spans are kept in memory and written out once, by the caller, at the end.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("seeding", "streams", "algorithms", "boundaries", "recursion", "harness", "cli")

# Report readers and writers form their own "io" layer, so that harness and
# cli self times do not include file I/O.
IO_FUNCTIONS = {
    "harness.write_report_json",
    "harness.write_grid_csv",
    "boundaries.write_catalog_json",
    "boundaries.write_width_csv",
    "recursion.trace_to_csv",
    "recursion.trace_from_csv",
}
ENGINES = {"sgd_batch", "pca_batch", "rm_batch", "ridge_batch"}
# Methods called a bounded number of times per block; per-step methods such as
# RmProblem.m_func are left alone because wrapping them would dominate the run.
METHODS = {
    "boundaries": (("Boundary", "eval"), ("StepSchedule", "etas")),
    "streams": (("LinearModelStream", "draw"),),
}
# harness._lil_batch is private but is the LIL engine; wrapping it as a
# harness span lets the LIL run count its block like the other drivers.
PRIVATE = {"harness": ("_lil_batch",)}


class Recorder:
    """Thread-safe in-memory span list.

    Each span is [name, layer, start, end, parent, attrs].  Parents come from
    a per-thread stack; a span opened on a worker thread with an empty stack
    takes the main thread's innermost open span as parent, which is the
    runner that handed the work to the pool.
    """

    def __init__(self):
        self.spans: list[list] = []
        # Time spent in the wrappers' own bookkeeping (opening and closing
        # spans, computing their counts), summed over all spans.
        self.overhead_s = 0.0
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def open(self, name: str, layer: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if tid != self._main and main else None
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent, None])
            stack.append(idx)
        return idx

    def close(self, idx: int, attrs=None) -> None:
        end = time.perf_counter()
        with self._lock:
            span = self.spans[idx]
            span[3] = end
            span[5] = attrs
            stack = self._stacks[threading.get_ident()]
            stack.remove(idx)

    def charge(self, seconds: float) -> None:
        with self._lock:
            self.overhead_s += seconds


def _engine_attrs(sig, args, kwargs, out) -> dict:
    bound = sig.bind(*args, **kwargs).arguments
    out_bytes = sum(v.nbytes for v in out.values() if isinstance(v, np.ndarray))
    return {"rep_steps": len(bound["seeds"]) * len(bound["etas"]), "out_bytes": out_bytes}


def _values(out) -> int:
    if isinstance(out, tuple):
        return sum(int(np.size(v)) for v in out)
    return int(np.size(out))


def _attrs_for(qualname: str, fn):
    """Return f(args, kwargs, out) -> attrs for functions whose counts are
    summarized, or None."""
    module, _, name = qualname.partition(".")
    if module == "algorithms" and name in ENGINES:
        sig = inspect.signature(fn)
        return lambda a, k, out: _engine_attrs(sig, a, k, out)
    if module == "streams":
        return lambda a, k, out: {"values": _values(out)}
    if qualname == "boundaries.Boundary.eval":
        return lambda a, k, out: {"points": int(np.size(a[1] if len(a) > 1 else k["t"]))}
    if qualname in ("harness.run_coverage", "harness.run_oja_cold_start"):
        return lambda a, k, out: {"violations": int(out.violations)}
    return None


def _wrap(rec: Recorder, qualname: str, layer: str, fn):
    attrs_of = _attrs_for(qualname, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        entered = time.perf_counter()
        idx = rec.open(qualname, layer)
        called = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            returned = time.perf_counter()
            rec.close(idx, attrs_of(args, kwargs, out) if attrs_of and out is not None else None)
            cost = (called - entered) + (time.perf_counter() - returned)
            rec.charge(cost)

    return traced


class _TracedFile:
    """File proxy whose span covers open() to close()."""

    def __init__(self, rec: Recorder, fh, idx: int):
        self._rec, self._fh, self._idx = rec, fh, idx

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._idx is not None:
            self._fh.close()
            self._rec.close(self._idx)
            self._idx = None


def install(rec: Recorder) -> None:
    """Wrap every public function of each layer module (and the methods in
    METHODS) before the experiment starts."""
    import anytime_iter.cli as cli_mod

    modules = {layer: sys.modules[f"anytime_iter.{layer}"] for layer in LAYERS}
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "anytime_iter"]
    replaced = {}
    for layer, mod in modules.items():
        names = [
            n
            for n, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
        ]
        for name in names + list(PRIVATE.get(layer, ())):
            qualname = f"{layer}.{name}"
            span_layer = "io" if qualname in IO_FUNCTIONS else layer
            fn = getattr(mod, name)
            replaced[id(fn)] = _wrap(rec, qualname, span_layer, fn)
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, _wrap(rec, f"{layer}.{cls_name}.{meth}", layer, fn))
    # The wrappers keep the originals alive, so their ids stay unique.
    for owner in owners:
        for name, obj in list(vars(owner).items()):
            if id(obj) in replaced:
                setattr(owner, name, replaced[id(obj)])

    def traced_open(*args, **kwargs):
        idx = rec.open("cli.open", "io")
        try:
            fh = open(*args, **kwargs)
        except BaseException:
            rec.close(idx)
            raise
        return _TracedFile(rec, fh, idx)

    cli_mod.open = traced_open


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


def _union(intervals) -> float:
    """Total length covered by possibly overlapping (lo, hi) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
        reach = max(reach, hi)
    return total


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    out = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        kids = [(max(s[2], start), min(s[3], end)) for s in children.get(i, ())]
        out.append((end - start) - _union(kids))
    return out


def summarize(spans) -> dict:
    """Per-layer metrics (name -> value) from one traced run's spans."""
    selfs = self_times(spans)
    layer_of = [s[1] for s in spans]

    def top(pred):
        """Spans matching pred whose parent does not match it (no double count)."""
        return [
            i
            for i, s in enumerate(spans)
            if pred(s) and (s[4] is None or not pred(spans[s[4]]))
        ]

    def dur(idx):
        return sum(spans[i][3] - spans[i][2] for i in idx)

    def attr(idx, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in idx)

    def layer_self(layer):
        return sum(t for t, lay in zip(selfs, layer_of) if lay == layer)

    def is_engine(s):
        return s[1] == "algorithms" and s[0].split(".")[-1] in ENGINES

    engines = top(is_engine)
    gens = [i for i, s in enumerate(spans) if s[0] == "seeding.make_generator"]
    draws = top(lambda s: s[1] == "streams")
    evals = top(lambda s: s[0] == "boundaries.Boundary.eval")
    runners = top(lambda s: s[1] == "harness" and s[0].startswith("harness.run_"))
    lil_blocks = [i for i, s in enumerate(spans) if s[0] == "harness._lil_batch"]
    harness_blocks = [
        i for i in engines if spans[i][4] is not None and layer_of[spans[i][4]] == "harness"
    ]
    checks = top(lambda s: s[0] == "recursion.check_recursion")
    return {
        "seeding.generators": len(gens),
        "seeding.s": dur(top(lambda s: s[1] == "seeding")),
        "streams.draw_calls": len(draws),
        "streams.draw_s": dur(draws),
        "streams.values": attr(draws, "values"),
        "algorithms.engine_calls": len(engines),
        "algorithms.engine_s": dur(engines),
        "algorithms.step_s": sum(selfs[i] for i in engines),
        "algorithms.rep_steps": attr(engines, "rep_steps"),
        "algorithms.out_bytes": attr(engines, "out_bytes"),
        "algorithms.check_pca_s": dur(top(lambda s: s[0] == "algorithms.check_pca_recursion")),
        "boundaries.eval_s": dur(evals),
        "boundaries.eval_points": attr(evals, "points"),
        "boundaries.etas_s": dur(top(lambda s: s[0] == "boundaries.StepSchedule.etas")),
        "harness.runner_s": dur(runners),
        "harness.self_s": layer_self("harness"),
        "harness.blocks": len(harness_blocks) + len(lil_blocks),
        "harness.violations": attr(runners, "violations"),
        "cli.main_s": dur(top(lambda s: s[0] == "cli.main")),
        "cli.io_s": dur(top(lambda s: s[1] == "io")),
        "cli.self_s": layer_self("cli"),
        "recursion.check_calls": len(checks),
        "recursion.check_s": dur(checks),
        "trace.spans": len(spans),
    }
