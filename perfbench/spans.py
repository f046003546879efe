"""Span recorder for the traced benchmark run.

While ``Recorder.instrument()`` is active, every public function of every
``cayley_runs`` module is replaced, in every namespace that binds it, by
a wrapper that records a span: name, parent span, start and end.  A
module that imported a function by name (``montecarlo`` binds
``mapping_to_tree``, ``bijections`` binds ``make_mapping``) therefore
calls the wrapper too, and the time lands in the callee's layer.

Spans stay in flat in-memory arrays until ``save`` writes them out.
``reduce`` turns the spans of one pass into per-layer self times, call
counts and per-call durations.  Pool workers are forked copies whose
spans never reach the parent; the parent sees the pooled call as one
span, which is the time it waited for the pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "core", "runs", "bijections", "exact", "series",
          "asymptotics", "montecarlo")
# calls whose size the trace records, as (work count, workers)
COUNTED = ("exact.brute_force_tables", "montecarlo.run_statistics")


def _work(name: str, fn, args, kwargs, result) -> tuple[int, int]:
    """Work tallied in a call's result, and the workers it asked for.

    For brute_force_tables, the arrays counted in the returned mapping
    table (n^n when the enumeration covers each array once); for
    run_statistics, n x the samples counted in the returned histogram.
    A call that skips or repeats part of its work changes the count.
    """
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if name.startswith("exact."):
        work = result[1].total()
    else:
        work = result.n * sum(result.histogram.values())
    return work, bound.arguments["workers"]


class Recorder:
    """Flat span store: one entry per call, parents by index (-1 for none)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work: dict[int, tuple[int, int]] = {}
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def _open(self, name: str) -> int:
        sid = len(self.name)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counted:
                self.work[sid] = _work(name, fn, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Swap every public cayley_runs function for its traced wrapper, then restore."""
        package = importlib.import_module("cayley_runs")
        modules = {layer: importlib.import_module(f"cayley_runs.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        patched = []
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        try:
            yield
        finally:
            for ns, attr, obj in patched:
                setattr(ns, attr, obj)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ids = np.fromiter(self.work, dtype=np.int64, count=len(self.work))
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            work_span=ids,
            work=np.array([self.work[i] for i in ids], dtype=np.int64).reshape(-1, 2),
        )

    def reduce(self, lo: int, hi: int) -> "PassProfile":
        """Per-name totals for the spans with index in [lo, hi), one pass."""
        # copies: a live numpy view would stop the arrays from growing
        name = np.array(self.name[lo:hi], dtype=np.int32)
        parent = np.array(self.parent[lo:hi], dtype=np.int32)
        dur = (np.array(self.end[lo:hi], dtype=np.int64)
               - np.array(self.start[lo:hi], dtype=np.int64)) / 1e9
        child = np.zeros(hi - lo)
        inner = parent >= lo
        np.add.at(child, parent[inner] - lo, dur[inner])
        self_time = dur - child
        work = {i - lo: w for i, w in self.work.items() if lo <= i < hi}
        return PassProfile(self.names, name, parent - lo, dur, self_time, work)


class PassProfile:
    """Spans of one traced pass, indexed from 0, with durations in seconds."""

    def __init__(self, names, name, parent, dur, self_time, work) -> None:
        self.names = names
        self.name = name
        self.parent = parent
        self.dur = dur
        self.self_time = self_time
        self.work = work

    def ids(self, *names: str) -> np.ndarray:
        wanted = [i for i, s in enumerate(self.names) if s in names]
        return np.nonzero(np.isin(self.name, wanted))[0]

    def layer_ids(self, layer: str) -> np.ndarray:
        wanted = [i for i, s in enumerate(self.names) if s.startswith(layer + ".")]
        return np.nonzero(np.isin(self.name, wanted))[0]

    def total(self, *names: str) -> float:
        return float(self.dur[self.ids(*names)].sum())

    def self_total(self, ids: np.ndarray) -> float:
        return float(self.self_time[ids].sum())

    def median_us(self, *names: str) -> float:
        ids = self.ids(*names)
        return float(np.median(self.dur[ids]) * 1e6) if ids.size else 0.0

    def under(self, root: int, ids: np.ndarray) -> np.ndarray:
        """The subset of ``ids`` whose ancestors include span ``root``."""
        keep = []
        for i in ids:
            p = self.parent[i]
            while p > root:
                p = self.parent[p]
            if p == root:
                keep.append(i)
        return np.array(keep, dtype=np.int64)
