"""In-memory span tracer that wraps the dgn package's functions by name.

The package's modules call each other's functions through module globals
(``dgn.model`` calls its imported ``build_graph``, ``dgn.graph.build_graph``
calls ``row_normalize``), so replacing those attributes intercepts every
call without editing the package.  Every public function defined in a traced
module is wrapped at every module attribute that refers to it, and its spans
are named ``<module>.<function>`` after the defining module (``cli.cmd_gen``
becomes ``cli.gen``).

A span is (name, start, end, parent).  Spans live in flat arrays until the
run ends; :func:`summarize` derives calls, inclusive and self time, where
self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("corpus", "fileio", "prototype", "graph", "nn", "model", "cli")
HOOK_SPAN = "trace.hook"


def span_name(module_short: str, fn_name: str) -> str:
    return f"{module_short}.{fn_name.removeprefix('cmd_')}"


def traced_modules(package) -> list:
    return [importlib.import_module(f"{package.__name__}.{short}") for short in TRACED_MODULES]


def public_functions(package) -> dict[str, object]:
    """Map span name -> function for every public function of a traced module."""
    found = {}
    for short, module in zip(TRACED_MODULES, traced_modules(package)):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                found[span_name(short, attr)] = obj
    return found


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self, package, hooks=None):
        self._package = package
        self._hooks = hooks or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._targets = public_functions(package)

    def absent(self, required) -> list[str]:
        """Span names in ``required`` whose function no longer exists to wrap."""
        return sorted(set(required) - set(self._targets))

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        hook = self._hooks.get(name)
        hook_id = self._id(HOOK_SPAN)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                # timed as its own span so no traced layer's self time pays for it
                h = self._open(hook_id)
                for key, amount in hook(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + amount
                self._close(h)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._targets.items()}
        for module in traced_modules(self._package):
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }


def call_cost(package, calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: best wrapped no-op minus best bare no-op."""

    def noop():
        return None

    wrapped = Tracer(package)._wrap("calibrate", noop)
    best = {noop: float("inf"), wrapped: float("inf")}
    for _ in range(repeats):
        for fn in best:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return max(best[wrapped] - best[noop], 0.0) / calls


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def roots(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Index of the outermost ancestor of every span (parents precede children)."""
    parent = spans["parent"].tolist()
    out = list(range(len(parent)))
    for i, p in enumerate(parent):
        if p >= 0:
            out[i] = out[p]
    return np.asarray(out, dtype=np.int64)


def summarize(names: list[str], spans: dict[str, np.ndarray], mask=None) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    ids = spans["name_id"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    if mask is not None:
        ids, dur, own = ids[mask], dur[mask], own[mask]
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    total = np.bincount(ids, weights=dur, minlength=k)
    self_s = np.bincount(ids, weights=own, minlength=k)
    return {
        name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }


def check_nesting(spans: dict[str, np.ndarray]) -> list[str]:
    """Problems with the span tree: unclosed spans, or children outside parents."""
    problems = []
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    if (end < start).any():
        problems.append(f"{int((end < start).sum())} spans end before they start")
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    if (p >= child).any():
        problems.append("a parent span was opened after its child")
    outside = (start[child] < start[p]) | (end[child] > end[p])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans lie outside their parent")
    return problems
