"""Span tracer that wraps rulewalk's public functions from outside.

`Tracer.install` replaces a function at every place it is bound: the
defining module and each rulewalk module that imported it by name (or the
class, for methods).  Each call opens a span (name, start, end, parent,
run id) kept in flat arrays; generator functions get one span per
resumption, so a span only covers time spent inside the function.  Self
time is a span's duration minus the part of it its child spans cover.
No file under src/ changes.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "rulewalk"


class TraceError(RuntimeError):
    """The wrappers are not (or no longer) where they must be."""


def covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(names, parents, starts, ends) -> dict:
    """Sum of self time per span name over parallel span arrays."""
    children: dict[int, list] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[sid], ends[sid]))
    out: dict = {}
    for sid, name in enumerate(names):
        own = ends[sid] - starts[sid] - covered(
            starts[sid], ends[sid], children.get(sid, ()))
        out[name] = out.get(name, 0.0) + own
    return out


class Tracer:
    """Spans and call counts for wrapped functions of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.runs: list[str] = []
        self.run_id = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def begin_run(self, label: str) -> None:
        """Spans opened from now on share the run id of `label`."""
        self.run_id = len(self.runs)
        self.runs.append(label)

    @property
    def stage(self) -> str:
        """Label of the current run: the CLI command being traced."""
        return self.runs[self.run_id] if self.run_id >= 0 else ""

    def open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a call into the program."""
        nid = self.name_id(name)
        self.calls[nid] += 1
        sid = self.open(nid)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def layer_totals(self) -> dict:
        """{name: (calls, self seconds)} over every span recorded so far."""
        own = self_times([self.names[n] for n in self.span_name],
                         self.span_parent, self.span_start, self.span_end)
        return {name: (self.calls[i], own.get(name, 0.0))
                for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: id, parent, name, run, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "runs": self.runs}) + "\n")
            for sid in range(len(self.span_start)):
                fh.write(json.dumps([
                    sid, self.span_parent[sid], self.span_name[sid],
                    self.span_run[sid], self.span_start[sid], self.span_end[sid],
                ]) + "\n")

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        nid = self.name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                return tracer._resumptions(nid, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                sid = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
        return wrapper

    def _resumptions(self, nid: int, gen):
        try:
            while True:
                sid = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                yield item
        finally:
            gen.close()

    def install(self, layers) -> None:
        """Wrap every (name, class name or None, hook) at all its bindings."""
        if self._patched:
            raise TraceError("tracer is already installed")
        modules = _package_modules()
        for name, cls_name, hook in layers:
            module_name, _, attr = name.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, original, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)
        stale = self._bindings(set(self._originals))
        if stale:
            self.uninstall()
            raise TraceError(f"unwrapped originals still bound at {stale}")

    def _set(self, owner, key: str, original, wrapper) -> None:
        self._originals[id(original)] = original
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back and check that no wrapper is left."""
        wrappers = [getattr(owner, key) for owner, key, _ in self._patched]
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        self._originals.clear()
        left = self._bindings({id(w) for w in wrappers})
        if left:
            raise TraceError(f"wrappers still bound after uninstall at {left}")

    @staticmethod
    def _bindings(ids: set) -> list[str]:
        """Where any object whose id is in `ids` is bound in the package."""
        found = []
        for mod in _package_modules():
            owners = [(mod.__name__, vars(mod))]
            owners += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                       if inspect.isclass(v) and v.__module__ == mod.__name__]
            for where, namespace in owners:
                found += [f"{where}.{k}" for k, v in namespace.items() if id(v) in ids]
        return found


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
