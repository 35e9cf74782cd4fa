"""In-memory span recorder for the hotspots layer modules.

``Tracer.run`` calls a function while every public function of the layer
modules is replaced by a timing wrapper, under every module-level name it is
bound to (``report.generate`` and ``meshing.generate`` are one function).
Calls made through module globals, which is how the package calls itself,
are therefore recorded without touching the package source.

Each wrapped call records a span (name, parent, start, end). Per-vertex
scalar functions are aggregated instead: one count and one total time per
function and request, charged to the enclosing span as child time. They must
stay leaves, calling no other wrapped function, or their callees' time would
be counted twice; ``nonleaf`` names any that did not.

A span's self time is its duration minus the durations of its direct
children (aggregated calls included), so the self times of all spans of one
call sum to the duration of its root span.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "hotspots"
LAYERS = ("domains", "geometry", "meshing", "fem", "analysis", "bessel", "report")

# Called once per vertex or per ray; a span each would dominate the trace.
AGGREGATED = ("bessel.j0_eval", "bessel.j1_eval", "geometry.farthest_boundary_distance")


def _public_functions(module) -> dict:
    """Public module-level callables defined in `module` (classes excluded)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.parents: list[int] = []
        self.trace_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_s: list[float] = []
        # trace id -> aggregated function -> [calls, seconds]
        self.aggregates: dict[int, dict[str, list]] = {}
        self.nonleaf: set[str] = set()
        self._entered = 0  # wrapped calls entered so far
        self._stack: list[int] = []
        self.trace_id = 0

    # --- installation ---------------------------------------------------------

    def _install(self) -> None:
        layer_modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        wrappers = {}
        for module in layer_modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module).items():
                full = f"{layer}.{name}"
                make = self._aggregated if full in AGGREGATED else self._spanned
                wrappers[id(fn)] = make(fn, full)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)

    def _uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def _spanned(self, fn, full: str):
        def wrapper(*args, **kwargs):
            self._entered += 1
            idx = len(self.names)
            stack = self._stack
            self.names.append(full)
            self.parents.append(stack[-1] if stack else -1)
            self.trace_ids.append(self.trace_id)
            self.child_s.append(0.0)
            self.ends.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            self.starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.ends[idx] = end
                stack.pop()
                if stack:
                    self.child_s[stack[-1]] += end - start

        return wrapper

    def _aggregated(self, fn, full: str):
        def wrapper(*args, **kwargs):
            self._entered += 1
            entered = self._entered
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                if self._entered != entered:
                    self.nonleaf.add(full)
                rec = self.aggregates[self.trace_id][full]
                rec[0] += 1
                rec[1] += dt
                if self._stack:
                    self.child_s[self._stack[-1]] += dt

        return wrapper

    # --- recording ------------------------------------------------------------

    def run(self, trace_id: int, fn, *args, **kwargs):
        """Call fn with the wrappers installed; its spans get `trace_id` as
        their request id. Outside this call the package runs unwrapped."""
        self.trace_id = trace_id
        self.aggregates.setdefault(trace_id, {name: [0, 0.0] for name in AGGREGATED})
        self._install()
        try:
            return fn(*args, **kwargs)
        finally:
            self._uninstall()

    # --- derived numbers ------------------------------------------------------

    def summary(self, trace_id: int) -> dict:
        """Per-function call counts and inclusive seconds, per-layer self
        seconds, and the root span duration, for the spans of one request."""
        calls: dict[str, int] = {}
        total_s: dict[str, float] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        root_s = 0.0
        for i, name in enumerate(self.names):
            if self.trace_ids[i] != trace_id:
                continue
            dur = self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + dur
            self_s[name.split(".", 1)[0]] += dur - self.child_s[i]
            if self.parents[i] == -1:
                root_s += dur
        for name, (n, secs) in self.aggregates.get(trace_id, {}).items():
            calls[name] = n
            total_s[name] = secs
            self_s[name.split(".", 1)[0]] += secs
        return {"calls": calls, "total_s": total_s, "self_s": self_s, "root_s": root_s}

    def write(self, path) -> None:
        """One JSON object per line: every span, then the aggregated counters.

        `start` and `end` are `time.perf_counter()` seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "trace": self.trace_ids[i], "span": i, "parent": self.parents[i],
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                }) + "\n")
            for trace_id, recs in self.aggregates.items():
                for name, (n, secs) in recs.items():
                    fh.write(json.dumps({
                        "trace": trace_id, "aggregate": name, "calls": n, "s": secs,
                    }) + "\n")
