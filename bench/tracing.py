"""Span recorder that measures the library from outside.

`Tracer.install()` replaces each function named in the stage map by a
wrapper set on its module attribute, so calls made through the module (and
calls inside that module, which look the name up in the same namespace) are
recorded.  Names re-exported by `surrloss/__init__.py` keep the original
functions and are not recorded.

A span is (stage, start, end, parent).  Self time is a span's duration minus
the time its child spans and aggregated leaf calls cover.  Leaf stages, whose
functions run too often to keep one span per call, only add their count and
time to the stage totals and to the enclosing span's covered time.  Spans
stay in memory until `dump()` writes them out.
"""

import json
import time

# Span record layout: [stage index, start, end, parent index, covered time].
STAGE, START, END, PARENT, COVERED = range(5)


class Tracer:
    def __init__(self, bound, clock=time.perf_counter):
        """`bound` is the (stage, targets) list that stages.resolve returns."""
        self.bound = bound
        self.names = [stage.name for stage, _ in bound]
        self.clock = clock
        self.spans = []
        self.sessions = []
        self.totals = {}
        self.scratch = {}
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for sid, (stage, targets) in enumerate(self.bound):
            for target in targets:
                make = self._leaf_wrapper if stage.leaf else self._span_wrapper
                self._saved.append((target.module, target.attr, target.func))
                setattr(target.module, target.attr, make(sid, stage, target))

    def uninstall(self):
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved = []

    # -- context queries for observers ---------------------------------------

    def add(self, metric, value):
        self.totals[metric] = self.totals.get(metric, 0) + value

    def parent_stage(self):
        """Name of the innermost open span's stage, or None at top level."""
        if not self._stack:
            return None
        return self.names[self.spans[self._stack[-1]][STAGE]]

    def inside(self, name):
        return any(self.names[self.spans[i][STAGE]] == name for i in self._stack)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, sid, stage, target):
        func = target.func
        observe = stage.observe
        calls_key = stage.calls_metric
        time_key = stage.time_metric

        def wrapper(*args, **kwargs):
            if stage.within is not None and self.parent_stage() != stage.within:
                return func(*args, **kwargs)
            stack, spans = self._stack, self.spans
            parent = stack[-1] if stack else -1
            span = [sid, self.clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = end = self.clock()
                duration = end - span[START]
                if parent >= 0:
                    spans[parent][COVERED] += duration
                if calls_key:
                    self.add(calls_key, 1)
                self.add(time_key, duration - span[COVERED])
            if observe is not None:
                observe(self, target.name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", target.attr)
        return wrapper

    def _leaf_wrapper(self, sid, stage, target):
        func = target.func
        observe = stage.observe
        calls_key = stage.calls_metric
        time_key = stage.time_metric

        def wrapper(*args, **kwargs):
            if stage.within is not None and self.parent_stage() != stage.within:
                return func(*args, **kwargs)
            start = self.clock()
            result = func(*args, **kwargs)
            duration = self.clock() - start
            if self._stack:
                self.spans[self._stack[-1]][COVERED] += duration
            if calls_key:
                self.add(calls_key, 1)
            self.add(time_key, duration)
            if observe is not None:
                observe(self, target.name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", target.attr)
        return wrapper

    # -- sessions -----------------------------------------------------------

    def begin_session(self):
        self.totals = {}
        self.scratch = {}
        self._session_start = len(self.spans)

    def end_session(self, wall_s):
        """Close a session; returns its metric totals.

        `bench.other_s` is the session time that no top-level span covers:
        the benchmark's own driving and checking code.
        """
        first = self._session_start
        top = sum(s[END] - s[START] for s in self.spans[first:] if s[PARENT] < 0)
        self.totals["bench.other_s"] = wall_s - top
        self.totals["bench.spans"] = len(self.spans) - first
        self.sessions.append((first, len(self.spans)))
        return dict(self.totals)

    def dump(self, path):
        payload = {
            "stages": self.names,
            "layout": ["stage", "start", "end", "parent"],
            "sessions": self.sessions,
            "spans": [s[:4] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, separators=(",", ":"))
