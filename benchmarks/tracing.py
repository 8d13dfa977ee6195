"""Spans around the public functions of each layer, patched in from outside.

``Tracer.wrap`` returns a timing wrapper; ``Tracer.install`` swaps the
wrapper in for every module global of a ``sensefuse`` module that binds
the original function (``optimize`` imports ``hybrid_distortion`` by name,
``analytic`` and ``simulate`` import ``validate`` by name, and the package
re-exports most of them), and for class attributes such as
``SystemModel.from_snrs``.

Spans stay in memory as ``(function, start_ns, end_ns, parent_span)``
tuples and are written out by :meth:`Tracer.dump` when the run ends.  Self
time is a span's duration minus the durations of its direct wrapped
children.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.spans: list[tuple[int, int, int, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        """Timing wrapper for ``fn``; ``on_return(args, kwargs, result)``
        runs after the span closes, so its time counts to the caller."""
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                spans[frame[0]] = (fid, start, end, parent)
                self.calls[fid] += 1
                self.total_ns[fid] += elapsed
                self.self_ns[fid] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def install(self, modules, functions, methods=(), hooks=None) -> None:
        """Patch ``functions`` ({name: function}) wherever ``modules`` bind
        them, and ``methods`` ((name, class, attribute) triples)."""
        hooks = hooks or {}
        for name, fn in functions.items():
            wrapper = self.wrap(name, fn, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for name, cls, attr in methods:
            original = cls.__dict__[attr]
            wrapper = self.wrap(name, original.__func__, hooks.get(name))
            self._patches.append((cls, attr, original))
            setattr(cls, attr, type(original)(wrapper))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9,
                       "total_s": self.total_ns[i] / 1e9}
                for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent span."""
        with open(path, "w", encoding="utf-8") as fh:
            for fid, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[fid], start, end, parent]) + "\n")


def sensefuse_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "sensefuse" or name.startswith("sensefuse.")]
