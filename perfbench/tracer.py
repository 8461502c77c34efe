"""Module-boundary spans and counters, attached from outside the library.

install() replaces every public function of each weightings module, in
every weightings namespace that holds it, with a wrapper.  A call that
crosses from one layer (module) into another opens a span with its parent's
id; a call within the same layer runs straight through.  Fraction.__new__
is wrapped with a counter.  uninstall() puts every original back.

A layer's self time is its spans' time minus the time their child spans
cover.  Spans stay in memory for one op at a time: end_op() folds them into
per-layer totals and keeps the op's span list for the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("expr", "weights", "wpoly", "fields", "jets", "subbundle", "spaces", "cli")
ROOT_LAYER = "bench"


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "weightings" or name.startswith("weightings."))]


class Tracer:
    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []
        self.original_new = None
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[tuple[int, str]] = [(0, ROOT_LAYER)]
        self.next_id = 1
        self.op_start = 0.0
        self.fraction_new = 0

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = _library_modules()
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(value, layer)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.patched.append((module, name, value))
                    setattr(module, name, wrappers[value])
        self.original_new = Fraction.__dict__["__new__"]
        original = self.original_new.__func__

        def counting_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return original(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    def uninstall(self) -> None:
        for module, name, value in reversed(self.patched):
            setattr(module, name, value)
        self.patched.clear()
        if self.original_new is not None:
            Fraction.__new__ = self.original_new
            self.original_new = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, layer: str):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0]
            stack.append((sid, layer))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, start, end))

        return wrapper

    # -- per-op accounting --------------------------------------------------

    def start_op(self) -> None:
        self.spans.clear()
        self.next_id = 1
        self.fraction_new = 0
        self.op_start = time.perf_counter()

    def end_op(self) -> dict:
        """Close the op's root span; returns per-layer totals for the op.

        {"self_s": {layer: s}, "calls": {layer: n}, "fraction_new": n,
         "spans": [(id, parent, layer, start, end), ...]}
        """
        end = time.perf_counter()
        spans = self.spans + [(0, -1, ROOT_LAYER, self.op_start, end)]
        covered: dict[int, float] = {}
        for sid, parent, _layer, start, stop in spans:
            covered[parent] = covered.get(parent, 0.0) + (stop - start)
        self_s = {layer: 0.0 for layer in LAYERS + (ROOT_LAYER,)}
        calls = {layer: 0 for layer in LAYERS}
        for sid, _parent, layer, start, stop in spans:
            self_s[layer] += (stop - start) - covered.get(sid, 0.0)
            if layer != ROOT_LAYER:
                calls[layer] += 1
        return {"self_s": self_s, "calls": calls,
                "fraction_new": self.fraction_new, "spans": spans}
