"""Span tracing of walshlab's layers from outside the package.

``install`` wraps every public function of the walshlab modules, plus
``DyadicFunction.__init__`` and ``WalshSpectrum.__post_init__`` on their
classes, and re-binds each wrapped function in every ``walshlab.*``
namespace that holds it.  A module that did ``from .transform import
dirichlet_kernel`` calls through its own binding, so re-binding only the
defining module would miss every call made between modules.

Spans are kept in memory as ``[name, start, end, parent, op, cells]``
lists and summarised (or written out) when the run ends.  The package's
code is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Layers in import order, named as the benchmark's per-layer metrics are.
MODULES = ("dyadic", "transform", "weights", "norms", "kernel_checks",
           "counterexample", "cli")

# Called once per output value; a span per call would cost more than the
# rounding it times, and its time belongs to cli.main's formatting.
UNTRACED = {"cli.round9"}

# The forward and inverse transform are one layer: the FWHT butterfly.
ALIASES = {"transform.fwht_forward": "transform.fwht",
           "transform.fwht_inverse": "transform.fwht"}


# Grid size (cells) of the object each sized span touches, read from its
# arguments; the computed byte counts are derived from it.
CELLS = {
    "dyadic.DyadicFunction": lambda args: args[1].size,
    "transform.WalshSpectrum": lambda args: args[0].resolution.size,
    "transform.fwht_forward": lambda args: args[0].resolution.size,
    "transform.fwht_inverse": lambda args: args[0].resolution.size,
}


class Tracer:
    """Collects spans; ``op`` tags the spans of the CLI call in flight."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        cells_of = CELLS.get(name)
        label = ALIASES.get(name, name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cells = cells_of(args) if cells_of is not None else 0
            record = [label, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, self.op, cells]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and cells.

        Self time is a span's duration minus the durations of the spans
        directly inside it; calls run on one thread, so child spans nest
        and never overlap.
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "cells": 0})
        for name, start, end, parent, _op, cells in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start
            row["cells"] += cells
            if parent >= 0:
                out[self.spans[parent][0]]["self_s"] -= end - start
        return dict(out)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for name, start, end, parent, op, cells in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, cells]) + "\n")


def _namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "walshlab" or name.startswith("walshlab.")]


def install(tracer: Tracer):
    """Wrap and re-bind every traced callable; returns an undo function."""
    import walshlab.dyadic
    import walshlab.transform

    wrapped: dict[int, tuple] = {}
    for short in MODULES:
        module = sys.modules[f"walshlab.{short}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and name not in UNTRACED):
                wrapped[id(fn)] = (fn, tracer.wrap(name, fn))

    undo = []
    for module in _namespaces():
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                undo.append((module, attr, value))

    methods = ((walshlab.dyadic.DyadicFunction, "__init__", "dyadic.DyadicFunction"),
               (walshlab.transform.WalshSpectrum, "__post_init__",
                "transform.WalshSpectrum"))
    for cls, attr, name in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original))
        undo.append((cls, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
