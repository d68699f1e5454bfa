"""Tracing from outside the program: spans recorded around calls into bnest.

Nothing in bnest knows about this module.  `Tracer.install` replaces each
traced function by a wrapper under every name a bnest module holds it by
(for example `pqtree.canonical_generator` and `conserved_tree.canonical_generator`
for one kernel), and `uninstall` puts the originals back.  A span is
(name, start, end, parent, request); spans stay in memory until the run
writes them out.  Generator functions get one span from their first resume
to exhaustion, so the consumer's per-item work between resumes (a list
append in the CLI) is counted in the generator's span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a request's top level
    request: int
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Layer:
    """One traced function.  `where` limits the wrapper to the listed
    modules, for a function that two layers share under one object."""

    span: str
    module: str
    attr: str
    where: tuple = ()
    after: object = None  # (span, args, kwargs, result) -> None, untimed


class Tracer:
    def __init__(self, layers):
        self.layers = layers
        self.spans = []
        self.request = -1
        self._open = []
        self._patches = []
        self.absent = set()

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        # A generator dropped before exhaustion can leave spans above it.
        if idx in self._open:
            del self._open[self._open.index(idx):]

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        found = []  # look every function up before patching any of them
        for layer in self.layers:
            try:
                found.append((layer, getattr(importlib.import_module(layer.module), layer.attr)))
            except (ImportError, AttributeError):
                self.absent.add(layer.span)
        for layer, original in found:
            wrapper = self._wrap(layer, original)
            for modname, mod in list(sys.modules.items()):
                if not (modname == "bnest" or modname.startswith("bnest.")) or mod is None:
                    continue
                if layer.where and modname not in layer.where:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, layer: Layer, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Pass a ScanStats when the caller passed none, to count scan work.
            params = list(inspect.signature(fn).parameters)
            stats_at = params.index("stats") if "stats" in params else -1
            stats_cls = getattr(sys.modules.get("bnest.common_enum"), "ScanStats", None)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stats = None
                if stats_cls and len(args) < stats_at + 1 and kwargs.get("stats") is None:
                    stats = kwargs["stats"] = stats_cls()
                return tracer._traced_iter(layer, fn(*args, **kwargs), stats)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(layer.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if layer.after is not None:
                try:
                    layer.after(tracer.spans[idx], args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    pass  # the data changed shape: its counts are reported absent
            return result

        return wrapper

    def _traced_iter(self, layer: Layer, gen, stats):
        idx = self.begin(layer.span)
        try:
            yield from gen
        finally:
            self.end(idx)
            if stats is not None:
                self.spans[idx].counts["scan_iters"] = stats.iterations


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own
