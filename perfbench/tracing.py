"""Spans around calls into the potshape layers, recorded from outside the package.

``Tracer.install`` replaces every function listed in the ``__all__`` of a
layer module with a timing wrapper, at every place a ``potshape`` module
binds it, so calls between modules and within one module are both seen.
A function added to a layer's ``__all__`` is therefore traced without
touching this file.  Spans are kept in memory; ``write`` dumps them.

Spans are recorded only while ``Tracer.phase`` is set ("setup" or
"timed"); output checks run with the phase cleared.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import logging
import os
import re
import sys
import time
from collections import defaultdict

PACKAGE = "potshape"
# The package modules that count as layers; cli only parses arguments.
LAYERS = ("core", "optics", "inputmap", "condensate", "ilc", "harness")

# propagate_full integrates every column with this many Gauss-Legendre
# nodes; the PSF evaluation count below is computed from it, not measured.
PSF_QUADRATURE_NODES = 8


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_ground_state(fn, args, kwargs, result):
    return {"steps": result.n_steps, "converged": int(result.converged)}


def _count_update(fn, args, kwargs, result):
    return {"clamps": result.clamp_count}


def _count_propagate_full(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    evals = a["grid"].n_points * a["pattern"].n_l * PSF_QUADRATURE_NODES
    return {"psf_evals": evals, "bytes": 8 * evals}


def _count_export(fn, args, kwargs, result):
    return {"export_bytes": sum(os.path.getsize(p) for p in result)}


# Per-function counters read from arguments and return values.
COUNTERS = {
    "condensate.ground_state": _count_ground_state,
    "ilc.update": _count_update,
    "optics.propagate_full": _count_propagate_full,
    "harness.export_records": _count_export,
}


class Span:
    __slots__ = ("id", "parent", "run", "phase", "layer", "name", "start", "end", "counts")

    def __init__(self, id, parent, run, phase, layer, name, start):
        self.id = id
        self.parent = parent
        self.run = run
        self.phase = phase
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.counts = None


def layer_functions():
    """(layer, name, function) for every function in a layer's ``__all__``."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                out.append((layer, name, obj))
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list = []

    def install(self):
        """Wrap every layer function wherever a package module binds it."""
        targets = {
            id(fn): self._wrap(fn, layer, f"{layer}.{name}")
            for layer, name, fn in layer_functions()
        }
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = targets.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, fn, layer, name):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(len(spans), stack[-1] if stack else None, self.run_id,
                        self.phase, layer, name, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(fn, args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        """One JSON array per line: id, parent, run, phase, layer, name, start, end, counts."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.run, s.phase, s.layer, s.name,
                                     s.start, s.end, s.counts]) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children.

    Children of one span never overlap in a single thread, but the union
    is taken anyway so that the arithmetic holds for any nesting."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def summarise(spans) -> dict:
    """Per layer and per function: calls, time in outermost spans, self time,
    and summed counters.  ``spans`` must be in creation order (parents first)."""
    selft = self_times(spans)
    by_id = {}
    anc_layers = {}
    anc_names = {}
    layers = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    funcs = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": defaultdict(int)})
    for s in spans:
        by_id[s.id] = s
        p = by_id.get(s.parent)
        if p is None:
            anc_layers[s.id] = frozenset()
            anc_names[s.id] = frozenset()
        else:
            anc_layers[s.id] = anc_layers[p.id] | {p.layer}
            anc_names[s.id] = anc_names[p.id] | {p.name}
        dur = s.end - s.start
        lay = layers[s.layer]
        lay["calls"] += 1
        lay["self_s"] += selft[s.id]
        if s.layer not in anc_layers[s.id]:
            lay["s"] += dur
        fn = funcs[s.name]
        fn["calls"] += 1
        fn["self_s"] += selft[s.id]
        if s.name not in anc_names[s.id]:
            fn["s"] += dur
        if s.counts:
            for k, v in s.counts.items():
                fn["counts"][k] += v
    top = sum(s.end - s.start for s in spans if s.parent is None)
    return {"layers": dict(layers), "functions": dict(funcs), "top_level_s": top}


def warning_kind(record: logging.LogRecord) -> str:
    """Stable name for a log call site: logger suffix plus the first four
    words of at least four letters of the unformatted message template."""
    logger = record.name.split(".", 1)[1] if "." in record.name else record.name
    template = re.sub(r"%[-#0 +]*\d*(?:\.\d+)?[a-zA-Z]", " ", str(record.msg)).lower()
    words = [w for w in re.findall(r"[a-z]+", template) if len(w) >= 4][:4]
    return f"{logger}.{'_'.join(words) or 'message'}"


class WarningCounter(logging.Handler):
    """Counts WARNING and worse records by kind instead of printing them."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: dict[str, int] = defaultdict(int)

    def emit(self, record):
        self.counts[warning_kind(record)] += 1
