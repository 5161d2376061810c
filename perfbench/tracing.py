"""Spans around calls into rees's public functions, recorded from outside.

`Tracer.installed()` rebinds each traced function to a wrapper in every rees
module that binds it (a name taken with `from ... import` is looked up in the
importing module, so that binding is wrapped as well) and restores the
originals on exit.  Outside that block the program runs unwrapped.

A span is [name, start, end, parent, instance, work, nested]: parent is the
index of the enclosing span (-1 at top level), instance names the operation
being measured, work is a per-function count (records returned, matrix cells,
basis size) and nested marks a span opened inside another span of the same
name, which the inclusive time must not count twice.  Spans stay in memory
until `dump` writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


def _records(args, kwargs, result):
    return len(result)


def _cells(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(rows) * ncols


def _basis_size(args, kwargs, result):
    return len(result.generators)


# (defining module, attribute path, work counter); the metric prefix drops the
# leading "rees.".
TRACED = (
    ("rees.cli", "load_instance", None),
    ("rees.cli", "main", None),
    ("rees.syzygy", "sigma_invariants", None),
    ("rees.tower", "build_level", None),
    ("rees.tower", "check_truncation_equality", None),
    ("rees.tower", "evaluation_membership", None),
    ("rees.generators", "tower_generators", _records),
    ("rees.generators", "recursion_generators", _records),
    ("rees.generators", "slice_basis", None),
    ("rees.generators", "slice_generators", _records),
    ("rees.gradedlin", "solve_combination", None),
    ("rees.gradedlin", "span_dim", None),
    ("rees.linalg", "rref", _cells),
    ("rees.linalg", "rank", _cells),
    ("rees.linalg", "Echelon.add", None),
    ("rees.ring", "substitute_T_with_w", None),
    ("rees.ring", "apply_T_coordinate_change", None),
    ("rees.oracle", "saturated_ideal", None),
    ("rees.oracle", "saturate_m", None),
    ("rees.oracle", "buchberger", _basis_size),
    ("rees.oracle", "colon_ideal", None),
    ("rees.oracle", "intersect_ideals", None),
    ("rees.oracle", "normal_form", None),
    ("rees.oracle", "bigraded_hilbert", None),
    ("rees.oracle", "minimal_generator_bidegrees", None),
)

SPAN_NAMES = tuple(f"{mod[len('rees.'):]}.{attr}" for mod, attr, _ in TRACED)


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._open = {}

    def _wrap(self, name, fn, work):
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = opened.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.instance, None, nested > 0]
            stack.append(len(spans))
            spans.append(span)
            opened[name] = nested + 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                opened[name] = nested
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function that the loaded rees modules define."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "rees" or key.startswith("rees."))]
        undo = []
        try:
            for (modname, path, work), name in zip(TRACED, SPAN_NAMES):
                owner = sys.modules.get(modname)
                if owner is None:
                    continue
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name, None)
                    orig = getattr(cls, attr, None)
                    if orig is None:
                        continue
                    setattr(cls, attr, self._wrap(name, orig, work))
                    undo.append((cls, attr, orig))
                    continue
                orig = getattr(owner, path, None)
                if orig is None:
                    continue
                wrapper = self._wrap(name, orig, work)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "instance", "work", "nested"],
                       "spans": self.spans}, fh)


def summarize(spans, lo, hi):
    """Per-name totals over spans[lo:hi], whose parents lie in that range.

    Returns {name: {"s", "self_s", "calls", "work", "work_max", "under"}},
    where "under" counts the spans of this name per enclosing span name.
    """
    out = {}
    for idx in range(lo, hi):
        name, start, end, parent, _inst, work, nested = spans[idx]
        dur = end - start
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"s": 0.0, "self_s": 0.0, "calls": 0,
                               "work": 0, "work_max": 0, "under": {}}
        agg["calls"] += 1
        agg["self_s"] += dur
        if not nested:
            agg["s"] += dur
        if work is not None:
            agg["work"] += work
            agg["work_max"] = max(agg["work_max"], work)
        if parent >= 0:
            pname = spans[parent][0]
            out[pname]["self_s"] -= dur
            agg["under"][pname] = agg["under"].get(pname, 0) + 1
    return out
