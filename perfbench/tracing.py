"""Spans around frobval's layer entry points, installed from outside.

``Tracer.install`` replaces each entry point with a wrapper that records a
span (name, parent, start, end) in flat in-memory arrays.  A function that
other modules imported by name is replaced in every frobval module that
holds it, so calls through either name are seen.  Nothing in ``src/``
changes.

Only non-recursive entry points are wrapped: ``PowerSeries.power_prefix``
recurses once per unit of exponent, and an extra frame per level would move
the exponent at which it hits the recursion limit.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter_ns

# (module, attribute path) of every wrapped entry point; a span is named
# "<module>.<attribute path>"
ENTRY_POINTS = (
    ("cli", "run_script"),
    ("cli", "emit_report"),
    ("classifier", "classify"),
    ("classifier", "least_pure_exponent"),
    ("valuations", "Valuation.__init__"),
    ("valuations", "Valuation.value_of_poly"),
    ("valuations", "Valuation.residue_invariants"),
    ("function_field", "parse_ratfun"),
    ("function_field", "Polynomial.__mul__"),
    ("function_field", "exact_divide"),
    ("function_field", "eval_poly_as_series"),
    ("ordered_groups", "hnf_rows"),
    ("ordered_groups", "kernel_basis"),
    ("ordered_groups", "OrderedGroup.from_generators"),
    ("exact_arith", "QuadraticReal.sign"),
    ("exact_arith", "parse_quadratic"),
)


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path in ENTRY_POINTS]
        self.kind = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self._undo = []
        # counts taken at the same boundaries, for ratios
        self.series_values = 0
        self.exact_divide_hits = 0
        self.series_precision_max = 0

    # -- recording ----------------------------------------------------------

    def _wrap(self, idx, fn, observe=None):
        kind, parent, start, end, stack = (
            self.kind, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(kind)
            kind.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self, series_kind):
        def value_of_poly(args, result):
            if isinstance(args[0].kind, series_kind):
                self.series_values += 1

        def exact_divide(args, result):
            if result is not None:
                self.exact_divide_hits += 1

        def eval_poly_as_series(args, result):
            self.series_precision_max = max(self.series_precision_max, args[2])

        return {
            "valuations.Valuation.value_of_poly": value_of_poly,
            "function_field.exact_divide": exact_divide,
            "function_field.eval_poly_as_series": eval_poly_as_series,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every entry point; ``uninstall`` restores the originals."""
        import frobval.valuations

        observers = self._observers(frobval.valuations.SeriesRestriction)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "frobval" or name.startswith("frobval."))]
        for idx, (mod_name, path) in enumerate(ENTRY_POINTS):
            owner = sys.modules[f"frobval.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            observe = observers.get(self.names[idx])
            if isinstance(raw, classmethod):
                self._replace(owner, attr, raw, classmethod(self._wrap(idx, raw.__func__, observe)))
                continue
            wrapped = self._wrap(idx, raw, observe)
            if outer:
                self._replace(owner, attr, raw, wrapped)
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is raw:
                    self._replace(mod, attr, raw, wrapped)

    def _replace(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def layer_totals(self):
        """Per span name: (calls, self time in ns).

        Self time is a span's duration minus the durations of its child
        spans; one thread records, so children never overlap.
        """
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        kind = self.kind
        for i in range(n):
            calls[kind[i]] += 1
            self_ns[kind[i]] += dur[i] - child[i]
        return {name: (calls[k], self_ns[k]) for k, name in enumerate(self.names)}

    def write(self, path):
        """Write every span: ``path`` holds four int64 arrays (name index,
        parent span or -1, start ns, end ns) of equal length, described by
        ``path + '.json'``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "count": len(self.kind),
                "arrays": ["name", "parent", "start_ns", "end_ns"],
                "dtype": f"int64 {sys.byteorder}-endian",
            }, fh, indent=1)
