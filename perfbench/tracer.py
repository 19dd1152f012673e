"""Spans around calls into dimlab's public functions, recorded from outside
the package.

`Tracer.install` swaps every listed function for a timing wrapper at every
binding a caller can reach: the defining module, each `from .x import y`
copy in another dimlab module, and the class attribute for methods. A span
is (name, parent span, start, end), kept in flat in-memory arrays; self time
is a span's duration minus the durations of its direct child spans.
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _rows(args, kwargs, result):
    return len(result)


def _halvings(args, kwargs, result):
    return int(result.meta["halvings"])


def _report_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return 0 if path is None else len(result.encode()) + 1


# (span name, module, class or None, attribute, tally key, tally function)
TARGETS = [
    ("exact.cmp_pow2", "exact", None, "cmp_pow2", None, None),
    ("exact.cmp_rpow", "exact", None, "cmp_rpow", None, None),
    ("dyadic.deinterleave", "dyadic", None, "deinterleave", None, None),
    ("settree.children_keys", "settree", "DyadicSetTree", "children_keys",
     None, None),
    ("settree.from_digit_ifs", "settree", "DyadicSetTree", "from_digit_ifs",
     None, None),
    ("settree.full", "settree", "DyadicSetTree", "full", None, None),
    ("settree.from_codes", "settree", "DyadicSetTree", "from_codes",
     None, None),
    ("measure.level_masses", "measure", "DyadicMeasureTree", "level_masses",
     "measure.level_masses.rows", _rows),
    ("measure.ball_correlation_bracket", "measure", "DyadicMeasureTree",
     "ball_correlation_bracket", None, None),
    ("measure.energy_bracket", "measure", "DyadicMeasureTree",
     "energy_bracket", None, None),
    ("measure.random_split", "measure", "DyadicMeasureTree", "random_split",
     None, None),
    ("measure.dyadic_correlation_sum", "measure", "DyadicMeasureTree",
     "dyadic_correlation_sum", None, None),
    ("measure.ball_mass_atoms", "measure", "DyadicMeasureTree",
     "ball_mass_atoms", None, None),
    ("estimators.inequality_report", "estimators", None, "inequality_report",
     None, None),
    ("estimators.packing_threshold", "estimators", None, "packing_threshold",
     None, None),
    ("estimators.packing_predicate", "estimators", None, "packing_predicate",
     None, None),
    ("estimators.correlation_predicates", "estimators", None,
     "correlation_predicates", None, None),
    ("estimators.correlation_sandwich", "estimators", None,
     "correlation_sandwich", None, None),
    ("estimators.slope_fit", "estimators", None, "slope_fit", None, None),
    ("fourier.mean_square_curve", "fourier", None, "mean_square_curve",
     "fourier.halvings", _halvings),
    ("fourier.fourier_correlation_dims", "fourier", None,
     "fourier_correlation_dims", None, None),
    ("fourier.fourier_box_estimate", "fourier", None, "fourier_box_estimate",
     None, None),
    ("fourier.fourier_energy", "fourier", None, "fourier_energy", None, None),
    ("constructions.alternating_plan", "constructions", None,
     "alternating_plan", None, None),
    ("constructions.sweep_plan", "constructions", None, "sweep_plan",
     None, None),
    ("constructions.alternating_set", "constructions", None,
     "alternating_set", None, None),
    ("constructions.sweep_set", "constructions", None, "sweep_set",
     None, None),
    ("io.load_json", "io", None, "load_json", None, None),
    ("io.save_json", "io", None, "save_json", None, None),
    ("io.report_to_json", "io", None, "report_to_json", "io.bytes_written",
     _report_bytes),
    ("cli.main", "cli", None, "main", None, None),
]


class Tracer:
    """In-memory span recorder. One instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.tallies: dict[str, int] = {}
        self._undo: list = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.tallies = {key: 0 for key in self.tallies}

    def wrap(self, label: str, fn, tally_key=None, tally=None):
        nid = len(self.names)
        self.names.append(label)
        if tally_key is not None:
            self.tallies.setdefault(tally_key, 0)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            name, parent, start, end = (tracer.name, tracer.parent,
                                        tracer.start, tracer.end)
            stack = tracer._stack
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if tally is not None:
                tracer.tallies[tally_key] += tally(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every TARGETS entry at every binding inside dimlab."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dimlab"
                                         or n.startswith("dimlab."))]
        for label, mod, cls_name, attr, tally_key, tally in TARGETS:
            owner = sys.modules[f"dimlab.{mod}"]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(label, raw.__func__,
                                                tally_key, tally))
                else:
                    new = self.wrap(label, raw, tally_key, tally)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            original = getattr(owner, attr)
            new = self.wrap(label, original, tally_key, tally)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, new)
                        self._undo.append((m, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo = []

    def collect(self) -> dict:
        """Per-name call counts and self times, plus tallies, of the spans
        recorded since the last clear(); then clears."""
        if len(self._stack) != 1:
            raise RuntimeError("collect() called inside an open span")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        stats = {label: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                 for i, label in enumerate(self.names)}
        out = {"spans": stats, "tallies": dict(self.tallies),
               "span_count": int(len(dur))}
        self.clear()
        return out
