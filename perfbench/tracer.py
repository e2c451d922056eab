"""Spans around the public callables of elltwists, installed from outside.

The package carries no instrumentation of its own, so a traced run wraps
each callable in TARGETS after `elltwists.cli` has been imported: module
functions are rebound in every elltwists module that imported them by name
(`calibrate` lives in lvalue, census and cli; `factor` in six modules), and
methods are replaced on their class.  Each call records one span

    (target index, start, end, parent span index, extra)

in memory; `extra` is a count taken from the call's arguments or result
(the `an_table` limit, the Gauss-sum conductor, the coset-sum request key).
Spans are written out once, when the run ends, and reduced to per-layer
statistics by `layer_stats` in the benchmark's own process.
"""

from __future__ import annotations

import functools
import sys
import time


def _orbit_of_chi(curve, chi=None, *args, **kwargs):
    # central_value(curve, chi=None, ...): the orbit a twisted series serves
    return None if chi is None else chi.canonical().label()


def _coset_request(cal, chi, dps=None):
    # CalibratedCurve.coset_sums resolves dps=None to the base precision
    dps = dps or cal.base_dps
    return [chi.canonical().label(), dps, dps > cal.base_dps]


# (module, attribute path, layer name, count taken from the arguments, count
# taken from the result)
TARGETS = (
    ("elltwists.numcore", "factor", "numcore.factor", None, None),
    ("elltwists.numcore", "recognize_integer", "numcore.recognize_integer",
     None, None),
    ("elltwists.numcore", "PolyQ.discriminant", "numcore.PolyQ.discriminant",
     None, None),
    ("elltwists.dirichlet", "DirichletChar.gauss_sum", "dirichlet.gauss_sum",
     lambda chi: chi.conductor, None),
    ("elltwists.dirichlet", "DirichletChar.exponent_table",
     "dirichlet.exponent_table", None, None),
    ("elltwists.elliptic", "Curve.an_table", "elliptic.an_table",
     lambda curve, limit: limit, None),
    ("elltwists.elliptic", "Curve.real_period", "elliptic.real_period",
     None, None),
    ("elltwists.cubicfield", "CubicField.from_cubic",
     "cubicfield.CubicField.from_cubic", None, None),
    ("elltwists.cubicfield", "CubicField.matching_character",
     "cubicfield.CubicField.matching_character", None, None),
    ("elltwists.kummer", "census_37b", "kummer.census_37b",
     None, lambda census: len(census.rows)),
    ("elltwists.lvalue", "central_value", "lvalue.central_value",
     _orbit_of_chi, None),
    ("elltwists.lvalue", "calibrate", "lvalue.calibrate", None, None),
    ("elltwists.lvalue", "CalibratedCurve.coset_sums",
     "lvalue.CalibratedCurve.coset_sums", _coset_request, None),
)


class Tracer:
    """Records spans for the TARGETS of one process.  Single-threaded: the
    benchmark runs every command serially."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []

    def _wrap(self, name, fn, from_args, from_result):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            extra = from_args(*args, **kwargs) if from_args else None
            stack.append(slot)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if from_result:
                    extra = from_result(out)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, extra)

        return traced

    def install(self) -> None:
        """Wrap every target.  Call after importing elltwists.cli, so that
        every module that binds a target by name is already loaded."""
        modules = {k: m for k, m in sys.modules.items()
                   if k == "elltwists" or k.startswith("elltwists.")}
        for module, attr, name, from_args, from_result in TARGETS:
            owner = modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__,
                                                     from_args, from_result))
                else:
                    wrapped = self._wrap(name, raw, from_args, from_result)
                setattr(cls, meth, wrapped)
                self.bindings[name] = [f"{module}.{attr}"]
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, from_args, from_result)
            bound = []
            for mod_name, mod in sorted(modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        bound.append(f"{mod_name}.{key}")
            self.bindings[name] = bound

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "bindings": self.bindings}


def layer_stats(dump: dict) -> dict[str, dict]:
    """Per target: calls, inclusive seconds, self seconds (duration minus
    the time its direct child spans cover) and the list of extras."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "extras": []}
             for name in names}
    for i, (index, start, end, _, extra) in enumerate(spans):
        entry = stats[names[index]]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if extra is not None:
            entry["extras"].append(extra)
    return stats
