"""Per-layer tracing of torsion13, installed from outside the program.

`Tracer.install` replaces the public functions named in TARGETS with
wrappers.  A span target records (name, start, end, parent) per call in
memory; a count target only counts calls, for functions too hot for spans.
Several modules bind names with `from ... import`, so each wrapper is
rebound in every torsion13 module and class namespace that holds the
original object; `unwrapped_references` then proves that none is left.
A target that no longer exists is recorded as absent, not as an error.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import wraps

SPAN, COUNT = "span", "count"

# (module, attribute path, metric name, kind)
TARGETS = (
    ("cli", "main", "cli", SPAN),
    ("hyperelliptic", "count_points", "hyperelliptic.count_points", SPAN),
    ("hyperelliptic", "is_smooth_mod_p", "hyperelliptic.is_smooth_mod_p", SPAN),
    ("hyperelliptic", "jacobian_order_fp", "hyperelliptic.jacobian_order_fp", SPAN),
    ("hyperelliptic", "points_mod_p", "hyperelliptic.points_mod_p", SPAN),
    ("hyperelliptic", "search_rational_points",
     "hyperelliptic.search_rational_points", SPAN),
    ("fields", "NumberFieldElement.inverse", "fields.NumberFieldElement.inverse", SPAN),
    ("fields", "NumberFieldElement.__mul__", "fields.NumberFieldElement.mul", SPAN),
    ("fields", "splitting_fingerprint", "fields.splitting_fingerprint", SPAN),
    ("fields", "PrimeField.__init__", "fields.PrimeField.constructions", COUNT),
    ("polynomials", "poly_ext_gcd", "polynomials.poly_ext_gcd", SPAN),
    ("polynomials", "poly_divmod", "polynomials.poly_divmod", SPAN),
    ("polynomials", "rational_roots", "polynomials.rational_roots", SPAN),
    ("polynomials", "rat_is_square", "polynomials.rat_is_square", SPAN),
    ("polynomials", "Polynomial.__call__", "polynomials.Polynomial.call.calls", COUNT),
    ("elliptic", "add_points", "elliptic.add_points", SPAN),
    ("elliptic", "point_order", "elliptic.point_order", SPAN),
    ("elliptic", "WeierstrassCurve.__init__", "elliptic.WeierstrassCurve.init", SPAN),
    ("elliptic", "WeierstrassCurve.is_on_curve",
     "elliptic.WeierstrassCurve.is_on_curve.calls", COUNT),
    ("family", "build_family_instance", "family.build_family_instance", SPAN),
    ("family", "verify_family_instance", "family.verify_family_instance", SPAN),
    ("x13", "verify_disc_identity", "x13.verify_disc_identity", SPAN),
    ("x13", "nineteen_divisibility", "x13.nineteen_divisibility", SPAN),
    ("sporadic", "verify_sporadic", "sporadic.verify_sporadic", SPAN),
    ("sporadic", "fiber_field_evidence", "sporadic.fiber_field_evidence", SPAN),
)

PACKAGE = "torsion13"


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_count(derived, args, kwargs, result):
    # the exhaustive count visits q^2 affine pairs and q pairs at infinity
    q = _argument(args, kwargs, 1, "field").order()
    derived["hyperelliptic.count_points.pairs"] += q * (q + 1)


def _observe_search(derived, args, kwargs, result):
    height = _argument(args, kwargs, 1, "height")
    derived.setdefault("search_heights", []).append(height)
    hits = sum(1 for point in result if point.chart == "affine")
    derived["hyperelliptic.search_rational_points.hits"] += hits


def _observe_fingerprint(derived, args, kwargs, result):
    # one evaluation of the cubic per residue, at every prime tested
    derived["fields.splitting_fingerprint.evals"] += sum(result)


OBSERVERS = {
    "hyperelliptic.count_points": _observe_count,
    "hyperelliptic.search_rational_points": _observe_search,
    "fields.splitting_fingerprint": _observe_fingerprint,
}

DERIVED_COUNTS = ("hyperelliptic.count_points.pairs",
                  "hyperelliptic.search_rational_points.hits",
                  "fields.splitting_fingerprint.evals")


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counts = {}
        self.derived = dict.fromkeys(DERIVED_COUNTS, 0)
        self.absent = []
        self.observer_errors = []
        self.originals = {}

    def _span_wrapper(self, fn, metric):
        name_id = len(self.names)
        self.names.append(metric)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe, derived = OBSERVERS.get(metric), self.derived

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None:
                try:
                    observe(derived, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.observer_errors.append(f"{metric}: {type(exc).__name__}: {exc}")
            return result
        return wrapper

    def _count_wrapper(self, fn, metric):
        cell = self.counts.setdefault(metric, [0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target and rebind the wrapper wherever the original is bound."""
        replacements = {}
        for module_name, path, metric, kind in TARGETS:
            if kind == COUNT:
                self.counts.setdefault(metric, [0])
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for part in path.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = vars(owner)[path.split(".")[-1]]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            replacements[id(original)] = make(original, metric)
            self.originals[id(original)] = original
        for namespace in _namespaces():
            for name, value in list(vars(namespace).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and self.originals[id(value)] is value:
                    setattr(namespace, name, wrapper)

    def unwrapped_references(self) -> list:
        """Every torsion13 module or class attribute still bound to an original."""
        return [f"{_label(ns)}.{name}" for ns in _namespaces()
                for name, value in vars(ns).items()
                if self.originals.get(id(value), self) is value]

    def summary(self) -> dict:
        """calls, total_s and self_s per span name, plus the counters.

        self_s is a span's duration minus the durations of its child spans;
        total_s counts only the outermost of nested spans of one name.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name_id:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += end - start
        return {
            "spans": stats,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "derived": self.derived,
            "absent": self.absent,
            "observer_errors": self.observer_errors,
        }

    def dump(self, path):
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": self.names, "spans": self.spans}, out,
                      separators=(",", ":"))


def _label(namespace) -> str:
    if isinstance(namespace, type):
        return f"{namespace.__module__}.{namespace.__qualname__}"
    return namespace.__name__


def _namespaces():
    """Every loaded torsion13 module and every class defined in one."""
    modules = [module for name, module in sorted(sys.modules.items())
               if module is not None
               and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    classes = [value for module in modules for value in vars(module).values()
               if isinstance(value, type)
               and getattr(value, "__module__", "").startswith(PACKAGE)]
    return modules + list({id(cls): cls for cls in classes}.values())
