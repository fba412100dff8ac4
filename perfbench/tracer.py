"""Span recorder for traced benchmark runs.

The tracer wraps the public functions of each stratacheck module at the point
where callers look them up: the module attribute itself, plus every other
stratacheck module that imported the function under its own name (``cli``
imports ``run_section``, ``ledger`` imports the curve functions, and so on).
A call through any of those names records one span: name, start, end, parent
span and request id.  Spans stay in memory until ``dump``.

Helpers that run once per monomial or per pair (``lattice`` as a whole,
``invariants.is_invariant``, ``lines27.are_incident``) are left unwrapped:
their cost is charged to the caller's self time instead of being inflated by
a wrapper per element.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from itertools import count
from time import perf_counter

LAYERS = (
    "cli",
    "config",
    "report",
    "suite",
    "invariants",
    "singularities",
    "curves",
    "surfaces",
    "lines27",
    "ledger",
)
PER_ELEMENT = {"invariants.is_invariant", "lines27.are_incident"}
METHODS = (("singularities", "FiniteDiagonalGroup", "elements"),)
ROOT = "request"


def _counted(name: str, result, exc, counts: Counter) -> None:
    """Work counters taken at the same boundary as the span."""
    if name == "invariants.invariant_monomials" and exc is None:
        counts["invariants.monomials"] += len(result)
    elif name == "invariants.invariant_generators":
        if exc is None:
            counts["invariants.generators"] += len(result.generators)
        elif type(exc).__name__ == "NonSaturationError":
            counts["invariants.nonsaturated"] += 1
    elif name == "invariants.binomial_relations" and exc is None:
        counts["invariants.relations"] += len(result)
    elif name == "invariants.presentations_isomorphic" and exc is None:
        counts["invariants.classes_checked"] += result.classes_checked
    elif name == "singularities.FiniteDiagonalGroup.elements" and exc is None:
        counts["singularities.group_elements"] += len(result)
    elif name == "singularities.classify_quotient":
        if type(exc).__name__ == "QuasiReflectionError":
            counts["singularities.quasi_reflection"] += 1
    elif name == "ledger.discrepancy_report" and exc is None:
        counts["ledger.discrepancies"] += len(result)
    elif name in ("report.render_text", "report.render_json") and exc is None:
        counts["report.bytes"] += len(result.encode())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = None
        self.import_s = 0.0
        self._ids = count()
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        exc = result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request))
            _counted(name, result, exc, self.counts)

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Import every layer and swap its public functions for wrappers."""
        start = perf_counter()
        importlib.import_module("stratacheck.cli")
        self.import_s = perf_counter() - start
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"stratacheck.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or name in PER_ELEMENT
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrapper(name, obj))
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "stratacheck":
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"stratacheck.{layer}"], cls_name)
            setattr(cls, method,
                    self._wrapper(f"{layer}.{cls_name}.{method}", getattr(cls, method)))

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "import_s": self.import_s,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


def self_times(spans) -> list[tuple]:
    """(span, self seconds) for every span of one process.

    Self time is the span's duration minus the part of its interval that its
    direct children cover.
    """
    children: dict = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = []
    for s in spans:
        covered = 0.0
        reach = s[2]
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, reach), min(hi, s[3])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s, s[3] - s[2] - covered))
    return out


def layer_totals(processes) -> tuple[Counter, Counter, Counter]:
    """Self seconds per span name, self seconds per layer and calls per layer.

    ``processes`` holds one exported tracer per traced process.  The root
    request span belongs to the benchmark, not to a layer.
    """
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    calls: Counter = Counter()
    for proc in processes:
        for span, self_s in self_times(proc["spans"]):
            name = span[1]
            if name == ROOT:
                continue
            layer = name.split(".")[0]
            by_name[name] += self_s
            by_layer[layer] += self_s
            calls[layer] += 1
    return by_name, by_layer, calls
