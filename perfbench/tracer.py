"""Per-layer tracer that wraps qcurrents functions from outside the package.

`Tracer.install()` replaces every public module-level function of the
layer modules, plus a few hot methods, with timing wrappers.  Names bound
by `from .x import y` live in several module namespaces (and `SUITES`
holds the suite functions in a dict), so every binding is replaced, and
`check_complete()` fails if any namespace still holds an unwrapped
original.

Accounting follows the profiler convention: a call's self time is its
duration minus the time spent in wrapped callees; a group's total is the
duration of its outermost calls.  Coarse boundaries (suites, compute_F,
gram, pair, delta_B, synthesize, star, serre_element, the expansions and
the CLI entry points) also keep a span (name, start, end, parent) each;
hot leaves keep only aggregates.

The call stack is shared by all threads, which is exact while one thread
at a time runs traced code: `verify-all` runs its suites on a single
worker thread when QC_THREADS is unset, and the benchmark unsets it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from fractions import Fraction

PACKAGE = "qcurrents"
LAYERS = ("series", "geometry", "kernels", "cartan", "serre", "shuffle",
          "pairing", "canonical", "suites", "cli")

# default group of a layer's public functions; a layer not listed here
# reports as "<layer>.other"
MODULE_GROUPS = {
    "kernels": "kernels.checks",
    "cartan": "cartan",
    "serre": "serre.checks",
    "canonical": "canonical.checks",
}

# (layer, attribute) -> group; these calls also record spans
SPANS = {
    ("series", "expand_pole"): "series.expand",
    ("series", "expand_shifted_pole_inv"): "series.expand",
    ("series", "expand_linear_ratio"): "series.expand",
    ("pairing", "pair"): "pairing.pair",
    ("pairing", "gram"): "pairing.gram",
    ("pairing", "delta_B"): "pairing.delta_B",
    ("canonical", "compute_F"): "canonical.compute_F",
    ("shuffle", "star"): "shuffle.star",
    ("shuffle", "serre_element"): "shuffle.serre_element",
    ("serre", "synthesize"): "serre.synthesize",
    ("cli", "run"): "cli.run",
    ("cli", "dump_report"): "cli.dump_report",
}

# groups whose arguments are kept so distinct inputs can be counted
KEEP_ARGS = {"series.expand", "pairing.pair"}

# (layer, class, method) -> group for the hot leaf methods
METHODS = {
    ("series", "KernelFn", "mul"): "series.kf_mul",
    ("series", "HSeries", "__mul__"): "series.hs_mul",
}


def _group_for(layer: str, name: str) -> str:
    if (layer, name) in SPANS:
        return SPANS[(layer, name)]
    if layer == "suites" and name.startswith("suite_"):
        return "suites." + name[len("suite_"):]
    if layer == "geometry":
        return "geometry.checks" if name.startswith("check_") else "geometry.other"
    return MODULE_GROUPS.get(layer, layer + ".other")


class Stat:
    """Aggregate of one function or one group of functions."""

    __slots__ = ("name", "calls", "total", "self_time", "depth",
                 "durations", "args", "terms_out")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.durations = []
        self.args = []
        self.terms_out = 0


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[0.0]]          # one [callee time] cell per active call
        self.spans = []               # (name, start, end, parent span index)
        self.span_stack = [-1]
        self.functions = {}           # qualified function name -> Stat
        self.groups = {}              # group name -> Stat
        self.constructions = Stat("series.hs_new")
        self._wrapped = {}            # id(original) -> (original, wrapper)
        self._bindings = []           # (namespace setter, original)

    # -- wrapping ----------------------------------------------------------

    def _group(self, name: str) -> Stat:
        if name not in self.groups:
            self.groups[name] = Stat(name)
        return self.groups[name]

    def _timed(self, fn, qualname: str, group_name: str, span: bool):
        stat = self.functions.setdefault(qualname, Stat(qualname))
        group = self._group(group_name)
        keep = group_name in KEEP_ARGS
        count_terms = group_name == "series.kf_mul"
        clock, stack = self.clock, self.stack
        spans, span_stack = self.spans, self.span_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep:
                stat.args.append((args, kwargs))
            cell = [0.0]
            stack.append(cell)
            stat.depth += 1
            group.depth += 1
            if span:
                index = len(spans)
                spans.append(None)
                parent = span_stack[-1]
                span_stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stack[-1][0] += elapsed
                own = elapsed - cell[0]
                stat.calls += 1
                stat.self_time += own
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total += elapsed
                group.calls += 1
                group.self_time += own
                group.depth -= 1
                if group.depth == 0:
                    group.total += elapsed
                if span:
                    span_stack.pop()
                    spans[index] = (qualname, start, end, parent)
                    stat.durations.append(elapsed)
            if count_terms:
                stat.terms_out += len(result.terms)
                group.terms_out += len(result.terms)
            return result

        return wrapper

    def _counted_init(self, fn):
        counter = self.constructions

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            counter.calls += 1
            fn(self_, *args, **kwargs)

        return wrapper

    def _targets(self):
        """(original, wrapper) for every function the tracer replaces."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                group = _group_for(layer, name)
                span = (layer, name) in SPANS or group.startswith("suites.")
                out.append((obj, self._timed(obj, f"{layer}.{name}", group,
                                             span)))
        for (layer, cls_name, meth), group in METHODS.items():
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"),
                          cls_name)
            fn = vars(cls)[meth]
            out.append((fn, self._timed(fn, f"{layer}.{cls_name}.{meth}",
                                        group, False)))
        hs = importlib.import_module(f"{PACKAGE}.series").HSeries
        out.append((vars(hs)["__init__"], self._counted_init(vars(hs)["__init__"])))
        return out

    def _namespaces(self):
        """Every place a module-level binding can hold a function: module
        globals, class attributes and module-level dicts and lists."""
        for mod_name in [f"{PACKAGE}.{layer}" for layer in LAYERS]:
            mod = importlib.import_module(mod_name)
            for key, value in list(vars(mod).items()):
                yield (f"{mod_name}.{key}", value,
                       functools.partial(setattr, mod, key))
                if inspect.isclass(value) and value.__module__ == mod_name:
                    for attr, member in list(vars(value).items()):
                        yield (f"{mod_name}.{key}.{attr}", member,
                               functools.partial(setattr, value, attr))
                elif isinstance(value, dict):
                    for k, member in list(value.items()):
                        yield (f"{mod_name}.{key}[{k!r}]", member,
                               functools.partial(value.__setitem__, k))
                elif isinstance(value, list):
                    for i, member in enumerate(value):
                        yield (f"{mod_name}.{key}[{i}]", member,
                               functools.partial(value.__setitem__, i))

    def install(self):
        for original, wrapper in self._targets():
            self._wrapped[id(original)] = (original, wrapper)
        # the originals stay referenced by _wrapped, so an id match is the
        # original itself
        for _, value, setter in self._namespaces():
            if id(value) in self._wrapped:
                setter(self._wrapped[id(value)][1])
                self._bindings.append((setter, value))
        self.check_complete()
        return self

    def check_complete(self):
        """Fail if any namespace still binds an original the tracer wraps."""
        left = [where for where, value, _ in self._namespaces()
                if id(value) in self._wrapped]
        if left:
            raise AssertionError("unwrapped bindings left: " + ", ".join(left))

    def uninstall(self):
        for setter, original in reversed(self._bindings):
            setter(original)
        self._bindings.clear()

    # -- results -----------------------------------------------------------

    def group(self, name: str) -> Stat:
        return self.groups.get(name) or Stat(name)

    def function(self, name: str) -> Stat:
        return self.functions.get(name) or Stat(name)

    def distinct(self, *stats: Stat) -> int:
        memo = {}
        keys = set()
        for stat in stats:
            for args, kwargs in stat.args:
                keys.add((stat.name, content_key(args, memo),
                          content_key(kwargs, memo)))
        return len(keys)

    def dump(self) -> dict:
        def agg(s):
            return {"calls": s.calls, "total_s": s.total,
                    "self_s": s.self_time, "terms_out": s.terms_out}
        return {
            "groups": {k: agg(v) for k, v in sorted(self.groups.items())},
            "functions": {k: agg(v) for k, v in sorted(self.functions.items())},
            "hs_new": self.constructions.calls,
            "spans": self.spans,
        }


def content_key(obj, memo: dict):
    """Hashable key equal for equal values; `memo` caches by object id, so
    it is only valid while every keyed object is alive."""
    ident = id(obj)
    if ident in memo:
        return memo[ident][1]
    if obj is None or isinstance(obj, (int, str, Fraction)):
        key = obj
    elif isinstance(obj, (tuple, list)):
        key = tuple(content_key(x, memo) for x in obj)
    elif isinstance(obj, dict):
        key = tuple(sorted((content_key(k, memo), content_key(v, memo))
                           for k, v in obj.items()))
    else:
        slots = [s for c in type(obj).__mro__
                 for s in getattr(c, "__slots__", ())]
        fields = slots or sorted(vars(obj))
        key = (type(obj).__name__,
               tuple(content_key(getattr(obj, f), memo) for f in fields))
    memo[ident] = (obj, key)
    return key


def percentile_ms(durations, q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] * 1000.0
