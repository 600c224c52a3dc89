"""Outside-in span tracer for the six ``gemini_dilog`` modules.

The modules import their callees by name (``from .polylog import li2_real``),
so patching only the defining module would miss most calls.  ``Tracer.install``
therefore rebinds each public function under its name in every *other*
``gemini_dilog`` module, and replaces the module objects that ``cli`` holds
with proxies that hand out the wrapped functions.  A function is never wrapped
in its own module's globals, so recursion inside a module (polylog's branch
reductions, analysis re-solving its own constants) stays in that function's
self time.  The one exception is ``catalog.verify_entry``: only
``catalog.verify_all`` calls it, it does not recurse, and it is the per-entry
boundary the catalog metrics need.

The three numerical dependencies are wrapped where ``analysis`` calls them:
``scipy.integrate.quad`` (Gauss-Kronrod), ``scipy.optimize.brentq`` and the
``mpmath.quad`` tanh-sinh fallback.  Their integrands and root functions are
wrapped too, to count evaluations.

Spans live in memory as ``[name, start_ns, end_ns, parent_index, tag]``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("polylog", "analysis", "gemini", "geometry", "catalog", "cli")
ENTRY_BOUNDARY = "catalog.verify_entry"  # also wrapped in its own module


class _ModuleProxy:
    """Stands in for a module object: wrapped functions first, then the module."""

    def __init__(self, module, wrapped: dict):
        self.__dict__.update(wrapped)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _public_functions(module) -> dict:
    out = {}
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type) \
                and getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack = [-1]
        self._undo: list = []

    # -- span recording ------------------------------------------------------

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording one span per call; ``tag(args, result)`` labels it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if tag is not None:
                span[4] = tag(args, result)
            return result

        return traced

    def _counting(self, counter: str, f):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return f(*args, **kwargs)

        return counted

    def _wrap_dependency(self, name: str, fn, counter: str):
        traced = self.wrap(name, fn)
        counting = self._counting

        def call(f, *args, **kwargs):
            return traced(counting(counter, f), *args, **kwargs)

        return call

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # -- installation --------------------------------------------------------

    def install(self) -> dict:
        """Wrap every cross-module binding; returns ``{qualified name: wrapper}``."""
        import mpmath
        import scipy.integrate
        import scipy.optimize

        mods = {m: importlib.import_module(f"gemini_dilog.{m}") for m in MODULES}
        public = {m: _public_functions(mod) for m, mod in mods.items()}
        wrapped = {}
        for m in MODULES:
            for fname, fn in public[m].items():
                name = f"{m}.{fname}"
                tag = self._tag_entry if name == ENTRY_BOUNDARY else None
                wrapped[fn] = (name, self.wrap(name, fn, tag))
        for m, mod in mods.items():
            for gname, value in list(vars(mod).items()):
                name, w = wrapped.get(value, (None, None)) if callable(value) else (None, None)
                if name and (not name.startswith(m + ".") or name == ENTRY_BOUNDARY):
                    self._patch(mod, gname, w)
        cli = mods["cli"]
        for m in MODULES:
            if m != "cli" and isinstance(vars(cli).get(m), type(cli)):
                self._patch(cli, m, _ModuleProxy(mods[m], {
                    fname: wrapped[fn][1] for fname, fn in public[m].items()}))
        self._patch(scipy.integrate, "quad", self._wrap_dependency(
            "analysis.gk", scipy.integrate.quad, "analysis.integrate.f_evals"))
        self._patch(mpmath, "quad", self._wrap_dependency(
            "analysis.fallback", mpmath.quad, "analysis.integrate.f_evals"))
        self._patch(scipy.optimize, "brentq", self._wrap_dependency(
            "analysis.brent", scipy.optimize.brentq, "analysis.find_root.f_evals"))
        return {name: w for name, w in wrapped.values()}

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def _tag_entry(self, args, report) -> str:
        self.counters["catalog.samples"] += report.samples
        return report.group

    # -- aggregation ---------------------------------------------------------

    def export(self) -> list:
        """The spans as ``[name, start_ns, end_ns, parent_index]``."""
        return [span[:4] for span in self.spans]

    def summary(self) -> dict:
        """Per span name: calls, self_ns and total_ns; plus counters and groups."""
        spans = self.spans
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name: dict = {}
        groups: dict = defaultdict(int)
        for i, (name, start, end, _, tag) in enumerate(spans):
            agg = by_name.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += end - start - covered[i]
            agg[2] += end - start
            if tag is not None:
                groups[tag] += end - start
        return {
            "spans": {k: {"calls": v[0], "self_ns": v[1], "total_ns": v[2]}
                      for k, v in by_name.items()},
            "counters": dict(self.counters),
            "group_ns": dict(groups),
        }


def merge(summaries: list) -> dict:
    """Sum several ``Tracer.summary`` results."""
    out = {"spans": {}, "counters": defaultdict(int), "group_ns": defaultdict(int)}
    for s in summaries:
        for k, v in s["spans"].items():
            agg = out["spans"].setdefault(k, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for f in agg:
                agg[f] += v[f]
        for k, v in s["counters"].items():
            out["counters"][k] += v
        for k, v in s["group_ns"].items():
            out["group_ns"][k] += v
    out["counters"] = dict(out["counters"])
    out["group_ns"] = dict(out["group_ns"])
    return out
