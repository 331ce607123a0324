"""Per-layer call counts and self time for gkzkit, wrapped from outside.

Every public module-level function of every ``gkzkit`` module is replaced by a
timing wrapper at each module attribute that binds it, so a call made through
``configuration.convex_hull`` is counted exactly like one made through
``polytope.convex_hull``.  ``lru_cache`` functions keep ``cache_info`` and
``cache_clear`` on their wrapper.  Self time comes from a span stack kept in
memory: a span's duration minus the time its traced children took.  Nothing is
written until the caller asks for :meth:`Tracer.snapshot` at the end of a run.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import time

# Prefix of the stderr line on which a traced CLI run reports its trace.
TRACE_MARK = "gkzkit-bench-trace "

# Arithmetic leaves called millions of times per run.  Wrapping them would
# multiply the tracing overhead while their cost is already inside the self
# time of the layer function that calls them.
UNTRACED = frozenset(
    {
        "intlinalg.dot",
        "intlinalg.vsub",
        "intlinalg.vadd",
        "intlinalg.vscale",
        "intlinalg.primitive",
        "intlinalg.vec_gcd",
        "intlinalg.xgcd",
        "intlinalg.clear_denominators",
    }
)


def _hull_subsets(P):
    # convex_hull scans every point subset of size dim for a facet.
    return math.comb(len(P.points), P.dim) if P.dim else 0


def _extras(lp):
    """Exact per-call counts beyond the call count itself, by traced name."""
    return {
        "lp.lp_maximize": lambda r: int(r[0] != lp.INFEASIBLE),
        "polytope.convex_hull": _hull_subsets,
        "polytope.lattice_points_in": len,
        "secondary.enumerate_regular_triangulations": len,
    }


class Tracer:
    """Span-stack tracer; ``active`` is False outside the timed ops."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.stats = {}  # traced name -> [calls, self seconds, extra count]
        self.functions = {}  # traced name -> wrapper

    def install(self):
        pkg = importlib.import_module("gkzkit")
        modules = [pkg] + [
            importlib.import_module(f"gkzkit.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if not info.name.startswith("_")
        ]
        extras = _extras(importlib.import_module("gkzkit.lp"))
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                key = f"{short}.{name}"
                if (
                    name.startswith("_")
                    or key in UNTRACED
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(key, obj, extras.get(key))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        return self

    def _wrap(self, key, fn, extra):
        stats = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - child
            if extra is not None:
                stats[2] += extra(result)
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        self.functions[key] = traced
        return traced

    def cache_counts(self):
        """(hits, misses) of every traced lru_cache function."""
        out = {}
        for key, fn in self.functions.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[key] = [info.hits, info.misses]
        return out

    def snapshot(self):
        return {
            "functions": {k: list(v) for k, v in self.stats.items() if v[0]},
            "caches": self.cache_counts(),
        }
