"""Per-layer tracing for the benchmark, done entirely from outside the
package: the public functions of each bubblelab module are swapped for
timing wrappers in every bubblelab namespace that holds them.

Each wrapper opens a span at a layer boundary.  A span's busy time is
its wall time; its self time is busy time minus the time covered by the
spans it caused.  Spans are folded into per-name totals as they close,
so a sweep of tens of thousands of cells costs no memory.  Counts (points
fitted, cells swept, periods simulated, ...) are recorded at the same
boundaries so that ratios are taken where the work happens.

Functions bound at import time inside containers (``sweep._FITTERS``)
are out of reach of this patching, which is why ``ols2`` is timed
through the ``regression`` module's global rather than ``fit_*``
through ``sweep``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _count_ols2(counts, times, args, kwargs, result, dt):
    counts["regression.ols2.points"] += len(args[0])


def _count_sweep(counts, times, args, kwargs, result, dt):
    counts["sweep.sweep.cells"] += len(result.cells)
    counts["sweep.sweep.valid"] += result.n_valid()
    for cell in result.cells.values():
        kind = getattr(cell, "error_kind", None)
        if kind is not None:
            counts[f"sweep.sweep.invalid.{kind}"] += 1


def _count_grid_to_csv(counts, times, args, kwargs, result, dt):
    counts["sweep.grid_to_csv.bytes"] += len(result.encode("utf-8"))


def _count_load_csv(counts, times, args, kwargs, result, dt):
    counts["series.load_csv.rows"] += len(result[0])


def _count_run(counts, times, args, kwargs, result, dt):
    horizon = args[0].horizon
    counts["market.run.periods"] += horizon
    counts[f"market.run.periods.H{horizon}"] += horizon
    times[f"market.run.busy_s.H{horizon}"] += dt


def _count_to_json(counts, times, args, kwargs, result, dt):
    counts["market.to_json.bytes"] += len(result.encode("utf-8"))


def _count_iterate_noisy(counts, times, args, kwargs, result, dt):
    counts["growth.iterate_noisy.steps"] += len(result) - 1


def _count_classify(counts, times, args, kwargs, result, dt):
    counts[f"classify.label.{result.label}"] += 1


# (module, attribute, span name, count hook).  The attribute may name a
# method as "Class.method".
LAYERS = (
    ("series", "load_csv", "series.load_csv", _count_load_csv),
    ("series", "write_csv", "series.write_csv", None),
    ("series", "excess_series", "series.excess_series", None),
    ("market", "run", "market.run", _count_run),
    ("market", "agent_forecast", "market.agent_forecast", None),
    ("market", "clearing_price", "market.clearing_price", None),
    ("market", "SimResult.to_json", "market.to_json", _count_to_json),
    ("growth", "iterate_noisy", "growth.iterate_noisy", _count_iterate_noisy),
    ("regression", "ols2", "regression.ols2", _count_ols2),
    ("studentt", "t_quantile", "studentt.t_quantile", None),
    ("sweep", "sweep", "sweep.sweep", _count_sweep),
    ("sweep", "grid_to_csv", "sweep.grid_to_csv", _count_grid_to_csv),
    ("sweep", "grid_summary", "sweep.grid_summary", None),
    ("classify", "classify_series", "classify.classify_series", _count_classify),
    ("classify", "detect_bubble_window", "classify.detect_bubble_window", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Collects span totals and counts while installed."""

    def __init__(self):
        self.spans = {}  # name -> [calls, busy_s, child_s]
        self.counts = Counter()
        self.times = Counter()  # busy seconds a hook splits out further
        self._stack = []  # child time accumulated by each open span
        self._active = Counter()  # open spans per name, to skip recursion
        self._undo = []
        self._cache_base = None

    def _wrap(self, name, fn, hook):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, active, counts, times = self._stack, self._active, self.counts, self.times
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[name]:  # a recursive call stays inside the outer span
                return fn(*args, **kwargs)
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                active[name] -= 1
                totals[0] += 1
                totals[1] += dt
                totals[2] += child
            if hook is not None:
                hook(counts, times, args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function that is importable right now."""
        import bubblelab  # noqa: F401  (loads every module but cli)

        for module_name, attr, name, hook in LAYERS:
            module = sys.modules.get(f"bubblelab.{module_name}")
            if module is None:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                setattr(owner, fn_name, self._wrap(name, original, hook))
                self._undo.append((owner, fn_name, original))
                continue
            original = getattr(module, fn_name)
            wrapped = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("bubblelab"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        self._cache_base = self._cache_info()
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    @staticmethod
    def _cache_info():
        studentt = sys.modules.get("bubblelab.studentt")
        if studentt is None:
            return (0, 0)
        fn = studentt.t_quantile
        if not hasattr(fn, "cache_info"):  # our wrapper around the cache
            fn = fn.__wrapped__
        info = fn.cache_info()
        return (info.hits, info.misses)

    def snapshot(self) -> dict:
        """Totals so far, as plain JSON-ready data."""
        hits, misses = self._cache_info()
        base_hits, base_misses = self._cache_base or (0, 0)
        counts = dict(self.counts)
        counts["studentt.t_quantile.hits"] = hits - base_hits
        counts["studentt.t_quantile.misses"] = misses - base_misses
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": counts,
            "times": dict(self.times),
        }


def merge(into: dict, other: dict) -> dict:
    """Add the totals of snapshot ``other`` into snapshot ``into``."""
    spans = into.setdefault("spans", {})
    for name, (calls, busy, child) in other.get("spans", {}).items():
        cur = spans.setdefault(name, [0, 0.0, 0.0])
        cur[0] += calls
        cur[1] += busy
        cur[2] += child
    for part in ("counts", "times"):
        totals = into.setdefault(part, {})
        for name, value in other.get(part, {}).items():
            totals[name] = totals.get(name, 0) + value
    return into
