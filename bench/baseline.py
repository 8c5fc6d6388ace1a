"""The per-layer baseline cases of the ROADMAP (item 1), re-measured in
every traced run: ``sweep("price")`` at N = 25/50/100/200, ``market.run``
at H = 50/500/2000, cold ``t_quantile``, ``classify`` at N = 21, plus the
CLI chain simulate -> sweep -> classify -> plotdata at H = 50.

The inputs are fixed (they do not depend on the workload seed), so the
figures compare across workloads and runs.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from pathlib import Path

from workloads import make_series, run_cli

SWEEP_SIZES = (25, 50, 100, 200)
HORIZONS = (50, 500, 2000)
QUANTILE_DFS = range(1, 200)


def _raw_t_quantile(bl):
    fn = bl.studentt.t_quantile
    return fn if hasattr(fn, "cache_clear") else fn.__wrapped__


class Baseline:
    def __init__(self, bl, workdir, src):
        self.bl = bl
        self.workdir = Path(workdir) / "baseline"
        self.src = Path(src)
        self.tracing = False
        self.traces = []
        params = bl.ExperimentParams()
        self.excess = {}
        for n in SWEEP_SIZES:
            prices, _ = make_series(random.Random(f"baseline:{n}"), n)
            self.excess[n] = bl.excess_series(bl.PriceSeries(0, tuple(prices)), params)
        h = params.n_traders
        agents = [bl.AgentSpec.price_anchor(a=math.log(1.09), b=1e-4)] * (h - 1)
        agents.append(bl.AgentSpec.naive())
        self.configs = {
            horizon: bl.SimConfig(params=params, agents=agents, horizon=horizon,
                                  initial_prices=(66.0, 72.0))
            for horizon in HORIZONS
        }
        self.classify_model = bl.GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0)
        self.params = params

    def cases(self):
        """(metric, unit, scale, repeats, thunk); the metric is the median
        of the repeats' seconds times the scale."""
        bl = self.bl
        out = []
        for n, reps in zip(SWEEP_SIZES, (7, 5, 3, 1)):
            out.append((f"baseline.sweep_price.N{n}_ms", "ms", 1e3, reps,
                        lambda n=n: bl.sweep(self.excess[n], "price")))
        for horizon, reps in zip(HORIZONS, (7, 3, 1)):
            out.append((f"baseline.market_run.H{horizon}_ms", "ms", 1e3, reps,
                        lambda horizon=horizon: bl.run(self.configs[horizon])))
        out.append(("baseline.t_quantile.cold_ms_per_df", "ms", 1e3 / len(QUANTILE_DFS), 1,
                    self._cold_quantiles))
        out.append(("baseline.classify.N21_ms", "ms", 1e3, 7, self._classify))
        out.append(("baseline.cli_chain.H50_s", "s", 1.0, 1, self._cli_chain))
        return out

    def _cold_quantiles(self):
        _raw_t_quantile(self.bl).cache_clear()
        t_quantile = self.bl.studentt.t_quantile
        for df in QUANTILE_DFS:
            t_quantile(0.975, df)

    def _classify(self):
        excess = self.bl.iterate_noisy(self.classify_model, 20, 0.01, 0)
        self.bl.classify_series(excess.to_prices(self.params), self.params)

    def _cli_chain(self):
        d = self.workdir
        sim = d / "sim"
        steps = [
            ["simulate", "--agents", "bubble", "--horizon", "50", "--seed", "7",
             "--outdir", str(sim)],
            ["sweep", "--input", str(sim / "simulation.csv"), "--outdir", str(d / "sweep")],
            ["classify", "--input", str(sim / "simulation.csv"), "--outdir", str(d / "classify")],
            ["plotdata", "--input", str(sim / "simulation.csv"), "--outdir", str(d / "plot")],
        ]
        d.mkdir(parents=True, exist_ok=True)
        for i, argv in enumerate(steps):
            trace_path = d / f"trace-{i}.json" if self.tracing else None
            t0 = time.perf_counter()
            proc = run_cli(argv, self.src, d, trace_path)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"bubblelab {argv[0]} exited {proc.returncode}: "
                                   f"{proc.stderr.strip()}")
            if trace_path is not None:
                self.traces.append((trace_path, wall))

    def measure(self) -> dict:
        """Untraced timings of every case: name -> (value, unit)."""
        figures = {}
        for name, unit, scale, reps, thunk in self.cases():
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                thunk()
                times.append(time.perf_counter() - t0)
            figures[name] = (statistics.median(times) * scale, unit)
        return figures

    def run_once(self):
        """Every case once, for the traced pass."""
        for *_, thunk in self.cases():
            thunk()
