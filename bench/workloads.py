"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed, hands the runner
one cycle of operations at a time, and checks every output once the
timed loop is over.  The library is always reached through attributes of
the ``bubblelab`` package looked up at call time, so the tracer's
wrappers see every call.

power_study      growth.iterate_noisy + classify.classify_series, in-process
cli_calibration  one fresh ``bubblelab`` process per operation on a CSV
market_sim       market.run + SimResult.write_csv + SimResult.to_json
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 0
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

# Floats checked against an in-process reference may move in the last
# ulps (an exact-moment OLS kernel rounds differently from fsum over
# centred data); labels, counts and cell validity may not move at all.
REL_TOL = 1e-9
ABS_TOL = 1e-12

CLI_TIMEOUT_S = 150


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(expected, actual, path="$"):
    """First difference between two JSON-like values, or None.

    Floats compare within REL_TOL/ABS_TOL; everything else exactly.
    """
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            return f"{path}: {actual!r} != {expected!r}"
        return None if close(float(expected), float(actual)) else (
            f"{path}: {actual!r} not within tolerance of {expected!r}"
        )
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            diff = compare(expected[key], actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = compare(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if expected == actual else f"{path}: {actual!r} != {expected!r}"


def unreadable_as_failure(check, *args):
    """Run an output check; output too malformed to parse fails it."""
    try:
        return check(*args)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def load_golden(workload: str):
    """The recorded default-seed outputs of one workload."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def cli_env(src: Path) -> dict:
    """Environment for a ``bubblelab`` child: the absolute ``src`` path,
    so the CLI runs from a plain checkout, whatever the child's cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_cli(argv, src: Path, cwd: Path, trace_path=None):
    """Run one CLI command in a fresh interpreter and wait for it.

    With ``trace_path`` the command runs under ``cli_child.py``, which
    traces the layers inside the child and writes their totals there.
    """
    if trace_path is None:
        cmd = [sys.executable, "-m", "bubblelab.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_path), *argv]
    return subprocess.run(
        cmd, cwd=cwd, env=cli_env(src), capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S,
    )


def triangle(points: int, min_window: int) -> int:
    """Windows of at least ``min_window`` points inside ``points`` points."""
    m = points - min_window + 1
    return m * (m + 1) // 2 if m > 0 else 0


def bubble_window(excess, min_window):
    """Oracle for ``classify.detect_bubble_window`` on a series from t=0:
    the longest run of positive excess, entered at its first grown point,
    spanning at least ``min_window`` points and ending above its start."""
    best = None
    i, n = 0, len(excess)
    while i < n:
        if excess[i] <= 0:
            i += 1
            continue
        j = i
        while j + 1 < n and excess[j + 1] > 0:
            j += 1
        s, e = i + 1, j
        if e - s + 1 >= min_window and excess[e] > excess[s]:
            if best is None or e - s > best[1] - best[0]:
                best = [s, e]
        i = j + 1
    return best


# ---------------------------------------------------------------------------
# power_study
# ---------------------------------------------------------------------------


class PowerStudy:
    """The Monte Carlo power and false-positive study of acceptance
    criterion 6, over a seeded pool of noise seeds per scenario."""

    name = "power_study"
    items = "sweep cells"
    pool = 100
    # Whole cycles every run makes, for the output checks (here: the rates
    # are judged on the whole pool) and for the end-to-end statistics.
    checked_cycles = min_cycles = pool
    trace_cycles = 10  # cycles in one traced or untraced round
    ref_reps = 1  # reference runs after each op (see run.py)
    reference_stat = "median"

    def __init__(self, bl, seed, workdir, src):
        self.bl = bl
        self.seed = seed
        self.expected = None  # golden outputs, set by the runner for the default seed
        self.params = bl.ExperimentParams()
        # name, model, steps, sigma, label that counts as detected, threshold
        self.scenarios = (
            ("price_feedback", bl.GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0),
             20, 0.01, bl.ANCHORING_ON_PRICE, 0.90),
            ("return_feedback", bl.GrowthModel.return_feedback(
                0.02, 0.6, initial_log_return=0.25, start=60.0),
             40, 0.003, bl.ANCHORING_ON_RETURN, 0.80),
            ("exponential", bl.GrowthModel.exponential(math.log(1.1), 60.0),
             20, 0.01, bl.RATIONAL_EXPONENTIAL, 0.95),
        )
        rng = random.Random(f"power_study:{seed}")
        self.noise_seeds = [rng.randrange(2**32) for _ in range(self.pool)]

    def warmup(self):
        for _, thunk in self.cycle(0):
            thunk()

    def cycle(self, c):
        item = c % self.pool
        return [((k, item), lambda k=k, item=item: self._op(k, item))
                for k in range(len(self.scenarios))]

    def _op(self, k, item):
        _, model, steps, sigma, _, _ = self.scenarios[k]
        excess = self.bl.iterate_noisy(model, steps, sigma, self.noise_seeds[item])
        prices = excess.to_prices(self.params)
        return prices, self.bl.classify_series(prices, self.params)

    def after_op(self, key, raw, seconds):
        prices, verdict = raw
        win = verdict.bubble_window
        cells = sum(len(g.cells) for g in (verdict.price_grid, verdict.return_grid) if g)
        excess = [p - self.params.fundamental for p in prices.values]
        return {
            "label": verdict.label,
            "window": [win.start, win.end] if win else None,
            "expected_window": bubble_window(excess, verdict.min_window),
            "pf": verdict.price_fraction,
            "rf": verdict.return_fraction,
            "theta": verdict.theta,
            "min_window": verdict.min_window,
            "cells": cells,
        }

    def items_of(self, key, rec):
        return rec["cells"]

    def kind(self, key):
        return self.scenarios[key[0]][0]

    def _check_one(self, rec):
        bl = self.bl
        win, label, mw = rec["window"], rec["label"], rec["min_window"]
        if win != rec["expected_window"]:
            return f"bubble window {win}, expected {rec['expected_window']}"
        if win is None:
            want, cells = bl.ERRATIC, 0
        elif win[1] - win[0] + 1 < mw + 2:
            want, cells = bl.TOO_SHORT, 0
        else:
            pf, rf, theta = rec["pf"], rec["rf"], rec["theta"]
            if pf < theta and rf < theta:
                want = bl.RATIONAL_EXPONENTIAL
            elif rf > pf:
                want = bl.ANCHORING_ON_RETURN
            else:
                want = bl.ANCHORING_ON_PRICE
            cells = 2 * triangle(win[1] - win[0] + 1, mw)
        if label != want:
            return f"label {label} contradicts fractions (expected {want})"
        if rec["cells"] != cells:
            return f"{rec['cells']} cells, expected {cells}"
        return None

    def finish(self, ops):
        """Per-op failure messages and workload-level messages."""
        golden = self.expected
        first = {}
        failures = []
        for key, rec in ops:
            if rec is None:
                failures.append("raised")
                continue
            msg = self._check_one(rec)
            if msg is None and key in first and rec != first[key]:
                msg = "repeat of the same input gave a different verdict"
            first.setdefault(key, rec)
            if msg is None and golden is not None:
                name = self.scenarios[key[0]][0]
                want = golden[name]
                got = [rec["label"], rec["window"]]
                if got != [want["labels"][key[1]], want["windows"][key[1]]]:
                    msg = f"default-seed verdict {got} differs from the recorded one"
            failures.append(msg)
        messages = []
        for k, (name, _, _, _, label, threshold) in enumerate(self.scenarios):
            recs = [first.get((k, i)) for i in range(self.pool)]
            if any(r is None for r in recs):
                messages.append(f"{name}: pool not fully classified")
                continue
            rate = sum(r["label"] == label for r in recs) / self.pool
            if rate < threshold:
                messages.append(f"{name}: rate of {label} {rate:.3f} < {threshold}")
        self._first = first
        return failures, messages

    def golden(self):
        out = {}
        for k, scenario in enumerate(self.scenarios):
            recs = [self._first[(k, i)] for i in range(self.pool)]
            out[scenario[0]] = {
                "labels": [r["label"] for r in recs],
                "windows": [r["window"] for r in recs],
            }
        return out


# ---------------------------------------------------------------------------
# market_sim
# ---------------------------------------------------------------------------


class MarketSim:
    """Learning-to-forecast market runs and their output files."""

    name = "market_sim"
    items = "periods"
    horizons = (50, 500, 2000)
    checked_cycles = min_cycles = 1
    trace_cycles = 1
    ref_reps = 2
    reference_stat = "median"

    def __init__(self, bl, seed, workdir, src):
        self.bl = bl
        self.seed = seed
        self.expected = None  # golden outputs, set by the runner for the default seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        params = bl.ExperimentParams()
        self.params = params
        h = params.n_traders
        # The ``bubble`` and ``noise`` agent presets of ``bubblelab simulate``:
        # feedback traders that drive the price into the clip band, and a
        # fundamental market with one noise trader, here run with forecast
        # noise and mis-trades switched on.
        presets = {
            "bubble": dict(
                agents=[bl.AgentSpec.price_anchor(a=math.log(1.09), b=1e-4)] * (h - 1)
                + [bl.AgentSpec.naive()],
                initial_prices=(66.0, 72.0),
            ),
            "noise": dict(
                agents=[bl.AgentSpec.fundamentalist()] * (h - 1)
                + [bl.AgentSpec.noise(sigma=5.0)],
                return_noise_sigma=0.02,
                mistrade_prob=0.02,
                initial_prices=(60.0, 60.0),
            ),
        }
        rng = random.Random(f"market_sim:{seed}")
        self.configs = {}
        for horizon in self.horizons:
            for preset, kw in presets.items():
                self.configs[(preset, horizon)] = bl.SimConfig(
                    params=params, horizon=horizon, seed=rng.randrange(2**32), **kw
                )
        self.keys = list(self.configs)
        self._results = {}

    def warmup(self):
        for key in self.keys:
            if key[1] == self.horizons[0]:
                self._op(key)

    def cycle(self, c):
        return [(key, lambda key=key: self._op(key)) for key in self.keys]

    def _path(self, key):
        return self.workdir / f"simulation-{key[0]}-H{key[1]}.csv"

    def _op(self, key):
        result = self.bl.run(self.configs[key])
        result.write_csv(self._path(key))
        return result, result.to_json()

    def after_op(self, key, raw, seconds):
        result, text = raw
        self._results.setdefault(key, (result, text))
        return {
            "json_sha256": sha256(text.encode("utf-8")),
            "csv_sha256": sha256(self._path(key).read_bytes()),
        }

    def items_of(self, key, rec):
        return key[1]

    def kind(self, key):
        return f"{key[0]}-H{key[1]}"

    def _check_result(self, key, result, text):
        """Clearing equation, price band, scoring and the JSON document,
        all recomputed here from the recorded forecasts."""
        config, params = self.configs[key], self.params
        prices = result.prices.values
        if len(prices) != config.horizon or result.prices.t0 != 0:
            return "wrong number of prices"
        n = params.n_traders
        if len(result.forecasts) != n or any(len(r) != config.horizon for r in result.forecasts):
            return "forecast table has the wrong shape"
        for i, p in enumerate(prices):
            f = [row[i] for row in result.forecasts]
            if any(not (params.p_min <= x <= params.p_max) for x in f):
                return f"forecast outside the price band at period {i}"
            raw = (math.fsum(f) / n + params.dividend) / (1.0 + params.r)
            want = min(max(raw, params.p_min), params.p_max)
            if not close(p, want):
                return f"price {p!r} at period {i} breaks the clearing equation ({want!r})"
            if not params.p_min <= p <= params.p_max:
                return f"price outside the band at period {i}"
        for h in range(n):
            row = result.payoffs[h]
            if row[-1] is not None:
                return "final payoff should be unrealized"
            for i in range(config.horizon - 1):
                err = prices[i + 1] - result.forecasts[h][i]
                want = max(1300.0 - 1300.0 / 49.0 * err * err, 0.0)
                if not close(row[i], want):
                    return f"payoff of trader {h + 1} at period {i} is {row[i]!r}, not {want!r}"
        doc = json.loads(text)
        if doc["prices"] != list(prices) or doc["t0"] != 0:
            return "JSON prices differ from the result"
        if doc["forecasts"] != [list(r) for r in result.forecasts]:
            return "JSON forecasts differ from the result"
        if doc["metadata"]["seed"] != config.seed or doc["metadata"]["horizon"] != config.horizon:
            return "JSON metadata does not describe the run"
        rows = list(csv.reader(io.StringIO(self._path(key).read_text(encoding="utf-8"))))
        if rows[0] != ["t", "price"] + [f"h{h + 1}" for h in range(n)]:
            return f"CSV header {rows[0]}"
        if len(rows) != config.horizon + 1:
            return f"CSV has {len(rows) - 1} rows"
        for i, row in enumerate(rows[1:]):
            if int(row[0]) != i or row[1] != f"{prices[i]:.2f}":
                return f"CSV row {i + 1} does not match the result"
        return None

    def finish(self, ops):
        golden = self.expected
        verdicts = {
            key: unreadable_as_failure(self._check_result, key, *raw)
            for key, raw in self._results.items()
        }
        first = {}
        failures = []
        for key, rec in ops:
            if rec is None:
                failures.append("raised")
                continue
            first.setdefault(key, rec)
            msg = None
            if rec != first[key]:
                msg = "repeat of the same config gave different bytes"
            elif verdicts.get(key):
                msg = verdicts[key]
            elif golden is not None and rec != golden[f"{key[0]}-H{key[1]}"]:
                msg = "default-seed output differs from the recorded digest"
            failures.append(msg)
        self._first = first
        return failures, []

    def golden(self):
        return {f"{k[0]}-H{k[1]}": rec for k, rec in self._first.items()}


# ---------------------------------------------------------------------------
# cli_calibration
# ---------------------------------------------------------------------------


def make_series(rng, n, crash_at=None):
    """A bubble-shaped price series on t = 0..n-1 with six forecast columns.

    Each bubble's log excess price rises along a convex path with noise,
    from about 5 to about 600 above the fundamental of 60.  With
    ``crash_at`` three periods from there on sit below the fundamental
    before a second bubble starts, so every window crossing them holds a
    non-positive excess price.  Prices stay inside [0, 1000] and carry
    six decimals, so the CSV text reads back to the same floats.
    """
    excess = []
    segments = [(0, n)] if crash_at is None else [(0, crash_at), (crash_at + 3, n)]
    for a, b in segments:
        if excess:
            excess += [-rng.uniform(1.0, 30.0) for _ in range(3)]
        lo, hi = math.log(rng.uniform(4.0, 8.0)), math.log(rng.uniform(500.0, 700.0))
        m = b - a
        for j in range(m):
            u = j / (m - 1)
            excess.append(math.exp(lo + (hi - lo) * u * u + rng.gauss(0.0, 0.02)))
    prices = [round(60.0 + e, 6) for e in excess]
    forecasts = [
        [round(min(max(p * math.exp(rng.gauss(0.0, 0.05)), 0.0), 1000.0), 6) for p in prices]
        for _ in range(6)
    ]
    return prices, forecasts


def series_csv(prices, forecasts) -> str:
    out = ["t,price," + ",".join(f"h{h + 1}" for h in range(len(forecasts)))]
    for t, p in enumerate(prices):
        out.append(",".join([str(t), repr(p)] + [repr(col[t]) for col in forecasts]))
    return "\n".join(out) + "\n"


def _read_rows(path: Path):
    return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))


_GRID_HEADER = ["model", "start", "end", "a", "b", "se_a", "se_b", "a_lower",
                "b_lower", "n", "r2", "valid", "error_kind"]
_GRID_FLOATS = ("a", "b", "se_a", "se_b", "a_lower", "b_lower")


def check_grid_csv(path: Path, grid, bl):
    """Every cell of a grid CSV against the in-process grid."""
    rows = _read_rows(path)
    if rows[0] != _GRID_HEADER:
        return f"{path.name}: header {rows[0]}"
    cells = sorted(grid.cells.items())
    if len(rows) - 1 != len(cells):
        return f"{path.name}: {len(rows) - 1} rows for {len(cells)} cells"
    for row, ((s, e), cell) in zip(rows[1:], cells):
        if row[:3] != [grid.model, str(s), str(e)]:
            return f"{path.name}: row {row[:3]} where cell ({s}, {e}) was expected"
        if isinstance(cell, bl.OlsFit):
            if row[11:] != ["true", ""] or int(row[9]) != cell.n:
                return f"{path.name}: cell ({s}, {e}) should be a valid fit"
            for i, name in enumerate(_GRID_FLOATS, start=3):
                if not close(float(row[i]), getattr(cell, name)):
                    return f"{path.name}: {name} of cell ({s}, {e}) is {row[i]}"
            if not close(float(row[10]), cell.r2):
                return f"{path.name}: r2 of cell ({s}, {e}) is {row[10]}"
        elif row[3:] != [""] * 8 + ["false", cell.error_kind]:
            return f"{path.name}: cell ({s}, {e}) should be invalid ({cell.error_kind})"
    return None


def _grid_shape(summary: dict) -> dict:
    best = summary["best_window"]
    return {
        "cells": summary["cells"],
        "valid_cells": summary["valid_cells"],
        "significant_cells": summary["significant_cells"],
        "invalid_by_error": summary["invalid_by_error"],
        "best_window": [best["start"], best["end"]] if best else None,
    }


class CliCalibration:
    """``bubblelab sweep``, ``classify`` and ``plotdata`` on CSV series of
    100 and 200 periods, one fresh interpreter per operation."""

    name = "cli_calibration"
    items = "sweep cells"
    sizes = (100, 200)
    commands = ("sweep", "classify", "plotdata")
    checked_cycles = 1
    min_cycles = 4  # four samples of each kind, however short --seconds is
    trace_cycles = 1
    ref_reps = 40
    # The host's speed changes within seconds.  These ops last seconds and
    # average over those changes, so the reference's mean over the run
    # matches them; the short ops of the other workloads are matched by
    # its median, as their own medians are.
    reference_stat = "mean"

    def __init__(self, bl, seed, workdir, src):
        self.bl = bl
        self.seed = seed
        self.expected = None  # golden outputs, set by the runner for the default seed
        self.src = Path(src)
        self.workdir = Path(workdir)
        self.tracing = False
        self._traces = []
        rng = random.Random(f"cli_calibration:{seed}")
        self.series = {}
        for n in self.sizes:
            # the longer series crashes three quarters of the way in
            crash_at = None if n == self.sizes[0] else (3 * n) // 4
            prices, forecasts = make_series(rng, n, crash_at)
            path = self.workdir / "inputs" / f"series-N{n}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(series_csv(prices, forecasts), encoding="utf-8")
            self.series[n] = (path, prices, forecasts)
        self.keys = [(cmd, n) for n in self.sizes for cmd in self.commands]
        self._first = {}

    def warmup(self):
        pass  # every operation starts a cold interpreter by design

    def outdir(self, key):
        return self.workdir / "out" / f"{key[0]}-N{key[1]}"

    def cycle(self, c):
        return [(key, lambda key=key, c=c: self._op(key, c)) for key in self.keys]

    def _op(self, key, c):
        cmd, n = key
        argv = [cmd, "--input", str(self.series[n][0]), "--outdir", str(self.outdir(key))]
        trace_path = None
        if self.tracing:
            trace_path = self.workdir / "trace" / f"{cmd}-N{n}-{c}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
        return run_cli(argv, self.src, self.workdir, trace_path), trace_path

    def after_op(self, key, raw, seconds):
        proc, trace_path = raw
        if trace_path is not None and trace_path.exists():
            snap = json.loads(trace_path.read_text(encoding="utf-8"))
            snap.setdefault("times", {})["cli.process_wall_s"] = seconds
            self._traces.append(snap)
        outdir = self.outdir(key)
        files = {}
        if outdir.is_dir():
            files = {p.name: sha256(p.read_bytes()) for p in sorted(outdir.iterdir())}
        return {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr[-2000:], "files": files}

    def take_traces(self):
        traces, self._traces = self._traces, []
        return traces

    def _reference(self):
        """In-process results for every input, from the library itself."""
        bl = self.bl
        params = bl.ExperimentParams()
        ref = {}
        for n, (path, prices, forecasts) in self.series.items():
            series = bl.PriceSeries(0, tuple(prices))
            excess = bl.excess_series(series, params)
            ref[n] = {
                "series": series,
                "grids": {m: bl.sweep(excess, m) for m in ("price", "return")},
                "verdict": bl.classify_series(series, params),
            }
        return ref

    def _check_outputs(self, key, ref):
        """Compare the files of one command against the reference."""
        cmd, n = key
        path, prices, forecasts = self.series[n]
        r = ref[n]
        out = self.outdir(key)
        bl = self.bl
        if cmd == "sweep":
            for model, name in (("price", "price_grid.csv"), ("return", "return_grid.csv")):
                msg = check_grid_csv(out / name, r["grids"][model], bl)
                if msg:
                    return msg
            want = {"input": str(path), "t0": 0, "n": n}
            for model, grid in r["grids"].items():
                want[model] = bl.grid_summary(grid)
            got = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))
            return compare(json.loads(json.dumps(want)), got, "sweep_summary")
        if cmd == "classify":
            verdict = r["verdict"]
            got = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
            msg = compare(json.loads(verdict.to_json()), got, "verdict")
            if msg:
                return msg
            stdout = self._first[key]["stdout"].strip().splitlines()
            if not stdout or stdout[-1] != verdict.summary_line():
                return "classify summary line differs from the reference"
            return None
        # plotdata
        for model, name in (("price", "plot_price_grid.csv"),
                            ("return", "plot_return_grid.csv")):
            msg = check_grid_csv(out / name, r["grids"][model], bl)
            if msg:
                return msg
        rows = _read_rows(out / "plot_prices.csv")
        if rows[0] != ["t", "price"] or len(rows) != n + 1 or any(
            int(row[0]) != t or not close(float(row[1]), prices[t])
            for t, row in enumerate(rows[1:])
        ):
            return "plot_prices.csv differs from the input series"
        rows = _read_rows(out / "plot_forecasts.csv")
        if len(rows) != n + 1 or any(
            not close(float(row[h + 1]), forecasts[h][t])
            for t, row in enumerate(rows[1:]) for h in range(len(forecasts))
        ):
            return "plot_forecasts.csv differs from the input forecasts"
        rows = _read_rows(out / "plot_returns.csv")
        rets = [prices[i + 1] / prices[i] - 1.0 for i in range(n - 1)]
        if len(rows) != n - 1:
            return f"plot_returns.csv has {len(rows) - 1} rows"
        for i, row in enumerate(rows[1:]):
            if int(row[0]) != i + 1 or not (
                close(float(row[1]), rets[i]) and close(float(row[2]), rets[i + 1])
                and row[3] == row[1]
            ):
                return f"plot_returns.csv row {i + 1} differs from the returns"
        return None

    def _shape(self, key, ref):
        """What the default-seed golden record pins for one command:
        labels, windows, cell counts and error kinds, no floats."""
        cmd, n = key
        r = ref[n]
        shape = {"input_sha256": sha256(self.series[n][0].read_bytes())}
        if cmd == "classify":
            v = json.loads(r["verdict"].to_json())
            shape.update(label=v["label"], bubble_window=v["bubble_window"])
            for model in ("price", "return"):
                grid = v[f"{model}_grid"]
                shape[model] = _grid_shape(grid) if grid else None
        else:
            for model, grid in r["grids"].items():
                shape[model] = _grid_shape(json.loads(json.dumps(self.bl.grid_summary(grid))))
        return shape

    def finish(self, ops):
        golden = self.expected
        for key, rec in ops:
            if rec is not None:
                self._first.setdefault(key, rec)
        ref = self._reference()
        self._ref = ref
        self._cells = {}
        for key in self.keys:
            cmd, n = key
            if cmd == "classify":
                v = ref[n]["verdict"]
                grids = [g for g in (v.price_grid, v.return_grid) if g]
            else:
                grids = ref[n]["grids"].values()
            self._cells[key] = sum(len(g.cells) for g in grids)
        detail = {}
        for key, rec in self._first.items():
            if rec["returncode"] != 0:
                continue
            msg = unreadable_as_failure(self._check_outputs, key, ref)
            if msg is None and golden is not None:
                msg = compare(golden[f"{key[0]}-N{key[1]}"], self._shape(key, ref), "golden")
            detail[key] = msg
        failures = []
        for key, rec in ops:
            if rec is None:
                failures.append("raised")
            elif rec["returncode"] != 0:
                failures.append(f"exit code {rec['returncode']}: {rec['stderr'].strip()}")
            elif rec["files"] != self._first[key]["files"] or rec["stdout"] != self._first[key]["stdout"]:
                failures.append("repeat of the same command gave different output")
            else:
                failures.append(detail.get(key))
        return failures, []

    def items_of(self, key, rec):
        return self._cells[key]

    def kind(self, key):
        return f"{key[0]}-N{key[1]}"

    def golden(self):
        return {f"{k[0]}-N{k[1]}": self._shape(k, self._ref) for k in self.keys}


WORKLOADS = {w.name: w for w in (PowerStudy, CliCalibration, MarketSim)}
