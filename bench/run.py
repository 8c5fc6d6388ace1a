"""bubblelab benchmark harness (standard library only).

    python3 bench/run.py --workload power_study --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another

Runs one workload as a single closed-loop client: the next operation
starts when the previous one has returned.  Operations come in fixed
cycles (see workloads.py) and only whole cycles run, so every run has
the same mix of operations.  Every output is checked after the timed
loop.  Human-readable lines go first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The run is
pinned to one CPU.

--trace 0  end-to-end metrics, measured with tracing off; timings are
           scaled by a reference computation timed between operations
           (see REFERENCE_NOMINAL_S).
--trace 1  per-layer metrics: cycles run alternately untraced and
           traced, the traced ones with every module's public functions
           wrapped (layer_trace.py), then the baseline cases
           (baseline.py).  The difference between the two kinds of cycle
           is the tracing overhead.

Run it from the root of a source checkout; the package is taken from
./src, no installation needed.  Scratch files go to .bench_work/ and are
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

# The CPU speed of a shared host swings by up to 2x from second to second,
# which a fixed pure-Python loop shows on its own and which moves whole runs
# far more than the bounds in BENCHMARK.json allow.  So a fixed reference
# computation, independent of bubblelab, is timed between operations, and
# every end-to-end timing is rescaled to the speed at which the reference
# takes REFERENCE_NOMINAL_S (its time on a 2-CPU x86_64 VM at full speed).
REFERENCE_NOMINAL_S = 0.00055
_REF_X = [1.0 + 0.37 * i for i in range(40)]
_REF_Y = [0.5 * math.log(x) + 0.01 * (i % 7) for i, x in enumerate(_REF_X)]


def reference_seconds(reps):
    """Wall times of ``reps`` runs of the reference computation: 40
    least-squares lines through 40 points, with fsum."""
    out = []
    xs, ys, n = _REF_X, _REF_Y, len(_REF_X)
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(40):
            mx, my = math.fsum(xs) / n, math.fsum(ys) / n
            sxx = math.fsum((x - mx) ** 2 for x in xs)
            b = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
            math.fsum((y - my - b * (x - mx)) ** 2 for x, y in zip(xs, ys))
        out.append(time.perf_counter() - t0)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("power_study", "cli_calibration", "market_sim", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="make the workload's inputs, warm up and exit (times set-up)")
    p.add_argument("--write-golden", action="store_true",
                   help="record this run's default-seed outputs in golden.json")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    key: tuple
    seconds: float
    record: Optional[dict]  # what after_op kept of the result; None if it raised
    error: Optional[str]


def pin_to_one_cpu():
    """Keep this process and the ones it starts on the CPU it runs on now,
    so that the reference and every operation share one CPU's speed."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, processor
    os.sched_setaffinity(0, {cpu})


def run_cycles(workload, first_cycle, n_cycles, ops, refs=None):
    """Run whole cycles, appending one Op per operation; return the wall
    time of the cycles, operations only.  With ``refs``, the reference is
    timed ``workload.ref_reps`` times after each operation."""
    busy = 0.0
    for c in range(first_cycle, first_cycle + n_cycles):
        for key, thunk in workload.cycle(c):
            t0 = time.perf_counter()
            try:
                raw = thunk()
            except Exception as exc:  # an operation that raises is a failed op
                seconds = time.perf_counter() - t0
                ops.append(Op(key, seconds, None, f"{type(exc).__name__}: {exc}"))
            else:
                seconds = time.perf_counter() - t0
                ops.append(Op(key, seconds, workload.after_op(key, raw, seconds), None))
            busy += seconds
            if refs is not None:
                refs.extend(reference_seconds(workload.ref_reps))
    return busy


def measure_setup(workload_name, seed):
    """Median wall time of a fresh interpreter that imports the package,
    makes the workload's inputs and warms up; and the median time of the
    reference taken between the set-ups."""
    times, refs = [], []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        refs.extend(reference_seconds(10))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times), statistics.median(refs)


def by_kind(workload, ops):
    """Latencies in ms grouped by kind of operation."""
    groups = {}
    for op in ops:
        groups.setdefault(workload.kind(op.key), []).append(op.seconds * 1e3)
    return groups


def check(workload, ops):
    """Per-op failures (None when the op passed) and workload messages."""
    failures, messages = workload.finish([(op.key, op.record) for op in ops])
    failures = [op.error or msg for op, msg in zip(ops, failures)]
    return failures, messages


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(workload, bl, args, out):
    setup_raw, setup_ref = measure_setup(workload.name, args.seed)
    workload.warmup()
    ops, refs = [], []
    t_start = time.perf_counter()
    cycles = 0
    while cycles < workload.min_cycles or time.perf_counter() - t_start < args.seconds:
        run_cycles(workload, cycles, 1, ops, refs)
        cycles += 1
    rss_who = resource.RUSAGE_CHILDREN if workload.name == "cli_calibration" \
        else resource.RUSAGE_SELF
    rss = peak_rss_mb(rss_who)

    failures, messages = check(workload, ops)
    # speed factors: raw time x factor = time at the nominal reference speed
    average = statistics.fmean if workload.reference_stat == "mean" else statistics.median
    ref = average(refs)
    speed = REFERENCE_NOMINAL_S / ref
    setup_speed = REFERENCE_NOMINAL_S / setup_ref
    groups = by_kind(workload, ops)
    kinds = {kind: statistics.median(v) for kind, v in groups.items()}
    lines = [f"  reference {workload.reference_stat} {ref * 1e3:.4f} ms over {len(refs)} runs "
             f"(set-up {setup_ref * 1e3:.4f} ms); timings below are scaled "
             f"to {REFERENCE_NOMINAL_S * 1e3} ms"]
    lines += [f"  op {kind:<24} n={len(v):<6} p50 {kinds[kind]:10.4f} ms raw"
              for kind, v in groups.items()]
    # Rates use each kind's median latency, so a stall of the machine in a
    # few operations does not swing them; each op counts at its kind's p50.
    typical_s = sum(len(v) * kinds[kind] for kind, v in groups.items()) / 1e3 * speed
    items = sum(workload.items_of(op.key, op.record) for op in ops if op.record is not None)
    p50 = statistics.median(kinds.values())
    slowest = max(kinds, key=kinds.get)
    n = len(ops)
    failed = sum(1 for f in failures if f)
    metrics = {
        "setup_s": (setup_raw * setup_speed, "s",
                    f"median of {SETUP_REPEATS} set-ups, raw {setup_raw:.4f} s"),
        "ops_per_s": (n / typical_s, "1/s", f"{n} ops in {cycles} cycles, at kind p50"),
        "latency_p50_ms": (p50 * speed, "ms",
                           f"median over {len(kinds)} kinds of op of their p50, "
                           f"raw {p50:.4f} ms"),
        "latency_tail_ms": (kinds[slowest] * speed, "ms",
                            f"p50 of the slowest kind, {slowest}, "
                            f"raw {kinds[slowest]:.4f} ms"),
        "items_per_s": (items / typical_s, "1/s",
                        f"{workload.items}, {items} in {n} ops, at kind p50"),
        "ok_ops_ratio": ((n - failed) / n, "ratio", f"{n - failed} of {n} ops"),
        "peak_rss_mb": (rss, "MB", "peak resident set of the "
                        + ("CLI processes" if rss_who == resource.RUSAGE_CHILDREN
                           else "benchmark process")),
    }
    return ops, failures, messages, metrics, lines


def _median_snapshot(snaps):
    """Counts from the first traced cycle, times as medians over cycles."""
    out = {"spans": {}, "counts": dict(snaps[0]["counts"]), "times": {}}
    for name, first in snaps[0]["spans"].items():
        out["spans"][name] = [
            first[0],
            statistics.median(s["spans"][name][1] for s in snaps),
            statistics.median(s["spans"][name][2] for s in snaps),
        ]
    for name in snaps[0]["times"]:
        out["times"][name] = statistics.median(s["times"][name] for s in snaps)
    return out


def per_layer(workload, bl, args, out):
    from baseline import Baseline
    from layer_trace import Tracer, merge

    workload.warmup()
    ops, snaps, untraced, traced, refs = [], [], [], [], []
    t_start = time.perf_counter()
    cycle = 0
    k = workload.trace_cycles
    messages = []
    while (not snaps or cycle < workload.checked_cycles
           or time.perf_counter() - t_start < args.seconds):
        untraced.append(run_cycles(workload, cycle, k, ops))
        tracer = Tracer().install()
        workload.tracing = True
        try:
            traced.append(run_cycles(workload, cycle, k, ops))
        finally:
            workload.tracing = False
            tracer.uninstall()
        snap = tracer.snapshot()
        for child in getattr(workload, "take_traces", list)():
            merge(snap, child)
        snaps.append(snap)
        cycle += k
        refs.extend(reference_seconds(20))

    base = Baseline(bl, out, SRC)
    try:
        figures = base.measure()
        tracer = Tracer().install()
        base.tracing = True
        try:
            base.run_once()
        finally:
            tracer.uninstall()
        total = merge(_median_snapshot(snaps), tracer.snapshot())
        for path, wall in base.traces:
            child = json.loads(Path(path).read_text(encoding="utf-8"))
            child.setdefault("times", {})["cli.process_wall_s"] = wall
            merge(total, child)
    except Exception as exc:  # the baseline cases are checked outputs too
        messages.append(f"baseline cases: {type(exc).__name__}: {exc}")
        figures, total = {}, _median_snapshot(snaps)

    failures, more = check(workload, ops)
    overhead = (statistics.median(traced) - statistics.median(untraced)) \
        / statistics.median(untraced)
    metrics = layer_metrics(total, overhead, figures)
    metrics["machine.reference_ms"] = (statistics.median(refs) * 1e3, "ms", "")
    note = f"{len(snaps)} traced and {len(snaps)} untraced rounds"
    return ops, failures, messages + more, metrics, [f"  {note}"]


INVALID_KINDS = ("NonPositiveExcess", "TooFewPoints", "DegenerateRegressor")
LABELS = ("erratic", "too_short", "rational_exponential", "anchoring_on_price",
          "anchoring_on_return")


def layer_metrics(total, overhead, figures):
    spans, counts, times = total["spans"], total["counts"], total["times"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        s = spans.get(name, [0, 0.0, 0.0])
        return s[1] - s[2]

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts.get
    m = {}
    m["regression.ols2.calls"] = (calls("regression.ols2"), "count")
    m["regression.ols2.points"] = (c("regression.ols2.points", 0), "count")
    m["regression.ols2.busy_s"] = (busy("regression.ols2"), "s")
    m["regression.ols2.ns_per_point"] = (
        ratio(busy("regression.ols2") * 1e9, c("regression.ols2.points", 0)), "ns")
    cells = c("sweep.sweep.cells", 0)
    m["sweep.sweep.calls"] = (calls("sweep.sweep"), "count")
    m["sweep.sweep.cells"] = (cells, "count")
    m["sweep.sweep.busy_s"] = (busy("sweep.sweep"), "s")
    m["sweep.sweep.self_s"] = (self_s("sweep.sweep"), "s")
    m["sweep.sweep.us_per_cell"] = (ratio(busy("sweep.sweep") * 1e6, cells), "us")
    m["sweep.sweep.valid_ratio"] = (ratio(c("sweep.sweep.valid", 0), cells), "ratio")
    for kind in INVALID_KINDS:
        m[f"sweep.sweep.invalid.{kind}"] = (c(f"sweep.sweep.invalid.{kind}", 0), "count")
    hits, misses = c("studentt.t_quantile.hits", 0), c("studentt.t_quantile.misses", 0)
    m["studentt.t_quantile.calls"] = (calls("studentt.t_quantile"), "count")
    m["studentt.t_quantile.misses"] = (misses, "count")
    m["studentt.t_quantile.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    m["studentt.t_quantile.busy_s"] = (busy("studentt.t_quantile"), "s")
    m["sweep.grid_to_csv.busy_s"] = (busy("sweep.grid_to_csv"), "s")
    m["sweep.grid_to_csv.bytes"] = (c("sweep.grid_to_csv.bytes", 0), "bytes")
    m["sweep.grid_summary.busy_s"] = (busy("sweep.grid_summary"), "s")
    m["series.load_csv.busy_s"] = (busy("series.load_csv"), "s")
    m["series.load_csv.rows"] = (c("series.load_csv.rows", 0), "count")
    m["series.excess_series.busy_s"] = (busy("series.excess_series"), "s")
    m["series.write_csv.busy_s"] = (busy("series.write_csv"), "s")
    m["market.run.busy_s"] = (busy("market.run"), "s")
    m["market.run.self_s"] = (self_s("market.run"), "s")
    m["market.run.periods"] = (c("market.run.periods", 0), "count")
    for h in (50, 500, 2000):
        m[f"market.run.us_per_period.H{h}"] = (
            ratio(times.get(f"market.run.busy_s.H{h}", 0.0) * 1e6,
                  c(f"market.run.periods.H{h}", 0)), "us")
    m["market.agent_forecast.calls"] = (calls("market.agent_forecast"), "count")
    m["market.agent_forecast.busy_s"] = (busy("market.agent_forecast"), "s")
    m["market.clearing_price.busy_s"] = (busy("market.clearing_price"), "s")
    m["market.to_json.busy_s"] = (busy("market.to_json"), "s")
    m["market.to_json.bytes"] = (c("market.to_json.bytes", 0), "bytes")
    m["growth.iterate_noisy.busy_s"] = (busy("growth.iterate_noisy"), "s")
    m["growth.iterate_noisy.steps"] = (c("growth.iterate_noisy.steps", 0), "count")
    m["classify.classify_series.busy_s"] = (busy("classify.classify_series"), "s")
    m["classify.classify_series.self_s"] = (self_s("classify.classify_series"), "s")
    m["classify.detect_bubble_window.busy_s"] = (busy("classify.detect_bubble_window"), "s")
    for label in LABELS:
        m[f"classify.label.{label}"] = (c(f"classify.label.{label}", 0), "count")
    m["cli.main.busy_s"] = (busy("cli.main"), "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.process_s"] = (times.get("cli.process_wall_s", 0.0) - busy("cli.main"), "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m.update(figures)
    return {name: (value, unit, "") for name, (value, unit) in m.items()}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"({platform.machine()}, {platform.system()})")


def report(name, ops, failures, messages, metrics, lines):
    failed = sum(1 for f in failures if f)
    print(f"workload {name}: {len(ops)} ops, {failed} failed; {machine()}")
    for line in lines:
        print(line)
    shown = 0
    for op, msg in zip(ops, failures):
        if msg and shown < 5:
            print(f"  FAILED {op.key}: {msg}")
            shown += 1
    for msg in messages:
        print(f"  CHECK FAILED: {msg}")
    for metric, (value, unit, note_) in metrics.items():
        extra = f"  ({note_})" if note_ else ""
        print(f"  {metric:<42} {value:>16.6g} {unit}{extra}")
    result = {
        "correct": failed == 0 and not messages,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; merged result on the last line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("power_study", "cli_calibration", "market_sim"):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "bubblelab" / "__init__.py").is_file():
        print(f"error: no bubblelab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import bubblelab as bl
    from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS, load_golden

    if args.write_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden outputs are recorded for seed {DEFAULT_SEED} only",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](bl, args.seed, workdir, SRC)
        if args.seed == DEFAULT_SEED and not (args.write_golden or args.setup_only):
            workload.expected = load_golden(workload.name)
        if args.setup_only:
            workload.warmup()
            return 0
        measure = per_layer if args.trace else end_to_end
        ops, failures, messages, metrics, lines = measure(workload, bl, args, workdir)
        if args.write_golden and not (messages or any(failures)):
            golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) \
                if GOLDEN_PATH.exists() else {}
            golden[workload.name] = workload.golden()
            GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
        return report(workload.name, ops, failures, messages, metrics, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
