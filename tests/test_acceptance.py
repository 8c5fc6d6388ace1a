"""Acceptance gate: every shipped-behavior criterion at its stated
tolerance, one visible pass/fail line per criterion.

Lines go to the real stdout so they show up in a normal pytest run.
"""

import json
import math
import random
import time

import pytest

from bubblelab import (
    ExperimentParams,
    AgentSpec,
    GrowthModel,
    PriceSeries,
    SimConfig,
    Window,
    clearing_price,
    discrete_returns,
    fit_price_model,
    fit_rational_bubble,
    fit_return_model,
    fundamental_price,
    iterate,
    iterate_noisy,
    ols2,
    run,
    sweep,
    t_quantile,
    triangular_cell_count,
)
from bubblelab.cli import main as cli_main

import _power_golden
from _expected import TABLE2_EXPECTED
from _oracles import brute_force_ols, t_quantile_bisect

PARAMS = ExperimentParams()

# one line per criterion; conftest prints these in the terminal summary
RESULTS = []


def _report(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    note = f" ({extra})" if extra else ""
    line = f"ACCEPTANCE {num} {status}: {desc}{note}"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num} failed: {desc} {extra}"


def test_criterion_1_table_reproduction(tmp_path):
    start = time.perf_counter()
    assert cli_main(["table2", "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "table2.csv").read_text().strip().split("\n")
    elapsed = time.perf_counter() - start

    ok = len(lines) == 25
    for line, (t, exp_ref, exp_pct, fb_ref, fb_pct) in zip(lines[1:], TABLE2_EXPECTED):
        ts, e, pe, f, pf = line.split(",")
        ok &= int(ts) == t
        ok &= abs(float(e) - float(exp_ref)) <= 0.005 and e == exp_ref
        ok &= abs(float(f) - float(fb_ref)) <= 0.005 and f == fb_ref
        ok &= pe == ("" if exp_pct is None else str(exp_pct))
        ok &= pf == ("" if fb_pct is None else str(fb_pct))
    # the spotlighted rows
    ok &= lines[2].startswith("1,66.00,10,65.79,10")
    ok &= lines[11] == "10,155.62,10,156.21,11"
    ok &= lines[24] == "23,537.26,10,738.87,16"
    ok &= elapsed < 1.0
    _report(1, "comparison table matches all 24 reference rows at 2dp / whole %",
            ok, f"{elapsed:.2f}s")


def test_criterion_2_clearing_anchors():
    exact_sixty = clearing_price([60.0] * 6, PARAMS) == 60.0
    deflated = abs(clearing_price([1000.0] * 6, PARAMS) - 955.238095) <= 1e-6
    fundamental = fundamental_price(ExperimentParams(r=0.05, dividend=3.00)) == 60.0
    _report(2, "clearing equation anchors (60 exact, 955.238095, fundamental 60)",
            exact_sixty and deflated and fundamental)


def test_criterion_3_rational_bubble_self_confirmation():
    agents = tuple(AgentSpec.rational_bubble(rate=0.05, scale=5.0, anchor=60.0)
                   for _ in range(6))
    result = run(SimConfig(params=PARAMS, agents=agents, horizon=50,
                           initial_prices=(65.0, 65.25)))
    worst = max(
        abs(p - (60.0 + 5.0 * 1.05**t)) for t, p in enumerate(result.prices.values)
    )
    _report(3, "homogeneous constant-rate group self-confirms over 50 periods",
            worst < 1e-9, f"max deviation {worst:.2e}")


def test_criterion_4_noise_free_parameter_recovery():
    price_fit = fit_price_model(
        iterate(GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23),
        Window(0, 23),
    )
    ok_price = (abs(price_fit.a - math.log(1.09)) < 1e-10
                and abs(price_fit.b - 1e-4) < 1e-10)

    return_fit = fit_return_model(
        iterate(GrowthModel.return_feedback(0.01, 0.5, initial_log_return=0.05), 23),
        Window(0, 23),
    )
    ok_return = (abs(return_fit.a - 0.01) < 1e-10
                 and abs(return_fit.b - 0.5) < 1e-10)

    prices = PriceSeries(0, tuple(60.0 + 5.0 * 1.05**t for t in range(16)))
    rb = fit_rational_bubble(prices, Window(0, 15), anchor=60.0)
    ok_rational = abs(rb.rate - 0.05) < 1e-9

    _report(4, "all three models recover their own generating parameters",
            ok_price and ok_return and ok_rational)


def test_criterion_5_statistical_machinery():
    start = time.perf_counter()
    q = t_quantile(0.975, 2)
    ok_quantile = (abs(q - 4.30265273) <= 1e-6
                   and abs(q - t_quantile_bisect(0.975, 2)) <= 1e-6)

    rng = random.Random(42)
    ok_ols = True
    for _ in range(100):
        n = rng.randint(5, 15)
        a_true, b_true = rng.uniform(-3, 3), rng.uniform(-2, 2)
        xs = [rng.gauss(0.0, 2.0) for _ in range(n)]
        ys = [a_true + b_true * x + rng.gauss(0.0, 0.5) for x in xs]
        fit = ols2(xs, ys)
        a_ref, b_ref = brute_force_ols(xs, ys)
        ok_ols &= abs(fit.a - a_ref) <= 1e-6 and abs(fit.b - b_ref) <= 1e-6

    cov_rng = random.Random(777)
    n, trials, covered, b_true = 12, 10000, 0, 1.3
    xs = [cov_rng.gauss(0.0, 1.5) for _ in range(n)]
    for _ in range(trials):
        ys = [0.7 + b_true * x + cov_rng.gauss(0.0, 1.0) for x in xs]
        fit = ols2(xs, ys)
        tq = t_quantile(0.975, fit.df)
        if fit.b - tq * fit.se_b <= b_true <= fit.b + tq * fit.se_b:
            covered += 1
    coverage = covered / trials
    ok_coverage = abs(coverage - 0.95) <= 0.01

    elapsed = time.perf_counter() - start
    _report(5, "t-quantile, OLS-vs-brute-force, and 95% slope coverage",
            ok_quantile and ok_ols and ok_coverage and elapsed < 30.0,
            f"coverage {coverage:.4f}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def power_study():
    """Criterion 6's 3 x 1000 seeded classifications, made once for the
    criterion and its golden: each scenario's records by seed, and the
    seconds they took."""
    start = time.perf_counter()
    records = _power_golden.classify_all()
    return records, time.perf_counter() - start


def test_criterion_6_power_and_false_positives(power_study):
    records, elapsed = power_study

    def rate(scenario, label):
        return sum(rec[0] == label for rec in records[scenario]) / _power_golden.SEEDS

    price_rate = rate("price_feedback", "anchoring_on_price")
    return_rate = rate("return_feedback", "anchoring_on_return")
    exp_rate = rate("exponential", "rational_exponential")
    ok = (price_rate >= 0.90 and return_rate >= 0.80 and exp_rate >= 0.95
          and elapsed < 120.0)
    _report(6, "classification power and false-positive control over 1000 seeds each",
            ok,
            f"price {price_rate:.3f} (>=0.90), return {return_rate:.3f} (>=0.80), "
            f"exponential {exp_rate:.3f} (>=0.95), {elapsed:.0f}s")


def test_power_study_verdicts_match_their_golden(power_study):
    # the rates above leave room for dozens of verdicts to move; this pins
    # each one (regenerate with tests/_power_golden.py)
    records, _ = power_study
    golden = json.loads(_power_golden.GOLDEN.read_text())
    differences = _power_golden.differences(records, golden)
    assert not differences, "\n".join(differences)


def test_criterion_7_sweep_structure():
    excess = iterate_noisy(
        GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 26, 0.01, seed=12
    )
    grid = sweep(excess, "price", Window(7, 26))
    ok_count = (grid.n_valid() == 136
                and triangular_cell_count(20, 5) == 136)

    ok_recompute = all(
        fit_price_model(excess, Window(s, e)) == cell
        for (s, e), cell in grid.valid_items()
    )

    ok_perturb = True
    from bubblelab import ExcessSeries

    for (s, e) in ((7, 12), (10, 26), (15, 22)):
        vals = [v * 3.0 + 11.0 if not s <= i <= e else v
                for i, v in enumerate(excess.values)]
        cell = fit_price_model(ExcessSeries(0, tuple(vals)), Window(s, e))
        ok_perturb &= cell == grid.cells[(s, e)]

    _report(7, "triangular cell count and bit-identical cell independence",
            ok_count and ok_recompute and ok_perturb)


def test_criterion_8_diagonal_diagnostic():
    feedback = iterate(GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23)
    fb_returns = discrete_returns(feedback).values
    above = all(fb_returns[i + 1] > fb_returns[i] for i in range(len(fb_returns) - 1))

    exponential = iterate(GrowthModel.exponential(math.log(1.1), 60.0), 23)
    ex_returns = discrete_returns(exponential).values
    on_diag = all(
        abs(ex_returns[i + 1] - ex_returns[i]) < 1e-12
        for i in range(len(ex_returns) - 1)
    )
    _report(8, "feedback returns accelerate above the diagonal, exponential sits on it",
            above and on_diag)
