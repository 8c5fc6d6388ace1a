"""Deterministic, seedable simulation of the experimental asset market.

Each period t the forecasting agents submit a price prediction for t+1
knowing only prices up to t-1 (the experiment's two-period information
lag), the market clears at the discounted average of those predictions
plus the dividend, and agents are paid by a quadratic scoring rule once
the predicted price is realized.

A run is strictly sequential (period t depends on t-1); independent runs
with different configs or seeds share no state and may execute
concurrently.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

from .errors import InsufficientHistory, InvalidConfig
from .series import ExperimentParams, PriceSeries, _check_int, write_csv

FUNDAMENTALIST = "fundamentalist"
RATIONAL_BUBBLE = "rational_bubble"
PRICE_ANCHOR = "price_anchor"
RETURN_ANCHOR = "return_anchor"
NAIVE = "naive"
NOISE = "noise"

_KINDS = (FUNDAMENTALIST, RATIONAL_BUBBLE, PRICE_ANCHOR, RETURN_ANCHOR, NAIVE, NOISE)

# Identifier of the pseudo-random source, stored in run metadata so a
# result can be reproduced by any implementation of the same generator.
RNG_ALGORITHM = "python-random-mt19937"


@dataclass(frozen=True)
class AgentSpec:
    """One forecasting rule and its parameters.

    ``rate``/``scale``/``anchor`` parameterize the constant-growth rule,
    ``a``/``b`` the two feedback rules (base log-growth and feedback
    coefficient), ``sigma`` the dispersion of the noise rule.
    """

    kind: str
    rate: float = 0.0
    scale: float = 0.0
    anchor: float = 0.0
    a: float = 0.0
    b: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidConfig(f"unknown agent kind {self.kind!r}")
        for name in ("rate", "scale", "anchor", "a", "b", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"agent parameter {name} must be finite")
        if self.sigma < 0:
            raise InvalidConfig(f"noise std-dev must be non-negative, got {self.sigma}")

    @staticmethod
    def fundamentalist() -> "AgentSpec":
        return AgentSpec(FUNDAMENTALIST)

    @staticmethod
    def rational_bubble(rate: float, scale: float, anchor: float) -> "AgentSpec":
        return AgentSpec(RATIONAL_BUBBLE, rate=rate, scale=scale, anchor=anchor)

    @staticmethod
    def price_anchor(a: float, b: float) -> "AgentSpec":
        return AgentSpec(PRICE_ANCHOR, a=a, b=b)

    @staticmethod
    def return_anchor(a: float, b: float) -> "AgentSpec":
        return AgentSpec(RETURN_ANCHOR, a=a, b=b)

    @staticmethod
    def naive() -> "AgentSpec":
        return AgentSpec(NAIVE)

    @staticmethod
    def noise(sigma: float) -> "AgentSpec":
        return AgentSpec(NOISE, sigma=sigma)

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == RATIONAL_BUBBLE:
            d.update(rate=self.rate, scale=self.scale, anchor=self.anchor)
        elif self.kind in (PRICE_ANCHOR, RETURN_ANCHOR):
            d.update(a=self.a, b=self.b)
        elif self.kind == NOISE:
            d.update(sigma=self.sigma)
        return d


# Quadratic scoring rule: full marks for a perfect forecast, zero once
# the error reaches seven monetary units.
MAX_PAYOFF = 1300.0
PAYOFF_SCALE = 1300.0 / 49.0


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one market run bit-for-bit."""

    params: ExperimentParams
    agents: Tuple[AgentSpec, ...]
    horizon: int
    seed: int = 0
    return_noise_sigma: float = 0.0
    mistrade_prob: float = 0.0
    initial_prices: Tuple[float, float] = (60.0, 60.0)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "initial_prices", tuple(self.initial_prices))
        _check_int("horizon", self.horizon)
        if self.horizon < 1:
            raise InvalidConfig(f"horizon must be at least 1, got {self.horizon}")
        if len(self.agents) != self.params.n_traders:
            raise InvalidConfig(
                f"need {self.params.n_traders} agents, got {len(self.agents)}"
            )
        if not 0.0 <= self.mistrade_prob <= 1.0:
            raise InvalidConfig(
                f"mis-trade probability must lie in [0, 1], got {self.mistrade_prob}"
            )
        if not (math.isfinite(self.return_noise_sigma) and self.return_noise_sigma >= 0):
            raise InvalidConfig(
                "forecast noise std-dev must be finite and non-negative, "
                f"got {self.return_noise_sigma}"
            )
        _check_int("seed", self.seed)
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in 64 bits")
        if len(self.initial_prices) != 2:
            raise InvalidConfig("exactly two seed prices are required")
        for p in self.initial_prices:
            if not (self.params.p_min <= p <= self.params.p_max):
                raise InvalidConfig(f"seed price {p} outside the admissible band")


@dataclass(frozen=True)
class SimResult:
    """Simulated prices with the forecasts and payoffs behind them.

    ``forecasts[h][i]`` is trader h's prediction for period t0+i+1,
    submitted at period t0+i and used to form prices[i].  ``payoffs``
    has the same shape, shifted by the one-period scoring lag: the entry
    for the final period is None because its target price is never
    realized inside the run.
    """

    prices: PriceSeries
    forecasts: Tuple[Tuple[float, ...], ...]
    payoffs: Tuple[Tuple[Optional[float], ...], ...]
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The result as one JSON object with keys metadata, t0, prices,
        forecasts and payoffs, byte for byte as ``json.dumps(..., indent=2)``
        lays it out.

        ``metadata`` and ``t0`` go through ``json.dumps(indent=2)``; the
        price, forecast and payoff lists go through ``_json_array``, which
        lets the C encoder write their numbers.
        """
        head = json.dumps({"metadata": self.metadata, "t0": self.prices.t0}, indent=2)
        return "".join([
            head[:-2],  # reopen the object: drop its closing "\n}"
            ',\n  "prices": ', _json_array(self.prices.values, 1),
            ',\n  "forecasts": ', _json_table(self.forecasts),
            ',\n  "payoffs": ', _json_table(self.payoffs),
            "\n}",
        ])

    def write_csv(self, path) -> None:
        write_csv(path, self.prices, forecasts=self.forecasts)


def _json_array(values, depth: int) -> str:
    """A flat list of JSON scalars, laid out as ``json.dumps(indent=2)``
    lays it out ``depth`` levels deep.

    CPython before 3.13 uses its C encoder only when ``indent is None``
    (``JSONEncoder.iterencode``), so an indented dump encodes every float
    in Python.  Here the C encoder joins the items, and the newline and
    indentation ride in its item separator.
    """
    if not values:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    items = json.dumps(values, separators=("," + inner, ": "))
    return "[" + inner + items[1:-1] + "\n" + "  " * depth + "]"


def _json_table(rows) -> str:
    """A list of flat lists at depth 1, as ``json.dumps(indent=2)`` lays it out."""
    if not rows:
        return "[]"
    return "[\n    " + ",\n    ".join(_json_array(row, 2) for row in rows) + "\n  ]"


def clearing_price(forecasts: Sequence[float], params: ExperimentParams) -> float:
    """Market price: discounted average of the traders' predictions plus
    dividend, clipped to the admissible band (clipping is vacuous when
    the forecasts themselves respect the band: a mean that rounds past
    the band is clipped back into the forecasts' range).  Forecasts without a mean
    (a NaN, or both infinities) raise InvalidConfig."""
    n = len(forecasts)
    if n != params.n_traders:
        raise InvalidConfig(f"expected {params.n_traders} forecasts, got {n}")
    try:
        mean = math.fsum(forecasts) / n
    except OverflowError:  # the exact sum leaves the float range; the mean cannot
        k = n.bit_length()  # 2**k > n, so the sum scaled by 2**-k stays in range
        mean = math.ldexp(math.fsum(math.ldexp(f, -k) for f in forecasts) / n, k)
    except ValueError:  # -inf + inf
        mean = math.nan
    if math.isnan(mean):
        raise InvalidConfig(f"forecasts have no mean: {list(forecasts)}")
    if not params.p_min <= mean <= params.p_max:
        # the rounded mean of forecasts inside the band can land an ulp past them
        mean = min(max(mean, min(forecasts)), max(forecasts))
    raw = (mean + params.dividend) / (1.0 + params.r)
    return params.clamp(raw)


def score_forecast(realized: float, forecast: float) -> float:
    """Points earned for a forecast once the target price is realized."""
    err = realized - forecast
    return max(MAX_PAYOFF - PAYOFF_SCALE * err * err, 0.0)


def inject_mistrade(
    forecast: float,
    rng: random.Random,
    prob: float,
    params: ExperimentParams,
) -> float:
    """With probability ``prob`` shift the decimal point one place
    (x10 or x0.1, equiprobable), then clip to the admissible band."""
    if not 0.0 <= prob <= 1.0:
        raise InvalidConfig(f"probability must lie in [0, 1], got {prob}")
    if prob == 0.0:
        return forecast
    if rng.random() >= prob:
        return forecast
    factor = 10.0 if rng.random() < 0.5 else 0.1
    return params.clamp(forecast * factor)


def _exp(x: float) -> float:
    """``math.exp``, with +inf past the float range instead of OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def agent_forecast(
    spec: AgentSpec,
    history: PriceSeries,
    params: ExperimentParams,
    rng: Optional[random.Random] = None,
) -> float:
    """Forecast for period t+1 given prices up to t-1.

    The model-based rules extrapolate their one-step growth twice, with
    the feedback term frozen at the last observed state; the feedback
    rules drop back to the fundamental price whenever the excess prices
    they need are not strictly positive, and so does return anchoring
    whose extrapolation is undefined (a negative feedback on a growth
    ratio past the float range).  The result is clipped to the admissible
    band, so an extrapolation past the float range gives the band edge it
    points to.
    """
    pf = params.fundamental
    target = history.t_end + 2  # the period being predicted

    if spec.kind == FUNDAMENTALIST:
        raw = pf
    elif spec.kind == NOISE:
        if spec.sigma > 0 and rng is None:
            raise InvalidConfig("noise agents need a random source")
        draw = rng.gauss(0.0, spec.sigma) if spec.sigma > 0 else 0.0
        raw = pf + draw
    elif spec.kind == RATIONAL_BUBBLE:
        try:
            raw = spec.scale * (1.0 + spec.rate) ** target + spec.anchor
        except OverflowError:  # |1 + rate| > 1; a negative base alternates in sign
            growth = math.inf if spec.rate > 0 or target % 2 == 0 else -math.inf
            raw = spec.scale * growth + spec.anchor if spec.scale else spec.anchor
    elif spec.kind == NAIVE:
        if len(history) < 2:
            raise InsufficientHistory("naive rule needs two past prices")
        raw = history.values[-1]
    elif spec.kind == PRICE_ANCHOR:
        if len(history) < 1:
            raise InsufficientHistory("price anchoring needs one past price")
        excess = history.values[-1] - pf
        if excess > 0:
            raw = pf + excess * _exp(2.0 * (spec.a + spec.b * excess))
        else:
            raw = pf
    elif spec.kind == RETURN_ANCHOR:
        if len(history) < 2:
            raise InsufficientHistory("return anchoring needs two past prices")
        exc_prev = history.values[-2] - pf
        exc_last = history.values[-1] - pf
        if exc_prev > 0 and exc_last > 0:
            ratio = exc_last / exc_prev  # may overflow to inf or underflow to 0
            g = math.log(ratio) if ratio > 0 else -math.inf
            if spec.b == 0:  # no feedback; b * g would be 0 * inf for infinite g
                g1 = g2 = spec.a
            else:
                g1 = spec.a + spec.b * g
                g2 = spec.a + spec.b * g1
            total = g1 + g2  # inf - inf when b < 0 meets infinite growth
            raw = pf if math.isnan(total) else pf + exc_last * _exp(total)
        else:
            raw = pf
    else:  # pragma: no cover - guarded by AgentSpec validation
        raise InvalidConfig(f"unknown agent kind {spec.kind!r}")

    return params.clamp(raw)


def run(config: SimConfig) -> SimResult:
    """Simulate ``horizon`` periods, returning prices at t = 0..horizon-1.

    The two seed prices occupy periods -2 and -1; every output price is
    formed by the clearing equation.  Identical configs (seed included)
    produce bit-identical results, and when both noise channels are off
    the random source is never consulted at all.

    Traders whose deterministic rules are identical (equal ``repr``, so
    ``0.0`` and ``-0.0`` parameters stay apart) share one evaluation of
    the rule per period.  Noise traders evaluate their own, and forecast
    noise and mis-trades are applied trader by trader, so the random
    source is read in trader order as if every rule ran.
    """
    params = config.params
    rng = random.Random(config.seed)
    lo = (params.p_min + params.dividend) / (1.0 + params.r)
    hi = (params.p_max + params.dividend) / (1.0 + params.r)

    noise_sigma, mistrade_prob = config.return_noise_sigma, config.mistrade_prob

    last_two = config.initial_prices
    # the first trader with the same rule; a noise rule draws, so it is its own
    first = {}
    source = [
        h if spec.kind == NOISE else first.setdefault(repr(spec), h)
        for h, spec in enumerate(config.agents)
    ]
    forecasts: List[List[float]] = [[] for _ in config.agents]
    prices: List[float] = []

    for i in range(config.horizon):
        # every rule reads at most the last two prices, ending at t = i - 1
        past = PriceSeries(i - 2, last_two)
        rule_forecasts = []
        period_forecasts = []
        for h, spec in enumerate(config.agents):
            s = source[h]
            f = rule_forecasts[s] if s < h else agent_forecast(spec, past, params, rng)
            rule_forecasts.append(f)
            if noise_sigma > 0 and f > 0:
                f = params.clamp(f * _exp(rng.gauss(0.0, noise_sigma)))
            f = inject_mistrade(f, rng, mistrade_prob, params)
            forecasts[h].append(f)
            period_forecasts.append(f)
        p = clearing_price(period_forecasts, params)
        if not (lo - 1e-9 <= p <= hi + 1e-9):
            raise AssertionError(
                f"clearing price {p} escaped [{lo}, {hi}] at period {i}"
            )
        prices.append(p)
        last_two = (last_two[1], p)

    # the last forecast's target price is never realized in-run
    payoffs = [[*map(score_forecast, prices[1:], row), None] for row in forecasts]

    metadata = {
        "rng_algorithm": RNG_ALGORITHM,
        "seed": config.seed,
        "horizon": config.horizon,
        "return_noise_sigma": config.return_noise_sigma,
        "mistrade_prob": config.mistrade_prob,
        "initial_prices": list(config.initial_prices),
        "params": asdict(params),
        "agents": [spec.describe() for spec in config.agents],
    }
    return SimResult(
        prices=PriceSeries(0, tuple(prices)),
        forecasts=tuple(tuple(row) for row in forecasts),
        payoffs=tuple(tuple(row) for row in payoffs),
        metadata=metadata,
    )
