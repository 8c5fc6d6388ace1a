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

from .errors import InsufficientHistory, InvalidConfig, _text
from .series import (
    ExperimentParams,
    PriceSeries,
    _check_choice,
    _check_count,
    _check_finite,
    _check_int,
    _check_number,
    _normals,
    write_csv,
)

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
        _check_choice("agent kind", self.kind, _KINDS)
        for name in ("rate", "scale", "anchor", "a", "b", "sigma"):
            _check_finite(f"agent parameter {name}", getattr(self, name),
                          0 if name == "sigma" else None)

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
    """Everything needed to reproduce one market run bit-for-bit.

    ``initial_prices`` are the prices at t = -2 and -1: ints or floats
    (a bool is not a price) inside the band, stored as floats.
    ``mistrade_prob`` and ``return_noise_sigma`` are ints or floats too.
    """

    params: ExperimentParams
    agents: Tuple[AgentSpec, ...]
    horizon: int
    seed: int = 0
    return_noise_sigma: float = 0.0
    mistrade_prob: float = 0.0
    initial_prices: Tuple[float, float] = (60.0, 60.0)

    def __post_init__(self):
        for name in ("agents", "initial_prices"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise InvalidConfig(
                    f"{name} must be a sequence, got {_text(getattr(self, name), repr)}") from None
        _check_count("horizon", self.horizon, least=1)
        if len(self.agents) != self.params.n_traders:
            raise InvalidConfig(
                f"need {self.params.n_traders} agents, got {len(self.agents)}"
            )
        _check_finite("mis-trade probability", self.mistrade_prob, least=0, most=1)
        _check_finite("forecast noise std-dev", self.return_noise_sigma, least=0)
        _check_int("seed", self.seed)
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in 64 bits")
        if len(self.initial_prices) != 2:
            raise InvalidConfig("exactly two seed prices are required")
        for p in self.initial_prices:
            _check_number("seed price", p)
            if not (self.params.p_min <= p <= self.params.p_max):
                raise InvalidConfig(f"seed price {p} outside the admissible band")
        object.__setattr__(self, "initial_prices", tuple(map(float, self.initial_prices)))


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
        lets the C encoder write their numbers.  A forecast or payoff row
        that several traders hold as one object, as ``run`` shares twin
        traders' rows, is encoded once and its text repeated.
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
    """A list of flat lists at depth 1, as ``json.dumps(indent=2)`` lays it out.

    Each distinct row object is encoded once.  The memo is keyed by
    identity, never by ``==``: ``(0.0,) == (-0.0,)``, yet the two print
    differently.
    """
    if not rows:
        return "[]"
    text = {}
    for row in rows:
        if id(row) not in text:
            text[id(row)] = _json_array(row, 2)
    return "[\n    " + ",\n    ".join([text[id(row)] for row in rows]) + "\n  ]"


def clearing_price(forecasts: Sequence[float], params: ExperimentParams) -> float:
    """Market price: discounted average of the traders' predictions plus
    dividend, clipped to the admissible band (clipping is vacuous when
    the forecasts themselves respect the band: a mean that rounds past
    the band is clipped back into the forecasts' range).  Forecasts without a mean
    (a NaN, or both infinities) raise InvalidConfig, and so does a forecast
    that is no number or an int past the float range."""
    n = len(forecasts)
    if n != params.n_traders:
        raise InvalidConfig(f"expected {params.n_traders} forecasts, got {n}")
    try:
        mean = math.fsum(forecasts) / n
    except TypeError:  # a forecast that is no number
        for f in forecasts:
            _check_number("forecast", f)
        raise
    except OverflowError:  # the exact sum leaves the float range; the mean cannot
        for f in forecasts:  # unless a forecast is an int that no float holds
            _check_number("forecast", f)
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


def _exp(x: float) -> float:
    """``math.exp``, with +inf past the float range instead of OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _rule(spec: AgentSpec, params: ExperimentParams):
    """The rule of ``spec`` as a function ``(prev, last, target, normal)``
    of the last two prices, the period being predicted and a source of
    standard normal draws (a no-argument callable, such as
    ``lambda: rng.gauss(0.0, 1.0)``), returning the raw forecast before
    it is clipped to the band.

    This is the one home of each rule's formula.  The model-based rules
    extrapolate their one-step growth twice, with the feedback term
    frozen at the last observed state; the feedback rules drop back to
    the fundamental price whenever the excess prices they need are not
    strictly positive, and so does return anchoring whose extrapolation
    is undefined (a negative feedback on a growth ratio past the float
    range).  An extrapolation past the float range gives an infinity.
    ``prev`` is read only by return anchoring, and ``normal`` only by a
    noise rule with a positive ``sigma``, which adds ``normal() * sigma``
    as ``gauss(0.0, sigma)`` adds its draw: ``0.0 + z * sigma``.
    """
    pf = params.fundamental
    kind = spec.kind

    if kind == FUNDAMENTALIST:
        return lambda prev, last, target, normal: pf
    if kind == NOISE:
        sigma = spec.sigma
        if sigma > 0:
            return lambda prev, last, target, normal: pf + (0.0 + normal() * sigma)
        return lambda prev, last, target, normal: pf + 0.0  # a draw of 0.0: -0.0 gives 0.0
    if kind == NAIVE:
        return lambda prev, last, target, normal: last

    a, b = spec.a, spec.b
    if kind == PRICE_ANCHOR:
        def price_anchor(prev, last, target, normal):
            excess = last - pf
            if excess > 0:
                return pf + excess * _exp(2.0 * (a + b * excess))
            return pf
        return price_anchor

    if kind == RETURN_ANCHOR:
        def return_anchor(prev, last, target, normal):
            exc_prev = prev - pf
            exc_last = last - pf
            if not (exc_prev > 0 and exc_last > 0):
                return pf
            ratio = exc_last / exc_prev  # may overflow to inf or underflow to 0
            g = math.log(ratio) if ratio > 0 else -math.inf
            if b == 0:  # no feedback; b * g would be 0 * inf for infinite g
                g1 = g2 = a
            else:
                g1 = a + b * g
                g2 = a + b * g1
            total = g1 + g2  # inf - inf when b < 0 meets infinite growth
            return pf if math.isnan(total) else pf + exc_last * _exp(total)
        return return_anchor

    # RATIONAL_BUBBLE, the one kind left: AgentSpec takes no other
    rate, scale, anchor = spec.rate, spec.scale, spec.anchor

    def rational_bubble(prev, last, target, normal):
        try:
            return scale * (1.0 + rate) ** target + anchor
        except (OverflowError, ZeroDivisionError):  # or 0.0 to a negative power
            # an infinite growth factor, negative only for a negative
            # base to an odd power
            growth = -math.inf if 1.0 + rate < 0.0 and target % 2 else math.inf
            return scale * growth + anchor if scale else anchor
    return rational_bubble


# Rules that read more than the last price, with the error for a shorter history.
_TWO_PRICES = {
    NAIVE: "naive rule needs two past prices",
    RETURN_ANCHOR: "return anchoring needs two past prices",
}


def agent_forecast(
    spec: AgentSpec,
    history: PriceSeries,
    params: ExperimentParams,
    rng: Optional[random.Random] = None,
) -> float:
    """Forecast for period t+1 given prices up to t-1, clipped to the
    admissible band, so an extrapolation past the float range gives the
    band edge it points to.

    A rule reads at most the last two prices of ``history`` and its end
    time; ``_rule`` holds the formulas.  ``run`` builds each rule once
    and does not come through here.
    """
    values = history.values
    if len(values) < 2 and spec.kind in _TWO_PRICES:
        raise InsufficientHistory(_TWO_PRICES[spec.kind])
    if spec.kind == NOISE and spec.sigma > 0 and rng is None:
        raise InvalidConfig("noise agents need a random source")
    prev = values[-2] if len(values) > 1 else None
    target = history.t_end + 2  # the period being predicted
    # gauss's arguments have no defaults before Python 3.11; 0.0 + z is z
    # for every z but -0.0, which then adds to the same 0.0 in the rule
    normal = None if rng is None else (lambda: rng.gauss(0.0, 1.0))
    return params.clamp(_rule(spec, params)(prev, values[-1], target, normal))


def run(config: SimConfig) -> SimResult:
    """Simulate ``horizon`` periods, returning prices at t = 0..horizon-1.

    The two seed prices occupy periods -2 and -1; every output price is
    formed by the clearing equation, whose ``ExperimentParams.clamp``
    keeps it in [p_min, p_max].  The discounted band
    [(p_min + D)/(1 + r), (p_max + D)/(1 + r)] holds it only up to
    rounding: in floats a price can lie past that band's rounded edges.
    Identical configs (seed included) produce bit-identical results, and
    when both noise channels are off the random source is never consulted
    at all.

    Every rule reads at most the last two prices, so the state carried
    from period to period is those two floats; no ``Series`` is built
    until the result.  Each distinct rule is made a callable once per
    run by ``_rule``.  Traders whose deterministic rules are identical
    (equal ``repr``, so ``0.0`` and ``-0.0`` parameters stay apart) share
    one evaluation of the rule per period.  Noise traders draw their own,
    and forecast noise and mis-trades are applied trader by trader, so
    the random source is read in trader order as if every rule ran.
    Without forecast noise and mis-trades, twin traders also share their
    forecast row and their payoff row: one tuple object each, built and
    scored once, which ``SimResult.to_json`` then encodes once.

    Every normal draw, a noise rule's and the forecast noise alike, comes
    from one ``_normals`` source over the generator's uniforms, which
    yields ``gauss``'s values in ``gauss``'s order without a method call
    per draw.  Per trader the loops call only the rule and the random
    draws: the band clip, which gives ``ExperimentParams.clamp``'s float,
    is written out inline.  So are the two rules whose one home is here.
    A mis-trade, with probability ``mistrade_prob``, shifts the decimal
    point one place (x10 or x0.1, equiprobable) and clips to the band.
    The payoff of a forecast is the quadratic score
    ``max(MAX_PAYOFF - PAYOFF_SCALE * err**2, 0.0)`` of its error once
    the target price is realized.
    """
    params = config.params
    p_min, p_max = params.p_min, params.p_max
    rng = random.Random(config.seed)
    uniform = rng.random
    normal = _normals(uniform).__next__
    exp = math.exp

    noise_sigma, mistrade_prob = config.return_noise_sigma, config.mistrade_prob

    # Without forecast noise and mis-trades the noise rules are the only
    # readers of the random source, so they draw in trader order among the
    # shared rules; otherwise each draws in its trader's turn.
    per_trader = noise_sigma > 0 or mistrade_prob > 0
    # the rules evaluated at the start of each period (twins share one, a
    # noise rule draws, so it is its own), and per trader the index of its
    # forecast among theirs or its own noise rule
    rules, index, plan = [], {}, []
    for h, spec in enumerate(config.agents):
        if spec.kind == NOISE and per_trader:
            plan.append((None, _rule(spec, params)))
            continue
        key = h if spec.kind == NOISE else repr(spec)
        if key not in index:
            index[key] = len(rules)
            rules.append(_rule(spec, params))
        plan.append((index[key], None))
    # per trader, its column of ``rows``: the shared forecasts, or with
    # per-trader randomness its own
    owners = range(len(plan)) if per_trader else [k for k, _ in plan]

    prev, last = config.initial_prices
    rows: List[List[float]] = []
    prices: List[float] = []

    # Each clip below is ``clamp``: ``min(max(f, p_min), p_max)`` picks the
    # same float (a NaN passes, a signed zero keeps its sign) by two tests.
    for target in range(1, config.horizon + 1):
        # the forecasts made at t = target - 1 see prices up to t = target - 2
        shared = [p_min if (f := rule(prev, last, target, normal)) < p_min
                  else p_max if f > p_max else f
                  for rule in rules]
        if not per_trader:
            rows.append(shared)
            row = [shared[k] for k in owners]
        else:
            row = []
            for k, own in plan:
                if own is None:
                    f = shared[k]
                else:
                    f = own(prev, last, target, normal)
                    f = p_min if f < p_min else p_max if f > p_max else f
                if noise_sigma > 0 and f > 0:
                    # gauss(0.0, sigma) is 0.0 + z * sigma; exp(-0.0) is exp(0.0)
                    try:
                        f *= exp(normal() * noise_sigma)
                    except OverflowError:  # f times an infinite factor
                        f = p_max
                    else:
                        f = p_min if f < p_min else p_max if f > p_max else f
                if mistrade_prob > 0 and uniform() < mistrade_prob:
                    f *= 10.0 if uniform() < 0.5 else 0.1
                    f = p_min if f < p_min else p_max if f > p_max else f
                row.append(f)
            rows.append(row)
        p = clearing_price(row, params)
        prices.append(p)
        prev, last = last, p

    columns = tuple(zip(*rows))
    # the quadratic score of each realized price, as max(s, 0.0) picks it;
    # the last forecast's target price is never realized in-run
    realized = prices[1:]
    scored = [
        (*[0.0 if (s := MAX_PAYOFF - PAYOFF_SCALE * (e := p - f) * e) < 0.0 else s
           for p, f in zip(realized, column)], None)
        for column in columns
    ]
    forecasts = tuple(columns[k] for k in owners)
    payoffs = tuple(scored[k] for k in owners)

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
        forecasts=forecasts,
        payoffs=payoffs,
        metadata=metadata,
    )
