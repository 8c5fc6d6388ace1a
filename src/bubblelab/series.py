"""Core time-series types, derived series, and CSV ingestion.

Prices are stored at full binary precision and only formatted (to two
decimals) when written out.  All types are immutable after construction
and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InvalidConfig,
    MalformedRow,
    NonContiguousTime,
    NonPositiveExcess,
    OutOfRange,
    ReturnOverflow,
)

# Smallest admissible calibration window, in price points.  Five points
# give four return observations, hence df = 2 for the two-parameter
# price-model fit and df = 1 for the return-model fit (which consumes one
# extra lag) -- the smallest windows with a defined t-quantile.
MIN_WINDOW = 5


def _check_int(name: str, value) -> None:
    """Raise InvalidConfig unless ``value`` is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def _check_number(name: str, value) -> None:
    """Raise InvalidConfig unless ``value`` is an int or a float (a bool
    is not a number here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{name} must be a number, got {value!r}")


def _check_min_window(min_window) -> None:
    """Raise InvalidConfig unless ``min_window`` is an integer of at least
    MIN_WINDOW."""
    _check_int("min_window", min_window)
    if min_window < MIN_WINDOW:
        raise InvalidConfig(f"min_window must be at least {MIN_WINDOW}")


@dataclass(frozen=True)
class ExperimentParams:
    """Constants of the experimental market.

    r: interest rate per period, dividend: payout per period,
    n_traders: number of forecasters, [p_min, p_max]: admissible price band.
    """

    r: float = 0.05
    dividend: float = 3.00
    n_traders: int = 6
    p_min: float = 0.0
    p_max: float = 1000.0

    def __post_init__(self):
        for name in ("r", "dividend", "p_min", "p_max"):
            value = getattr(self, name)
            _check_number(name, value)
            if not math.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value}")
        if not self.r > 0:
            raise InvalidConfig(f"interest rate must be positive, got {self.r}")
        if self.dividend < 0:
            raise InvalidConfig(f"dividend must be non-negative, got {self.dividend}")
        _check_int("n_traders", self.n_traders)
        if self.n_traders < 1:
            raise InvalidConfig(f"need at least one trader, got {self.n_traders}")
        if not self.p_min < self.p_max:
            raise InvalidConfig(
                f"price band is empty: [{self.p_min}, {self.p_max}]"
            )
        pf = self.fundamental
        if not (self.p_min <= pf <= self.p_max):
            raise InvalidConfig(
                f"fundamental price {pf} outside [{self.p_min}, {self.p_max}]"
            )

    @property
    def fundamental(self) -> float:
        """Discounted-dividend equilibrium price dividend/r."""
        return self.dividend / self.r

    def clamp(self, price: float) -> float:
        """Clip a price into the admissible band."""
        return min(max(price, self.p_min), self.p_max)


def fundamental_price(params: ExperimentParams) -> float:
    """Equilibrium price dividend/r (60 under default parameters)."""
    return params.fundamental


@dataclass(frozen=True)
class Series:
    """Finite values on a contiguous integer time index starting at t0.

    Holds realized prices, or excess prices (prices minus the fundamental,
    the state variable of the feedback models); ``PriceSeries`` and
    ``ExcessSeries`` are two names for this one type.
    """

    t0: int
    values: tuple

    def __post_init__(self):
        _check_int("t0", self.t0)
        try:
            vals = tuple(float(v) for v in self.values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"series values must be numbers: {exc}") from None
        if not vals:
            raise InvalidConfig("series needs at least one value")
        for i, v in enumerate(vals):
            if not math.isfinite(v):
                raise InvalidConfig(f"series has non-finite value at offset {i}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def t_end(self) -> int:
        return self.t0 + len(self.values) - 1

    def window_values(self, window: Window) -> tuple:
        """Values on the inclusive [start, end] window, which must lie
        inside the series."""
        if window.start < self.t0 or window.end > self.t_end:
            raise InvalidConfig(
                f"window [{window.start}, {window.end}] outside series range "
                f"[{self.t0}, {self.t_end}]"
            )
        return self.values[window.start - self.t0 : window.end - self.t0 + 1]

    def to_prices(self, params: ExperimentParams) -> Series:
        """Shift an excess series back above the fundamental."""
        pf = params.fundamental
        return Series(self.t0, tuple(v + pf for v in self.values))


PriceSeries = ExcessSeries = Series


@dataclass(frozen=True)
class Window:
    """Inclusive [start, end] calibration window on the time axis."""

    start: int
    end: int

    def __post_init__(self):
        _check_int("window start", self.start)
        _check_int("window end", self.end)
        if self.end < self.start + MIN_WINDOW - 1:
            raise InvalidConfig(
                f"window [{self.start}, {self.end}] shorter than "
                f"{MIN_WINDOW} points"
            )

    def __len__(self) -> int:
        return self.end - self.start + 1


def excess_series(prices: PriceSeries, params: ExperimentParams) -> ExcessSeries:
    """Subtract the fundamental price from every observation."""
    pf = params.fundamental
    return ExcessSeries(prices.t0, tuple(v - pf for v in prices.values))


def discrete_returns(series: Series) -> Series:
    """Per-period discrete returns value[t]/value[t-1] - 1, from t0 + 1.

    Works on price or excess series alike; every value must be strictly
    positive for the ratio to be meaningful (NonPositiveExcess names the
    first one that is not), and a return that leaves the float range
    raises ReturnOverflow naming its time t.
    """
    vals = series.values
    if len(vals) < 2:
        raise InvalidConfig("need at least two observations for returns")
    for i, v in enumerate(vals):
        if v <= 0:
            raise NonPositiveExcess(
                series.t0 + i,
                f"non-positive value at t={series.t0 + i}; "
                "discrete returns need strictly positive levels",
            )
    rets = tuple(vals[i + 1] / vals[i] - 1.0 for i in range(len(vals) - 1))
    for i, r in enumerate(rets):
        if r == math.inf:  # a ratio of positive floats can only overflow
            raise ReturnOverflow(series.t0 + 1 + i)
    return Series(series.t0 + 1, rets)


def log_growth(values: Sequence[float], t0: int) -> list:
    """Natural-log growth rates log(v[i+1]/v[i]) of values starting at t0.

    Defined only while every value is strictly positive; a zero or
    negative value raises NonPositiveExcess naming the first offending
    time index t0 + i (the values lie outside a bubble regime).  Every
    rate is finite: a ratio that underflows to 0 or overflows to inf is
    taken as log(v[i+1]) - log(v[i]) instead.
    """
    for i, v in enumerate(values):
        if v <= 0:
            raise NonPositiveExcess(t0 + i)
    return [
        math.log(q) if 0.0 < (q := v / prev) < math.inf else math.log(v) - math.log(prev)
        for prev, v in zip(values, values[1:])
    ]


def log_excess_returns(excess: ExcessSeries) -> Series:
    """Natural-log growth rates log(excess[t]/excess[t-1]) from t0 + 1,
    finite for every positive series; see log_growth."""
    if len(excess) < 2:
        raise InvalidConfig("need at least two observations for returns")
    return Series(excess.t0 + 1, log_growth(excess.values, excess.t0))


# ---------------------------------------------------------------------------
# CSV interface: header `t,price[,h1..hH]`, decimal point, UTF-8, BOM skipped.
# ---------------------------------------------------------------------------


def load_csv(path, params: Optional[ExperimentParams] = None):
    """Read a price series, plus per-trader forecast columns when present.

    The header must be exactly ``t,price[,h1..hH]``: ``t``, ``price``,
    then optional forecast columns ``h1``, ``h2``, ... in order (spaces
    around a name are ignored); any other header raises MalformedRow on
    line 1.  Rows must advance t by one, and prices and forecasts must lie
    in the ``[p_min, p_max]`` band of ``params``.

    Returns ``(PriceSeries, forecasts)`` where ``forecasts`` is a tuple of
    per-trader tuples (one per h1..hH column, aligned with the series) or
    None when the file has no forecast columns.
    """
    params = params or ExperimentParams()
    with open(path, encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise MalformedRow(1, "empty file")

    header = [c.strip() for c in lines[0].split(",")]
    n_fc = len(header) - 2
    if header != ["t", "price"] + [f"h{h}" for h in range(1, n_fc + 1)]:
        raise MalformedRow(1, "header must be t,price[,h1..hH]")

    times, prices = [], []
    forecasts = [[] for _ in range(n_fc)]
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = [c.strip() for c in raw.split(",")]
        if len(fields) != len(header):
            raise MalformedRow(
                lineno, f"expected {len(header)} fields, found {len(fields)}"
            )
        try:
            t = int(fields[0])
            p = float(fields[1])
            fvals = [float(v) for v in fields[2:]]
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
        if times and t != times[-1] + 1:
            raise NonContiguousTime(
                lineno, f"time jumps from {times[-1]} to {t}"
            )
        if not (params.p_min <= p <= params.p_max):
            raise OutOfRange(
                lineno,
                f"price {p} outside [{params.p_min}, {params.p_max}]",
            )
        for h, v in enumerate(fvals, start=1):
            if not (params.p_min <= v <= params.p_max):
                raise OutOfRange(
                    lineno,
                    f"forecast h{h} {v} outside [{params.p_min}, {params.p_max}]",
                )
        times.append(t)
        prices.append(p)
        for col, v in zip(forecasts, fvals):
            col.append(v)

    if not prices:
        raise MalformedRow(2, "no data rows")
    series = PriceSeries(times[0], tuple(prices))
    if n_fc:
        return series, tuple(tuple(col) for col in forecasts)
    return series, None


def write_csv(path, series, forecasts=None, decimals: int = 2) -> None:
    """Write a series (price or excess) in the `t,price[,h1..hH]` format.

    Values are printed with a fixed number of decimals, matching the
    presentation of the experimental data.  ``decimals`` that is not a
    non-negative integer raises InvalidConfig.
    """
    _check_int("decimals", decimals)
    if decimals < 0:
        raise InvalidConfig(f"decimals must not be negative, got {decimals}")
    forecasts = forecasts or ()
    for col in forecasts:
        if len(col) != len(series):
            raise InvalidConfig("forecast columns must match the series length")
    cols = ["t", "price"] + [f"h{h + 1}" for h in range(len(forecasts))]
    row = ",".join(["%d"] + [f"%.{decimals}f"] * (1 + len(forecasts)))
    times = range(series.t0, series.t0 + len(series))
    out = [",".join(cols)]
    out += [row % values for values in zip(times, series.values, *forecasts)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
