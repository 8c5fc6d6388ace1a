"""Core time-series types, derived series, and CSV ingestion.

Prices are stored at full binary precision and only formatted (to two
decimals) when written out.  All types are immutable after construction
and all operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InvalidConfig,
    MalformedRow,
    NonContiguousTime,
    NonPositiveExcess,
    OutOfRange,
    ReturnOverflow,
    _text,
)

# Smallest admissible calibration window, in price points.  Five points
# give four return observations, hence df = 2 for the two-parameter
# price-model fit and df = 1 for the return-model fit (which consumes one
# extra lag) -- the smallest windows with a defined t-quantile.
MIN_WINDOW = 5


def _check_int(name: str, value, least: Optional[int] = None) -> None:
    """Raise InvalidConfig unless ``value`` is an int (a bool is not) of
    at least ``least``, when given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{name} must be an integer, got {_text(value, repr)}")
    if least is not None and value < least:
        raise InvalidConfig(f"{name} must be at least {least}, got {_text(value)}")


def _check_count(name: str, value, least: int = 0) -> None:
    """Raise InvalidConfig unless ``value`` is a size: an integer of at
    least ``least`` and at most ``sys.maxsize``, past which nothing of
    that size can be built."""
    _check_int(name, value, least)
    if value > sys.maxsize:
        raise InvalidConfig(
            f"{name} must not exceed sys.maxsize, got a {value.bit_length()}-bit int")


def _check_number(name: str, value) -> None:
    """Raise InvalidConfig unless ``value`` is an int or a float that a
    float holds: a bool is not a number here, nor is an int past the
    float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{name} must be a number, got {_text(value, repr)}")
    try:
        float(value)
    except OverflowError:
        raise InvalidConfig(f"{name} is an int past the float range") from None


def _check_finite(name: str, value, least: Optional[float] = None,
                  most: Optional[float] = None) -> None:
    """Raise InvalidConfig unless ``value`` is a finite number of at
    least ``least`` and at most ``most``, each when given."""
    _check_number(name, value)
    if not math.isfinite(value):
        raise InvalidConfig(f"{name} must be finite, got {value}")
    if least is not None and value < least:
        raise InvalidConfig(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise InvalidConfig(f"{name} must be at most {most}, got {value}")


def _check_choice(name: str, value, choices) -> None:
    """Raise InvalidConfig unless ``value`` is one of the sequence
    ``choices``."""
    if value not in choices:
        raise InvalidConfig(f"{name} must be one of {list(choices)}, got {_text(value, repr)}")


def _check_flag(name: str, value) -> None:
    """Raise InvalidConfig unless ``value`` is True or False: no other
    object, 0, 1 and NaN included, stands for a truth value here."""
    if value is not True and value is not False:
        raise InvalidConfig(f"{name} must be True or False, got {_text(value, repr)}")


def _finite_floats(name: str, values) -> tuple:
    """``values`` as a tuple of floats, each as ``float()`` makes it.
    A value that ``float()`` refuses or that is not finite raises
    InvalidConfig, which names the offset of the first non-finite one.
    Both the conversion and the check run in builtins (``map``); the
    offsets are walked only once the check has failed."""
    try:
        floats = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{name} must be numbers in the float range: {exc}") from None
    if not all(map(math.isfinite, floats)):
        i = list(map(math.isfinite, floats)).index(False)
        raise InvalidConfig(f"{name} must be finite, got {floats[i]} at offset {i}")
    return floats


def _normals(uniform):
    """Standard normal draws of ``random.Random.gauss``, read with ``next``.

    ``uniform`` is the generator's ``random``.  Each pair of draws comes
    from two uniforms by gauss's Box–Muller formulas, and the second is
    held for the next read, as gauss holds it: the n-th draw is the z of
    the n-th ``gauss(mu, sigma)``, which returns ``mu + z * sigma``, and
    ``uniform`` is read exactly when gauss would read it.  The one normal
    source of the package: ``market.run`` and ``growth.iterate_noisy``
    both draw from it.
    """
    tau, sqrt, log, cos, sin = math.tau, math.sqrt, math.log, math.cos, math.sin
    while True:
        x2pi = uniform() * tau
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        yield cos(x2pi) * g2rad
        yield sin(x2pi) * g2rad


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
            _check_finite(name, getattr(self, name), 0 if name == "dividend" else None)
        if not self.r > 0:
            raise InvalidConfig(f"interest rate must be positive, got {self.r}")
        _check_count("n_traders", self.n_traders, least=1)
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
        """Clip a price into the admissible band, so an infinity gives the
        band edge it points to: ``min(max(price, p_min), p_max)``.  A price
        that is no int or float, an int past the float range or a NaN
        raises InvalidConfig."""
        if type(price) is not float:
            _check_number("price", price)
        if price < self.p_min:
            return self.p_min
        if price > self.p_max:
            return self.p_max
        if price != price:
            raise InvalidConfig("price must not be NaN")
        return price


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
        vals = _finite_floats("series values", self.values)
        if not vals:
            raise InvalidConfig("series needs at least one value")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def t_end(self) -> int:
        return self.t0 + len(self.values) - 1

    def window_values(self, window: Window) -> tuple:
        """Values on the inclusive [start, end] window, which must be a
        ``Window`` inside the series."""
        if not isinstance(window, Window):
            raise InvalidConfig(f"window must be a Window, got {_text(window, repr)}")
        if window.start < self.t0 or window.end > self.t_end:
            raise InvalidConfig(
                f"window [{_text(window.start)}, {_text(window.end)}] outside "
                f"series range [{_text(self.t0)}, {_text(self.t_end)}]"
            )
        return self.values[window.start - self.t0 : window.end - self.t0 + 1]

    def to_prices(self, params: ExperimentParams) -> Series:
        """Shift an excess series back above the fundamental."""
        pf = params.fundamental
        return Series(self.t0, tuple(map(pf.__radd__, self.values)))  # v + pf


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
                f"window [{_text(self.start)}, {_text(self.end)}] shorter than "
                f"{MIN_WINDOW} points"
            )

    def __len__(self) -> int:
        return self.end - self.start + 1


def excess_series(prices: PriceSeries, params: ExperimentParams) -> ExcessSeries:
    """Subtract the fundamental price from every observation."""
    pf = params.fundamental
    return ExcessSeries(prices.t0, tuple(map(pf.__rsub__, prices.values)))  # v - pf


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
                f"non-positive value at t={_text(series.t0 + i)}; "
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

    # each value's column, as the band check names it
    names = ["price"] + [f"forecast h{h}" for h in range(1, n_fc + 1)]
    rows = []  # (t, price, forecasts...) per data line
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = [c.strip() for c in raw.split(",")]
        if len(fields) != len(header):
            raise MalformedRow(lineno, f"expected {len(header)} fields, found {len(fields)}")
        try:
            t = int(fields[0])
            values = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from None
        if rows and t != rows[-1][0] + 1:
            raise NonContiguousTime(lineno, f"time jumps from {rows[-1][0]} to {t}")
        for name, v in zip(names, values):
            if not (params.p_min <= v <= params.p_max):
                raise OutOfRange(lineno, f"{name} {v} outside [{params.p_min}, {params.p_max}]")
        rows.append((t, *values))

    if not rows:
        raise MalformedRow(2, "no data rows")
    times, prices, *forecasts = zip(*rows)
    return PriceSeries(times[0], prices), tuple(forecasts) or None


def write_csv(path, series, forecasts=None, decimals: int = 2) -> None:
    """Write a series (price or excess) in the `t,price[,h1..hH]` format.

    Values are printed with a fixed number of decimals, matching the
    presentation of the experimental data.  ``decimals`` that is not an
    integer from 0 to 1074, ``forecasts`` that are not columns of the
    series' length holding finite numbers in the float range, or times
    that ``str`` refuses, raise InvalidConfig before ``path`` is opened.
    """
    _check_int("decimals", decimals, least=0)
    if decimals > 1074:  # no float has more digits after the point: 2**-1074 has 1074
        raise InvalidConfig(f"decimals must be at most 1074, got {_text(decimals)}")
    try:
        str(series.t0), str(series.t_end)  # every t between prints if both ends do
    except ValueError as exc:
        raise InvalidConfig(f"the series' times cannot be written: {exc}") from None
    forecasts = forecasts or ()
    try:
        short = any(len(col) != len(series) for col in forecasts)
        row = ",".join(["%d"] + [f"%.{decimals}f"] * (1 + len(forecasts))) + "\n"
        times = range(series.t0, series.t0 + len(series))
        body = "".join([row % values for values in zip(times, series.values, *forecasts)])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(
            f"forecasts must be columns of numbers in the float range: {exc}") from None
    if short:
        raise InvalidConfig("forecast columns must match the series length")
    if "n" in body:  # %f spells only a NaN or an infinity with a letter
        for h, col in enumerate(forecasts, 1):
            _finite_floats(f"forecast column h{h}", col)
    cols = ["t", "price"] + [f"h{h + 1}" for h in range(len(forecasts))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n" + body)
