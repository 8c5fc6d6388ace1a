"""Deterministic iteration of the three bubble growth models.

All three share one update: the excess price is multiplied by
exp(log-growth) each step.  What differs is where the log-growth comes
from:

  exponential      g = a                     (constant rate)
  price_feedback   g = a + b * excess[t-1]   (rate grows with the level)
  return_feedback  g = a + b * g[t-1]        (rate feeds on itself)

Positive feedback makes these maps blow up in finite time by
construction; the iteration reports that as an error instead of
emitting non-finite values, and so it does for a value that underflows
to zero.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import List, Optional, Tuple

from .errors import FiniteHorizonSingularity, InvalidConfig, ReturnOverflow
from .series import (ExcessSeries, _check_choice, _check_count, _check_finite, _check_int,
                     _normals)

EXPONENTIAL = "exponential"
PRICE_FEEDBACK = "price_feedback"
RETURN_FEEDBACK = "return_feedback"


@dataclass(frozen=True)
class GrowthModel:
    """Parameters of one generative bubble model.

    ``a`` is the base log-growth per step, ``b`` the feedback coefficient
    (zero for the exponential variant), ``start`` the initial excess
    price, and ``initial_log_return`` seeds the return-feedback
    recursion.
    """

    variant: str
    a: float
    b: float = 0.0
    start: float = 60.0
    initial_log_return: Optional[float] = None

    def __post_init__(self):
        _check_choice("model variant", self.variant,
                      (EXPONENTIAL, PRICE_FEEDBACK, RETURN_FEEDBACK))
        for name in ("a", "b", "start"):
            _check_finite(f"parameter {name}", getattr(self, name))
        if not self.start > 0:
            raise InvalidConfig(f"initial excess price must be positive, got {self.start}")
        if self.initial_log_return is not None:
            _check_finite("initial log-return", self.initial_log_return)
        elif self.variant == RETURN_FEEDBACK:
            raise InvalidConfig("return feedback needs a finite initial log-return")

    @staticmethod
    def exponential(a: float, start: float = 60.0) -> "GrowthModel":
        return GrowthModel(EXPONENTIAL, a=a, b=0.0, start=start)

    @staticmethod
    def price_feedback(a: float, b: float, start: float = 60.0) -> "GrowthModel":
        return GrowthModel(PRICE_FEEDBACK, a=a, b=b, start=start)

    @staticmethod
    def return_feedback(
        a: float, b: float, initial_log_return: float, start: float = 60.0
    ) -> "GrowthModel":
        return GrowthModel(
            RETURN_FEEDBACK, a=a, b=b, start=start, initial_log_return=initial_log_return
        )


def iterate(model: GrowthModel, steps: int, noise=None) -> ExcessSeries:
    """Run the model forward, returning excess prices at t = 0..steps.

    The model's rule is read once: each step's log-growth is
    a + b * g[t-1] for return feedback and a + b * excess[t-1] otherwise
    (the exponential variant is price feedback with b = 0).  ``noise`` is
    an optional callable returning an additive perturbation of each
    step's log-growth (see iterate_noisy).  Raises
    FiniteHorizonSingularity once a value is no longer a positive finite
    float: it overflowed, became NaN or underflowed to zero.
    """
    _check_count("steps", steps)
    a, b, level = model.a, model.b, model.start
    on_return = model.variant == RETURN_FEEDBACK
    values: List[float] = [level]
    g = model.initial_log_return if model.initial_log_return is not None else 0.0
    for t in range(1, steps + 1):
        g = a + b * (g if on_return else level)
        if noise is not None:
            g += noise()
        try:
            level = level * math.exp(g)
        except OverflowError:
            level = math.inf
        if not 0.0 < level < math.inf:
            raise FiniteHorizonSingularity(t - 1)
        values.append(level)
    return ExcessSeries(0, tuple(values))


def iterate_noisy(
    model: GrowthModel, steps: int, sigma: float, seed: int
) -> ExcessSeries:
    """Iterate with Gaussian noise of std-dev ``sigma`` on each log-growth.

    The noise of each step is ``random.Random(seed).gauss(0.0, sigma)``'s
    next value, ``0.0 + z * sigma``, with z read from the package's one
    normal source (``series._normals``) and scaled by builtins, so a step
    calls no method of the generator.
    """
    _check_finite("noise std-dev", sigma, least=0)
    _check_int("seed", seed)
    zs = _normals(random.Random(seed).random)
    noise = map(add, repeat(0.0), map(mul, zs, repeat(sigma)))  # 0.0 + z * sigma
    return iterate(model, steps, noise=noise.__next__)


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the exponential-vs-feedback comparison table."""

    t: int
    exponential: float
    exponential_pct: Optional[int]
    feedback: float
    feedback_pct: Optional[int]


def _pct(level: float, prev: float, t: int) -> int:
    """The discrete return from ``prev`` to ``level`` in whole percent,
    rounded half up; ReturnOverflow names t where the percentage leaves
    the float range."""
    pct = 100.0 * (level / prev - 1.0)
    if pct == math.inf:
        raise ReturnOverflow(t)
    return math.floor(pct + 0.5)


def table2(
    steps: int = 23,
    a1: float = math.log(1.1),
    a2: float = math.log(1.09),
    b2: float = 1e-4,
    start: float = 60.0,
) -> Tuple[ComparisonRow, ...]:
    """Side-by-side iteration of the exponential and price-feedback models.

    Default parameters give roughly 10% growth per step for both; the
    feedback column overtakes the exponential one at t = 10 and pulls
    away as its growth rate accelerates.  Percent columns are discrete
    returns rounded to the nearest whole percent.  A column that leaves
    the positive floats raises FiniteHorizonSingularity, and a percentage
    past the float range raises ReturnOverflow.
    """
    exp_series = iterate(GrowthModel.exponential(a1, start), steps)
    fb_series = iterate(GrowthModel.price_feedback(a2, b2, start), steps)
    rows = []
    for t in range(steps + 1):
        e, f = exp_series.values[t], fb_series.values[t]
        if t == 0:
            pe = pf = None
        else:
            pe = _pct(e, exp_series.values[t - 1], t)
            pf = _pct(f, fb_series.values[t - 1], t)
        rows.append(ComparisonRow(t, e, pe, f, pf))
    return tuple(rows)


def table2_csv(rows: Tuple[ComparisonRow, ...]) -> str:
    """Render comparison rows as CSV, prices at two decimals."""
    out = ["t,exponential,exponential_pct,feedback,feedback_pct"]
    for r in rows:
        pe = "" if r.exponential_pct is None else str(r.exponential_pct)
        pf = "" if r.feedback_pct is None else str(r.feedback_pct)
        out.append(f"{r.t},{r.exponential:.2f},{pe},{r.feedback:.2f},{pf}")
    return "\n".join(out) + "\n"
