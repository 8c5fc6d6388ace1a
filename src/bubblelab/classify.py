"""Bubble taxonomy: find the bubble window of a series and decide whether
its growth looks constant-rate or anchored on price or on return.

The decision compares the two feedback models' significance surfaces
over the bubble window: whichever model is significant on the larger
share of calibration windows wins the anchoring label; if neither
reaches the threshold the bubble is compatible with plain exponential
growth.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import InvalidConfig, NonPositiveExcess, NoValidCells
from .regression import MODEL_PRICE, MODEL_RETURN, RationalBubbleFit, fit_rational_bubble
from .series import MIN_WINDOW, ExperimentParams, PriceSeries, Window, excess_series
from .sweep import SweepGrid, grid_summary, significant_fraction, sweep

ERRATIC = "erratic"
TOO_SHORT = "too_short"
RATIONAL_EXPONENTIAL = "rational_exponential"
ANCHORING_ON_PRICE = "anchoring_on_price"
ANCHORING_ON_RETURN = "anchoring_on_return"

# Bubble windows of the six laboratory groups (from visual inspection of
# the published experiment), for users who supply that dataset.  Group 1
# never formed a bubble.
EXPERIMENT_GROUP_WINDOWS = {
    2: (7, 26),
    3: (7, 29),
    4: (7, 21),
    5: (29, 37),
    6: (23, 29),
}


@dataclass(frozen=True)
class BubbleVerdict:
    label: str
    price_fraction: float
    return_fraction: float
    bubble_window: Optional[Window]
    rational_fit: Optional[RationalBubbleFit]
    price_grid: Optional[SweepGrid]
    return_grid: Optional[SweepGrid]
    theta: float
    min_window: int
    one_sided: bool

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "price_fraction": self.price_fraction,
            "return_fraction": self.return_fraction,
            "bubble_window": (
                [self.bubble_window.start, self.bubble_window.end]
                if self.bubble_window
                else None
            ),
            "rational_fit": asdict(self.rational_fit) if self.rational_fit else None,
            "price_grid": grid_summary(self.price_grid) if self.price_grid else None,
            "return_grid": grid_summary(self.return_grid) if self.return_grid else None,
            "thresholds": {
                "theta": self.theta,
                "min_window": self.min_window,
                "confidence": "one-sided" if self.one_sided else "two-sided",
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary_line(self) -> str:
        win = (
            f"window [{self.bubble_window.start}, {self.bubble_window.end}]"
            if self.bubble_window
            else "no bubble window"
        )
        return (
            f"{self.label.replace('_', ' ')} "
            f"(price fraction {self.price_fraction:.3f}, "
            f"return fraction {self.return_fraction:.3f}, {win})"
        )


def detect_bubble_window(
    prices: PriceSeries,
    params: ExperimentParams,
    min_window: int = MIN_WINDOW,
) -> Optional[Window]:
    """Longest stretch above the fundamental with net growth.

    Scans maximal runs of strictly positive excess price; each run is
    entered at its first grown point (one past the run start), so the
    window's opening value has an in-run predecessor.  A candidate must
    span at least ``min_window`` points and end higher than it starts;
    the longest candidate wins, earliest on ties.
    """
    excess = excess_series(prices, params)
    vals = excess.values
    n = len(vals)
    best: Optional[Window] = None
    i = 0
    while i < n:
        if vals[i] <= 0:
            i += 1
            continue
        j = i
        while j + 1 < n and vals[j + 1] > 0:
            j += 1
        s, e = i + 1, j  # window starts at the first grown point
        if e - s + 1 >= min_window and vals[e] > vals[s]:
            win = Window(excess.t0 + s, excess.t0 + e)
            if best is None or len(win) > len(best):
                best = win
        i = j + 1
    return best


def classify_series(
    prices: PriceSeries,
    params: ExperimentParams,
    theta: float = 0.2,
    min_window: int = MIN_WINDOW,
    one_sided: bool = False,
    window: Optional[Window] = None,
) -> BubbleVerdict:
    """Label a series per the bubble taxonomy.

    Decision rule: no bubble window means erratic; a window shorter than
    ``min_window + 2`` is too short to analyze; otherwise both feedback
    models are swept over the window and the larger significant fraction
    wins the anchoring label, provided it reaches ``theta``.  Ties break
    toward price anchoring (the lower-lag model).  An explicit ``window``
    overrides detection, letting callers reproduce published windows.
    A non-finite ``theta``, a ``min_window`` below MIN_WINDOW or an
    explicit ``window`` outside the series raises InvalidConfig.
    """
    if not math.isfinite(theta):
        raise InvalidConfig(f"theta must be finite, got {theta}")
    if min_window < MIN_WINDOW:
        raise InvalidConfig(f"min_window must be at least {MIN_WINDOW}")
    if window is not None:
        prices.window_values(window)  # raises InvalidConfig outside the series
    win = window if window is not None else detect_bubble_window(
        prices, params, min_window=min_window
    )

    def verdict(label, pf=0.0, rf=0.0, rational=None, pgrid=None, rgrid=None):
        return BubbleVerdict(
            label=label,
            price_fraction=pf,
            return_fraction=rf,
            bubble_window=win,
            rational_fit=rational,
            price_grid=pgrid,
            return_grid=rgrid,
            theta=theta,
            min_window=min_window,
            one_sided=one_sided,
        )

    if win is None:
        return verdict(ERRATIC)
    if len(win) < min_window + 2:
        return verdict(TOO_SHORT)

    excess = excess_series(prices, params)
    bounds = (win.start, win.end)
    pgrid = sweep(excess, MODEL_PRICE, bounds, bounds, min_window, one_sided)
    rgrid = sweep(excess, MODEL_RETURN, bounds, bounds, min_window, one_sided)
    try:
        pf = significant_fraction(pgrid)
    except NoValidCells:
        pf = 0.0
    try:
        rf = significant_fraction(rgrid)
    except NoValidCells:
        rf = 0.0

    try:
        rational = fit_rational_bubble(
            prices, win, anchor=params.fundamental, one_sided=one_sided
        )
    except NonPositiveExcess:
        rational = None  # explicit window dipping to the fundamental

    if pf < theta and rf < theta:
        label = RATIONAL_EXPONENTIAL
    elif rf > pf:
        label = ANCHORING_ON_RETURN
    else:
        label = ANCHORING_ON_PRICE
    return verdict(label, pf, rf, rational, pgrid, rgrid)
