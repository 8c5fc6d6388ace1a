"""Bubble taxonomy: find the bubble window of a series and decide whether
its growth looks constant-rate or anchored on price or on return.

The decision compares the two feedback models' significance surfaces
over the bubble window: whichever model is significant on the larger
share of calibration windows wins the anchoring label; if neither
reaches the threshold the bubble is compatible with plain exponential
growth.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import InvalidConfig, NonPositiveExcess, _text
from .regression import MODEL_PRICE, MODEL_RETURN, RationalBubbleFit, fit_rational_bubble
from .series import (
    MIN_WINDOW,
    ExcessSeries,
    ExperimentParams,
    PriceSeries,
    Window,
    _check_finite,
    _check_flag,
    _check_int,
    excess_series,
)
from .sweep import SweepGrid, _runs, _summaries, sweep

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
    """A label and what it rests on.  ``price_summary``/``return_summary``
    are the ``grid_summary`` of each model's sweep over the bubble window,
    and ``excess`` holds that window's excess prices; all three are None
    for ``erratic`` and ``too_short``."""

    label: str
    price_fraction: float
    return_fraction: float
    bubble_window: Optional[Window]
    rational_fit: Optional[RationalBubbleFit]
    price_summary: Optional[dict]
    return_summary: Optional[dict]
    excess: Optional[ExcessSeries]
    theta: float
    min_window: int
    one_sided: bool

    @property
    def price_grid(self) -> Optional[SweepGrid]:
        """The price model's grid, swept anew on every access."""
        return self._grid(MODEL_PRICE, self.price_summary)

    @property
    def return_grid(self) -> Optional[SweepGrid]:
        """The return model's grid, swept anew on every access."""
        return self._grid(MODEL_RETURN, self.return_summary)

    def _grid(self, model, summary):
        if summary is None:
            return None
        return sweep(self.excess, model, self.bubble_window, self.min_window, self.one_sided)

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
            # copies, so that editing the dict leaves the verdict as it was
            "price_grid": copy.deepcopy(self.price_summary),
            "return_grid": copy.deepcopy(self.return_summary),
            "thresholds": {
                "theta": self.theta,
                "min_window": self.min_window,
                "confidence": "one-sided" if self.one_sided else "two-sided",
            },
        }

    def to_json(self) -> str:
        """The verdict as JSON text.  A window whose ends ``str`` refuses
        (ints past 4,300 digits) raises InvalidConfig."""
        try:
            return json.dumps(self.to_json_dict(), indent=2)
        except ValueError as exc:
            raise InvalidConfig(f"the verdict's window cannot be written: {exc}") from None

    def summary_line(self) -> str:
        win = (
            f"window [{_text(self.bubble_window.start)}, {_text(self.bubble_window.end)}]"
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
    the longest candidate wins, earliest on ties.  A ``min_window`` that
    is not an integer of at least MIN_WINDOW raises InvalidConfig.
    """
    _check_int("min_window", min_window, least=MIN_WINDOW)
    return _detect(excess_series(prices, params), min_window)


def _detect(excess: ExcessSeries, min_window: int) -> Optional[Window]:
    """``detect_bubble_window`` on the excess series ``excess`` already
    built, for a ``min_window`` already checked: one judgement of each
    run of ``sweep._runs``, the scan the sweeps' layout reads too.  A
    run values[i:j] is entered at s = i + 1 and ends at e = j - 1; a
    value that is not positive (j == i) spans no points."""
    vals = excess.values
    best: Optional[Window] = None
    for i, j in _runs(vals):
        s, e = i + 1, j - 1  # the window starts at the first grown point
        if e - s + 1 >= min_window and vals[e] > vals[s]:
            win = Window(excess.t0 + s, excess.t0 + e)
            if best is None or len(win) > len(best):
                best = win
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
    A ``theta`` outside (0, 1], a ``one_sided`` other than True or
    False, a ``min_window`` that is not an integer of at least MIN_WINDOW
    or an explicit ``window`` that is no Window or lies outside the
    series raises InvalidConfig.

    The excess series is built once, and both detection and the
    window's sweeps read it; both sweeps read one window table per run
    of the window (one log growth, one integer image, one t-quantile
    table).
    """
    _check_finite("theta", theta)
    if not 0.0 < theta <= 1.0:
        raise InvalidConfig(f"theta must lie in (0, 1], got {theta}")
    _check_flag("one_sided", one_sided)
    _check_int("min_window", min_window, least=MIN_WINDOW)
    if window is not None:
        prices.window_values(window)  # raises InvalidConfig for a bad window
    excess = excess_series(prices, params)
    win = window if window is not None else _detect(excess, min_window)
    pf = rf = 0.0
    rational = window_excess = None
    summaries = (None, None)
    if win is None:
        label = ERRATIC
    elif len(win) < min_window + 2:
        label = TOO_SHORT
    else:
        window_excess = ExcessSeries(win.start, excess.window_values(win))
        summaries = _summaries(window_excess, (MODEL_PRICE, MODEL_RETURN), win, min_window,
                               one_sided)
        # a grid without a valid cell has no significant share; it counts as 0
        pf, rf = (summary["significant_fraction"] or 0.0 for summary in summaries)
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
    return BubbleVerdict(
        label=label,
        price_fraction=pf,
        return_fraction=rf,
        bubble_window=win,
        rational_fit=rational,
        price_summary=summaries[0],
        return_summary=summaries[1],
        excess=window_excess,
        theta=theta,
        min_window=min_window,
        one_sided=one_sided,
    )
