"""Window sweeps: fit a feedback model on every admissible [start, end]
window and assemble the significance surface behind the triangle
heatmaps.

Cells are independent pure computations keyed by (start, end); only
windows of at least ``min_window`` points exist, which is what gives the
grids their triangular shape.  Each cell depends on nothing but the data
inside its own window.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Dict, Optional, Tuple, Union

from .errors import InvalidConfig
from .regression import (
    _LAGS,
    OlsFit,
    _decide_fit,
    _fit_moments,
    _moment_rows,
    _pairs,
    _window_fits,
)
from .series import MIN_WINDOW, ExcessSeries, Window, _check_int, _check_min_window


@dataclass(frozen=True)
class InvalidCell:
    """Marker for a window whose fit failed, carrying the error kind."""

    error_kind: str


Cell = Union[OlsFit, InvalidCell]

# the cells of windows that reach a non-positive excess price, and of
# windows whose regressor is constant
_BLOCKED = InvalidCell("NonPositiveExcess")
_DEGENERATE = InvalidCell("DegenerateRegressor")

# an OlsFit's field names in declaration order, the keys of a best window's "fit"
_FIT_FIELDS = tuple(f.name for f in fields(OlsFit))


@dataclass(frozen=True)
class SweepGrid:
    """The cells of one sweep, keyed by window (start, end) and held in
    key order: start ascending, and end ascending within each start."""

    model: str
    span: Tuple[int, int]
    min_window: int
    cells: Dict[Tuple[int, int], Cell]

    def valid_items(self):
        return [(k, c) for k, c in self.cells.items() if isinstance(c, OlsFit)]

    def n_valid(self) -> int:
        return sum(1 for c in self.cells.values() if isinstance(c, OlsFit))


def _span(excess, model, window, min_window):
    """Check a sweep's arguments; return the span (lo, hi) and its values."""
    if model not in _LAGS:
        raise InvalidConfig(f"model must be one of {sorted(_LAGS)}, got {model!r}")
    _check_min_window(min_window)
    if window is None:
        return excess.t0, excess.t_end, excess.values
    return window.start, window.end, excess.window_values(window)


def _cells(model, lo, hi, vals, min_window, one_sided, fit):
    """Yield ((start, end), cell) for every window of at least
    ``min_window`` points in [lo, hi] (vals holds its values), in key
    order, with ``fit`` turning each valid window's moments into its cell
    (see ``_window_fits``)."""
    lag = _LAGS[model]
    run0 = lo
    while run0 <= hi:
        # Values are strictly positive from run0 up to (excluding) t = bad;
        # for every start in that run, a window reaching bad fails there.
        bad = run0
        while bad <= hi and vals[bad - lo] > 0:
            bad += 1
        run_end = max(bad, run0 + 1)
        if bad - run0 >= min_window:
            # some window inside the run is long enough: fit them all from
            # one set of pairs and one integer image of the run
            rows, p = _moment_rows(*_pairs(model, vals[run0 - lo : bad - lo], run0))
        else:  # no window of the run is long enough to fit
            rows, p = (), 0
        for s in range(run0, run_end):
            # pair j (counted from run0) is the first pair of the windows
            # that start at s; the window ending at e holds e - s - lag pairs,
            # at least 3 (see MIN_WINDOW), so no cell has TooFewPoints
            j = s - run0
            first_e = s + min_window - 1
            fits = _window_fits(model, rows[j:], p, min_window - 1 - lag, one_sided, fit)
            for e, cell in zip(range(first_e, bad), fits):
                yield (s, e), _DEGENERATE if cell is None else cell
            for e in range(max(first_e, bad), hi + 1):
                yield (s, e), _BLOCKED
        run0 = run_end


def sweep(
    excess: ExcessSeries,
    model: str,
    window: Optional[Window] = None,
    min_window: int = MIN_WINDOW,
    one_sided: bool = False,
) -> SweepGrid:
    """Fit ``model`` on every window of at least ``min_window`` points
    inside ``window`` (the whole series when None).

    A ``window`` outside the series, or a ``min_window`` that is not an
    integer of at least MIN_WINDOW, raises InvalidConfig.  Per-window
    errors (windows crossing non-positive excess prices, degenerate
    regressors) become invalid-cell markers rather than failing the sweep.

    Each cell equals ``fit_price_model``/``fit_return_model`` on its
    window, bit for bit, but costs O(1): for a fixed start the window
    grows one point at a time, updating exact moment sums that the shared
    OLS kernel turns into a fit, so a grid costs O(N^2) rather than O(N^3).
    """
    lo, hi, vals = _span(excess, model, window, min_window)
    cells = dict(_cells(model, lo, hi, vals, min_window, one_sided, _fit_moments))
    return SweepGrid(model=model, span=(lo, hi), min_window=min_window, cells=cells)


def sweep_summary(
    excess: ExcessSeries,
    model: str,
    window: Optional[Window] = None,
    min_window: int = MIN_WINDOW,
    one_sided: bool = False,
) -> dict:
    """``grid_summary(sweep(...))`` with the same arguments, key for key
    and bit for bit, without building the grid or fitting most cells.

    The summary needs, of each valid cell, only whether it is significant
    and whether its b_lower is a new maximum.  The float filter
    ``regression._decide_fit`` settles both for most cells from a proven
    error bound; the kernel fits the rest, and every new best, exactly.
    """
    lo, hi, vals = _span(excess, model, window, min_window)
    tally = _Tally(model, min_window)
    fit = partial(_decide_fit, tally)
    return tally.summary(_cells(model, lo, hi, vals, min_window, one_sided, fit))


def triangular_cell_count(n: int, min_window: int) -> int:
    """Count of windows of at least ``min_window`` points in a span of
    ``n`` points (none when n < min_window), for shape checks."""
    _check_int("n", n)
    _check_min_window(min_window)
    k = max(0, n - min_window + 1)
    return k * (k + 1) // 2


# a grid CSV's header line, and its row formats for valid and invalid cells
_CSV_HEADER = "model,start,end,a,b,se_a,se_b,a_lower,b_lower,n,r2,valid,error_kind\n"
_VALID_ROW = "%s,%d,%d" + ",%.17g" * 6 + ",%d,%.17g,true,\n"
_INVALID_ROW = "%s,%d,%d,,,,,,,,,false,%s\n"


def _csv_row(model: str, key: Tuple[int, int], cell: Cell) -> str:
    """The grid CSV line, newline included, of the cell at window ``key``."""
    s, e = key
    if isinstance(cell, OlsFit):
        return _VALID_ROW % (model, s, e, cell.a, cell.b, cell.se_a, cell.se_b,
                             cell.a_lower, cell.b_lower, cell.n, cell.r2)
    return _INVALID_ROW % (model, s, e, cell.error_kind)


def grid_to_csv(grid: SweepGrid) -> str:
    """Long-format export, one row per cell in (start, end) order,
    plottable as a triangle map."""
    rows = (_csv_row(grid.model, key, cell) for key, cell in grid.cells.items())
    return _CSV_HEADER + "".join(rows)


def write_grid(path, excess: ExcessSeries, model: str, window: Optional[Window] = None,
               min_window: int = MIN_WINDOW, one_sided: bool = False) -> dict:
    """Write ``grid_to_csv(sweep(...))`` to ``path`` and return
    ``grid_summary(sweep(...))``, with the same arguments, in one pass
    that holds no grid: each cell's row is written as the sweep yields it.

    The arguments are checked before ``path`` is opened, so an
    InvalidConfig leaves no file behind.
    """
    lo, hi, vals = _span(excess, model, window, min_window)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER)

        def written():
            for key, cell in _cells(model, lo, hi, vals, min_window, one_sided, _fit_moments):
                fh.write(_csv_row(model, key, cell))
                yield key, cell
        return _Tally(model, min_window).summary(written())


class _Tally:
    """The one tally of a grid: cell counts, significant share, error-kind
    tallies and the most significant window (the first in (start, end)
    order among ties), over cells that arrive in key order.

    A cell is significant when both lower confidence bounds are strictly
    positive.  Besides fits and invalid cells, a cell may be True or
    False: a valid cell that the float filter found significant or not,
    and whose b_lower is not above ``best_b``, the greatest so far."""

    def __init__(self, model: str, min_window: int):
        self.model = model
        self.min_window = min_window
        self.best_b = None

    def summary(self, cells) -> dict:
        n_cells = n_sig = 0
        errors: Dict[str, int] = {}
        best = best_key = None
        for key, cell in cells:
            n_cells += 1
            if cell is True:
                n_sig += 1
            elif isinstance(cell, OlsFit):
                b_lower = cell.b_lower
                if cell.a_lower > 0.0 and b_lower > 0.0:
                    n_sig += 1
                if best is None or b_lower > self.best_b:
                    best, best_key, self.best_b = cell, key, b_lower
            elif cell is not False:
                errors[cell.error_kind] = errors.get(cell.error_kind, 0) + 1
        n_valid = n_cells - sum(errors.values())
        summary = {
            "model": self.model,
            "min_window": self.min_window,
            "cells": n_cells,
            "valid_cells": n_valid,
            "significant_cells": n_sig,
            "significant_fraction": (n_sig / n_valid) if n_valid else None,
            "invalid_by_error": errors,
        }
        if best is not None:
            summary["best_window"] = {
                "start": best_key[0],
                "end": best_key[1],
                "fit": {name: getattr(best, name) for name in _FIT_FIELDS},
            }
        else:
            summary["best_window"] = None
        return summary


def grid_summary(grid: SweepGrid) -> dict:
    """Aggregate statistics for reports: cell counts, significant share,
    error-kind tallies, and the most significant window (the first in
    (start, end) order among ties).

    A cell is significant when both lower confidence bounds are strictly
    positive, and ``significant_fraction`` is None when no cell is
    valid.  ``sweep_summary`` gives the same dict without a grid."""
    return _Tally(grid.model, grid.min_window).summary(grid.cells.items())
