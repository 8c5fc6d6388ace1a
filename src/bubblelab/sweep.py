"""Window sweeps: fit a feedback model on every admissible [start, end]
window and assemble the significance surface behind the triangle
heatmaps.

Cells are independent pure computations keyed by (start, end); only
windows of at least ``min_window`` points exist, which is what gives the
grids their triangular shape.  Each cell depends on nothing but the data
inside its own window.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

from .errors import (
    DegenerateRegressor,
    InvalidConfig,
    NonPositiveExcess,
    NoValidCells,
)
from .regression import (
    _LAGS,
    OlsFit,
    _check_spread,
    _fit_moments,
    _pairs,
    _scaled_ints,
)
from .series import MIN_WINDOW, ExcessSeries


@dataclass(frozen=True)
class InvalidCell:
    """Marker for a window whose fit failed, carrying the error kind."""

    error_kind: str
    detail: str = ""


Cell = Union[OlsFit, InvalidCell]


@dataclass(frozen=True)
class SweepGrid:
    model: str
    start_range: Tuple[int, int]
    end_range: Tuple[int, int]
    min_window: int
    cells: Dict[Tuple[int, int], Cell]

    def valid_items(self):
        return [(k, c) for k, c in sorted(self.cells.items()) if isinstance(c, OlsFit)]

    def n_valid(self) -> int:
        return sum(1 for c in self.cells.values() if isinstance(c, OlsFit))


def sweep(
    excess: ExcessSeries,
    model: str,
    start_range: Optional[Tuple[int, int]] = None,
    end_range: Optional[Tuple[int, int]] = None,
    min_window: int = MIN_WINDOW,
    one_sided: bool = False,
) -> SweepGrid:
    """Fit ``model`` on every admissible window within the given bounds.

    Bounds default to the full series span.  Per-window errors (windows
    crossing non-positive excess prices, degenerate regressors) become
    invalid-cell markers rather than failing the sweep.

    Each cell equals ``fit_price_model``/``fit_return_model`` on its
    window, bit for bit, but costs O(1): for a fixed start the window
    grows one point at a time, updating exact moment sums that the shared
    OLS kernel turns into a fit, so a grid costs O(N^2) rather than O(N^3).
    """
    if model not in _LAGS:
        raise InvalidConfig(f"model must be one of {sorted(_LAGS)}, got {model!r}")
    if min_window < MIN_WINDOW:
        raise InvalidConfig(f"min_window must be at least {MIN_WINDOW}")
    lag = _LAGS[model]
    s_lo, s_hi = start_range if start_range is not None else (excess.t0, excess.t_end)
    e_lo, e_hi = end_range if end_range is not None else (excess.t0, excess.t_end)
    if s_lo < excess.t0 or e_hi > excess.t_end:
        raise InvalidConfig(
            f"sweep bounds [{s_lo}, {e_hi}] outside series range "
            f"[{excess.t0}, {excess.t_end}]"
        )

    # Only values inside [s_lo, e_hi] are ever part of a window.
    vals = excess.values[s_lo - excess.t0 : e_hi - excess.t0 + 1]
    cells: Dict[Tuple[int, int], Cell] = {}
    run0 = s_lo
    while run0 <= s_hi:
        # Values are strictly positive from run0 up to (excluding) t = bad;
        # for every start in that run, a window reaching bad fails there.
        bad = run0
        while bad <= e_hi and vals[bad - s_lo] > 0:
            bad += 1
        blocked = InvalidCell("NonPositiveExcess", str(NonPositiveExcess(bad)))
        run_end = min(max(bad, run0 + 1), s_hi + 1)
        if bad - 1 >= max(e_lo, run0 + min_window - 1):
            # some window inside the run is long enough: fit them all from
            # one set of pairs and one integer image of the run
            xf, yf = _pairs(model, vals[run0 - s_lo : bad - s_lo], run0)
            xs, ys, p = _scaled_ints(xf, yf)
        else:  # no window of the run is long enough to fit
            xs = ys = xf = ()
        last = min(bad, e_hi + 1)  # ends from here on are blocked
        for s in range(run0, run_end):
            first_e = max(e_lo, s + min_window - 1)
            n = sx = sy = sxx = sxy = syy = 0
            xmin, xmax = math.inf, -math.inf
            # A window that grows by a point widens its regressor's spread
            # at least as much as its scale max(|x|, 1), so once the spread
            # exceeds 32 ulps of the scale it does so for every longer
            # window from the same start: check only until the first pass.
            spread_ok = False
            # pair j (counted from run0) is the last pair of the cell that
            # ends at e = run0 + j + 1 + lag; cell (s, e) holds pairs from s
            lo = s - run0
            for e, x, y, xv in zip(range(s + lag + 1, last), xs[lo:], ys[lo:], xf[lo:]):
                n += 1
                sx += x
                sy += y
                sxx += x * x
                sxy += x * y
                syy += y * y
                if xv < xmin:
                    xmin = xv
                if xv > xmax:
                    xmax = xv
                if e < first_e:
                    continue
                if not spread_ok:
                    try:
                        _check_spread(xmin, xmax)
                    except DegenerateRegressor as exc:
                        cells[(s, e)] = InvalidCell(type(exc).__name__, str(exc))
                        continue
                    spread_ok = True
                # n >= 3 (see MIN_WINDOW), so no cell has TooFewPoints
                cells[(s, e)] = _fit_moments(
                    model, n, sx, sy, sxx, sxy, syy, p, one_sided
                )
            for e in range(max(first_e, bad), e_hi + 1):
                cells[(s, e)] = blocked
        run0 = run_end
    return SweepGrid(
        model=model,
        start_range=(s_lo, s_hi),
        end_range=(e_lo, e_hi),
        min_window=min_window,
        cells=cells,
    )


def significance_mask(grid: SweepGrid) -> Dict[Tuple[int, int], bool]:
    """True where both lower confidence bounds are strictly positive.

    Joint positivity is the super-exponential signal; invalid cells are
    False by definition.
    """
    mask = {}
    for key, cell in grid.cells.items():
        mask[key] = (
            isinstance(cell, OlsFit) and cell.a_lower > 0.0 and cell.b_lower > 0.0
        )
    return mask


def significant_fraction(grid: SweepGrid) -> float:
    """Share of valid cells passing the joint-significance test."""
    n_valid = grid.n_valid()
    if n_valid == 0:
        raise NoValidCells(f"{grid.model} grid has no valid cell")
    mask = significance_mask(grid)
    return sum(1 for v in mask.values() if v) / n_valid


def triangular_cell_count(
    start_range: Tuple[int, int], end_range: Tuple[int, int], min_window: int
) -> int:
    """Count of admissible windows, for shape checks.

    Starts up to ``e0 - min_window + 1`` may end anywhere in the end
    range; each later start loses one end, down to the last start that
    still fits a window.
    """
    (s0, s1), (e0, e1) = start_range, end_range
    if e1 < e0:
        return 0
    flat = e0 - min_window + 1
    total = max(0, min(s1, flat) - s0 + 1) * (e1 - e0 + 1)
    lo, hi = max(s0, flat + 1), min(s1, e1 - min_window + 1)
    if lo <= hi:  # start s has e1 - min_window + 2 - s ends
        total += (hi - lo + 1) * (2 * (e1 - min_window + 2) - lo - hi) // 2
    return total


def grid_to_csv(grid: SweepGrid) -> str:
    """Long-format export, one row per cell, plottable as a triangle map."""
    out = ["model,start,end,a,b,se_a,se_b,a_lower,b_lower,n,r2,valid,error_kind"]
    for (s, e), cell in sorted(grid.cells.items()):
        if isinstance(cell, OlsFit):
            out.append(
                f"{grid.model},{s},{e},"
                f"{cell.a:.17g},{cell.b:.17g},{cell.se_a:.17g},{cell.se_b:.17g},"
                f"{cell.a_lower:.17g},{cell.b_lower:.17g},{cell.n},{cell.r2:.17g},"
                "true,"
            )
        else:
            out.append(f"{grid.model},{s},{e},,,,,,,,,false,{cell.error_kind}")
    return "\n".join(out) + "\n"


def grid_summary(grid: SweepGrid) -> dict:
    """Aggregate statistics for reports: cell counts, significant share,
    error-kind tallies, and the most significant window."""
    mask = significance_mask(grid)
    n_valid = grid.n_valid()
    n_sig = sum(1 for v in mask.values() if v)
    errors: Dict[str, int] = {}
    for cell in grid.cells.values():
        if isinstance(cell, InvalidCell):
            errors[cell.error_kind] = errors.get(cell.error_kind, 0) + 1
    best = None
    best_key = None
    for key, cell in grid.valid_items():
        if best is None or cell.b_lower > best.b_lower:
            best, best_key = cell, key
    summary = {
        "model": grid.model,
        "min_window": grid.min_window,
        "cells": len(grid.cells),
        "valid_cells": n_valid,
        "significant_cells": n_sig,
        "significant_fraction": (n_sig / n_valid) if n_valid else None,
        "invalid_by_error": errors,
    }
    if best is not None:
        summary["best_window"] = {
            "start": best_key[0],
            "end": best_key[1],
            "fit": asdict(best),
        }
    else:
        summary["best_window"] = None
    return summary
