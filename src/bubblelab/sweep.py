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
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple, Union

from .errors import InvalidConfig
from .regression import (
    _LAGS,
    OlsFit,
    _fit,
    _fit_moments,
    _moment_rows,
    _pairs,
    _spread_start,
    _window_fits,
)
from .series import MIN_WINDOW, ExcessSeries, Window, _check_int, _check_min_window
from .studentt import t_quantile


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

# sweep_summary's float filter: the relative distance it allows between
# its float estimates and the kernel's lower bounds, the factor by which
# det must outweigh the error of the kernel's residual sum of squares,
# and the least standard error it estimates in floats
_FILTER_TOLERANCE = 2.0**-40
_FILTER_GUARD = 2.0**58
_FILTER_TINY = 2.0**-1000


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


def _starts(model, lo, hi, vals, min_window, one_sided):
    """Yield (s, rows, p, tqs, spread, bad) for every start s in [lo, hi]
    (vals holds the span's values), in order: how the windows from s are
    laid out, decided once for every sweep.

    ``bad`` is the first t >= s whose value is not positive (hi + 1 when
    none), so every window from s that reaches it fails there.  ``rows``
    holds the moment rows of the pairs of [s, bad - 1], scaled by 2**p
    (see ``_moment_rows``), and is empty when s's run of positive values
    holds no window of ``min_window`` points.  ``spread`` is the least
    pair count at which the float regressors of ``rows`` are not
    degenerate (``_spread_start``), at least ``first``, the pair count of
    the shortest window: the windows from s with fewer pairs are
    degenerate, and those with ``spread`` up to len(rows) pairs are
    fitted.  ``tqs`` is the sweep's table of the lower bounds'
    t-quantile at each pair count (its index) from ``first`` up to
    len(rows); it is extended once per run, and only for a run with
    rows, so a ``min_window`` longer than the data allocates nothing.
    """
    first = min_window - 1 - _LAGS[model]
    level = 0.95 if one_sided else 0.975
    tqs = []
    run0 = lo
    while run0 <= hi:
        # Values are strictly positive from run0 up to (excluding) t = bad.
        bad = run0
        while bad <= hi and vals[bad - lo] > 0:
            bad += 1
        run_end = max(bad, run0 + 1)
        if bad - run0 >= min_window:
            # some window inside the run is long enough: fit them all from
            # one set of pairs and one integer image of the run
            rows, p = _moment_rows(*_pairs(model, vals[run0 - lo : bad - lo], run0))
            if len(tqs) <= len(rows):
                tqs += [None] * (first - len(tqs))
                tqs += [t_quantile(level, n - 2) for n in range(len(tqs), len(rows) + 1)]
        else:  # no window of the run is long enough to fit
            rows, p = (), 0
        for s in range(run0, run_end):
            # pair s - run0 is the first pair of the windows that start at s
            rows_s = rows[s - run0 :]
            yield s, rows_s, p, tqs, max(_spread_start(rows_s, first), first), bad
        run0 = run_end


def _count_errors(errors, degenerate, blocked):
    """Add one start's invalid cells to ``errors``: its ``degenerate``
    windows come first in key order, then its ``blocked`` ones, so each
    kind is seen in key order."""
    for kind, count in ((_DEGENERATE.error_kind, degenerate), (_BLOCKED.error_kind, blocked)):
        if count > 0:
            errors[kind] = errors.get(kind, 0) + count


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
    # the window ending at e holds e - s - lag pairs, at least 3 (see
    # MIN_WINDOW), so no cell has TooFewPoints
    lag = _LAGS[model]
    cells = {}
    for s, rows, p, tqs, spread, bad in _starts(model, lo, hi, vals, min_window, one_sided):
        first_e = s + min_window - 1
        fit_e = s + lag + spread  # the end of the first fitted window
        for e in range(first_e, fit_e):
            cells[s, e] = _DEGENERATE
        for e, numbers in enumerate(_window_fits(rows, p, spread, tqs), fit_e):
            cells[s, e] = _fit(model, numbers)
        for e in range(max(first_e, bad), hi + 1):
            cells[s, e] = _BLOCKED
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
    and, of the first cell with the greatest b_lower, the kernel's fit.
    A float filter proves both of most cells in floats, from bounds on
    the kernel's b_lower and a_lower; the kernel fits at once the cells
    it cannot decide.  The floor is the greatest b_lower known to be
    reached: a proven lower bound, or a fitted cell's b_lower.  A cell
    whose upper bound lies below the floor is beaten by some cell, so
    only the cells whose upper bound reaches the floor are kept, in key
    order, and the kernel fits those that are left at the end; the first
    strict maximum among them is the best window.

    The sign rule settles a cell before any float work once the floor is
    > 0.  The regressor is not constant, so cxx = n*Sxx - Sx**2 > 0, and
    the kernel's slope b = cxy / cxx is correctly rounded, so it has the
    sign of the exact int cxy = n*Sxy - Sx*Sy (or is 0).  Its b_lower =
    b - t * se_b subtracts a non-negative float, and rounding is
    monotone, so b_lower <= b.  A cell with cxy <= 0 thus has b_lower <=
    0 < floor: it is not significant, and some cell beats it.  It is
    counted as valid and not kept.

    Error analysis of the filter (u = 2**-53; X = x * 2**p and so on are
    the scaled data, and every quantity below is at that scale, where the
    sign of a lower bound is the sign of the kernel's).  The centred sums
    cxx, cxy, cyy and det = cxx*cyy - cxy**2 are exact ints, each rounded
    once to float.  det = n*cxx * SSR*, with SSR* the least-squares
    residual sum of squares, so the exact se_b = sqrt(det / df) / cxx and
    se_a = se_b * sqrt(sxx / n).  With m = |sy| + |b * sx|, which bounds
    the two terms whose difference is n * a (a cancellation there only
    widens the bound on a), these roundings put the estimates within 5u
    |b| of b, 4u of se_b, 7u of se_a and 8u * m / n of a.  The kernel's
    b is within u |b| of the exact slope and its a within 2u * m / n of
    the exact intercept.  So each lower bound of the kernel lies within
    2**-49 of the scale |b| + t * se_b (for a: m / n + t * se_a) of its
    estimate, *but* for one term: the kernel's standard errors come from
    the residual sum of squares of its rounded (a, b).  That exceeds
    SSR* by n * (u * m / n)**2 + (u * b)**2 * cxx / n at most, a relative
    excess rho <= u**2 * cxx * (m**2 + cyy) / det, and never falls short
    of it.  So the kernel's lower bounds are never *above* the estimates
    by more than the float error: ``upper``, and the decision that a fit
    is not significant, hold whatever rho is.  ``lower``, and the
    decision that a fit is significant, need rho small: near-perfect
    fits, where det is small against cxx * cyy, and responses whose
    spread is a few ulps of their mean, where det is small against
    cxx * m**2, make rho large.  So both require the guard
    cxx * (cyy + m**2) <= 2**58 * det, which holds rho to 2**-48 and its
    effect on se_a and se_b to 2**-49.

    The filter allows 2**-40 of the scale: 256 times the 2**-48 these
    bounds add up to, which also covers the rounding of the decision
    arithmetic itself.  A term n * 2**(p - 1022) in m covers the absolute
    rounding of the kernel's unscaled floats below the normal range.
    Standard errors below 2**-1000, where floats lose bits, and ints or
    bounds too large for a float go to the kernel.
    """
    lo, hi, vals = _span(excess, model, window, min_window)
    lag = _LAGS[model]
    n_sig = 0
    errors: Dict[str, int] = {}
    floor = -math.inf
    # (upper bound of b_lower, key, the kernel's numbers or None, the
    # kernel's arguments) of each cell that may be the best window, in
    # key order
    kept = []
    for s, rows, p, tqs, spread, bad in _starts(model, lo, hi, vals, min_window, one_sided):
        first_e = s + min_window - 1
        _count_errors(errors, s + lag + spread - first_e, hi + 1 - max(first_e, bad))
        n = sx = sy = sxx = sxy = syy = 0
        for x, y, xx, xy, yy, _ in rows:
            n += 1
            sx += x
            sy += y
            sxx += xx
            sxy += xy
            syy += yy
            if n < spread:
                continue
            cxy = n * sxy - sx * sy
            if cxy <= 0 < floor:  # the sign rule: b_lower <= 0 < floor
                continue
            cxx = n * sxx - sx * sx
            cyy = n * syy - sy * sy
            tq = tqs[n]
            numbers = None
            # significant: False or True where floats decide it, None where
            # the kernel must; upper and lower bound the kernel's b_lower
            # (lower only where it is proven above the floor)
            try:
                fxx = float(cxx)
                fdet = float(cxx * cyy - cxy * cxy)
                b = float(cxy) / fxx
                se_b = math.sqrt(fdet / (n - 2)) / fxx
                tse = tq * se_b
                b_lower = b - tse
                db = _FILTER_TOLERANCE * ((b if b > 0.0 else -b) + tse)
                upper = b_lower + db
                lower = b_lower - db
                significant = False
                if not (se_b >= _FILTER_TINY and db < math.inf):
                    significant = None
                elif upper >= 0.0 or lower > floor:  # else not significant, and no news
                    fsy = float(sy)
                    bsx = b * float(sx)
                    m = (fsy if fsy > 0.0 else -fsy) + (bsx if bsx > 0.0 else -bsx)
                    m += math.ldexp(n, p - 1022)
                    if upper >= 0.0:
                        se_a = se_b * math.sqrt(float(sxx) / n)
                        a_lower = (fsy - bsx) / n - tq * se_a
                        da = _FILTER_TOLERANCE * (m / n + tq * se_a)
                        if a_lower + da >= 0.0:  # None: a lower bound straddles 0
                            significant = (lower > 0.0 and a_lower - da > 0.0) or None
                    if significant is not None and (significant or lower > floor) and not (
                        fxx * (float(cyy) + m * m) <= _FILTER_GUARD * fdet
                    ):  # rho may be too large to prove lower or significance
                        if significant:
                            significant = None
                        lower = -math.inf
            except OverflowError:  # an int beyond the float range
                significant = None
            if significant is None:
                numbers = _fit_moments(n, sx, sy, sxx, sxy, syy, p, tq)
                lower = upper = numbers[5]  # b_lower
                significant = numbers[4] > 0.0 and upper > 0.0  # a_lower
            if significant:
                n_sig += 1
            if upper >= floor:
                kept.append((upper, (s, s + n + lag), numbers,
                             (n, sx, sy, sxx, sxy, syy, p, tq)))
                if lower > floor:
                    floor = lower
                    kept = [k for k in kept if k[0] >= floor]
    best = best_key = None
    for _, key, numbers, moments in kept:
        if numbers is None:
            numbers = _fit_moments(*moments)
        if best is None or numbers[5] > best[5]:
            best, best_key = numbers, key
    return _summary(model, min_window, triangular_cell_count(hi + 1 - lo, min_window), n_sig,
                    errors, best_key, None if best is None else _fit(model, best))


def triangular_cell_count(n: int, min_window: int) -> int:
    """Count of windows of at least ``min_window`` points in a span of
    ``n`` points (none when n < min_window), for shape checks.  A
    negative ``n`` raises InvalidConfig."""
    _check_int("n", n)
    if n < 0:
        raise InvalidConfig(f"n must not be negative, got {n}")
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
    that holds no grid.  Each start's rows are formatted from the
    kernel's numbers and written at once, and tallied by
    ``grid_summary``'s rules; only the best window's fit is built.

    The arguments are checked before ``path`` is opened, so an
    InvalidConfig leaves no file behind.
    """
    lo, hi, vals = _span(excess, model, window, min_window)
    lag = _LAGS[model]
    n_sig = 0
    errors: Dict[str, int] = {}
    best = best_key = None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER)
        for s, rows, p, tqs, spread, bad in _starts(model, lo, hi, vals, min_window, one_sided):
            first_e = s + min_window - 1
            e = fit_e = s + lag + spread
            lines = [_INVALID_ROW % (model, s, d, _DEGENERATE.error_kind)
                     for d in range(first_e, fit_e)]
            for numbers in _window_fits(rows, p, spread, tqs):
                a, b, se_a, se_b, a_lower, b_lower, n, _, r2, _ = numbers
                lines.append(_VALID_ROW % (model, s, e, a, b, se_a, se_b,
                                           a_lower, b_lower, n, r2))
                if a_lower > 0.0 and b_lower > 0.0:
                    n_sig += 1
                if best is None or b_lower > best[5]:
                    best, best_key = numbers, (s, e)
                e += 1
            first_blocked = max(first_e, bad)
            lines += [_INVALID_ROW % (model, s, d, _BLOCKED.error_kind)
                      for d in range(first_blocked, hi + 1)]
            _count_errors(errors, fit_e - first_e, hi + 1 - first_blocked)
            fh.write("".join(lines))
    return _summary(model, min_window, triangular_cell_count(hi + 1 - lo, min_window), n_sig,
                    errors, best_key, None if best is None else _fit(model, best))


def _summary(model, min_window, n_cells, n_sig, errors, best_key, best) -> dict:
    """The summary dict of a grid's tallies: ``errors`` counts invalid
    cells by error kind in first-seen order, and ``best`` is the fit of
    the window ``best_key`` (None when no cell is valid)."""
    n_valid = n_cells - sum(errors.values())
    return {
        "model": model,
        "min_window": min_window,
        "cells": n_cells,
        "valid_cells": n_valid,
        "significant_cells": n_sig,
        "significant_fraction": (n_sig / n_valid) if n_valid else None,
        "invalid_by_error": errors,
        "best_window": None if best is None else {
            "start": best_key[0],
            "end": best_key[1],
            "fit": {name: getattr(best, name) for name in _FIT_FIELDS},
        },
    }


def grid_summary(grid: SweepGrid) -> dict:
    """Aggregate statistics for reports: cell counts, significant share,
    error-kind tallies, and the most significant window (the first in
    (start, end) order among ties).

    A cell is significant when both lower confidence bounds are strictly
    positive, and ``significant_fraction`` is None when no cell is
    valid.  ``sweep_summary`` gives the same dict without a grid."""
    n_sig = 0
    errors: Dict[str, int] = {}
    best = best_key = None
    for key, cell in grid.cells.items():
        if isinstance(cell, OlsFit):
            b_lower = cell.b_lower
            if cell.a_lower > 0.0 and b_lower > 0.0:
                n_sig += 1
            if best is None or b_lower > best.b_lower:
                best, best_key = cell, key
        else:
            errors[cell.error_kind] = errors.get(cell.error_kind, 0) + 1
    return _summary(grid.model, grid.min_window, len(grid.cells), n_sig, errors, best_key, best)
