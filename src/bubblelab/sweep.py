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
from itertools import groupby, zip_longest
from operator import attrgetter
from typing import Dict, Optional, Tuple, Union

from .regression import (_LAGS, OlsFit, _fit_moments, _moment_rows, _pairs, _spread_starts,
                         _t_bound)
from .series import MIN_WINDOW, ExcessSeries, Window, _check_choice, _check_flag, _check_int


@dataclass(frozen=True)
class InvalidCell:
    """Marker for a window whose fit failed, carrying the error kind."""

    error_kind: str


Cell = Union[OlsFit, InvalidCell]

# the cells of windows that reach a non-positive excess price, and of
# windows whose regressor is constant
_BLOCKED = InvalidCell("NonPositiveExcess")
_DEGENERATE = InvalidCell("DegenerateRegressor")

# an OlsFit's field names in declaration order, the keys of a best window's "fit";
# _numbers reads a fit's numbers, the fields after model, as the kernel returns them
_FIT_FIELDS = tuple(f.name for f in fields(OlsFit))
_numbers = attrgetter(*_FIT_FIELDS[1:])

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


def _span(excess, model, window, min_window, one_sided):
    """Check a sweep's arguments; return the span (lo, hi) and its values."""
    _check_choice("model", model, sorted(_LAGS))
    _check_int("min_window", min_window, least=MIN_WINDOW)
    _check_flag("one_sided", one_sided)
    if window is None:
        return excess.t0, excess.t_end, excess.values
    vals = excess.window_values(window)  # checks the window before its bounds are read
    return window.start, window.end, vals


def _starts(model, lo, hi, vals, min_window, one_sided):
    """Yield (s, rows, p, tqs, spread, degenerate, blocked) for every
    start s in [lo, hi] (vals holds the span's values), in order: how the
    windows from s are laid out, decided once for every sweep.

    Let bad be the first t >= s whose value is not positive (hi + 1 when
    none).  ``degenerate`` and ``blocked`` are ranges of window ends:
    the windows from s that end in ``degenerate`` have a constant
    regressor, and those that end in ``blocked`` reach bad and fail
    there.  The windows that end between them, from ``degenerate.stop``
    on, are fitted.  ``rows`` holds the moment rows of the pairs of
    [s, bad - 1], scaled by 2**p (see ``_moment_rows``), and is empty
    when s's run of positive values holds no window of ``min_window``
    points.  ``spread`` is the pair count of the first fitted window:
    the least n >= ``first``, the pair count of the shortest window, at
    which the float regressors of rows[:n] are not degenerate, or
    len(rows) + 1 when there is none (``_spread_starts``, one pass per
    run).  ``tqs`` is the sweep's table of the lower bounds' t-quantile
    at each pair count (its index) from ``first`` up to len(rows); it is
    extended once per run, and only for a run with rows, so a
    ``min_window`` longer than the data allocates nothing.
    """
    first = min_window - 1 - _LAGS[model]
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
            xs, ys = _pairs(model, vals[run0 - lo : bad - lo], run0)
            rows, p = _moment_rows(xs, ys)
            spreads = _spread_starts(xs, first)
            if len(tqs) <= len(rows):
                tqs += [None] * (first - len(tqs))
                tqs += [_t_bound(one_sided, n - 2) for n in range(len(tqs), len(rows) + 1)]
        else:  # no window of the run is long enough to fit
            rows, p, spreads = (), 0, ()
        # a start past the run's pairs has no rows, so its spread is 1
        for s, spread in zip_longest(range(run0, run_end), spreads, fillvalue=1):
            # pair s - run0 is the first pair of the windows that start at s
            first_e = s + min_window - 1
            # the windows of first up to spread - 1 pairs are degenerate
            yield (s, rows[s - run0 :], p, tqs, spread,
                   range(first_e, first_e + spread - first), range(max(first_e, bad), hi + 1))
        run0 = run_end


def _cells(model, lo, hi, vals, min_window, one_sided):
    """Yield (s, row) for every start s in [lo, hi], in order, where
    ``row`` lists the (end, cell) of every window from s in key order:
    the ``_DEGENERATE`` marker of each ``degenerate`` end, then the
    kernel's numbers (a tuple, see ``_fit_moments``) of each fitted
    window, then the ``_BLOCKED`` marker of each ``blocked`` end (see
    ``_starts``).  The fitted windows grow one pair at a time, each
    adding its pair to the exact moments of the one before.
    """
    for s, rows, p, tqs, spread, degenerate, blocked in _starts(model, lo, hi, vals,
                                                                min_window, one_sided):
        row = [(e, _DEGENERATE) for e in degenerate]
        shift = degenerate.stop - spread  # the window of n pairs ends at shift + n
        n = sx = sy = sxx = sxy = syy = 0
        for x, y, xx, xy, yy in rows:
            n += 1
            sx += x
            sy += y
            sxx += xx
            sxy += xy
            syy += yy
            if n >= spread:
                row.append((shift + n, _fit_moments(n, sx, sy, sxx, sxy, syy, p, tqs[n])))
        row += [(e, _BLOCKED) for e in blocked]
        yield s, row


def sweep(
    excess: ExcessSeries,
    model: str,
    window: Optional[Window] = None,
    min_window: int = MIN_WINDOW,
    one_sided: bool = False,
) -> SweepGrid:
    """Fit ``model`` on every window of at least ``min_window`` points
    inside ``window`` (the whole series when None).

    A ``window`` that is no Window or lies outside the series, a
    ``min_window`` that is not an integer of at least MIN_WINDOW, or a
    ``one_sided`` other than True or False raises InvalidConfig.
    Per-window errors (windows crossing non-positive excess prices,
    degenerate regressors) become invalid-cell markers rather than
    failing the sweep.

    Each cell equals ``fit_price_model``/``fit_return_model`` on its
    window, bit for bit, but costs O(1): for a fixed start the window
    grows one point at a time, updating exact moment sums that the shared
    OLS kernel turns into a fit, so a grid costs O(N^2) rather than O(N^3).
    """
    lo, hi, vals = _span(excess, model, window, min_window, one_sided)
    # every window holds at least 3 pairs (see MIN_WINDOW), so no cell has
    # TooFewPoints
    cells = {(s, e): OlsFit(model, *cell) if type(cell) is tuple else cell
             for s, row in _cells(model, lo, hi, vals, min_window, one_sided) for e, cell in row}
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
    lo, hi, vals = _span(excess, model, window, min_window, one_sided)
    n_sig = 0
    errors: Dict[str, int] = {}
    floor = -math.inf
    # (upper bound of b_lower, key, the kernel's numbers or None, the
    # kernel's arguments) of each cell that may be the best window, in
    # key order
    kept = []
    for s, rows, p, tqs, spread, degenerate, blocked in _starts(model, lo, hi, vals,
                                                                min_window, one_sided):
        for kind, ends in ((_DEGENERATE.error_kind, degenerate), (_BLOCKED.error_kind, blocked)):
            if ends:
                errors[kind] = errors.get(kind, 0) + len(ends)
        n = sx = sy = sxx = sxy = syy = 0
        for x, y, xx, xy, yy in rows:
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
            if upper >= floor:  # the window of spread pairs ends at degenerate.stop
                kept.append((upper, (s, degenerate.stop + n - spread), numbers,
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
                    errors, best_key, best)


def triangular_cell_count(n: int, min_window: int) -> int:
    """Count of windows of at least ``min_window`` points in a span of
    ``n`` points (none when n < min_window), for shape checks.  A
    negative ``n`` raises InvalidConfig."""
    _check_int("n", n, least=0)
    _check_int("min_window", min_window, least=MIN_WINDOW)
    k = max(0, n - min_window + 1)
    return k * (k + 1) // 2


# a grid CSV's header line, and its row formats for valid and invalid cells
_CSV_HEADER = "model,start,end,a,b,se_a,se_b,a_lower,b_lower,n,r2,valid,error_kind\n"
_VALID_ROW = "%s,%d,%d" + ",%.17g" * 6 + ",%d,%.17g,true,\n"
_INVALID_ROW = "%s,%d,%d,,,,,,,,,false,%s\n"


def _csv_lines(model: str, s: int, row) -> str:
    """The grid CSV lines, newlines included, of the cells ``row`` of
    start ``s``: (end, cell) pairs in key order, where a cell is the
    kernel's numbers (a tuple) or an invalid cell."""
    lines = []
    for e, cell in row:
        if type(cell) is tuple:
            a, b, se_a, se_b, a_lower, b_lower, n, _, r2, _ = cell
            lines.append(_VALID_ROW % (model, s, e, a, b, se_a, se_b, a_lower, b_lower, n, r2))
        else:
            lines.append(_INVALID_ROW % (model, s, e, cell.error_kind))
    return "".join(lines)


def _grid_rows(grid: SweepGrid):
    """Yield (s, row) for each run of ``grid``'s keys that share the start
    s, as ``_cells`` yields them: a cell is valid exactly when it is an
    OlsFit (a subclass too), and then passes on as its numbers."""
    for s, items in groupby(grid.cells.items(), lambda item: item[0][0]):
        yield s, [(e, _numbers(cell) if isinstance(cell, OlsFit) else cell)
                  for (_, e), cell in items]


def grid_to_csv(grid: SweepGrid) -> str:
    """Long-format export, one row per cell in (start, end) order,
    plottable as a triangle map."""
    return _CSV_HEADER + "".join(_csv_lines(grid.model, s, row) for s, row in _grid_rows(grid))


def _written(fh, model: str, starts):
    """Pass on each (s, row) of ``starts`` once its CSV lines are written
    to ``fh``, in one write."""
    for s, row in starts:
        fh.write(_csv_lines(model, s, row))
        yield s, row


def write_grid(path, excess: ExcessSeries, model: str, window: Optional[Window] = None,
               min_window: int = MIN_WINDOW, one_sided: bool = False) -> dict:
    """Write ``grid_to_csv(sweep(...))`` to ``path`` and return
    ``grid_summary(sweep(...))``, with the same arguments, in one pass
    that holds no grid: each start's cells, from the stream that
    ``sweep`` reads, are written at once by ``grid_to_csv``'s formatter
    and tallied by ``grid_summary``'s tally; no fit object is built.

    The arguments are checked before ``path`` is opened, so an
    InvalidConfig leaves no file behind.
    """
    lo, hi, vals = _span(excess, model, window, min_window, one_sided)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER)
        starts = _cells(model, lo, hi, vals, min_window, one_sided)
        return _tally(model, min_window, _written(fh, model, starts))


def _tally(model: str, min_window: int, starts) -> dict:
    """The summary dict of the cells of ``starts``, (s, row) pairs as
    ``_cells`` yields them, by ``grid_summary``'s rules: it counts the
    cells, the significant ones, the invalid ones by error kind in
    first-seen order, and takes the first window with the greatest
    b_lower."""
    n_cells = n_sig = 0
    errors: Dict[str, int] = {}
    best = best_key = None
    for s, row in starts:
        n_cells += len(row)
        for e, cell in row:
            if type(cell) is tuple:
                b_lower = cell[5]
                if cell[4] > 0.0 and b_lower > 0.0:  # a_lower and b_lower
                    n_sig += 1
                if best is None or b_lower > best[5]:
                    best, best_key = cell, (s, e)
            else:
                errors[cell.error_kind] = errors.get(cell.error_kind, 0) + 1
    return _summary(model, min_window, n_cells, n_sig, errors, best_key, best)


def _summary(model, min_window, n_cells, n_sig, errors, best_key, best) -> dict:
    """The summary dict of a grid's tallies: ``errors`` counts invalid
    cells by error kind in first-seen order, and ``best`` is the kernel's
    numbers of the window ``best_key`` (None when no cell is valid)."""
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
            "fit": dict(zip(_FIT_FIELDS, (model, *best))),
        },
    }


def grid_summary(grid: SweepGrid) -> dict:
    """Aggregate statistics for reports: cell counts, significant share,
    error-kind tallies, and the most significant window (the first in
    (start, end) order among ties).

    A cell is significant when both lower confidence bounds are strictly
    positive, and ``significant_fraction`` is None when no cell is
    valid.  ``sweep_summary`` gives the same dict without a grid."""
    return _tally(grid.model, grid.min_window, _grid_rows(grid))
