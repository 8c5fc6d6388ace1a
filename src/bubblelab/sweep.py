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
from operator import attrgetter, itemgetter, mul
from typing import Dict, Optional, Tuple, Union

from .regression import (_LAGS, MODEL_PRICE, OlsFit, _apart, _fit_moments, _images, _pairs,
                         _t_bound)
from .series import (MIN_WINDOW, ExcessSeries, Window, _check_choice, _check_flag, _check_int,
                     log_growth)


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


def _spread_starts(xs, first):
    """The spread start of every offset i of the float regressors ``xs``:
    the least pair count n >= ``first`` (at least 1) at which xs[i:i+n]
    is not degenerate, or len(xs) - i + 1 when there is none.  A window
    is degenerate when its least and greatest value lo and hi fail the
    spread test ``regression._apart(lo, hi)``: fl(hi - lo) <= 2**-47 *
    m, with m = max(|lo|, |hi|, 1).  The shortcut below and the search
    both call it, as ``ols2`` does on its one window's least and greatest
    value; by the lemma below, a window's cell is degenerate exactly when
    ``ols2`` raises DegenerateRegressor on its pairs.

    One two-pointer pass: the end i + n of the first window that passes
    never falls as i grows, so each search carries on from the last end
    (and once no window passes, none from a later start does).  That
    holds because a window that contains a passing window passes.  Add
    a point to a passing window, say a new greatest value h' > hi (the
    least is alike).  If m does not grow, fl(h' - lo) >= fl(hi - lo), as
    rounding is monotone.  If m grows, to m' = h' > 1, then h' - lo >=
    (hi - lo) + (m' - m) exactly, and fl(hi - lo) > 2**-47 * m, a float,
    gives hi - lo > 2**-47 * m, so h' - lo > 2**-47 * m'; fl(h' - lo) is
    then exact when lo >= h'/2 (Sterbenz) and else at least h'/2, a
    float; either way above 2**-47 * m'.  For the same reason an offset
    whose first two values pass has the spread start max(first, 2), the
    least window that holds them, without a search; the last end then
    lies at or below its end, so the next search carries on as before.
    """
    size = len(xs)
    least = max(first, 2)  # one value alone never passes
    starts, end = [], 0
    for i in range(size):
        if i + least <= size and _apart(xs[i], xs[i + 1]):
            starts.append(least)
            continue
        end = max(end, i + first)
        while end <= size and not _apart(min(xs[i:end]), max(xs[i:end])):
            end += 1
        starts.append(min(end, size + 1) - i)
    return starts


def _window_table(values, t0, models, min_window, one_sided) -> tuple:
    """What the sweeps of ``models`` over the windows of a run of positive
    ``values`` (from t0, at least ``min_window`` of them) read, built
    once: ``(p, tqs, {model: (rows, spreads)})``.

    The run's log growth g is taken once.  The levels v[:-1] (when the
    price model is swept) and g have exact integer images on one scale
    2**p (see ``_images``), and each model's ``rows`` hold the moment
    row (X, Y, X*X, X*Y, Y*Y) of each of its pairs.  Which pairs a model
    regresses is the one rule of ``regression._pairs``: it selects the
    model's float regressors from the levels and g, its X and Y from
    their images, and its X*X and Y*Y from the images' squares, so the
    squares of g's images serve the price rows' Y*Y and the return rows'
    X*X and Y*Y alike.  ``spreads`` is the spread start of each offset
    of the model's float regressors (``_spread_starts``), from the pair
    count of a window of ``min_window`` points: a window has as many
    pairs fewer than the run as it has points fewer.  ``tqs`` holds the
    lower bounds' t-quantile (``_t_bound``) at entry n for every pair
    count n of a window of the run, read from ``t_quantile``'s cache;
    the entries below the least such count are None.

    One scale for both models moves no fit and no summary: the kernel's
    numbers depend only on the pairs, and the float filter of
    ``sweep_summary`` decides only what those numbers decide, with
    estimates that are free of the scale or scale with 2**p in step, so
    a larger p can only push a cell's ints past the float range, which
    sends that cell to the kernel.
    """
    g = log_growth(values, t0)
    levels = values[:-1] if MODEL_PRICE in models else ()
    x_images, y_images, p = _images(levels, g)
    x_squares, y_squares = [x * x for x in x_images], [y * y for y in y_images]
    extra = len(values) - min_window  # points, and so pairs, beyond the shortest window
    by_model = {}
    for model in models:
        xs, ys = _pairs(model, x_images, y_images)
        xxs, yys = _pairs(model, x_squares, y_squares)
        rows = list(zip(xs, ys, xxs, map(mul, xs, ys), yys))
        by_model[model] = rows, _spread_starts(_pairs(model, levels, g)[0], len(rows) - extra)
    counts = [len(rows) for rows, _ in by_model.values()]
    first = min(counts) - extra
    tqs = [None] * first + [_t_bound(one_sided, n - 2) for n in range(first, max(counts) + 1)]
    return p, tqs, by_model


def _runs(values):
    """Yield (i, j) for each run of ``values``, in order: values[i:j] are
    positive, and j is the first offset at or after i whose value is not
    (len(values) when there is none).  A value that is not positive is a
    run of its own, with j == i.  The one scan for runs of positive
    excess: bubble detection (``classify._detect``) and the sweeps'
    layout (``_layout``) both read it."""
    size = len(values)
    i = 0
    while i < size:
        j = i
        while j < size and values[j] > 0:
            j += 1
        yield i, j
        i = max(j, i + 1)


def _layout(excess, models, window, min_window, one_sided):
    """Check a sweep's arguments; return its span (lo, hi) and the runs
    of the span's values (see ``_runs``), in order and on the time axis:
    a (run0, bad, table) per run, where values are positive from run0 up
    to (excluding) t = bad, or bad == run0 for a value that is not
    positive.  ``table`` is the run's ``_window_table`` for ``models``,
    or None when the run holds no window of ``min_window`` points, so a
    ``min_window`` longer than the data builds nothing."""
    for model in models:
        _check_choice("model", model, sorted(_LAGS))
    _check_int("min_window", min_window, least=MIN_WINDOW)
    _check_flag("one_sided", one_sided)
    if window is None:
        lo, hi, vals = excess.t0, excess.t_end, excess.values
    else:
        vals = excess.window_values(window)  # checks the window before its bounds are read
        lo, hi = window.start, window.end
    runs = [(lo + i, lo + j, _window_table(vals[i:j], lo + i, models, min_window, one_sided)
             if j - i >= min_window else None) for i, j in _runs(vals)]
    return lo, hi, runs


def _starts(model, hi, runs, min_window):
    """Yield (s, rows, p, tqs, spread, degenerate, blocked) for every
    start s of the span that ends at ``hi``, in order, from its ``runs``
    (see ``_layout``): how the windows from s are laid out, decided once
    for every sweep.

    The window of n pairs from s ends at s + lag + n, with the model's
    lag of ``regression._LAGS``: the one rule from pair counts to window
    ends, which ``_cells`` and ``_filtered_summary`` apply too.  Let bad
    be the first t >= s whose value is not positive (hi + 1 when none).
    ``degenerate`` and ``blocked`` are ranges of window ends: the windows
    from s that end in ``degenerate`` have a constant regressor, and
    those that end in ``blocked`` reach bad and fail there.  The windows
    that end between them, from ``degenerate.stop`` on, are fitted.
    ``rows`` holds the moment rows of the pairs of [s, bad - 1], scaled
    by 2**p, and ``tqs`` the t-quantiles by pair count, from the run's
    window table (see ``_window_table``); ``rows`` is empty when s's run
    holds no window of ``min_window`` points.  ``spread`` is the pair
    count of the first fitted window: the least n at or above the pair
    count of the shortest window at which the float regressors of
    rows[:n] are not degenerate, or len(rows) + 1 when there is none.
    """
    lag = _LAGS[model]
    for run0, bad, table in runs:
        rows, p, tqs, spreads = (), 0, (), ()
        if table is not None:
            p, tqs, by_model = table
            rows, spreads = by_model[model]
        # a start past the run's pairs has no rows, so its spread is 1
        for s, spread in zip_longest(range(run0, max(bad, run0 + 1)), spreads, fillvalue=1):
            # pair s - run0 is the first pair of the windows that start at s;
            # those from the shortest up to spread - 1 pairs are degenerate
            first_e = s + min_window - 1
            yield (s, rows[s - run0 :], p, tqs, spread,
                   range(first_e, s + lag + spread), range(max(first_e, bad), hi + 1))


def _cells(model, hi, runs, min_window):
    """Yield (s, row) for every start s of the span that ends at ``hi``,
    in order, from its ``runs`` (see ``_layout``), where ``row`` lists
    the (end, cell) of every window from s in key order: the
    ``_DEGENERATE`` marker of each ``degenerate`` end, then the kernel's
    numbers (a tuple, see ``_fit_moments``) of each fitted window, then
    the ``_BLOCKED`` marker of each ``blocked`` end (see ``_starts``).
    The fitted windows grow one pair at a time, each adding its pair to
    the exact moments of the one before.
    """
    lag = _LAGS[model]
    for s, rows, p, tqs, spread, degenerate, blocked in _starts(model, hi, runs, min_window):
        row = [(e, _DEGENERATE) for e in degenerate]
        n = sx = sy = sxx = sxy = syy = 0
        for x, y, xx, xy, yy in rows:
            n += 1
            sx += x
            sy += y
            sxx += xx
            sxy += xy
            syy += yy
            if n >= spread:
                row.append((s + lag + n, _fit_moments(n, sx, sy, sxx, sxy, syy, p, tqs[n])))
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
    lo, hi, runs = _layout(excess, (model,), window, min_window, one_sided)
    # every window holds at least 3 pairs (see MIN_WINDOW), so no cell has
    # TooFewPoints
    cells = {(s, e): OlsFit(model, *cell) if type(cell) is tuple else cell
             for s, row in _cells(model, hi, runs, min_window) for e, cell in row}
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
    reached: a proven lower bound, or a fitted cell's b_lower.  It never
    falls, and it never exceeds the greatest b_lower.  A cell is kept
    when its upper bound reaches the floor as it is decided, and dropped
    when the floor rises above that bound, so at the end the kept cells
    are every decided cell whose upper bound reaches the final floor.
    The best window's b_lower reaches that floor, so it is among them
    (the sign rule below settles only cells that some cell beats), with
    every cell that ties it.  The kernel fits the kept cells at the end
    in key order, and the first strict maximum among them is the best
    window.  A kept cell carries only the kernel's arguments, its exact
    moments, so the end is the one place where a kept cell is fitted: a
    cell the floats cannot decide is fitted as it is decided, and once
    more at the end if it is still kept.

    The sign rule settles a cell with no float work.  The regressor is
    not constant, so cxx = n*Sxx - Sx**2 > 0, and the kernel's slope b =
    cxy / cxx is correctly rounded, so it has the sign of the exact int
    cxy = n*Sxy - Sx*Sy (or is 0).  Its b_lower = b - t * se_b subtracts
    a non-negative float, and rounding is monotone, so b_lower <= b.  A
    cell with cxy <= 0 thus has b_lower <= 0: it is not significant, and
    once the floor is > 0 some cell beats it.  The rule reads the floor
    at the end of the scan, which the cells met later may yet raise.  So
    the scan settles a cell with cxy <= 0 at once when the floor is
    already > 0, and sets it aside, with its exact moments alone, while
    it is not.  When the scan ends with a floor > 0, every cell set aside
    is settled too; a settled cell is counted as valid and not kept.
    Else the cells set aside are decided after the scan, in key order,
    as the scan decides a cell.  None of them raises the floor above 0,
    as each b_lower is <= 0, and each joins the kept cells after cells
    with later keys, which is why the end fits them in key order.

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
    arithmetic itself.  Below the normal range the kernel's unscaled
    floats round to an absolute 2**-1074, which 2**-40 of the scale
    covers unless m / n + t * se_a is below about 2**-1030, and no cell
    the filter decides gets there: |mean y| < 2**-1030 forces sum y = 0,
    as a log growth is 0 or a multiple of 2**-106, and se_b >= 2**-1000
    holds every residual below n * 2**-1030, which for the price model
    (x > 0) makes every y 0 and for the return model (x and y log
    growths) the points exactly collinear: det = 0 either way, so the
    kernel fits the cell.  For the same reason cyy + m**2 is 0 or at
    least 2**-212 (unscaled), so the guard holds that rounding's share
    of rho far below 2**-48.
    Standard errors below 2**-1000, where floats lose bits, and ints or
    bounds too large for a float go to the kernel.
    """
    return _summaries(excess, (model,), window, min_window, one_sided)[0]


def _summaries(excess, models, window, min_window, one_sided) -> tuple:
    """``sweep_summary`` of each of ``models`` with the other arguments,
    all read from one window table per run (see ``_layout``)."""
    lo, hi, runs = _layout(excess, models, window, min_window, one_sided)
    n_cells = triangular_cell_count(hi + 1 - lo, min_window)
    return tuple(_filtered_summary(model, hi, runs, min_window, n_cells) for model in models)


def _filtered_summary(model, hi, runs, min_window, n_cells) -> dict:
    """``sweep_summary`` of ``model`` over the span that ends at ``hi``
    and holds ``n_cells`` cells, from its ``runs``: the float filter and
    its kernel fits, as ``sweep_summary`` describes them."""
    lag = _LAGS[model]
    n_sig = 0
    errors: Dict[str, int] = {}
    floor = -math.inf
    # (upper bound of b_lower, key, the kernel's arguments) of each cell
    # that may be the best window
    kept = []
    # the cells with cxy <= 0 that the scan meets while the floor is <= 0,
    # in key order, each whole: (s, n, sx, sy, sxx, sxy, syy, p, tq, cxy)
    aside = []
    starts = _starts(model, hi, runs, min_window)
    for replay in (False, True):
        for s, rows, p, tqs, spread, degenerate, blocked in starts:
            for kind, ends in ((_DEGENERATE.error_kind, degenerate),
                               (_BLOCKED.error_kind, blocked)):
                if ends:
                    errors[kind] = errors.get(kind, 0) + len(ends)
            n = sx = sy = sxx = sxy = syy = 0
            for row in rows:
                if replay:  # the row is a cell that the scan set aside
                    s, n, sx, sy, sxx, sxy, syy, p, tq, cxy = row
                else:  # the row is the moment row of the start's next pair
                    x, y, xx, xy, yy = row
                    n += 1
                    sx += x
                    sy += y
                    sxx += xx
                    sxy += xy
                    syy += yy
                    if n < spread:
                        continue
                    cxy = n * sxy - sx * sy
                    if cxy <= 0:  # b_lower <= 0: the sign rule settles it once floor > 0
                        if floor <= 0:  # not yet: it waits for the end of the scan
                            aside.append((s, n, sx, sy, sxx, sxy, syy, p, tqs[n], cxy))
                        continue
                    tq = tqs[n]
                cxx = n * sxx - sx * sx
                cyy = n * syy - sy * sy
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
                    kept.append((upper, (s, s + lag + n),
                                 (n, sx, sy, sxx, sxy, syy, p, tq)))
                    if lower > floor:
                        floor = lower
                        kept = [k for k in kept if k[0] >= floor]
        # after the scan a floor > 0 settles every cell set aside (the sign
        # rule); else the replay decides them, as the rows of one more start
        # whose rows carry their own start, moments and quantile
        starts = [(None, aside, None, None, None, (), ())] if floor <= 0 else ()
    best = best_key = None
    # the replay keeps cells after cells with later keys, so restore key order
    for _, key, moments in sorted(kept, key=itemgetter(1)):
        numbers = _fit_moments(*moments)
        if best is None or numbers[5] > best[5]:
            best, best_key = numbers, key
    return _summary(model, min_window, n_cells, n_sig, errors, best_key, best)


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
    _, hi, runs = _layout(excess, (model,), window, min_window, one_sided)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER)
        starts = _cells(model, hi, runs, min_window)
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
