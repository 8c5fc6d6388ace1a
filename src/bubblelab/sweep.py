"""Window sweeps: fit a feedback model on every admissible [start, end]
window and assemble the significance surface behind the triangle
heatmaps.

Cells are independent pure computations keyed by (start, end); only
windows of at least ``min_window`` points exist, which is what gives the
grids their triangular shape.  Each cell depends on nothing but the data
inside its own window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

from .errors import (
    DegenerateRegressor,
    NonPositiveExcess,
    NoValidCells,
    TooFewPoints,
)
from .regression import MODEL_PRICE, MODEL_RETURN, OlsFit, fit_price_model, fit_return_model
from .series import MIN_WINDOW, ExcessSeries, Window


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


_FITTERS = {MODEL_PRICE: fit_price_model, MODEL_RETURN: fit_return_model}


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
    crossing non-positive excess prices, degenerate regressors, too few
    points) become invalid-cell markers rather than failing the sweep.
    """
    if model not in _FITTERS:
        raise ValueError(f"model must be one of {sorted(_FITTERS)}, got {model!r}")
    if min_window < MIN_WINDOW:
        raise ValueError(f"min_window must be at least {MIN_WINDOW}")
    fitter = _FITTERS[model]
    s_lo, s_hi = start_range if start_range is not None else (excess.t0, excess.t_end)
    e_lo, e_hi = end_range if end_range is not None else (excess.t0, excess.t_end)
    if s_lo < excess.t0 or e_hi > excess.t_end:
        raise ValueError(
            f"sweep bounds [{s_lo}, {e_hi}] outside series range "
            f"[{excess.t0}, {excess.t_end}]"
        )

    cells: Dict[Tuple[int, int], Cell] = {}
    for s in range(s_lo, s_hi + 1):
        first_e = max(e_lo, s + min_window - 1)
        for e in range(first_e, e_hi + 1):
            try:
                cells[(s, e)] = fitter(excess, Window(s, e), one_sided=one_sided)
            except (NonPositiveExcess, TooFewPoints, DegenerateRegressor) as exc:
                cells[(s, e)] = InvalidCell(type(exc).__name__, str(exc))
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
    """Count of admissible windows, for shape checks."""
    total = 0
    for s in range(start_range[0], start_range[1] + 1):
        first_e = max(end_range[0], s + min_window - 1)
        if first_e <= end_range[1]:
            total += end_range[1] - first_e + 1
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
