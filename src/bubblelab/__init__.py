"""bubblelab: a laboratory asset-market simulator plus a calibration
toolkit that detects super-exponential bubble growth and tells
price-anchored from return-anchored bubbles.

``import bubblelab`` loads the fitting core (errors, series, studentt,
regression, sweep).  The public names of ``classify``, ``growth`` and
``market`` load their module the first time one of them is read, so an
entry point pays only for the modules it runs.
"""

import importlib
import types

__version__ = "0.1.0"

from .errors import (
    BubbleLabError,
    DegenerateRegressor,
    FiniteHorizonSingularity,
    IngestError,
    InsufficientHistory,
    InvalidConfig,
    MalformedRow,
    NonContiguousTime,
    NonPositiveExcess,
    OutOfRange,
    ReturnOverflow,
    TooFewPoints,
)
from .regression import (
    OlsFit,
    RationalBubbleFit,
    fit_price_model,
    fit_rational_bubble,
    fit_return_model,
    ols2,
)
from .series import (
    MIN_WINDOW,
    ExcessSeries,
    ExperimentParams,
    PriceSeries,
    Series,
    Window,
    discrete_returns,
    excess_series,
    fundamental_price,
    load_csv,
    log_excess_returns,
    write_csv,
)
from .studentt import t_cdf, t_quantile
from .sweep import (
    InvalidCell,
    SweepGrid,
    grid_summary,
    grid_to_csv,
    sweep,
    triangular_cell_count,
)

# Public name -> the submodule that defines it, loaded on first read.  The
# core above stays eager because the function ``sweep`` shares its name
# with the submodule ``bubblelab.sweep``: were that submodule first loaded
# after this file ran (say by ``import bubblelab.classify``), the import
# system would rebind ``bubblelab.sweep`` to the module.
_LAZY = {
    **dict.fromkeys((
        "ANCHORING_ON_PRICE",
        "ANCHORING_ON_RETURN",
        "ERRATIC",
        "EXPERIMENT_GROUP_WINDOWS",
        "RATIONAL_EXPONENTIAL",
        "TOO_SHORT",
        "BubbleVerdict",
        "classify_series",
        "detect_bubble_window",
    ), "classify"),
    **dict.fromkeys(("GrowthModel", "iterate", "iterate_noisy", "table2", "table2_csv"), "growth"),
    **dict.fromkeys((
        "AgentSpec",
        "SimConfig",
        "SimResult",
        "agent_forecast",
        "clearing_price",
        "inject_mistrade",
        "run",
        "score_forecast",
    ), "market"),
}

# Every public name bound above, then the lazy ones: a name added to the
# imports or to the table is exported without a second list to keep.
__all__ = [
    *(name for name, value in globals().items()
      if not name.startswith("_") and not isinstance(value, types.ModuleType)),
    *_LAZY,
]


def __getattr__(name: str):
    """Load the submodule behind a lazy public name and bind the name here,
    so later reads find it without this call (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
