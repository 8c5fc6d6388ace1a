"""bubblelab: a laboratory asset-market simulator plus a calibration
toolkit that detects super-exponential bubble growth and tells
price-anchored from return-anchored bubbles."""

__version__ = "0.1.0"

from .classify import (
    ANCHORING_ON_PRICE,
    ANCHORING_ON_RETURN,
    ERRATIC,
    EXPERIMENT_GROUP_WINDOWS,
    RATIONAL_EXPONENTIAL,
    TOO_SHORT,
    BubbleVerdict,
    classify_series,
    detect_bubble_window,
)
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
from .growth import GrowthModel, iterate, iterate_noisy, table2, table2_csv
from .market import (
    AgentSpec,
    SimConfig,
    SimResult,
    agent_forecast,
    clearing_price,
    inject_mistrade,
    run,
    score_forecast,
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
