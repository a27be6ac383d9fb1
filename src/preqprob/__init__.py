"""Exact finite-horizon prequential probability.

Upper game-theoretic and upper measure-theoretic probabilities of compact
prequential events (finite unions of closed boxes) computed exactly by
backward induction, their coincidence verified rather than assumed, plus
farthingale-based testing of probability-forecast streams.
"""

from .core import (
    BinaryHistory,
    Forecast,
    ForecastingSystem,
    HorizonError,
    InputError,
    PrequentialPrefix,
    cylinder_probability,
    induced_path,
    sample_outcomes,
    sample_path,
)
from .events import (
    WILDCARD,
    ArityError,
    Box,
    Cell,
    EventUnion,
    ForecastPartition,
    StepConstraint,
    contains,
    counterexample_pair,
    event_from_json,
    event_to_json,
    forecast_partition,
    intersection,
    union,
)
from .gameprob import (
    LevyStrategy,
    LiveSetBudgetError,
    ValueFunction,
    conditional_upper_probability,
    levy_strategy_step,
    optimal_forecast_at,
    upper_game_probability,
    witness_superfarthingale,
)
from .measureprob import (
    EnumerationLimitError,
    MeasureBudgetError,
    exact_event_probability,
    grid_bruteforce,
    measure_upper_probability,
    monte_carlo_probability,
)
from .strategies import (
    CalibrationState,
    CalibrationStrategy,
    CapitalProcess,
    CertificationError,
    ConstantStrategy,
    DoublingStrategy,
    StreamFormatError,
    calibration_fold,
    calibration_step,
    calibration_verdict,
    certify_strategy,
    check_farthingale,
    parse_stream_csv,
    run_stream,
    strategy_value_table,
    ville_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
