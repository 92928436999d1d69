"""Treatment-effect estimation for broken randomized experiments.

Estimates the average treatment effect among survived compliers in
randomized experiments affected by non-compliance, truncation-by-death and
missing data, with closed-form identification, delta-method inference,
survivor-restricted comparator estimators, hot-deck multiple imputation
with combining-rule pooling, and a Monte Carlo study harness.
"""

__version__ = "0.1.0"

from .comparators import estimate, itt_at_pp, tsls_survivors
from .errors import (
    AllOutcomesMissingError,
    BrokenRctError,
    DenominatorDegenerateError,
    DesignError,
    EmptyCellError,
    EstimationError,
    IdentificationWarning,
    InvalidRecordError,
    MuOutOfUnitIntervalError,
    NoDonorsError,
    SchemaError,
    WeakDenominatorWarning,
    WeakInstrumentWarning,
)
from .estimation import (
    CellCovariance,
    Estimate,
    PaceEstimate,
    estimate_pace,
    fit_cell_params,
    normal_cdf,
    normal_quantile,
)
from .estimators import PaceEstimator, SurvivorContrast, TwoStageLeastSquares
from .identify import (
    CellParams,
    ComplierSurvival,
    StrataProportions,
    complier_survival,
    pace_identify,
    strata_proportions,
)
from .imputation import (
    PooledEstimate,
    impute_within_cells,
    pool_estimates,
    read_completed_dir,
)
from .records import (
    CellStatistics,
    ObservationRecord,
    ValidationReport,
    cells_from_arrays,
    ingest,
    read_csv,
    validate_design,
    write_csv,
)

#: the names of :mod:`~brokenrct.simulate`, which is imported on first use
_SIMULATE_NAMES = ("DgpConfig", "PotentialData", "SimulationReport", "generate", "run_study",
                   "true_pace")


def __getattr__(name):
    """A :mod:`~brokenrct.simulate` name, imported when first asked for (PEP 562),
    so that the study harness and its process pool load only where they run."""
    if name in _SIMULATE_NAMES:
        from . import simulate
        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AllOutcomesMissingError",
    "BrokenRctError",
    "CellCovariance",
    "CellParams",
    "CellStatistics",
    "ComplierSurvival",
    "DenominatorDegenerateError",
    "DesignError",
    "DgpConfig",
    "EmptyCellError",
    "Estimate",
    "EstimationError",
    "IdentificationWarning",
    "InvalidRecordError",
    "MuOutOfUnitIntervalError",
    "NoDonorsError",
    "ObservationRecord",
    "PaceEstimate",
    "PaceEstimator",
    "PooledEstimate",
    "PotentialData",
    "SchemaError",
    "SimulationReport",
    "StrataProportions",
    "SurvivorContrast",
    "TwoStageLeastSquares",
    "ValidationReport",
    "WeakDenominatorWarning",
    "WeakInstrumentWarning",
    "cells_from_arrays",
    "complier_survival",
    "estimate",
    "estimate_pace",
    "fit_cell_params",
    "generate",
    "impute_within_cells",
    "ingest",
    "itt_at_pp",
    "normal_cdf",
    "normal_quantile",
    "pace_identify",
    "pool_estimates",
    "read_completed_dir",
    "read_csv",
    "run_study",
    "strata_proportions",
    "true_pace",
    "tsls_survivors",
    "validate_design",
    "write_csv",
]
