"""The one analysis route, and the estimator classes that fit through it.

The classes follow the scikit-learn fit/get_params protocol without this
package depending on scikit-learn.
"""

from __future__ import annotations

import inspect
import warnings
from collections import namedtuple

from . import comparators, identify, imputation
from .errors import DesignError, WeakInstrumentWarning
from .estimation import estimate_pace, fit_cell_params
from .records import (WEAK_INSTRUMENT_THRESHOLD, _cells_and_donors, _is_int, as_array,
                      cells_from_arrays, validate_design)

#: the record of one :func:`analyze_dataset` run; ``estimates`` maps method to estimate
Analysis = namedtuple("Analysis", "validation cells params cov strata survival estimates")


def analyze_dataset(arr, methods=("pace",), level: float = 0.95, scale: str = "identity",
                    impute: int | None = None, seed=0, completed_dir=None,
                    weak_threshold: float = WEAK_INSTRUMENT_THRESHOLD) -> Analysis:
    """The :class:`Analysis` of ``arr``, a validated (n, 6) array: ingest it by
    one reduction of its rows and check the design, which raises
    :class:`~brokenrct.errors.DesignError` or warns of a weak first stage
    before anything else warns; draw ``impute`` = m hot-deck imputations from
    ``seed`` out of that reduction's donors, or read ``completed_dir``, whose
    every file must complete ``arr``, when asked;
    fit the complete-case cells once, take the strata proportions and then
    complier survival, and estimate each method on the cells or pooled over
    the completed cells.
    """
    cells, donors, _ = _cells_and_donors(*arr.T)
    validation = validate_design(cells, weak_threshold)
    if validation.failures:
        raise DesignError("validation failure: " + "; ".join(validation.failures))
    for message in validation.warnings:
        warnings.warn(message, WeakInstrumentWarning, stacklevel=2)
    completed = None
    if impute is not None:
        completed = imputation._completed_cells(cells, donors, impute, seed)
    elif completed_dir is not None:
        completed = [cells_from_arrays(*done.T)
                     for done in imputation._read_completions(completed_dir, arr)]
    params, cov = fit_cell_params(cells)
    strata, survival = identify.strata_proportions(params), identify.complier_survival(params)
    estimates = {}
    for method in methods:
        if completed is not None:
            estimates[method] = imputation.pool_estimates(
                [comparators.estimate(done, method, level, scale) for done in completed], level)
        elif method == "pace":
            estimates[method] = estimate_pace(params, cov, level, cells.n_records, scale)
        else:
            estimates[method] = comparators.estimate(cells, method, level, scale)
    return Analysis(validation, cells, params, cov, strata, survival, estimates)


class BaseReportingEstimator:
    """The one ``fit``, and get_params/set_params following the scikit-learn contract.

    ``fit`` takes an (n, 6) array (``z, d, delta_s, s, delta_y, y``, nan for
    missing), a dataframe or records and runs :func:`analyze_dataset` for the
    class's ``_method``, so it warns and fails as ``analyze --method`` does; a
    comparator runs on complete cases at the identity scale.  The fitted
    attributes come from the :class:`Analysis`; the accessors read ``result_``.
    """

    _method = "pace"

    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def fit(self, X, y=None):
        method, impute = self._method, getattr(self, "impute", None)
        if impute is not None and not _is_int(impute, 2):
            raise ValueError(f"impute must be None or an integer >= 2, got {impute!r}")
        (self.validation_, self.cells_, self.params_, self.covariance_,
         self.strata_proportions_, self.complier_survival_, estimates) = analyze_dataset(
            as_array(X), (method,), self.level, getattr(self, "scale", "identity"), impute,
            getattr(self, "seed", 0))
        self.result_ = estimates[method]
        return self

    def _fitted_result(self):
        if not hasattr(self, "result_"):
            raise RuntimeError(f"{type(self).__name__} has not been fitted")
        return self.result_

    @property
    def tau_(self) -> float:
        return self._fitted_result().tau

    @property
    def se_(self) -> float:
        return self._fitted_result().se

    @property
    def conf_int_(self) -> tuple[float, float]:
        return self._fitted_result().ci

    @property
    def p_value_(self) -> float:
        return self._fitted_result().p_value


class PaceEstimator(BaseReportingEstimator):
    """Survived-complier average treatment effect with delta-method inference.

    Parameters
    ----------
    level : confidence level for intervals.
    scale : "identity" for the mean difference, "logit" for the log odds
        ratio (binary outcomes).
    impute : None to analyse complete cases (which ignores missingness
        uncertainty), or an integer m >= 2 to run within-cell hot-deck
        imputation m times and pool the per-dataset estimates; ``fit``
        rejects any other value with ``ValueError`` before doing any work.
    seed : generator seed for imputation draws.

    ``estimate_`` is the complete-case ``PaceEstimate``, ``pooled_`` the
    ``PooledEstimate`` with ``impute`` (else None), and ``result_`` the one reported.
    """

    def __init__(self, level: float = 0.95, scale: str = "identity",
                 impute: int | None = None, seed: int = 0):
        self.level = level
        self.scale = scale
        self.impute = impute
        self.seed = seed

    def fit(self, X, y=None):  # its own entry, as bench/tracing.py wraps cls.__dict__["fit"]
        super().fit(X, y)
        self.pooled_ = None if self.impute is None else self.result_
        self.estimate_ = self.result_ if self.impute is None else estimate_pace(
            self.params_, self.covariance_, self.level, self.cells_.n_records, self.scale)
        return self


class TwoStageLeastSquares(BaseReportingEstimator):
    """Survivor-restricted just-identified IV comparator."""

    _method = "tsls"

    def __init__(self, level: float = 0.95):
        self.level = level

    def fit(self, X, y=None):  # its own entry, as bench/tracing.py wraps cls.__dict__["fit"]
        return super().fit(X, y)


class SurvivorContrast(BaseReportingEstimator):
    """Naive survivor-restricted contrast: method in {"itt", "at", "pp"}."""

    def __init__(self, method: str = "itt", level: float = 0.95):
        self.method = method
        self.level = level

    # ``method``, checked as the contrasts check it, before ``fit`` reads the records
    _method = property(lambda self: comparators._contrast_method(self.method))
