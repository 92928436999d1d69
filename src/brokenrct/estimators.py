"""Estimator classes with the scikit-learn fit/get_params protocol.

The classes wrap the functional core so the estimators compose with the
wider ecosystem (``sklearn.base.clone``, grid search over settings, etc.)
without this package depending on scikit-learn itself.  ``fit`` accepts a
(n, 6) array in column order ``z, d, delta_s, s, delta_y, y`` (nan for
missing), a dataframe with those columns, or a sequence of records.
"""

from __future__ import annotations

import inspect
import warnings
from collections import namedtuple

from . import comparators, identify, imputation
from .errors import DesignError, WeakInstrumentWarning
from .estimation import estimate_pace, fit_cell_params
from .records import WEAK_INSTRUMENT_THRESHOLD, as_array, cells_from_arrays, validate_design
from .simulate import _is_int

#: the record of one :func:`analyze_dataset` run; ``estimates`` maps method to estimate
Analysis = namedtuple("Analysis", "validation cells params cov strata survival estimates")


def analyze_dataset(arr, methods=("pace",), level: float = 0.95, scale: str = "identity",
                    impute: int | None = None, seed=0, completed_dir=None,
                    weak_threshold: float = WEAK_INSTRUMENT_THRESHOLD) -> Analysis:
    """The :class:`Analysis` of ``arr``, a validated (n, 6) array: ingest it and
    check the design, which raises :class:`~brokenrct.errors.DesignError` or
    warns of a weak first stage before anything else warns; draw ``impute`` = m
    hot-deck imputations from ``seed``, or read ``completed_dir``, whose every
    file must complete ``arr``, when asked;
    fit the complete-case cells once, take the strata proportions and then
    complier survival, and estimate each method on the cells or pooled over
    the completed cells.
    """
    cells = cells_from_arrays(*arr.T)
    validation = validate_design(cells, weak_threshold)
    if validation.failures:
        raise DesignError("validation failure: " + "; ".join(validation.failures))
    for message in validation.warnings:
        warnings.warn(message, WeakInstrumentWarning, stacklevel=2)
    completed = None
    if impute is not None:
        completed = imputation._completed_cells(arr, cells, impute, seed)
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
    """get_params/set_params following the scikit-learn contract.

    ``fit`` stores the reported :class:`~brokenrct.estimation.Estimate` (or
    pooled estimate) as ``result_``; the fitted accessors read it.
    """

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

    def _check_fitted(self):
        if not hasattr(self, "result_"):
            raise RuntimeError(f"{type(self).__name__} has not been fitted")

    @property
    def tau_(self) -> float:
        self._check_fitted()
        return self.result_.tau

    @property
    def se_(self) -> float:
        self._check_fitted()
        return self.result_.se

    @property
    def conf_int_(self) -> tuple[float, float]:
        self._check_fitted()
        return self.result_.ci

    @property
    def p_value_(self) -> float:
        self._check_fitted()
        return self.result_.p_value


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

    ``fit`` runs :func:`analyze_dataset`, the route of ``brokenrct analyze``, so
    it warns and fails as ``analyze`` does (a design it rejects raises
    :class:`~brokenrct.errors.DesignError`), and sets its fitted attributes from
    the :class:`Analysis`: ``estimate_`` is the complete-case ``PaceEstimate``,
    ``pooled_`` the ``PooledEstimate`` with ``impute``, else None, and
    ``result_`` the one of the two that the accessors report.
    """

    def __init__(self, level: float = 0.95, scale: str = "identity",
                 impute: int | None = None, seed: int = 0):
        self.level = level
        self.scale = scale
        self.impute = impute
        self.seed = seed

    def fit(self, X, y=None):
        if self.impute is not None and not _is_int(self.impute, 2):
            raise ValueError(f"impute must be None or an integer >= 2, got {self.impute!r}")
        analysis = analyze_dataset(as_array(X), ("pace",), self.level, self.scale,
                                   self.impute, self.seed)
        self.validation_, self.cells_ = analysis.validation, analysis.cells
        self.params_, self.covariance_ = analysis.params, analysis.cov
        self.strata_proportions_, self.complier_survival_ = analysis.strata, analysis.survival
        self.result_ = self.estimate_ = analysis.estimates["pace"]
        self.pooled_ = None if self.impute is None else self.result_
        if self.impute is not None:
            self.estimate_ = estimate_pace(self.params_, self.covariance_, self.level,
                                           self.cells_.n_records, self.scale)
        return self


class TwoStageLeastSquares(BaseReportingEstimator):
    """Survivor-restricted just-identified IV comparator."""

    def __init__(self, level: float = 0.95):
        self.level = level

    def fit(self, X, y=None):
        self.result_ = comparators.tsls_survivors(X, level=self.level)
        return self


class SurvivorContrast(BaseReportingEstimator):
    """Naive survivor-restricted contrast: method in {"itt", "at", "pp"}."""

    def __init__(self, method: str = "itt", level: float = 0.95):
        self.method = method
        self.level = level

    def fit(self, X, y=None):
        self.result_ = comparators.itt_at_pp(X, self.method, level=self.level)
        return self
