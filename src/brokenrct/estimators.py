"""Estimator classes with the scikit-learn fit/get_params protocol.

The classes wrap the functional core so the estimators compose with the
wider ecosystem (``sklearn.base.clone``, grid search over settings, etc.)
without this package depending on scikit-learn itself.  ``fit`` accepts a
(n, 6) array in column order ``z, d, delta_s, s, delta_y, y`` (nan for
missing), a dataframe with those columns, or a sequence of records.
"""

from __future__ import annotations

import inspect

from . import comparators, identify, imputation
from .estimation import estimate_pace, fit_cell_params
from .records import as_array, cells_from_arrays, validate_design, warn_if_weak
from .simulate import _is_int


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

    ``fit`` warns when the first-stage difference is below the validation
    threshold.  It sets ``estimate_`` (the complete-case ``PaceEstimate``),
    ``pooled_`` (the ``PooledEstimate`` with ``impute``, else None) and
    ``result_``, the one of the two that the accessors report.
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
        arr = as_array(X)
        self.cells_ = cells_from_arrays(*arr.T)
        self.validation_ = validate_design(self.cells_)
        warn_if_weak(self.validation_)
        self.params_, self.covariance_ = fit_cell_params(self.cells_)
        self.estimate_ = estimate_pace(self.params_, self.covariance_, level=self.level,
                                       n=self.cells_.n_records, scale=self.scale)
        self.strata_proportions_ = identify.strata_proportions(self.params_)
        self.complier_survival_ = identify.complier_survival(self.params_)
        self.pooled_ = None
        if self.impute is not None:
            datasets = imputation._completed_cells(arr, self.cells_, self.impute, self.seed)
            self.pooled_ = imputation.pool_estimates(
                [comparators.estimate(cells, "pace", self.level, self.scale)
                 for cells in datasets], level=self.level)
        self.result_ = self.pooled_ or self.estimate_
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
