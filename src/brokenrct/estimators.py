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
from .estimation import estimate_pace, estimate_pace_logit, fit_cell_params
from .records import as_array, cells_from_arrays, validate_design, warn_if_weak


class BaseReportingEstimator:
    """get_params/set_params following the scikit-learn contract."""

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
        if not getattr(self, "_fitted", False):
            raise RuntimeError(f"{type(self).__name__} has not been fitted")


class PaceEstimator(BaseReportingEstimator):
    """Survived-complier average treatment effect with delta-method inference.

    Parameters
    ----------
    level : confidence level for intervals.
    scale : "identity" for the mean difference, "logit" for the log odds
        ratio (binary outcomes).
    impute : if a positive integer m, run within-cell hot-deck imputation m
        times and pool the per-dataset estimates; otherwise analyse complete
        cases (which ignores missingness uncertainty).
    seed : generator seed for imputation draws.
    warn_weak_instrument : emit a warning when the first-stage difference is
        below the validation threshold.
    """

    def __init__(self, level: float = 0.95, scale: str = "identity",
                 impute: int | None = None, seed: int = 0,
                 warn_weak_instrument: bool = True):
        self.level = level
        self.scale = scale
        self.impute = impute
        self.seed = seed
        self.warn_weak_instrument = warn_weak_instrument

    def fit(self, X, y=None):
        if self.scale not in ("identity", "logit"):
            raise ValueError("scale must be 'identity' or 'logit'")
        arr = as_array(X)
        self.cells_ = cells_from_arrays(*arr.T)
        self.validation_ = validate_design(self.cells_)
        if self.warn_weak_instrument:
            warn_if_weak(self.validation_)
        self.params_, self.covariance_ = fit_cell_params(self.cells_)
        estimator = estimate_pace_logit if self.scale == "logit" else estimate_pace
        self.estimate_ = estimator(self.params_, self.covariance_,
                                   level=self.level, n=self.cells_.n_records)
        self.strata_proportions_ = identify.strata_proportions(self.params_)
        self.complier_survival_ = identify.complier_survival(self.params_)
        self.pooled_ = None
        if self.impute:
            per_dataset = []
            for dataset in imputation.impute_within_cells(arr, self.impute, self.seed):
                est = comparators.estimate(cells_from_arrays(*dataset.T), "pace",
                                           self.level, self.scale)
                per_dataset.append((est.tau, est.se))
            self.pooled_ = imputation.pool_estimates(per_dataset, level=self.level)
        self._fitted = True
        return self

    @property
    def tau_(self) -> float:
        self._check_fitted()
        return self.pooled_.point if self.pooled_ is not None else self.estimate_.tau

    @property
    def se_(self) -> float:
        self._check_fitted()
        return self.pooled_.se if self.pooled_ is not None else self.estimate_.se_tau

    @property
    def conf_int_(self) -> tuple[float, float]:
        self._check_fitted()
        return self.pooled_.ci if self.pooled_ is not None else self.estimate_.ci

    @property
    def p_value_(self) -> float:
        self._check_fitted()
        return self.pooled_.p_value if self.pooled_ is not None else self.estimate_.p_value


class _ComparatorEstimator(BaseReportingEstimator):
    """Fitted-result accessors shared by the comparator estimators."""

    @property
    def tau_(self):
        self._check_fitted()
        return self.result_.tau

    @property
    def se_(self):
        self._check_fitted()
        return self.result_.se

    @property
    def conf_int_(self):
        self._check_fitted()
        return self.result_.ci


class TwoStageLeastSquares(_ComparatorEstimator):
    """Survivor-restricted just-identified IV comparator."""

    def __init__(self, level: float = 0.95):
        self.level = level

    def fit(self, X, y=None):
        self.result_ = comparators.tsls_survivors(X, level=self.level)
        self._fitted = True
        return self


class SurvivorContrast(_ComparatorEstimator):
    """Naive survivor-restricted contrast: method in {"itt", "at", "pp"}."""

    def __init__(self, method: str = "itt", level: float = 0.95):
        self.method = method
        self.level = level

    def fit(self, X, y=None):
        self.result_ = comparators.itt_at_pp(X, self.method, level=self.level)
        self._fitted = True
        return self
