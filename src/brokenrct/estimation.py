"""Plug-in estimation of the cell parameters and delta-method inference.

The likelihood factorises over the assignment split, the per-arm uptake,
the per-cell survival and the per-cell outcome law, so the maximum
likelihood estimate is a stack of count ratios and cell means, and its
covariance is diagonal.  Standard errors for the survived-complier means
propagate that covariance through the analytic gradient of the
identification formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import (
    AllOutcomesMissingError,
    EmptyCellError,
    EstimationError,
    MuOutOfUnitIntervalError,
    Reason,
    stack_errstate,
)
from .identify import (
    MEAN_AT,
    SURVIVAL_AT,
    TAKE_AT,
    CellParams,
    denominator_reason,
    identify_arms,
)
from .records import CellStatistics

SCALES = ("identity", "logit")


@dataclass(frozen=True)
class CellCovariance:
    """Diagonal sampling covariance of the packed 11-parameter vector."""

    diagonal: np.ndarray    # shape (..., 11)

    def quadratic_form(self, gradient: np.ndarray) -> np.ndarray:
        """g' diag(v) g per row, as one sum over the 11 packed entries."""
        return np.sum(np.asarray(gradient) ** 2 * self.diagonal, axis=-1)


@dataclass(frozen=True)
class Estimate:
    """One method's effect estimate with a normal interval and p-value.

    ``n`` is the number of records the estimate uses: all records for
    "pace", the survivors with an observed outcome in the compared groups
    for the comparators.  An estimate of a stack holds arrays, no p-value
    and each row's :class:`~brokenrct.errors.Reason`; of one dataset, reason 0.
    """

    method: str
    tau: float
    se: float
    ci_lower: float
    ci_upper: float
    p_value: float
    level: float
    n: int
    reason: np.ndarray | int = field(default=Reason.OK, kw_only=True)

    @property
    def ci(self) -> tuple[float, float]:
        return (self.ci_lower, self.ci_upper)


@dataclass(frozen=True)
class PaceEstimate(Estimate):
    """The main estimator's :class:`Estimate`, with the two arm means.

    On the identity scale ``mu1``/``mu0``/``tau`` are outcome-scale values.
    On the logit scale they are log-odds (``tau`` is the log odds ratio)
    and the standard errors apply to that scale.
    """

    mu1: float
    mu0: float
    se_mu1: float
    se_mu0: float
    scale: str = "identity"


def make_estimate(cls, method: str, tau, se, level: float, n, reason, **extra) -> Estimate:
    """``cls`` of one dataset in Python numbers with a p-value, or of a stack in arrays."""
    if np.ndim(tau) == 0:
        tau, se, n, reason = float(tau), float(se), int(n), Reason.OK
        extra = {name: value if isinstance(value, str) else float(value)
                 for name, value in extra.items()}
    with stack_errstate(np.ndim(tau) > 0):
        interval = normal_interval(tau, se, level)
    return cls(method, tau, se, *interval, level=level, n=n, reason=reason, **extra)


def outcome_overflow_error(where: str) -> EstimationError:
    """The error of one dataset whose outcome moments in ``where`` overflow
    float64 (:attr:`~brokenrct.errors.Reason.OUTCOME_OVERFLOW` in a stack)."""
    return EstimationError(f"{where} has outcomes too large for float64 moments: "
                           "their sum of squared deviations overflows")


def fit_cell_params(cells: CellStatistics) -> tuple[CellParams, CellCovariance]:
    """Maximum-likelihood cell parameters and their diagonal covariance.

    Count ratios for the assignment rate, the uptakes and the survival
    probabilities; complete-case cell means for the outcomes, with sampling
    variance ``s^2 / k`` from the unbiased cell variance.  A (z, d) cell
    that contains no records contributes exactly zero weight to every
    downstream formula, so its survival/outcome entries are set to zero
    rather than raising.  Cells that carry weight must have an observed
    survival rate, survivor cells that carry weight must have at least
    one observed outcome, and every cell's outcome mean and M2 must be
    finite: outcomes beyond about 1e154 overflow the M2 in float64.

    One dataset that breaks these rules raises; a stack of datasets codes
    each row's :class:`~brokenrct.errors.Reason` in ``params.reason``.
    """
    count, obs, pos, k = cells.count, cells.surv_obs, cells.surv_pos, cells.y_count
    arm = count.sum(axis=-1)
    n = arm.sum(axis=-1)
    cell_reason = np.where(
        (count > 0) & (obs == 0), Reason.NO_SURVIVAL_STATUS,
        np.where((count > 0) & (pos > 0) & (k == 0), Reason.NO_OUTCOME,
                 np.where(np.isfinite(cells.y_m2), Reason.OK, Reason.OUTCOME_OVERFLOW)))
    cell_reason = cell_reason.reshape(cell_reason.shape[:-2] + (4,))
    first_cell = np.argmax(cell_reason != Reason.OK, axis=-1)
    reason = np.where((arm == 0).any(axis=-1), Reason.EMPTY_ARM,
                      np.take_along_axis(cell_reason, first_cell[..., None], axis=-1)[..., 0])
    if np.ndim(reason) == 0 and reason != Reason.OK:
        z, d = divmod(int(first_cell), 2)
        if reason == Reason.EMPTY_ARM:
            raise EmptyCellError(f"assignment arm z={1 if arm[1] == 0 else 0} has no records")
        if reason == Reason.NO_SURVIVAL_STATUS:
            raise EmptyCellError(
                f"cell (z={z}, d={d}) has records but no observed survival status")
        if reason == Reason.NO_OUTCOME:
            raise AllOutcomesMissingError(
                f"cell (z={z}, d={d}, s=1) has survivors but no observed outcome")
        raise outcome_overflow_error(f"cell (z={z}, d={d}, s=1)")

    # an empty count divides by 1: its cell is weightless or its row failed
    assign_rate = arm[..., 1] / np.maximum(n, 1)
    take = count[..., 1] / np.maximum(arm, 1)
    survival = pos / np.maximum(obs, 1)
    # y_mean, and so the outcome variance, is 0 in a cell with no observed outcome
    y_var = np.where(k > 1, cells.y_m2 / np.maximum(k - 1, 1), 0.0)
    params = CellParams(take=take, survival=survival, mean_y=cells.y_mean,
                        assign_rate=assign_rate, reason=reason)
    variance = CellParams(take=take * (1 - take) / np.maximum(arm, 1),
                          survival=survival * (1.0 - survival) / np.maximum(obs, 1),
                          mean_y=y_var / np.maximum(k, 1),
                          assign_rate=assign_rate * (1 - assign_rate) / np.maximum(n, 1))
    return params, CellCovariance(diagonal=variance.pack())


#: by [z, d]: a term's arm d, the sign of its survival and mean terms (+1 for
#: z = 1, -1 for z = 0) and of its uptake term (negated for d = 0)
_ARM = np.array([[0, 1], [0, 1]])
_SIGN = np.array([[-1.0, -1.0], [1.0, 1.0]])
_TAKE_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _gradient(params: CellParams, weight, mass, den, mu) -> np.ndarray:
    """Both arms' packed gradients, ``[..., d, :]`` for arm d.

    For arm d, mu = (A1*m1 - A0*m0) / (A1 - A0) with Az = weight[z, d] *
    survival[z, d] and mz = mean_y[z, d] (:func:`~brokenrct.identify.identify_arms`).
    With sign +1 for z = 1 and -1 for z = 0: d mu/d mz = sign * Az / den,
    d mu/d survival[z, d] = sign * weight[z, d] * (mz - mu) / den, and d mu/d
    take[z] is that with survival[z, d] for weight[z, d], negated for d = 0.
    The assignment rate and the other arm's cells have zero components.
    """
    grad = np.zeros(np.shape(den) + (11,))
    resid = params.mean_y - mu[..., None, :]
    den = den[..., None, :]
    grad[..., _ARM, TAKE_AT[:, None]] = _TAKE_SIGN * params.survival * resid / den
    grad[..., _ARM, SURVIVAL_AT] = _SIGN * weight * resid / den
    grad[..., _ARM, MEAN_AT] = _SIGN * mass / den
    return grad


def estimate_pace(params: CellParams, cov: CellCovariance, level: float = 0.95,
                  n: int = 0, scale: str = "identity") -> PaceEstimate:
    """Point estimates with delta-method standard errors and a normal CI.

    Both means and both gradients come from one identification.  ``scale``
    is "identity" for the mean difference or "logit" for the log odds ratio
    of a binary outcome.  The gradient of ``logit(mu)`` is the identity-scale
    gradient divided by ``mu * (1 - mu)``, so the same covariance propagates.

    Stacked parameters give one estimate per row in one call, with no
    p-value.  A row gets a :class:`~brokenrct.errors.Reason` where one
    dataset raises or warns: its ``params.reason``, a degenerate, then a
    warning-band denominator, then on the logit scale a mean outside (0, 1).
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be 'identity' or 'logit', got {scale!r}")
    arms = identify_arms(params)
    mu = arms[3]
    reason = denominator_reason(params.reason, arms[2])
    with stack_errstate(mu.ndim > 1):
        grad = _gradient(params, *arms)
        grad1, grad0 = grad[..., 1, :], grad[..., 0, :]
        if scale == "logit":
            inside = (0.0 < mu) & (mu < 1.0)
            if mu.ndim == 1:
                for name, arm in (("mu1", 1), ("mu0", 0)):
                    if not inside[arm]:
                        raise MuOutOfUnitIntervalError(
                            f"{name} = {mu[arm]:.4f} is outside (0, 1); the log-odds "
                            "estimand requires a binary outcome and interior means"
                        )
            reason = np.where((reason == Reason.OK) & ~inside.all(axis=-1),
                              Reason.MU_OUT_OF_UNIT_INTERVAL, reason)
            mu = np.where(inside, mu, 0.5)
            grad1 = grad1 / (mu[..., 1] * (1.0 - mu[..., 1]))[..., None]
            grad0 = grad0 / (mu[..., 0] * (1.0 - mu[..., 0]))[..., None]
            mu = np.vectorize(logit, otypes=[float])(mu)
        tau = mu[..., 1] - mu[..., 0]
        se = np.sqrt(cov.quadratic_form(grad1 - grad0))
        se_mu1 = np.sqrt(cov.quadratic_form(grad1))
        se_mu0 = np.sqrt(cov.quadratic_form(grad0))
    return make_estimate(PaceEstimate, "pace", tau, se, level, n, reason, mu1=mu[..., 1],
                         mu0=mu[..., 0], se_mu1=se_mu1, se_mu0=se_mu0, scale=scale)


def logit(p: float) -> float:
    """log(p / (1 - p)) by ``math.log``, which ``np.log`` does not always match."""
    return math.log(p / (1.0 - p))


def normal_interval(point: float, se: float, level: float) -> tuple[float, float, float]:
    """(ci_lower, ci_upper, p_value): normal interval and zero-null p-value.
    For arrays (a stack) the p-value is None: numpy lacks ``math.erfc``."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    zq = normal_quantile(0.5 + level / 2.0)
    p_value = two_sided_p(point, se) if np.ndim(point) == 0 else None
    return point - zq * se, point + zq * se, p_value


def two_sided_p(estimate: float, se: float) -> float:
    """Two-sided normal p-value for the zero null."""
    if se == 0.0:
        return 1.0 if estimate == 0.0 else 0.0
    return 2.0 * normal_cdf(-abs(estimate) / se)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: ``statistics.NormalDist().inv_cdf``.

    Accurate to about 1e-15 relative error over (0, 1), far below the
    1e-9 needed here, with no dependency beyond the standard library.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return NormalDist().inv_cdf(p)
