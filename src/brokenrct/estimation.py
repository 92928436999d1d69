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
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    AllOutcomesMissingError,
    EmptyCellError,
    MuOutOfUnitIntervalError,
)
from .identify import CellParams, pace_denominators, pace_identify
from .records import CellStatistics

SCALES = ("identity", "logit")


@dataclass(frozen=True)
class CellCovariance:
    """Diagonal sampling covariance of the packed 11-parameter vector."""

    diagonal: np.ndarray

    def quadratic_form(self, gradient: np.ndarray) -> float:
        return float(np.sum(np.asarray(gradient) ** 2 * self.diagonal))

    @classmethod
    def zero(cls) -> "CellCovariance":
        return cls(diagonal=np.zeros(11))


@dataclass(frozen=True)
class Estimate:
    """One method's effect estimate with a normal interval and p-value.

    ``n`` is the number of records the estimate uses: all records for
    "pace", the survivors with an observed outcome in the compared groups
    for the comparators.
    """

    method: str
    tau: float
    se: float
    ci_lower: float
    ci_upper: float
    p_value: float
    level: float
    n: int

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


def fit_cell_params(cells: CellStatistics) -> tuple[CellParams, CellCovariance]:
    """Maximum-likelihood cell parameters and their diagonal covariance.

    Count ratios for the assignment rate, the uptakes and the survival
    probabilities; complete-case cell means for the outcomes, with sampling
    variance ``s^2 / k`` from the unbiased cell variance.  A (z, d) cell
    that contains no records contributes exactly zero weight to every
    downstream formula, so its survival/outcome entries are set to zero
    rather than raising.  Cells that carry weight must have an observed
    survival rate, and survivor cells that carry weight must have at least
    one observed outcome.
    """
    n = cells.n_records
    n1, n0 = cells.arm_count(1), cells.arm_count(0)
    if n1 == 0 or n0 == 0:
        raise EmptyCellError(f"assignment arm z={1 if n1 == 0 else 0} has no records")
    assign_rate = n1 / n
    take = np.array([cells.take_rate(0), cells.take_rate(1)])

    survival = np.zeros((2, 2))
    mean_y = np.zeros((2, 2))
    var_survival = np.zeros((2, 2))
    var_mean = np.zeros((2, 2))
    for z in (0, 1):
        for d in (0, 1):
            if cells.count[z, d] == 0:
                continue  # structurally weightless: take-rate factor is exactly 0
            obs = cells.surv_obs[z, d]
            if obs == 0:
                raise EmptyCellError(
                    f"cell (z={z}, d={d}) has records but no observed survival status"
                )
            rate = cells.surv_pos[z, d] / obs
            survival[z, d] = rate
            var_survival[z, d] = rate * (1.0 - rate) / obs
            if cells.surv_pos[z, d] == 0:
                continue  # no survivors: outcome mean carries zero weight
            k = cells.y_count[z, d]
            if k == 0:
                raise AllOutcomesMissingError(
                    f"cell (z={z}, d={d}, s=1) has survivors but no observed outcome"
                )
            mean_y[z, d] = cells.y_mean[z, d]
            var_mean[z, d] = cells.y_var(z, d) / k

    params = CellParams(take=take, survival=survival, mean_y=mean_y,
                        assign_rate=assign_rate)
    diagonal = np.array([
        assign_rate * (1 - assign_rate) / n,
        take[1] * (1 - take[1]) / n1,
        take[0] * (1 - take[0]) / n0,
        var_survival[1, 1], var_survival[1, 0],
        var_survival[0, 1], var_survival[0, 0],
        var_mean[1, 1], var_mean[1, 0],
        var_mean[0, 1], var_mean[0, 0],
    ])
    return params, CellCovariance(diagonal=diagonal)


def gradient_mu(params: CellParams, arm: int) -> np.ndarray:
    """Analytic gradient of the arm's survived-complier mean.

    The survived-complier mean for the treated arm is a ratio
    ``(A*m11 - B*m01) / (A - B)`` with ``A = take1*surv11`` and
    ``B = take0*surv01``; differentiating gives the compact forms below.
    Parameters that do not enter the arm's formula (the assignment rate and
    the opposite arm's cells) have exactly zero components.
    """
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    take1, take0 = params.take[1], params.take[0]
    surv, mean = params.survival, params.mean_y
    den1, den0 = pace_denominators(params)
    mu1, mu0, _ = pace_identify(params, warn_tolerance=0.0)
    grad = np.zeros(11)
    if arm == 1:
        a_mass, b_mass = take1 * surv[1, 1], take0 * surv[0, 1]
        grad[1] = surv[1, 1] * (mean[1, 1] - mu1) / den1          # d/d take1
        grad[2] = -surv[0, 1] * (mean[0, 1] - mu1) / den1         # d/d take0
        grad[3] = take1 * (mean[1, 1] - mu1) / den1               # d/d surv11
        grad[5] = -take0 * (mean[0, 1] - mu1) / den1              # d/d surv01
        grad[7] = a_mass / den1                                   # d/d mean11
        grad[9] = -b_mass / den1                                  # d/d mean01
    else:
        c_mass, d_mass = (1 - take1) * surv[1, 0], (1 - take0) * surv[0, 0]
        grad[1] = -surv[1, 0] * (mean[1, 0] - mu0) / den0         # d/d take1
        grad[2] = surv[0, 0] * (mean[0, 0] - mu0) / den0          # d/d take0
        grad[4] = (1 - take1) * (mean[1, 0] - mu0) / den0         # d/d surv10
        grad[6] = -(1 - take0) * (mean[0, 0] - mu0) / den0        # d/d surv00
        grad[8] = c_mass / den0                                   # d/d mean10
        grad[10] = -d_mass / den0                                 # d/d mean00
    return grad


def estimate_pace(params: CellParams, cov: CellCovariance, level: float = 0.95,
                  n: int = 0, scale: str = "identity") -> PaceEstimate:
    """Point estimates with delta-method standard errors and a normal CI.

    ``scale`` is "identity" for the mean difference or "logit" for the log
    odds ratio of a binary outcome.  The gradient of ``logit(mu)`` is the
    identity-scale gradient divided by ``mu * (1 - mu)``, so the same
    diagonal covariance propagates through.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be 'identity' or 'logit', got {scale!r}")
    mu1, mu0, tau = pace_identify(params)
    grad1 = gradient_mu(params, 1)
    grad0 = gradient_mu(params, 0)
    if scale == "logit":
        for name, mu in (("mu1", mu1), ("mu0", mu0)):
            if not 0.0 < mu < 1.0:
                raise MuOutOfUnitIntervalError(
                    f"{name} = {mu:.4f} is outside (0, 1); the log-odds estimand "
                    "requires a binary outcome and interior means"
                )
        grad1 = grad1 / (mu1 * (1.0 - mu1))
        grad0 = grad0 / (mu0 * (1.0 - mu0))
        mu1, mu0 = logit(mu1), logit(mu0)
        tau = mu1 - mu0
    se = math.sqrt(cov.quadratic_form(grad1 - grad0))
    return PaceEstimate(
        "pace", tau, se, *normal_interval(tau, se, level), level=level, n=n,
        mu1=mu1, mu0=mu0,
        se_mu1=math.sqrt(cov.quadratic_form(grad1)),
        se_mu0=math.sqrt(cov.quadratic_form(grad0)),
        scale=scale,
    )


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def normal_interval(point: float, se: float, level: float) -> tuple[float, float, float]:
    """(ci_lower, ci_upper, p_value): normal interval and zero-null p-value."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    zq = normal_quantile(0.5 + level / 2.0)
    return point - zq * se, point + zq * se, two_sided_p(point, se)


def two_sided_p(estimate: float, se: float) -> float:
    """Two-sided normal p-value for the zero null."""
    if se == 0.0:
        return 1.0 if estimate == 0.0 else 0.0
    return 2.0 * normal_cdf(-abs(estimate) / se)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's rational approximation).

    Accurate to about 1e-15 relative error over (0, 1), far below the
    1e-9 needed here, with no dependency beyond the standard library.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return NormalDist().inv_cdf(p)
