"""Closed-form identification of the survived-complier treatment effect.

All functions here are population-level algebra on the cell parameters:
assignment rate, per-arm treatment uptake, per-cell survival probabilities
and per-cell mean outcomes among survivors.  Plugging in sample estimates
gives the point estimators; the delta-method machinery lives in
:mod:`brokenrct.estimation`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DenominatorDegenerateError,
    IdentificationWarning,
    ReductionPreconditionError,
    SurvivalMonotonicityWarning,
    WeakDenominatorWarning,
)
from .records import CellStatistics

DENOMINATOR_HARD_TOLERANCE = 1e-10
DENOMINATOR_WARN_TOLERANCE = 0.01

#: The one layout of the packed 11-vector: assignment rate at 0, then take[z],
#: survival[z, d] and mean_y[z, d] at these positions, cells (1,1) first.
TAKE_AT = np.array([2, 1])
SURVIVAL_AT = np.array([[6, 5], [4, 3]])
MEAN_AT = np.array([[10, 9], [8, 7]])


@dataclass(frozen=True)
class CellParams:
    """Population (or plug-in) cell parameters.

    ``take[z]`` is P(D=1 | Z=z); ``survival[z, d]`` is P(S=1 | Z=z, D=d);
    ``mean_y[z, d]`` is E[Y | Z=z, D=d, S=1].  Cells that cannot occur
    (for example (z=0, d=1) under perfect compliance) carry zeros; they
    always receive exactly zero weight in the identification formulas.
    """

    take: np.ndarray        # shape (2,), indexed by z
    survival: np.ndarray    # shape (2, 2), indexed [z, d]
    mean_y: np.ndarray      # shape (2, 2), indexed [z, d]
    assign_rate: float = 0.5

    def pack(self) -> np.ndarray:
        """The 11-vector of the gradients and the covariance, laid out by
        :data:`TAKE_AT`, :data:`SURVIVAL_AT` and :data:`MEAN_AT`."""
        vec = np.empty(11)
        vec[0] = self.assign_rate
        vec[TAKE_AT], vec[SURVIVAL_AT], vec[MEAN_AT] = self.take, self.survival, self.mean_y
        return vec

    @classmethod
    def unpack(cls, vec) -> "CellParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (11,):
            raise ValueError("parameter vector must have length 11")
        return cls(take=vec[TAKE_AT], survival=vec[SURVIVAL_AT], mean_y=vec[MEAN_AT],
                   assign_rate=float(vec[0]))


@dataclass(frozen=True)
class StrataProportions:
    """Population shares of always-takers, compliers and never-takers."""

    p_a: float
    p_c: float
    p_n: float

    def as_tuple(self):
        return (self.p_a, self.p_c, self.p_n)


@dataclass(frozen=True)
class ComplierSurvival:
    """Survival probabilities of compliers under each treatment."""

    s1_given_c: float
    s0_given_c: float

    @property
    def effect(self) -> float:
        return self.s1_given_c - self.s0_given_c


def strata_proportions(params: CellParams) -> StrataProportions:
    """Compliance-strata shares from the uptake rates.

    Always-takers take treatment even when assigned control, so their share
    is the control-arm uptake; compliers contribute the uptake difference.
    """
    take1, take0 = float(params.take[1]), float(params.take[0])
    for name, value in (("take[1]", take1), ("take[0]", take0)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if take1 <= take0:
        raise DenominatorDegenerateError(
            f"uptake must be strictly higher under assignment: "
            f"take[1]={take1} <= take[0]={take0}"
        )
    return StrataProportions(p_a=take0, p_c=take1 - take0, p_n=1.0 - take1)


def complier_survival(params: CellParams) -> ComplierSurvival:
    """Back out complier survival by removing the always/never-taker mix.

    Treated survivors in arm 1 mix always-takers and compliers, while arm 0's
    treated cell is always-takers alone; symmetrically for the untreated
    cells.  Values outside [0, 1] are warned about and propagated unclipped
    (they signal assumption violations or sampling noise).
    """
    p = strata_proportions(params)
    surv = params.survival
    s1c = ((p.p_c + p.p_a) * surv[1, 1] - p.p_a * surv[0, 1]) / p.p_c
    s0c = ((p.p_c + p.p_n) * surv[0, 0] - p.p_n * surv[1, 0]) / p.p_c
    for name, value in (("treated", s1c), ("untreated", s0c)):
        if not 0.0 <= value <= 1.0:
            warnings.warn(
                f"identified complier survival under {name} is {value:.4f}, "
                "outside [0, 1]; an identification assumption may be violated",
                IdentificationWarning,
                stacklevel=2,
            )
    return ComplierSurvival(s1_given_c=float(s1c), s0_given_c=float(s0c))


def survivor_masses(params: CellParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-arm algebra of both treatments d at once, as (weight, mass, den):
    weight[z, d] = P(D=d | Z=z), the survival mass mass[z, d] = weight[z, d] *
    survival[z, d] and the mixing denominator den[d] = mass[1, d] - mass[0, d].
    """
    take = np.asarray(params.take, dtype=float)
    weight = np.array([[1.0 - take[0], take[0]], [1.0 - take[1], take[1]]])
    mass = weight * params.survival
    return weight, mass, mass[1] - mass[0]


def pace_denominators(params: CellParams) -> tuple[float, float]:
    """The two mixing denominators: treated-survivor and untreated-survivor."""
    den = survivor_masses(params)[2]
    return float(den[1]), float(den[0])


def identify_arms(params: CellParams, warn: bool = True) -> tuple[np.ndarray, ...]:
    """Both arms at once: (weight, mass, den) of :func:`survivor_masses` and
    mu[d] = (mass[1, d] * mean_y[1, d] - mass[0, d] * mean_y[0, d]) / den[d].

    Arm 1, then arm 0, raises when its denominator is numerically degenerate
    and, if ``warn``, warns when it is merely small."""
    weight, mass, den = survivor_masses(params)
    for arm in (1, 0):
        if abs(den[arm]) <= DENOMINATOR_HARD_TOLERANCE:
            raise DenominatorDegenerateError(
                f"arm-{arm} mixing denominator is degenerate ({den[arm]:.3e}); "
                "the survived-complier mean for this arm is not identified"
            )
        if warn and abs(den[arm]) < DENOMINATOR_WARN_TOLERANCE:
            warnings.warn(
                f"arm-{arm} mixing denominator is small ({den[arm]:.3e}); "
                "estimates may be unstable",
                WeakDenominatorWarning,
                stacklevel=3,
            )
    outcome = mass * params.mean_y
    return weight, mass, den, (outcome[1] - outcome[0]) / den


def pace_identify(params: CellParams) -> tuple[float, float, float]:
    """Survived-complier mean outcomes (mu1, mu0) and their contrast tau.

    For each treatment d, mu[d] is the survivors' outcome mass in cell
    (Z=1, D=d) minus that in cell (Z=0, D=d), over the same difference of
    survival masses (:func:`identify_arms`).  Raises when a mixing
    denominator is numerically degenerate, warns when it is merely small.
    """
    mu = identify_arms(params)[3]
    mu1, mu0 = float(mu[1]), float(mu[0])
    return mu1, mu0, mu1 - mu0


def cl_proportion_under_monotonicity(params: CellParams, *,
                                     assume_survival_monotone: bool = False) -> float:
    """Share of survived compliers, valid only if S(1) >= S(0) individually.

    That monotonicity is untestable, so the caller must assert it through
    the flag.  A negative value empirically contradicts the assumption and
    triggers a warning.
    """
    if not assume_survival_monotone:
        raise ValueError(
            "the survived-complier share is identified only under individual "
            "survival monotonicity; pass assume_survival_monotone=True to assert it"
        )
    mass = survivor_masses(params)[1]
    value = mass[0, 0] - mass[1, 0]
    if value < 0:
        warnings.warn(
            f"survived-complier share came out negative ({value:.4f}); "
            "survival monotonicity is empirically contradicted",
            SurvivalMonotonicityWarning,
            stacklevel=2,
        )
    return float(value)


def _arm_outcome_mean(cells: CellStatistics, z: int) -> float:
    """Complete-case mean outcome in an assignment arm (both d cells)."""
    k = cells.y_count[z, 1] + cells.y_count[z, 0]
    if k == 0:
        raise ReductionPreconditionError(f"no observed outcomes in arm z={z}")
    total = cells.y_count[z, 1] * cells.y_mean[z, 1] + cells.y_count[z, 0] * cells.y_mean[z, 0]
    return float(total / k)


def wald_reduction(cells: CellStatistics) -> float:
    """Uptake-scaled outcome contrast, valid when nothing is truncated.

    With survival identically 1 the estimand collapses to the classical
    instrumental-variable ratio: the arm difference of complete-case mean
    outcomes divided by the uptake difference.
    """
    if (cells.surv_obs != cells.surv_pos).any():
        raise ReductionPreconditionError(
            "the uptake-scaled contrast requires no truncation (all observed s = 1)"
        )
    take1, take0 = cells.take_rate(1), cells.take_rate(0)
    if not np.isfinite(take1) or not np.isfinite(take0):
        raise ReductionPreconditionError("both assignment arms must be present")
    if take1 == take0:
        raise DenominatorDegenerateError("uptake difference is exactly zero")
    return (_arm_outcome_mean(cells, 1) - _arm_outcome_mean(cells, 0)) / (take1 - take0)


def survivor_contrast_reduction(cells: CellStatistics) -> float:
    """Survivor-arm mean difference, valid under perfect compliance."""
    if cells.count[1, 0] != 0 or cells.count[0, 1] != 0:
        raise ReductionPreconditionError(
            "the survivor contrast requires perfect compliance (d = z for every record)"
        )
    return _arm_outcome_mean(cells, 1) - _arm_outcome_mean(cells, 0)


def no_missing_reduction(cells: CellStatistics) -> float:
    """Moment-ratio form of the estimand, valid with fully observed data.

    Computes the treated and untreated survivor-outcome moments per arm as
    plain averages over the whole arm (subjects contribute d*s*y and
    (1-d)*s*y, zero when not in the cell) and differences the two ratios.
    """
    if cells.miss_s.any() or (cells.y_count != cells.surv_pos).any():
        raise ReductionPreconditionError(
            "the moment-ratio form requires fully observed survival and outcomes"
        )
    n1, n0 = cells.arm_count(1), cells.arm_count(0)
    if n1 == 0 or n0 == 0:
        raise ReductionPreconditionError("both assignment arms must be present")

    def term(d: int) -> float:
        moment1 = cells.y_count[1, d] * cells.y_mean[1, d] / n1
        moment0 = cells.y_count[0, d] * cells.y_mean[0, d] / n0
        mass1 = cells.surv_pos[1, d] / n1
        mass0 = cells.surv_pos[0, d] / n0
        den = mass1 - mass0
        if den == 0:
            raise DenominatorDegenerateError(
                f"zero denominator in the d={d} moment ratio"
            )
        return (moment1 - moment0) / den

    return term(1) - term(0)


__all__ = [
    "CellParams",
    "ComplierSurvival",
    "StrataProportions",
    "cl_proportion_under_monotonicity",
    "complier_survival",
    "no_missing_reduction",
    "pace_denominators",
    "pace_identify",
    "strata_proportions",
    "survivor_contrast_reduction",
    "wald_reduction",
]
