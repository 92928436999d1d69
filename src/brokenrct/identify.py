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
    Reason,
    WeakDenominatorWarning,
    stack_errstate,
)

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
    Plug-in parameters of a stack of datasets have a leading axis, and each
    row's :class:`~brokenrct.errors.Reason` from ``fit_cell_params``.
    """

    take: np.ndarray        # shape (..., 2), indexed by z
    survival: np.ndarray    # shape (..., 2, 2), indexed [z, d]
    mean_y: np.ndarray      # shape (..., 2, 2), indexed [z, d]
    assign_rate: float = 0.5
    reason: np.ndarray | int = Reason.OK

    def pack(self) -> np.ndarray:
        """The 11-vector of the gradients and the covariance, laid out by
        :data:`TAKE_AT`, :data:`SURVIVAL_AT` and :data:`MEAN_AT`; one per
        row of a stack."""
        vec = np.empty(np.shape(self.take)[:-1] + (11,))
        vec[..., 0] = self.assign_rate
        vec[..., TAKE_AT] = self.take
        vec[..., SURVIVAL_AT] = self.survival
        vec[..., MEAN_AT] = self.mean_y
        return vec


@dataclass(frozen=True)
class StrataProportions:
    """Population shares of always-takers, compliers and never-takers."""

    p_a: float
    p_c: float
    p_n: float


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
    cells.  So the compliers' survival mass under each treatment is that
    treatment's mixing denominator of :func:`survivor_masses`, negated for
    the untreated, over the complier share.  Values outside [0, 1] are warned
    about and propagated unclipped (they signal assumption violations or
    sampling noise).
    """
    p_c = strata_proportions(params).p_c
    den = survivor_masses(params)[2]
    s1c, s0c = den[1] / p_c, -den[0] / p_c
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
    Stacked parameters give them per row.
    """
    take = np.asarray(params.take, dtype=float)
    weight = np.stack([1.0 - take, take], axis=-1)
    mass = weight * params.survival
    return weight, mass, mass[..., 1, :] - mass[..., 0, :]


def pace_denominators(params: CellParams) -> tuple[float, float]:
    """The two mixing denominators: treated-survivor and untreated-survivor."""
    den = survivor_masses(params)[2]
    return float(den[1]), float(den[0])


def identify_arms(params: CellParams) -> tuple[np.ndarray, ...]:
    """Both arms at once: (weight, mass, den) of :func:`survivor_masses` and
    mu[d] = (mass[1, d] * mean_y[1, d] - mass[0, d] * mean_y[0, d]) / den[d].

    For one dataset, arm 1, then arm 0, raises when its denominator is
    numerically degenerate and warns when it is merely small;
    :func:`denominator_reason` codes that for a stack."""
    weight, mass, den = survivor_masses(params)
    if den.ndim == 1:
        for arm in (1, 0):
            if abs(den[arm]) <= DENOMINATOR_HARD_TOLERANCE:
                raise DenominatorDegenerateError(
                    f"arm-{arm} mixing denominator is degenerate ({den[arm]:.3e}); "
                    "the survived-complier mean for this arm is not identified"
                )
            if abs(den[arm]) < DENOMINATOR_WARN_TOLERANCE:
                warnings.warn(
                    f"arm-{arm} mixing denominator is small ({den[arm]:.3e}); "
                    "estimates may be unstable",
                    WeakDenominatorWarning,
                    stacklevel=3,
                )
    outcome = mass * params.mean_y
    with stack_errstate(den.ndim > 1):
        return weight, mass, den, (outcome[..., 1, :] - outcome[..., 0, :]) / den


def denominator_reason(reason, den):
    """``reason``, or where it is 0 a degenerate, then a warning-band mixing denominator."""
    size = np.abs(den)
    code = np.where((size <= DENOMINATOR_HARD_TOLERANCE).any(axis=-1),
                    Reason.DEGENERATE_DENOMINATOR,
                    np.where((size < DENOMINATOR_WARN_TOLERANCE).any(axis=-1),
                             Reason.WEAK_DENOMINATOR, Reason.OK))
    return np.where(reason == Reason.OK, code, reason)


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


__all__ = [
    "CellParams",
    "ComplierSurvival",
    "StrataProportions",
    "complier_survival",
    "pace_denominators",
    "pace_identify",
    "strata_proportions",
]
