"""Within-cell hot-deck multiple imputation and combining-rule pooling.

Missing survival statuses are drawn Bernoulli with the cell's observed
survival proportion; missing outcomes among survivors are drawn uniformly
from the cell's observed outcomes.  This is the weakest imputation model
consistent with missingness-at-random inside (z, d) cells: it adds no
parametric assumptions.  Model-based imputations can be supplied instead as
a directory of completed CSV datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NoDonorsError, ReductionPreconditionError
from .estimation import normal_interval
from .records import as_array, read_csv


@dataclass(frozen=True)
class ImputedAnalysis:
    """Per-dataset point estimates and squared standard errors."""

    estimates: np.ndarray
    within_var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "estimates", np.asarray(self.estimates, dtype=float))
        object.__setattr__(self, "within_var", np.asarray(self.within_var, dtype=float))
        if self.estimates.shape != self.within_var.shape:
            raise ValueError("estimates and within_var must have matching length")
        if (self.within_var < 0).any():
            raise ValueError("within-imputation variances must be non-negative")

    @property
    def m(self) -> int:
        return int(self.estimates.size)


@dataclass(frozen=True)
class PooledEstimate:
    """Combined estimate over completed datasets, read like an :class:`Estimate`.

    Total variance is the mean within-dataset variance plus the
    between-dataset variance inflated by (1 + 1/m).  There is no single
    ``n``: a comparator's record count varies across completed datasets.
    """

    tau: float
    se: float
    ci_lower: float
    ci_upper: float
    p_value: float
    level: float
    m: int
    within: float
    between: float

    @property
    def total_var(self) -> float:
        return self.se**2

    @property
    def ci(self) -> tuple[float, float]:
        return (self.ci_lower, self.ci_upper)


def impute_within_cells(records, m: int, seed) -> list[np.ndarray]:
    """Return m completed datasets as (n, 6) arrays, reproducible from seed.

    Draws are independent across imputations.  A record whose imputed
    survival is 0 keeps an undefined outcome.  Raises when a cell contains
    a missing value but no observed donor for that variable.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    arr = as_array(records)
    z, d = arr[:, 0].astype(int), arr[:, 1].astype(int)
    miss_s = arr[:, 2] == 0
    surv = (arr[:, 2] == 1) & (arr[:, 3] == 1)
    miss_y = surv & (arr[:, 4] == 0)

    cell_rate = {}
    cell_donors = {}
    for zz in (0, 1):
        for dd in (0, 1):
            cell = (z == zz) & (d == dd)
            observed_s = cell & (arr[:, 2] == 1)
            rate = 0.0
            if (cell & miss_s).any():
                if not observed_s.any():
                    raise NoDonorsError(
                        f"cell (z={zz}, d={dd}) needs survival imputation "
                        "but has no observed survival status"
                    )
                rate = float(arr[observed_s, 3].mean())
                cell_rate[zz, dd] = rate
            donors = arr[cell & surv & (arr[:, 4] == 1), 5]
            needs_y = (cell & miss_y).any() or ((cell & miss_s).any() and rate > 0)
            if needs_y and donors.size == 0:
                raise NoDonorsError(
                    f"cell (z={zz}, d={dd}, s=1) needs outcome imputation "
                    "but has no observed outcome"
                )
            cell_donors[zz, dd] = np.sort(donors)

    completed = []
    for child in np.random.SeedSequence(seed).spawn(m):
        rng = np.random.default_rng(child)
        out = arr.copy()
        new_s = out[:, 3].copy()
        for (zz, dd), rate in cell_rate.items():
            idx = np.flatnonzero((z == zz) & (d == dd) & miss_s)
            new_s[idx] = (rng.random(idx.size) < rate).astype(float)
        out[:, 3] = new_s
        out[:, 2] = 1.0
        fill_y = (new_s == 1) & np.isnan(out[:, 5])
        for zz in (0, 1):
            for dd in (0, 1):
                idx = np.flatnonzero((z == zz) & (d == dd) & fill_y)
                if idx.size:
                    donors = cell_donors[zz, dd]
                    out[idx, 5] = donors[rng.integers(0, donors.size, idx.size)]
        out[fill_y, 4] = 1.0
        out[out[:, 3] == 0, 5] = np.nan
        completed.append(out)
    return completed


def rubin_pool(analysis: ImputedAnalysis, level: float = 0.95) -> PooledEstimate:
    """Pool per-dataset analyses; requires at least two datasets.

    The pooled ``tau`` is the mean of the estimates; the interval uses normal
    quantiles on the square root of the total variance (no small-sample
    degrees-of-freedom refinement).
    """
    if analysis.m < 2:
        raise ValueError("pooling requires at least m = 2 completed datasets")
    tau = float(analysis.estimates.mean())
    within = float(analysis.within_var.mean())
    between = float(analysis.estimates.var(ddof=1))
    se = math.sqrt(within + (1.0 + 1.0 / analysis.m) * between)
    return PooledEstimate(tau, se, *normal_interval(tau, se, level), level=level,
                          m=analysis.m, within=within, between=between)


def pool_estimates(estimates, level: float = 0.95) -> PooledEstimate:
    """Pool the :class:`Estimate` of each completed dataset."""
    return rubin_pool(ImputedAnalysis(estimates=[est.tau for est in estimates],
                                      within_var=[est.se**2 for est in estimates]), level)


def read_completed_dir(path) -> list[np.ndarray]:
    """Load externally completed datasets (one CSV per imputation)."""
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no CSV files found in {path}")
    datasets = []
    for f in files:
        arr = read_csv(f)
        if (arr[:, 2] == 0).any():
            raise ReductionPreconditionError(f"{f}: completed dataset has missing survival")
        if ((arr[:, 3] == 1) & (arr[:, 4] == 0)).any():
            raise ReductionPreconditionError(f"{f}: completed dataset has missing outcomes")
        datasets.append(arr)
    return datasets
