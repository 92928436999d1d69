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

    One plan is built per call, per (z, d) cell in the order (0, 0), (0, 1),
    (1, 0), (1, 1): the rows missing s, the observed survival rate, the rows
    that may need an outcome (missing s or missing y) and the sorted outcome
    donors.  Building it raises when a cell contains a missing value but no
    observed donor for that variable.  Each imputation draws s for the
    planned rows, then a donor for each planned outcome row whose s is now 1;
    a record whose imputed survival is 0 keeps an undefined outcome.  Draws
    are independent across imputations.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    arr = as_array(records)
    z, d, delta_s, s, delta_y, y = arr.T
    observed_s = delta_s == 1
    survivor = observed_s & (s == 1)
    miss_y = survivor & (delta_y == 0)
    plan = []
    for zz, dd in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cell = (z == zz) & (d == dd)
        s_rows = np.flatnonzero(cell & ~observed_s)
        rate = 0.0
        if s_rows.size:
            if not (cell & observed_s).any():
                raise NoDonorsError(f"cell (z={zz}, d={dd}) needs survival imputation "
                                    "but has no observed survival status")
            rate = float(s[cell & observed_s].mean())
        donors = np.sort(y[cell & survivor & (delta_y == 1)])
        if donors.size == 0 and (cell & miss_y).any():
            raise NoDonorsError(f"cell (z={zz}, d={dd}, s=1) needs outcome imputation "
                                "but has no observed outcome")
        plan.append((s_rows, rate, np.flatnonzero(cell & (~observed_s | miss_y)), donors))

    completed = []
    for child in np.random.SeedSequence(seed).spawn(m):
        rng = np.random.default_rng(child)
        out = arr.copy()
        out[:, 2] = 1.0
        for s_rows, rate, _, _ in plan:
            if s_rows.size:
                out[s_rows, 3] = rng.random(s_rows.size) < rate
        for _, _, y_rows, donors in plan:
            rows = y_rows[out[y_rows, 3] == 1]
            if rows.size:
                out[rows, 4] = 1.0
                out[rows, 5] = donors[rng.integers(0, donors.size, rows.size)]
        completed.append(out)
    return completed


def pool_estimates(estimates, level: float = 0.95) -> PooledEstimate:
    """Pool the :class:`Estimate` of each completed dataset; requires m >= 2.

    The pooled ``tau`` is the mean of the estimates; the interval uses normal
    quantiles on the square root of the total variance (no small-sample
    degrees-of-freedom refinement).
    """
    estimates = list(estimates)
    m = len(estimates)
    if m < 2:
        raise ValueError("pooling requires at least m = 2 completed datasets")
    taus = np.array([est.tau for est in estimates], dtype=float)
    within_var = np.array([est.se**2 for est in estimates], dtype=float)
    tau = float(taus.mean())
    within = float(within_var.mean())
    between = float(taus.var(ddof=1))
    se = math.sqrt(within + (1.0 + 1.0 / m) * between)
    return PooledEstimate(tau, se, *normal_interval(tau, se, level), level=level,
                          m=m, within=within, between=between)


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
