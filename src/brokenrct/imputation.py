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
from typing import NamedTuple

import numpy as np

from .errors import NoDonorsError, ReductionPreconditionError
from .estimation import normal_interval
from .records import CellStatistics, as_array, outcome_moments, read_csv


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


#: the (z, d) cells in plan and draw order
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


class _CellPlan(NamedTuple):
    """What every imputation of one (z, d) cell draws from."""

    s_rows: np.ndarray   # rows missing s
    rate: float          # observed survival rate (0.0 when no row misses s)
    y_rows: np.ndarray   # rows that may need an outcome: missing s or missing y
    n_miss_y: int        # observed survivors missing y
    donors: np.ndarray   # observed survivor outcomes, sorted


def impute_within_cells(records, m: int, seed) -> list[np.ndarray]:
    """Return m completed datasets as (n, 6) arrays, reproducible from seed.

    Each imputation sets every survival status to observed, writes the
    survival draws into the rows missing s, then a donor outcome into each
    row that now has s = 1 but no outcome; a record whose imputed survival
    is 0 keeps an undefined outcome.  Draws are independent across
    imputations.  Raises :class:`NoDonorsError` when a cell contains a
    missing value but no observed donor for that variable.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    arr = as_array(records)
    plan = _plan(arr)
    completed = []
    for draws in _draws(plan, m, seed):
        out = arr.copy()
        out[:, 2] = 1.0
        for cell, (alive, picks) in zip(plan, draws):
            out[cell.s_rows, 3] = alive
            rows = cell.y_rows[out[cell.y_rows, 3] == 1]
            out[rows, 4] = 1.0
            out[rows, 5] = cell.donors[picks]
        completed.append(out)
    return completed


def _completed_cells(arr: np.ndarray, cells: CellStatistics, m: int,
                     seed) -> list[CellStatistics]:
    """The cell statistics of the m datasets of ``impute_within_cells(arr, m, seed)``.

    ``arr`` is an already validated array and ``cells`` its statistics; no
    completed dataset is built.  In each completed cell every survival
    status is observed, the survivors are the observed ones plus the drawn
    ones, and the outcomes are each donor once plus once per draw of it.
    Those outcomes, in sorted order, are the ones that
    :func:`~brokenrct.records.cells_from_arrays` would sort, so every field
    is bit-identical to its result on the completed dataset.
    """
    plan = _plan(arr)
    completed = []
    for draws in _draws(plan, m, seed):
        surv_pos = cells.surv_pos.copy()
        y_count = np.zeros((2, 2), dtype=np.int64)
        y_mean = np.zeros((2, 2), dtype=float)
        y_m2 = np.zeros((2, 2), dtype=float)
        for (zz, dd), cell, (alive, picks) in zip(CELLS, plan, draws):
            surv_pos[zz, dd] += np.count_nonzero(alive)
            draws_per_donor = np.bincount(picks, minlength=cell.donors.size)
            outcomes = np.repeat(cell.donors, draws_per_donor + 1)
            y_count[zz, dd], y_mean[zz, dd], y_m2[zz, dd] = outcome_moments(outcomes)
        completed.append(CellStatistics(cells.count.copy(), cells.count.copy(), surv_pos,
                                        np.zeros_like(cells.miss_s), y_count, y_mean, y_m2))
    return completed


def _plan(arr: np.ndarray) -> list[_CellPlan]:
    """The plan of each cell of :data:`CELLS` for a validated array.

    Raises :class:`NoDonorsError` when a cell contains a missing value but
    no observed donor for that variable.
    """
    z, d, delta_s, s, delta_y, y = arr.T
    observed_s = delta_s == 1
    survivor = observed_s & (s == 1)
    miss_y = survivor & (delta_y == 0)
    plan = []
    for zz, dd in CELLS:
        cell = (z == zz) & (d == dd)
        s_rows = np.flatnonzero(cell & ~observed_s)
        rate = 0.0
        if s_rows.size:
            if not (cell & observed_s).any():
                raise NoDonorsError(f"cell (z={zz}, d={dd}) needs survival imputation "
                                    "but has no observed survival status")
            rate = float(s[cell & observed_s].mean())
        donors = np.sort(y[cell & survivor & (delta_y == 1)])
        n_miss_y = int(np.count_nonzero(cell & miss_y))
        if donors.size == 0 and n_miss_y:
            raise NoDonorsError(f"cell (z={zz}, d={dd}, s=1) needs outcome imputation "
                                "but has no observed outcome")
        plan.append(_CellPlan(s_rows, rate, np.flatnonzero(cell & (~observed_s | miss_y)),
                              n_miss_y, donors))
    return plan


def _draws(plan: list[_CellPlan], m: int, seed):
    """Yield, per imputation, each cell's (survival draws, donor indices).

    Imputations draw from independent streams spawned from ``seed``.  Within
    one, the survival draws of the rows missing s come first, cell by cell,
    then one donor index per outcome to impute, cell by cell: the observed
    survivors missing y and the drawn survivors.
    """
    for child in np.random.SeedSequence(seed).spawn(m):
        rng = np.random.default_rng(child)
        alive = [rng.random(cell.s_rows.size) < cell.rate for cell in plan]
        picks = [rng.integers(0, cell.donors.size, cell.n_miss_y + np.count_nonzero(drawn))
                 for cell, drawn in zip(plan, alive)]
        yield list(zip(alive, picks))


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
