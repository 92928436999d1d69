"""Within-cell hot-deck multiple imputation and combining-rule pooling.

Missing survival statuses are drawn Bernoulli with the cell's observed
survival proportion; missing outcomes among survivors are drawn uniformly
from the cell's observed outcomes.  This is the weakest imputation model
consistent with missingness-at-random inside (z, d) cells: it adds no
parametric assumptions.  The draws are planned from the cell statistics:
every count comes from :class:`~brokenrct.records.CellStatistics`, and
each cell's sorted donors and the rows the draws are written to come from
the one row-to-cell reduction of :mod:`~brokenrct.records`.
Model-based imputations can be supplied instead as a directory of
completed CSV datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NoDonorsError, SchemaError
from .estimation import normal_interval
from .records import (
    _OVERFLOW_SILENT,
    CELLS,
    CellStatistics,
    _cells_and_donors,
    as_array,
    outcome_moments,
    read_csv,
)


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
    """Return m completed datasets as column-major (n, 6) arrays, reproducible from seed.

    Each imputation sets every survival status to observed, writes the
    survival draws into the rows missing s, then a donor outcome into each
    row that now has s = 1 but no outcome; a record whose imputed survival
    is 0 keeps an undefined outcome.  Draws are independent across
    imputations.  Raises :class:`NoDonorsError` when a cell contains a
    missing value but no observed donor for that variable.  The rows of
    each cell are those of the reduction that ingests the input.  Each
    dataset is one copy of the input in :func:`~brokenrct.records.as_array`'s
    layout, so it passes through ``as_array`` again without a copy.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    arr = as_array(records)
    if not len(arr):  # nothing to draw, and cells_from_arrays rejects empty input
        return [arr.copy() for _ in range(m)]
    cells, donors, rows_of = _cells_and_donors(*arr.T)
    # each cell's survivors lacking y (kind 1) and rows missing s (kind 3)
    lacking_y, missing_s = rows_of(1), rows_of(3)
    completed = []
    for draws in _draws(cells, donors, m, seed):
        out = arr.copy(order="K")  # as_array's layout
        out[:, 2] = 1.0
        for y_at, s_at, pool, (alive, picks) in zip(lacking_y, missing_s, donors, draws):
            out[s_at, 3] = alive
            # the donor draws are bound to the rows needing y in row order
            rows = np.sort(np.concatenate((y_at, s_at[alive])))
            out[rows, 4] = 1.0
            out[rows, 5] = pool[picks]
        completed.append(out)
    return completed


def _completed_cells(cells: CellStatistics, donors: list[np.ndarray], m: int,
                     seed) -> list[CellStatistics]:
    """The cell statistics of the m datasets of ``impute_within_cells(arr, m, seed)``.

    ``cells`` and ``donors`` are those of one
    :func:`~brokenrct.records._cells_and_donors` of the validated ``arr``; no
    completed dataset is built and no row is read again.  In each
    completed cell every survival status is observed, the survivors are the
    observed ones plus the drawn ones, and the outcomes are each donor once
    plus once per draw of it.  Those outcomes, in sorted order, are the ones
    that :func:`~brokenrct.records.cells_from_arrays` would sort, so every
    field is bit-identical to its result on the completed dataset.
    """
    completed = []
    with np.errstate(**_OVERFLOW_SILENT):
        for draws in _draws(cells, donors, m, seed):
            drawn = np.array([np.count_nonzero(alive) for alive, _ in draws]).reshape(2, 2)
            outcomes = [np.repeat(pool, np.bincount(picks, minlength=pool.size) + 1)
                        for pool, (_, picks) in zip(donors, draws)]
            completed.append(CellStatistics(cells.count.copy(), cells.count.copy(),
                                            cells.surv_pos + drawn, *outcome_moments(outcomes)))
    return completed


def _draws(cells: CellStatistics, donors: list[np.ndarray], m: int, seed):
    """Yield, per imputation, each cell's (survival draws, donor indices).

    ``donors`` are the sorted donors of each cell of :data:`CELLS`; every
    count is read from ``cells``.  A cell draws survival for its ``miss_s``
    records at the rate ``surv_pos / surv_obs``, then one donor index per
    outcome to impute: its ``surv_pos - y_count`` observed survivors missing
    y and its drawn survivors.  Imputations draw from independent streams
    spawned from ``seed``.  Within one, the survival draws come first, cell
    by cell, then the donor indices, cell by cell.

    Raises :class:`NoDonorsError`, before any draw, for the first cell that
    contains a missing value but no observed donor for that variable.
    """
    miss_s, miss_y = cells.miss_s, cells.surv_pos - cells.y_count
    for zz, dd in CELLS:
        if miss_s[zz, dd] and not cells.surv_obs[zz, dd]:
            raise NoDonorsError(f"cell (z={zz}, d={dd}) needs survival imputation "
                                "but has no observed survival status")
        if miss_y[zz, dd] and not cells.y_count[zz, dd]:
            raise NoDonorsError(f"cell (z={zz}, d={dd}, s=1) needs outcome imputation "
                                "but has no observed outcome")
    rate = cells.surv_pos / np.maximum(cells.surv_obs, 1)
    for child in np.random.SeedSequence(seed).spawn(m):
        rng = np.random.default_rng(child)
        alive = [rng.random(miss_s[cell]) < rate[cell] for cell in CELLS]
        picks = [rng.integers(0, pool.size, miss_y[cell] + np.count_nonzero(drawn))
                 for cell, pool, drawn in zip(CELLS, donors, alive)]
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
    """Load externally completed datasets (one CSV per imputation); a file
    missing a survival status or a survivor's outcome raises ``SchemaError``."""
    return _read_completions(path)


def _read_completions(path, original=None) -> list[np.ndarray]:
    """:func:`read_completed_dir`, and when ``original`` is given, each file
    checked to complete it: the same number of records, the same z and d,
    every s that ``original`` observes and, to a relative 1e-12 (so that 15
    significant digits suffice), every y it observes.  The first file that
    does not raises ``SchemaError`` naming it and the first differing record."""
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no CSV files found in {path}")
    datasets = []
    for f in files:
        arr = read_csv(f)
        if (arr[:, 2] == 0).any():
            raise SchemaError(f"{f}: completed dataset has missing survival")
        if ((arr[:, 3] == 1) & (arr[:, 4] == 0)).any():
            raise SchemaError(f"{f}: completed dataset has missing outcomes")
        if original is not None:
            _check_completes(f, arr, original)
        datasets.append(arr)
    return datasets


def _check_completes(f, arr: np.ndarray, original: np.ndarray) -> None:
    if len(arr) != len(original):
        raise SchemaError(f"{f}: completed dataset has {len(arr)} records, "
                          f"the input has {len(original)}")
    z, d, _, s, _, y = arr.T
    z0, d0, delta_s0, s0, _, y0 = original.T
    observed_y = ~np.isnan(y0)
    for name, differs in (("z", z != z0), ("d", d != d0), ("s", (delta_s0 == 1) & (s != s0)),
                          ("y", observed_y & ~np.isclose(y, y0, rtol=1e-12, atol=0.0))):
        if differs.any():
            raise SchemaError(f"{f}: completed dataset does not complete the input: "
                              f"{name} differs at record {int(differs.argmax())}")
