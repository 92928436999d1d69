"""Reference estimators: survivor-restricted 2SLS and naive contrasts.

These are the benchmarks the main estimator is compared against.  All of
them are computed on the survivor subsample with observed outcomes and are
conventions, not identification results: they ignore the uncertainty in who
survives, which is exactly why their intervals look tighter.

Because z and d are constant within a (z, d) cell, every comparator is a
closed-form function of the per-cell outcome count, mean and M2 in
:class:`~brokenrct.records.CellStatistics`.  :func:`estimate` runs any of
the five methods, the main estimator included, on one set of cells.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DenominatorDegenerateError, EmptyCellError
from .estimation import Estimate, estimate_pace, fit_cell_params, normal_interval
from .records import ingest, pool_moments

#: every estimator by name: the main one, then the comparators
METHODS = ("pace", "tsls", "itt", "at", "pp")


def tsls_survivors(records, level: float = 0.95) -> Estimate:
    """Just-identified IV (Wald) ratio computed within observed survivors.

    The assignment instruments the received treatment on the survivor
    subsample; the standard error is the heteroskedasticity-robust sandwich
    for the just-identified case.  With k, ybar and M2 the outcome count,
    mean and M2 of a (z, d) cell and bars over all survivors with an
    observed outcome, the ratio is
    sum k (z - zbar)(ybar_zd - ybar) / sum k (z - zbar)(d - dbar), and the
    sandwich sums (z - zbar)^2 (M2 + k r^2) with r the cell-mean residual.
    """
    cells = ingest(records)
    k = cells.y_count
    n, n_z1, n_d1 = int(k.sum()), int(k[1].sum()), int(k[:, 1].sum())
    if n_z1 == 0 or n_z1 == n:
        raise EmptyCellError("both assignment arms must appear among observed survivors")
    # n * sum k (z - zbar)(d - dbar) is an integer: test it exactly
    first_stage_n = n * int(k[1, 1]) - n_z1 * n_d1
    if first_stage_n == 0:
        raise DenominatorDegenerateError("zero first stage among survivors")
    first_stage = first_stage_n / n
    z_c = np.array([[0.0], [1.0]]) - n_z1 / n
    y_bar = float((k * cells.y_mean).sum()) / n
    tau = float((k * z_c * (cells.y_mean - y_bar)).sum()) / first_stage
    alpha = y_bar - tau * (n_d1 / n)
    resid = cells.y_mean - alpha - tau * np.array([0.0, 1.0])
    variance = float((z_c**2 * (cells.y_m2 + k * resid**2)).sum()) / first_stage**2
    se = math.sqrt(variance)
    return Estimate("tsls", tau, se, *normal_interval(tau, se, level), level=level, n=n)


def itt_at_pp(records, method: str, level: float = 0.95) -> Estimate:
    """Survivor-restricted mean contrasts by assignment, treatment or protocol.

    itt: difference by assignment; at: difference by received treatment;
    pp: difference by assignment among protocol-followers (z = d).  Standard
    errors are the unpooled two-sample normal formula.  Each comparison
    group pools the outcome moments of its (z, d) cells.
    """
    method = method.lower()
    if method not in ("itt", "at", "pp"):
        raise ValueError(f"method must be itt, at or pp, got {method!r}")
    cells = ingest(records)
    k, mean, m2 = cells.y_count, cells.y_mean, cells.y_m2
    if method == "itt":    # group by z: pool each arm's two d cells
        k, mean, m2 = pool_moments(k[:, 0], mean[:, 0], m2[:, 0], k[:, 1], mean[:, 1], m2[:, 1])
    elif method == "at":   # group by d: pool each treatment's two z cells
        k, mean, m2 = pool_moments(k[0], mean[0], m2[0], k[1], mean[1], m2[1])
    else:                  # protocol followers: cells (0, 0) and (1, 1)
        k, mean, m2 = k.diagonal(), mean.diagonal(), m2.diagonal()
    if (k == 0).any():
        raise EmptyCellError(f"{method}: empty comparison group among observed survivors")
    var = np.where(k > 1, m2 / np.maximum(k - 1, 1), 0.0)
    tau = float(mean[1] - mean[0])
    se = math.sqrt(float(var[1] / k[1] + var[0] / k[0]))
    return Estimate(method, tau, se, *normal_interval(tau, se, level),
                    level=level, n=int(k.sum()))


def check_scale(method: str, scale: str) -> None:
    """Raise ``ValueError`` for a comparator (a mean difference) off the identity scale."""
    if method != "pace" and scale != "identity":
        raise ValueError(f"{method} is a mean difference and has only the 'identity' "
                         f"scale, got {scale!r}")


def estimate(cells, method: str, level: float = 0.95, scale: str = "identity") -> Estimate:
    """The effect by ``method``, one of :data:`METHODS`: "pace" is a PaceEstimate on ``scale``.

    A comparator with any scale but "identity" raises ``ValueError``
    (:func:`check_scale`).
    """
    check_scale(method, scale)
    if method == "pace":
        params, cov = fit_cell_params(cells)
        return estimate_pace(params, cov, level=level, n=cells.n_records, scale=scale)
    if method == "tsls":
        return tsls_survivors(cells, level=level)
    return itt_at_pp(cells, method, level=level)
