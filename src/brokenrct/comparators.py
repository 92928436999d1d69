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

import numpy as np

from .errors import DenominatorDegenerateError, EmptyCellError, Reason, stack_errstate
from .estimation import (Estimate, estimate_pace, fit_cell_params, make_estimate,
                         outcome_overflow_error)
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
    Every cell's M2 must be finite.  A stack of cells gives one estimate per
    row (see :func:`estimate`).
    """
    cells = ingest(records)
    k = cells.y_count
    n, n_z1, n_d1 = k.sum(axis=(-2, -1)), k[..., 1, :].sum(axis=-1), k[..., :, 1].sum(axis=-1)
    # n * sum k (z - zbar)(d - dbar) is an integer: test it exactly
    first_stage_n = n * k[..., 1, 1] - n_z1 * n_d1
    finite = np.isfinite(cells.y_m2).reshape(k.shape[:-2] + (4,))
    reason = np.where((n_z1 == 0) | (n_z1 == n), Reason.EMPTY_GROUP,
                      np.where(first_stage_n == 0, Reason.ZERO_FIRST_STAGE,
                               np.where(finite.all(axis=-1), Reason.OK, Reason.OUTCOME_OVERFLOW)))
    if reason.ndim == 0 and reason != Reason.OK:
        if reason == Reason.OUTCOME_OVERFLOW:
            z, d = divmod(int(finite.argmin()), 2)
            raise outcome_overflow_error(f"cell (z={z}, d={d}, s=1)")
        raise (EmptyCellError("both assignment arms must appear among observed survivors")
               if reason == Reason.EMPTY_GROUP
               else DenominatorDegenerateError("zero first stage among survivors"))
    with stack_errstate(reason.ndim > 0):
        first_stage = first_stage_n / n
        z_c = np.array([[0.0], [1.0]]) - (n_z1 / n)[..., None, None]
        y_bar = _sum_cells(k * cells.y_mean) / n
        tau = _sum_cells(k * z_c * (cells.y_mean - y_bar[..., None, None])) / first_stage
        alpha = y_bar - tau * (n_d1 / n)
        resid = cells.y_mean - alpha[..., None, None] - tau[..., None, None] * np.array([0.0, 1.0])
        # float_power is the libm pow of a Python float's ** 2, which is not always x * x
        variance = (_sum_cells(z_c**2 * (cells.y_m2 + k * resid**2))
                    / np.float_power(first_stage, 2))
    return make_estimate(Estimate, "tsls", tau, np.sqrt(variance), level, n, reason)


def _sum_cells(values):
    """Sum of each row's 2x2 cells as one reduction over 4 entries, so that a
    row adds them in the order of one dataset's ``.sum()``."""
    return values.reshape(values.shape[:-2] + (4,)).sum(axis=-1)


def itt_at_pp(records, method: str, level: float = 0.95) -> Estimate:
    """Survivor-restricted mean contrasts by assignment, treatment or protocol.

    itt: difference by assignment; at: difference by received treatment;
    pp: difference by assignment among protocol-followers (z = d).  Standard
    errors are the unpooled two-sample normal formula.  Each comparison
    group pools the outcome moments of its (z, d) cells, and each group's
    M2 must be finite.  A stack of cells gives one estimate per row (see
    :func:`estimate`).
    """
    method = _contrast_method(method)
    cells = ingest(records)
    k, mean, m2 = cells.y_count, cells.y_mean, cells.y_m2
    if method == "itt":    # group by z: pool each arm's two d cells
        k, mean, m2 = pool_moments(k[..., 0], mean[..., 0], m2[..., 0],
                                   k[..., 1], mean[..., 1], m2[..., 1])
    elif method == "at":   # group by d: pool each treatment's two z cells
        k, mean, m2 = pool_moments(k[..., 0, :], mean[..., 0, :], m2[..., 0, :],
                                   k[..., 1, :], mean[..., 1, :], m2[..., 1, :])
    else:                  # protocol followers: cells (0, 0) and (1, 1)
        k, mean, m2 = (np.diagonal(a, axis1=-2, axis2=-1) for a in (k, mean, m2))
    reason = np.where((k == 0).any(axis=-1), Reason.EMPTY_GROUP,
                      np.where(np.isfinite(m2).all(axis=-1), Reason.OK, Reason.OUTCOME_OVERFLOW))
    if reason.ndim == 0 and reason != Reason.OK:
        raise (EmptyCellError(f"{method}: empty comparison group among observed survivors")
               if reason == Reason.EMPTY_GROUP
               else outcome_overflow_error(f"{method}: a comparison group"))
    var = np.where(k > 1, m2 / np.maximum(k - 1, 1), 0.0) / np.maximum(k, 1)
    return make_estimate(Estimate, method, mean[..., 1] - mean[..., 0],
                         np.sqrt(var[..., 1] + var[..., 0]), level, k.sum(axis=-1), reason)


def _contrast_method(method: str) -> str:
    """``method`` in lower case; ``ValueError`` unless it is itt, at or pp."""
    if not isinstance(method, str) or method.lower() not in ("itt", "at", "pp"):
        raise ValueError(f"method must be itt, at or pp, got {method!r}")
    return method.lower()


def check_scale(method: str, scale: str) -> None:
    """Raise ``ValueError`` for a comparator (a mean difference) off the identity scale."""
    if method != "pace" and scale != "identity":
        raise ValueError(f"{method} is a mean difference and has only the 'identity' "
                         f"scale, got {scale!r}")


def estimate(cells, method: str, level: float = 0.95, scale: str = "identity") -> Estimate:
    """The effect by ``method``, one of :data:`METHODS`: "pace" is a PaceEstimate on ``scale``.

    ``cells`` is anything :func:`~brokenrct.records.ingest` accepts.  A
    comparator with any scale but "identity" raises ``ValueError``
    (:func:`check_scale`).

    ``cells`` may also be a :meth:`~brokenrct.records.CellStatistics.stack`,
    estimated in one call with no p-values.  Where one dataset raises an
    ``EstimationError`` (or warns of a weak pace denominator), its row gets
    the matching :class:`~brokenrct.errors.Reason` and undefined values:
    those of :func:`~brokenrct.estimation.estimate_pace` for pace,
    ``EMPTY_GROUP``, ``ZERO_FIRST_STAGE`` or ``OUTCOME_OVERFLOW`` for the comparators.
    """
    check_scale(method, scale)
    cells = ingest(cells)
    if method == "pace":
        params, cov = fit_cell_params(cells)
        return estimate_pace(params, cov, level=level, n=cells.count.sum(axis=(-2, -1)),
                             scale=scale)
    if method == "tsls":
        return tsls_survivors(cells, level=level)
    return itt_at_pp(cells, method, level=level)
