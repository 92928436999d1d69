"""Shared oracles and dataset builders for the test suite.

The oracles here are independent of the code paths they check: cell
parameters are derived by enumerating the latent strata of the benchmark
generator, and the employment-study parameters come from the published
cell table, entered as plain constants.  The row-level comparators are
the reference for the package's closed forms on cell statistics, the
row-level record check is the reference for the column-wise one, and the
hand-written twin formulas (one block per arm, the 11-parameter order
spelled out) are the reference for the one per-arm identification.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from brokenrct.errors import (
    AllOutcomesMissingError,
    DenominatorDegenerateError,
    EmptyCellError,
    InvalidRecordError,
    MuOutOfUnitIntervalError,
    SurvivalMonotonicityWarning,
    WeakDenominatorWarning,
)
from brokenrct.estimation import Estimate, PaceEstimate, logit, normal_interval
from brokenrct.identify import (
    DENOMINATOR_HARD_TOLERANCE,
    DENOMINATOR_WARN_TOLERANCE,
    CellParams,
)
from brokenrct.records import ObservationRecord
from brokenrct.simulate import DgpConfig

# Employment-study cell values per follow-up year, cells keyed (z, d):
# survival = employment proportion, mean_y = mean log-earnings of the employed.
STUDY_TAKE = {1: 0.888, 0: 0.606}
STUDY_ARMS = {1: 5577, 0: 3663}
STUDY_CELLS = {
    1: {"survival": {(1, 1): 0.480, (1, 0): 0.574, (0, 1): 0.543, (0, 0): 0.601},
        "mean": {(1, 1): 4.824, (1, 0): 5.090, (0, 1): 4.803, (0, 0): 5.041}},
    2: {"survival": {(1, 1): 0.749, (1, 0): 0.772, (0, 1): 0.745, (0, 0): 0.766},
        "mean": {(1, 1): 4.723, (1, 0): 4.841, (0, 1): 4.661, (0, 0): 4.868}},
    3: {"survival": {(1, 1): 0.838, (1, 0): 0.812, (0, 1): 0.807, (0, 0): 0.824},
        "mean": {(1, 1): 5.023, (1, 0): 4.964, (0, 1): 4.924, (0, 0): 5.009}},
    4: {"survival": {(1, 1): 0.840, (1, 0): 0.815, (0, 1): 0.827, (0, 0): 0.792},
        "mean": {(1, 1): 5.207, (1, 0): 5.128, (0, 1): 5.160, (0, 0): 5.168}},
}


def dataset_estimates(taus, within_var) -> list[Estimate]:
    """One :class:`Estimate` per completed dataset, with se = sqrt(within_var)."""
    return [Estimate("pace", float(tau), math.sqrt(var), float(tau), float(tau), 1.0, 0.95, 0)
            for tau, var in zip(taus, within_var)]


def study_params(year: int) -> CellParams:
    cells = STUDY_CELLS[year]
    survival = np.zeros((2, 2))
    mean = np.zeros((2, 2))
    for (z, d), v in cells["survival"].items():
        survival[z, d] = v
    for (z, d), v in cells["mean"].items():
        mean[z, d] = v
    return CellParams(take=np.array([STUDY_TAKE[0], STUDY_TAKE[1]]),
                      survival=survival, mean_y=mean)


def case1_params_oracle() -> CellParams:
    """Benchmark-case-1 cell parameters by enumerating the latent strata.

    Strata shares 0.3 / 0.28 / 0.42 (always / complier / never); survival
    probabilities per stratum from the two linear survival rules; outcome
    means 1 + d for every stratum.  This recomputes the parameters from
    first principles rather than through any library code.
    """
    p_a, p_c, p_n = 0.3, 0.28, 0.42
    s1 = {"a": 0.9, "c": 0.6, "n": 0.3}
    s0 = {"a": 0.7, "c": 0.5, "n": 0.3}
    take1 = p_a + p_c
    take0 = p_a
    survival = np.zeros((2, 2))
    survival[1, 1] = (p_a * s1["a"] + p_c * s1["c"]) / (p_a + p_c)
    survival[1, 0] = s0["n"]
    survival[0, 1] = s1["a"]
    survival[0, 0] = (p_c * s0["c"] + p_n * s0["n"]) / (p_c + p_n)
    mean = np.array([[1.0, 2.0], [1.0, 2.0]])
    return CellParams(take=np.array([take0, take1]), survival=survival, mean_y=mean)


@dataclass(frozen=True)
class StratumOracle:
    """Population quantities of one benchmark case.

    ``params`` are the exact cell parameters, ``truth`` is the
    survived-complier effect E[Y(1) - Y(0) | complier, S(1)=S(0)=1], and
    ``tsls_limit`` is the probability limit of the within-survivor IV ratio
    (E[Y | Z=1, S=1] - E[Y | Z=0, S=1]) / (P(D=1 | Z=1, S=1) - P(D=1 | Z=0, S=1)).
    """

    params: CellParams
    truth: float
    tsls_limit: float


def stratum_oracle(case: int) -> StratumOracle:
    """Benchmark-case population quantities by enumerating the latent strata.

    Generalises :func:`case1_params_oracle` to cases 1-4.  Every latent
    stratum (D(0), D(1), S(1), S(0)) gets its probability from the design's
    compliance shares and linear survival rules (S(1) and S(0) independent
    given the compliance type), and its conditional outcome means from the
    design's additive outcome law: the heterogeneous shifts add their means,
    the cross-world terms add the other world's survival indicator.  Cell
    parameters and both targets are then exact sums over the strata.  Only
    the design constants of ``DgpConfig(case=case)`` are read; no generator,
    estimator or identification code is called.
    """
    cfg = DgpConfig(case=case)
    het, cross = float(cfg.heterogeneous), float(cfg.cross_world)
    shares = {  # compliance type (D(0), D(1)) -> population share
        (1, 1): cfg.p_d0,
        (0, 1): (1 - cfg.p_d0) * cfg.p_d1_given_not_d0,
        (0, 0): (1 - cfg.p_d0) * (1 - cfg.p_d1_given_not_d0),
    }
    arm = np.zeros((2, 2))        # P(D=d | Z=z), indexed [z, d]
    survivors = np.zeros((2, 2))  # P(D=d, S=1 | Z=z)
    outcome = np.zeros((2, 2))    # E[Y 1{D=d, S=1} | Z=z]
    complier_mass = complier_gap = 0.0
    for (d0, d1), share in shares.items():
        surv = {d: a + b * d0 + c * d1 for d, (a, b, c) in
                ((0, cfg.surv_coef_control), (1, cfg.surv_coef_treated))}
        for s1 in (0, 1):
            for s0 in (0, 1):
                w = share * (surv[1] if s1 else 1 - surv[1]) * (surv[0] if s0 else 1 - surv[0])
                mean = {
                    1: (cfg.mean_base + cfg.mean_gain + het * cfg.always_mean * d0
                        + cross * cfg.y1_gain_from_s0 * s0),
                    0: (cfg.mean_base - het * cfg.never_mean * (1 - d1)
                        + cross * cfg.y0_gain_from_s1 * s1),
                }
                if (d0, d1) == (0, 1) and s1 and s0:
                    complier_mass += w
                    complier_gap += w * (mean[1] - mean[0])
                for z, d in ((0, d0), (1, d1)):
                    arm[z, d] += w
                    if (s1 if d else s0):
                        survivors[z, d] += w
                        outcome[z, d] += w * mean[d]

    params = CellParams(take=arm[:, 1], survival=survivors / arm,
                        mean_y=outcome / survivors, assign_rate=cfg.assign_rate)
    survival_rate = survivors.sum(axis=1)
    mean_y = outcome.sum(axis=1) / survival_rate
    uptake = survivors[:, 1] / survival_rate
    return StratumOracle(params=params, truth=complier_gap / complier_mass,
                         tsls_limit=(mean_y[1] - mean_y[0]) / (uptake[1] - uptake[0]))


def two_point_outcomes(k: int, mean: float) -> np.ndarray:
    """k values with sample mean exactly `mean` and positive spread."""
    half = k // 2
    values = [mean - 0.5] * half + [mean + 0.5] * half
    if k % 2:
        values.append(mean)
    return np.asarray(values)


def build_study_dataset(year: int, scale: float = 1.0) -> np.ndarray:
    """Synthetic (n, 6) dataset matching the study's cell proportions.

    Counts are the published arm sizes (times `scale`) split by the
    published uptake and employment proportions, rounded to integers;
    outcomes are two-point spreads around the published cell means, so the
    ingested cell statistics reproduce the table up to rounding.
    """
    cells = STUDY_CELLS[year]
    rows = []
    for z in (0, 1):
        n_arm = int(round(STUDY_ARMS[z] * scale))
        n_treated = int(round(STUDY_TAKE[z] * n_arm))
        for d, n_cell in ((1, n_treated), (0, n_arm - n_treated)):
            n_surv = int(round(cells["survival"][z, d] * n_cell))
            outcomes = two_point_outcomes(n_surv, cells["mean"][z, d])
            for y in outcomes:
                rows.append((z, d, 1, 1, 1, y))
            for _ in range(n_cell - n_surv):
                rows.append((z, d, 1, 0, 1, np.nan))
    return np.asarray(rows, dtype=float)


def delete_outcomes_mcar(arr: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Set a random fraction of observed outcomes to missing."""
    rng = np.random.default_rng(seed)
    out = arr.copy()
    observed = np.flatnonzero((out[:, 3] == 1) & (out[:, 4] == 1))
    drop = rng.choice(observed, size=int(fraction * observed.size), replace=False)
    out[drop, 4] = 0.0
    out[drop, 5] = np.nan
    return out


def delete_survival_mcar(arr: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Set a random fraction of survival statuses (and outcomes) to missing."""
    rng = np.random.default_rng(seed)
    out = arr.copy()
    idx = rng.choice(out.shape[0], size=int(fraction * out.shape[0]), replace=False)
    out[idx, 2] = 0.0
    out[idx, 3] = np.nan
    out[idx, 4] = 0.0
    out[idx, 5] = np.nan
    return out


def population_stratum_table():
    """A finite synthetic population over all eight strata.

    Returns (rows, truth) where each row is (share, kind, survival info,
    outcome means) sufficient to compute exact cell parameters, and truth is
    the survived-complier contrast.  Mean outcomes satisfy the ignorability
    constraints: Y(1) means agree across surviving-compliers and protected
    compliers, Y(0) means across surviving and harmed compliers.
    """
    p_a, p_c, p_n = 0.25, 0.4, 0.35
    surv1_a = 0.8          # P(S(1)=1 | always-taker)
    surv0_n = 0.55         # P(S(0)=1 | never-taker)
    # complier joint survival split over (S(1), S(0)): cl, cp, ch, cd
    joint_c = {"cl": 0.35, "cp": 0.25, "ch": 0.2, "cd": 0.2}
    mean_y1_c = 2.5        # E[Y(1) | complier, S(1)=1] (= cl = cp)
    mean_y0_c = 1.75       # E[Y(0) | complier, S(0)=1] (= cl = ch)
    mean_y1_a = 3.25       # E[Y(1) | always-taker survivor]
    mean_y0_n = 0.5        # E[Y(0) | never-taker survivor]
    return {
        "p": (p_a, p_c, p_n),
        "surv1_a": surv1_a,
        "surv0_n": surv0_n,
        "joint_c": joint_c,
        "means": (mean_y1_c, mean_y0_c, mean_y1_a, mean_y0_n),
        "truth": mean_y1_c - mean_y0_c,
    }


def population_params() -> tuple[CellParams, float]:
    """Exact cell parameters of the synthetic population and the true effect."""
    pop = population_stratum_table()
    p_a, p_c, p_n = pop["p"]
    joint = pop["joint_c"]
    s1_c = joint["cl"] + joint["cp"]
    s0_c = joint["cl"] + joint["ch"]
    mean_y1_c, mean_y0_c, mean_y1_a, mean_y0_n = pop["means"]

    take = np.array([p_a, p_a + p_c])
    survival = np.zeros((2, 2))
    survival[1, 1] = (p_a * pop["surv1_a"] + p_c * s1_c) / (p_a + p_c)
    survival[1, 0] = pop["surv0_n"]
    survival[0, 1] = pop["surv1_a"]
    survival[0, 0] = (p_c * s0_c + p_n * pop["surv0_n"]) / (p_c + p_n)
    mean = np.zeros((2, 2))
    mean[1, 1] = ((p_a * pop["surv1_a"] * mean_y1_a + p_c * s1_c * mean_y1_c)
                  / (p_a * pop["surv1_a"] + p_c * s1_c))
    mean[1, 0] = mean_y0_n
    mean[0, 1] = mean_y1_a
    mean[0, 0] = ((p_c * s0_c * mean_y0_c + p_n * pop["surv0_n"] * mean_y0_n)
                  / (p_c * s0_c + p_n * pop["surv0_n"]))
    return CellParams(take=take, survival=survival, mean_y=mean), pop["truth"]


def survivor_outcome_rows(arr):
    """(z, d, y) of the survivors with an observed outcome."""
    keep = (arr[:, 2] == 1) & (arr[:, 3] == 1) & (arr[:, 4] == 1)
    return arr[keep, 0], arr[keep, 1], arr[keep, 5]


def tsls_rows(arr):
    """Row-level survivor-restricted IV ratio and sandwich SE: (tau, se, n)."""
    z, d, y = survivor_outcome_rows(arr)
    n = z.size
    if n == 0 or z.min() == z.max():
        raise EmptyCellError("both assignment arms must appear among observed survivors")
    zc = z - z.mean()
    dc = d - d.mean()
    yc = y - y.mean()
    first_stage = float(np.dot(zc, dc))
    if first_stage == 0.0:
        raise DenominatorDegenerateError("zero first stage among survivors")
    tau = float(np.dot(zc, yc)) / first_stage
    alpha = y.mean() - tau * d.mean()
    resid = y - alpha - tau * d
    variance = float(np.sum((zc * resid) ** 2)) / first_stage**2
    return tau, math.sqrt(variance), n


def itt_at_pp_rows(arr, method):
    """Row-level survivor mean contrast by z, d or protocol: (tau, se, n)."""
    z, d, y = survivor_outcome_rows(arr)
    if method == "itt":
        group = z
    elif method == "at":
        group = d
    else:
        keep = z == d
        z, y = z[keep], y[keep]
        group = z
    y1, y0 = y[group == 1], y[group == 0]
    if y1.size == 0 or y0.size == 0:
        raise EmptyCellError(f"{method}: empty comparison group among observed survivors")
    tau = float(y1.mean() - y0.mean())
    var1 = float(y1.var(ddof=1)) if y1.size > 1 else 0.0
    var0 = float(y0.var(ddof=1)) if y0.size > 1 else 0.0
    return tau, math.sqrt(var1 / y1.size + var0 / y0.size), int(y1.size + y0.size)


def record_from_row(row) -> ObservationRecord:
    """A record from one float row: nan = missing, any non-binary flag = -1."""
    z, d, delta_s, s, delta_y, y = (float(v) for v in row)
    return ObservationRecord(
        z=int(z) if z in (0.0, 1.0) else -1,
        d=int(d) if d in (0.0, 1.0) else -1,
        delta_s=int(delta_s) if delta_s in (0.0, 1.0) else -1,
        s=None if math.isnan(s) else (int(s) if s in (0.0, 1.0) else -1),
        delta_y=int(delta_y) if delta_y in (0.0, 1.0) else -1,
        y=None if math.isnan(y) else y,
    )


def records_from_array(arr) -> list[ObservationRecord]:
    return [record_from_row(row) for row in np.asarray(arr, dtype=float)]


def validate_record(rec: ObservationRecord, index: int = -1) -> None:
    """Row-level record rules, checked in order; the first broken one raises."""
    for name in ("z", "d", "delta_s", "delta_y"):
        if getattr(rec, name) not in (0, 1):
            raise InvalidRecordError(index, f"{name} must be 0 or 1")
    if rec.delta_s == 0:
        if rec.s is not None:
            raise InvalidRecordError(index, "s must be absent when delta_s = 0")
        if rec.delta_y != 0:
            raise InvalidRecordError(index, "delta_y must be 0 when delta_s = 0")
    else:
        if rec.s not in (0, 1):
            raise InvalidRecordError(index, "s must be 0 or 1 when delta_s = 1")
    survived = rec.delta_s == 1 and rec.s == 1
    if rec.delta_y == 1 and survived:
        if rec.y is None or not math.isfinite(rec.y):
            raise InvalidRecordError(index, "y must be a finite number when delta_y = 1 and s = 1")
    elif rec.y is not None:
        raise InvalidRecordError(index, "y must be absent unless delta_y = 1 and s = 1")


def validate_rows(arr) -> None:
    """Row-by-row check of an (n, 6) array; raises at the first invalid row."""
    for i, row in enumerate(np.asarray(arr, dtype=float)):
        validate_record(record_from_row(row), i)


def pace_denominators_twin(params):
    """The two mixing denominators, written out arm by arm."""
    take1, take0 = params.take[1], params.take[0]
    surv = params.survival
    den1 = take1 * surv[1, 1] - take0 * surv[0, 1]
    den0 = (1.0 - take1) * surv[1, 0] - (1.0 - take0) * surv[0, 0]
    return float(den1), float(den0)


def pace_identify_twin(params, warn_tolerance=DENOMINATOR_WARN_TOLERANCE):
    """(mu1, mu0, tau) with one hand-written formula per arm."""
    den1, den0 = pace_denominators_twin(params)
    for arm, den in ((1, den1), (0, den0)):
        if abs(den) <= DENOMINATOR_HARD_TOLERANCE:
            raise DenominatorDegenerateError(
                f"arm-{arm} mixing denominator is degenerate ({den:.3e}); "
                "the survived-complier mean for this arm is not identified"
            )
        if abs(den) < warn_tolerance:
            warnings.warn(
                f"arm-{arm} mixing denominator is small ({den:.3e}); "
                "estimates may be unstable",
                WeakDenominatorWarning,
                stacklevel=2,
            )
    take1, take0 = params.take[1], params.take[0]
    surv, mean = params.survival, params.mean_y
    mu1 = (take1 * surv[1, 1] * mean[1, 1] - take0 * surv[0, 1] * mean[0, 1]) / den1
    mu0 = ((1 - take1) * surv[1, 0] * mean[1, 0] - (1 - take0) * surv[0, 0] * mean[0, 0]) / den0
    return float(mu1), float(mu0), float(mu1 - mu0)


def gradient_mu_twin(params, arm):
    """The arm's gradient with every packed index written as a literal."""
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    take1, take0 = params.take[1], params.take[0]
    surv, mean = params.survival, params.mean_y
    den1, den0 = pace_denominators_twin(params)
    mu1, mu0, _ = pace_identify_twin(params, warn_tolerance=0.0)
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


def estimate_pace_twin(params, cov, level=0.95, n=0, scale="identity"):
    """The delta-method estimate, identifying once and then once per gradient."""
    mu1, mu0, tau = pace_identify_twin(params)
    grad1 = gradient_mu_twin(params, 1)
    grad0 = gradient_mu_twin(params, 0)
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


def cl_proportion_twin(params):
    """The survived-complier share under survival monotonicity, written out."""
    take1, take0 = params.take[1], params.take[0]
    surv = params.survival
    value = (1 - take0) * surv[0, 0] - (1 - take1) * surv[1, 0]
    if value < 0:
        warnings.warn(
            f"survived-complier share came out negative ({value:.4f}); "
            "survival monotonicity is empirically contradicted",
            SurvivalMonotonicityWarning,
            stacklevel=2,
        )
    return float(value)


def covariance_diagonal_twin(cells):
    """fit_cell_params' covariance diagonal with the 11-parameter order spelled out."""
    n = cells.n_records
    n1, n0 = cells.arm_count(1), cells.arm_count(0)
    if n1 == 0 or n0 == 0:
        raise EmptyCellError(f"assignment arm z={1 if n1 == 0 else 0} has no records")
    assign_rate = n1 / n
    take = np.array([cells.take_rate(0), cells.take_rate(1)])
    var_survival = np.zeros((2, 2))
    var_mean = np.zeros((2, 2))
    for z in (0, 1):
        for d in (0, 1):
            if cells.count[z, d] == 0:
                continue
            obs = cells.surv_obs[z, d]
            if obs == 0:
                raise EmptyCellError(
                    f"cell (z={z}, d={d}) has records but no observed survival status"
                )
            rate = cells.surv_pos[z, d] / obs
            var_survival[z, d] = rate * (1.0 - rate) / obs
            if cells.surv_pos[z, d] == 0:
                continue
            k = cells.y_count[z, d]
            if k == 0:
                raise AllOutcomesMissingError(
                    f"cell (z={z}, d={d}, s=1) has survivors but no observed outcome"
                )
            var_mean[z, d] = cells.y_var(z, d) / k
    return np.array([
        assign_rate * (1 - assign_rate) / n,
        take[1] * (1 - take[1]) / n1,
        take[0] * (1 - take[0]) / n0,
        var_survival[1, 1], var_survival[1, 0],
        var_survival[0, 1], var_survival[0, 0],
        var_mean[1, 1], var_mean[1, 0],
        var_mean[0, 1], var_mean[0, 0],
    ])
