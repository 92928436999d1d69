"""Shared oracles and dataset builders for the test suite.

The oracles here are independent of the code paths they check: cell
parameters are derived by enumerating the latent strata of the benchmark
generator, and the employment-study parameters come from the published
cell table, entered as plain constants.  The row-level comparators are
the reference for the package's closed forms on cell statistics, the
row-level record check is the reference for the column-wise one, the
ingestion with one mask per cell is the reference for the grouped one, the
hot deck that rebuilds its masks per imputation is the reference for the
one planned from the cell statistics, and the hand-written twin formulas
(one block per arm, the 11-parameter order spelled out) are the reference
for the one per-arm identification.  The one-dataset estimators, written with a loop over the
cells and Python scalars, are the reference for the stacked estimators,
and the truth drawn through the whole of ``generate`` is the reference for
the one drawn from the potential outcomes alone.  The special-case
reductions (no truncation, perfect compliance, complete data) and the
survived-complier share under monotonicity are closed forms that the
tests hold the estimator to.  The principal-stratum taxonomy labels the
units of the generator's potential table.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from brokenrct.errors import (
    AllOutcomesMissingError,
    DenominatorDegenerateError,
    EmptyCellError,
    EstimationError,
    InvalidRecordError,
    MuOutOfUnitIntervalError,
    NoDonorsError,
    WeakDenominatorWarning,
)
from brokenrct.estimation import (
    CellCovariance,
    Estimate,
    PaceEstimate,
    _gradient,
    logit,
    normal_interval,
)
from brokenrct.identify import (
    DENOMINATOR_HARD_TOLERANCE,
    DENOMINATOR_WARN_TOLERANCE,
    MEAN_AT,
    SURVIVAL_AT,
    TAKE_AT,
    CellParams,
    identify_arms,
    survivor_masses,
)
from brokenrct.records import (
    CellStatistics,
    ObservationRecord,
    as_array,
    ingest,
    pool_moments,
)
from brokenrct.simulate import DgpConfig, generate


class SurvivalMonotonicityWarning(UserWarning):
    """The data empirically contradict survival monotonicity."""


class ReductionPreconditionError(Exception):
    """Data do not satisfy the precondition of a special-case reduction."""

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


def outcome(fn, *args, **kwargs):
    """(result or (error type, message), [(warning category, message)])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the error itself is compared
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def same(a, b):
    """Bit-equal floats: equal values, equal signs of zero, or both nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(
        ((a == b) & (np.signbit(a) == np.signbit(b)) | both_nan).all())


def assert_same_outcome(got, want):
    """Two :func:`outcome` results agree: same warnings, and the same error or
    bit-equal values."""
    (got_value, got_warnings), (want_value, want_warnings) = got, want
    assert got_warnings == want_warnings
    if isinstance(want_value, tuple) and isinstance(want_value[0], type):
        assert got_value == want_value
    elif hasattr(want_value, "__dataclass_fields__"):
        for name in want_value.__dataclass_fields__:
            g, w = getattr(got_value, name), getattr(want_value, name)
            assert same(g, w) if isinstance(w, float) else g == w, name
    else:
        assert same(got_value, want_value), (got_value, want_value)


def dataset_estimates(taus, within_var) -> list[Estimate]:
    """One :class:`Estimate` per completed dataset, with se = sqrt(within_var)."""
    return [Estimate("pace", float(tau), math.sqrt(var), float(tau), float(tau), 1.0, 0.95, 0)
            for tau, var in zip(taus, within_var)]


def unpack_params(vec) -> CellParams:
    """The :class:`CellParams` of a packed 11-vector: the inverse of ``CellParams.pack``."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (11,):
        raise ValueError("parameter vector must have length 11")
    return CellParams(take=vec[TAKE_AT], survival=vec[SURVIVAL_AT], mean_y=vec[MEAN_AT],
                      assign_rate=float(vec[0]))


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


KINDS = ("observed", "missing_y", "dead", "missing_s")


@st.composite
def damaged_datasets(draw, min_rows=0, max_rows=30):
    """Valid (n, 6) arrays of min_rows to max_rows rows over a random subset
    of the (z, d) cells.

    Each cell holds its own subset of record kinds, so empty cells, cells
    with every status or outcome missing and cells with no donor all come
    up; outcomes come mostly from a short list with both signed zeros, so
    donor pools hold ties.
    """
    cells = draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
                          min_size=1, max_size=4, unique=True))
    kinds = {cell: draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4, unique=True))
             for cell in cells}
    outcome = st.one_of(st.sampled_from((-1.5, -0.0, 0.0, 2.0, 3.25)),
                        st.floats(-1e6, 1e6, allow_nan=False))
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        z, d = draw(st.sampled_from(cells))
        kind = draw(st.sampled_from(kinds[z, d]))
        rows.append({"observed": [z, d, 1, 1, 1, draw(outcome)],
                     "missing_y": [z, d, 1, 1, 0, math.nan],
                     "dead": [z, d, 1, 0, draw(st.integers(0, 1)), math.nan],
                     "missing_s": [z, d, 0, math.nan, 0, math.nan]}[kind])
    return np.asarray(rows, dtype=float).reshape(-1, 6)


def validate_rows(arr) -> None:
    """Row-by-row check of an (n, 6) array; raises at the first invalid row."""
    for i, row in enumerate(np.asarray(arr, dtype=float)):
        validate_record(record_from_row(row), i)


def cells_from_arrays_reference(z, d, delta_s, s, delta_y, y) -> CellStatistics:
    """cells_from_arrays with one mask per (z, d) cell and per count, the
    reference for the grouped ingestion.  Outcome moments are taken over
    each cell's sorted observed-survivor outcomes.
    """
    z = np.asarray(z, dtype=np.int64)
    if z.size == 0:
        raise ValueError("no records to ingest")
    d = np.asarray(d, dtype=np.int64)
    delta_s = np.asarray(delta_s, dtype=np.int64)
    delta_y = np.asarray(delta_y, dtype=np.int64)
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)

    count = np.zeros((2, 2), dtype=np.int64)
    surv_obs = np.zeros((2, 2), dtype=np.int64)
    surv_pos = np.zeros((2, 2), dtype=np.int64)
    y_count = np.zeros((2, 2), dtype=np.int64)
    y_mean = np.zeros((2, 2), dtype=float)
    y_m2 = np.zeros((2, 2), dtype=float)

    observed_y = (delta_y == 1) & (delta_s == 1) & (s == 1)
    for zz in (0, 1):
        for dd in (0, 1):
            cell = (z == zz) & (d == dd)
            count[zz, dd] = cell.sum()
            obs = cell & (delta_s == 1)
            surv_obs[zz, dd] = obs.sum()
            surv_pos[zz, dd] = (obs & (s == 1)).sum()
            ys = np.sort(y[cell & observed_y])
            if ys.size:
                y_count[zz, dd] = ys.size
                y_mean[zz, dd] = ys.mean()
                y_m2[zz, dd] = ((ys - y_mean[zz, dd]) ** 2).sum()
    return CellStatistics(count, surv_obs, surv_pos, y_count, y_mean, y_m2)


def validate_design_reference(arr, weak_threshold) -> dict:
    """validate_design's report fields with one row mask per arm and per
    cell count, the reference for the report read off the cell arrays."""
    z, d, delta_s, s, delta_y, _ = np.asarray(arr, dtype=float).T
    arm = [np.count_nonzero(z == zz) for zz in (0, 1)]
    first_stage, weak, failures, warns = None, False, [], []
    if arm[0] and arm[1]:
        take = [np.count_nonzero((z == zz) & (d == 1)) / arm[zz] for zz in (0, 1)]
        first_stage = take[1] - take[0]
        weak = abs(first_stage) < weak_threshold
        if weak:
            warns.append(f"weak instrument: first-stage difference {first_stage:.4f} "
                         f"below threshold {weak_threshold:g}")
    else:
        failures.append("single assignment arm")
    cell_counts = {}
    for zz, dd in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cell = (z == zz) & (d == dd)
        cell_counts[(zz, dd)] = {
            "n": np.count_nonzero(cell),
            "survivors": np.count_nonzero(cell & (delta_s == 1) & (s == 1)),
            "non_survivors": np.count_nonzero(cell & (delta_s == 1) & (s == 0)),
            "missing_s": np.count_nonzero(cell & (delta_s == 0)),
            "observed_y": np.count_nonzero(cell & (s == 1) & (delta_y == 1)),
        }
    return {"n_records": len(z), "first_stage": first_stage, "weak_instrument": weak,
            "cell_counts": cell_counts, "failures": failures, "warnings": warns}


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


def gradient_mu(params, arm):
    """The arm's packed gradient, ``[..., arm, :]`` of the estimator's ``_gradient``,
    which the criterion-4 tests hold to central finite differences."""
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakDenominatorWarning)
        return _gradient(params, *identify_arms(params))[..., arm, :]


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
    n0, n1 = (int(cells.count[z].sum()) for z in (0, 1))
    if n1 == 0 or n0 == 0:
        raise EmptyCellError(f"assignment arm z={1 if n1 == 0 else 0} has no records")
    assign_rate = n1 / n
    take = np.array([cells.count[0, 1] / n0, cells.count[1, 1] / n1])
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
            var_mean[z, d] = (cells.y_m2[z, d] / (k - 1) if k > 1 else 0.0) / k
    return np.array([
        assign_rate * (1 - assign_rate) / n,
        take[1] * (1 - take[1]) / n1,
        take[0] * (1 - take[0]) / n0,
        var_survival[1, 1], var_survival[1, 0],
        var_survival[0, 1], var_survival[0, 0],
        var_mean[1, 1], var_mean[1, 0],
        var_mean[0, 1], var_mean[0, 0],
    ])


def impute_within_cells_reference(records, m: int, seed) -> list[np.ndarray]:
    """impute_within_cells with every imputation rebuilding its cell masks
    over all rows, the reference for the draws planned from the cell
    statistics.  Draws are independent across imputations.  A record whose
    imputed survival is 0 keeps an undefined outcome.  Raises when a cell
    contains a missing value but no observed donor for that variable.
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
    n0, n1 = (int(cells.count[z].sum()) for z in (0, 1))
    if n1 == 0 or n0 == 0:
        raise ReductionPreconditionError("both assignment arms must be present")
    take1, take0 = cells.count[1, 1] / n1, cells.count[0, 1] / n0
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
    n0, n1 = (int(cells.count[z].sum()) for z in (0, 1))
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


def fit_cell_params_reference(cells):
    """fit_cell_params for one dataset, one (z, d) cell at a time."""
    n = cells.n_records
    n0, n1 = (int(cells.count[z].sum()) for z in (0, 1))
    if n1 == 0 or n0 == 0:
        raise EmptyCellError(f"assignment arm z={1 if n1 == 0 else 0} has no records")
    assign_rate = n1 / n
    take = np.array([cells.count[0, 1] / n0, cells.count[1, 1] / n1])

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
            var_mean[z, d] = (cells.y_m2[z, d] / (k - 1) if k > 1 else 0.0) / k

    params = CellParams(take=take, survival=survival, mean_y=mean_y,
                        assign_rate=assign_rate)
    variance = CellParams(take=take * (1 - take) / np.array([n0, n1]),
                          survival=var_survival, mean_y=var_mean,
                          assign_rate=assign_rate * (1 - assign_rate) / n)
    return params, CellCovariance(diagonal=variance.pack())


def identify_arms_reference(params, warn=True):
    """identify_arms for one dataset: (weight, mass, den, mu) by arm."""
    take = np.asarray(params.take, dtype=float)
    weight = np.array([[1.0 - take[0], take[0]], [1.0 - take[1], take[1]]])
    mass = weight * params.survival
    den = mass[1] - mass[0]
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


def gradient_reference(params, weight, mass, den, mu, arm):
    """The arm's packed gradient for one dataset, one z at a time."""
    grad = np.zeros(11)
    for z, sign in ((1, 1.0), (0, -1.0)):
        resid = params.mean_y[z, arm] - mu[arm]
        grad[TAKE_AT[z]] = (sign if arm else -sign) * params.survival[z, arm] * resid / den[arm]
        grad[SURVIVAL_AT[z, arm]] = sign * weight[z, arm] * resid / den[arm]
        grad[MEAN_AT[z, arm]] = sign * mass[z, arm] / den[arm]
    return grad


def estimate_pace_reference(params, cov, level=0.95, n=0, scale="identity"):
    """estimate_pace for one dataset, in Python scalars."""
    arms = identify_arms_reference(params)
    mu1, mu0 = float(arms[3][1]), float(arms[3][0])
    tau = mu1 - mu0
    grad1, grad0 = gradient_reference(params, *arms, 1), gradient_reference(params, *arms, 0)
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


def tsls_survivors_reference(records, level=0.95):
    """tsls_survivors for one dataset, in Python scalars."""
    cells = ingest(records)
    k = cells.y_count
    n, n_z1, n_d1 = int(k.sum()), int(k[1].sum()), int(k[:, 1].sum())
    if n_z1 == 0 or n_z1 == n:
        raise EmptyCellError("both assignment arms must appear among observed survivors")
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


def itt_at_pp_reference(records, method, level=0.95):
    """itt_at_pp for one dataset, in Python scalars."""
    cells = ingest(records)
    k, mean, m2 = cells.y_count, cells.y_mean, cells.y_m2
    if method == "itt":
        k, mean, m2 = pool_moments(k[:, 0], mean[:, 0], m2[:, 0], k[:, 1], mean[:, 1], m2[:, 1])
    elif method == "at":
        k, mean, m2 = pool_moments(k[0], mean[0], m2[0], k[1], mean[1], m2[1])
    else:
        k, mean, m2 = k.diagonal(), mean.diagonal(), m2.diagonal()
    if (k == 0).any():
        raise EmptyCellError(f"{method}: empty comparison group among observed survivors")
    var = np.where(k > 1, m2 / np.maximum(k - 1, 1), 0.0)
    tau = float(mean[1] - mean[0])
    se = math.sqrt(float(var[1] / k[1] + var[0] / k[0]))
    return Estimate(method, tau, se, *normal_interval(tau, se, level),
                    level=level, n=int(k.sum()))


def estimate_reference(cells, method, level=0.95, scale="identity"):
    """comparators.estimate for one dataset, by the references above."""
    if method == "pace":
        params, cov = fit_cell_params_reference(cells)
        return estimate_pace_reference(params, cov, level=level, n=cells.n_records, scale=scale)
    if method == "tsls":
        return tsls_survivors_reference(cells, level=level)
    return itt_at_pp_reference(cells, method, level=level)


def survived_complier(potential) -> np.ndarray:
    """The survived compliers of a ``PotentialData`` table: D(1) = 1, D(0) = 0, S(1) = S(0) = 1."""
    return ((potential.d1 == 1) & (potential.d0 == 0)
            & (potential.s1 == 1) & (potential.s0 == 1))


@dataclass(frozen=True)
class PrincipalStratum:
    """A row of the compliance-by-survival stratum taxonomy.

    ``d1``/``d0`` are the potential treatments; ``s1``/``s0`` the potential
    survival statuses, ``None`` where undefined for the stratum.
    """

    label: str
    d1: int
    d0: int
    s1: int | None
    s0: int | None
    description: str


#: The eight strata: no defiers, and survival defined only under the arm(s)
#: the stratum can actually receive.
STRATA = (
    PrincipalStratum("al", 1, 1, 1, None, "survived always-takers"),
    PrincipalStratum("ad", 1, 1, 0, None, "dead always-takers"),
    PrincipalStratum("cl", 1, 0, 1, 1, "survived compliers"),
    PrincipalStratum("cp", 1, 0, 1, 0, "protected compliers"),
    PrincipalStratum("ch", 1, 0, 0, 1, "harmed compliers"),
    PrincipalStratum("cd", 1, 0, 0, 0, "doomed compliers"),
    PrincipalStratum("nl", 0, 0, None, 1, "survived never-takers"),
    PrincipalStratum("nd", 0, 0, None, 0, "dead never-takers"),
)


def stratum_labels(potential) -> np.ndarray:
    """Each unit's :data:`STRATA` label; a None survival is not tested."""
    labels = np.empty(potential.z.size, dtype="<U2")
    for stratum in STRATA:
        mask = (potential.d1 == stratum.d1) & (potential.d0 == stratum.d0)
        for survived, value in ((potential.s1, stratum.s1), (potential.s0, stratum.s0)):
            if value is not None:
                mask &= survived == value
        labels[mask] = stratum.label
    return labels


def true_pace_reference(config, oracle_n=1_000_000, seed=2718281828):
    """The survived-complier truth through the whole of ``generate``."""
    _, potential = generate(replace(config, n=int(oracle_n)), seed)
    keep = survived_complier(potential)
    if not keep.any():
        raise EstimationError("no survived compliers in the oracle draw")
    return float((potential.y1[keep] - potential.y0[keep]).mean())


#: DGP overrides that :meth:`DgpConfig.validate` rejects, each with the start of its message
BROKEN_DGP = [
    ({"mean_gain": None}, "mean_gain must be a finite real number"),
    ({"sd_base": float("nan")}, "sd_base must be a finite real number"),
    ({"never_mean": float("inf")}, "never_mean must be a finite real number"),
    ({"p_d0": True}, "p_d0 must be a finite real number"),
    ({"y1_gain_from_s0": "0.5"}, "y1_gain_from_s0 must be a finite real number"),
    ({"surv_coef_treated": (0.3, None, 0.3)},
     r"surv_coef_treated\[1\] must be a finite real number"),
    ({"sd_base": -1}, "sd_base must be >= 0"),
    ({"sd_gain": -0.9}, r"sd_base \+ sd_gain must be >= 0"),
    ({"never_sd": -0.2}, "never_sd must be >= 0"),
    ({"always_sd": -0.2}, "always_sd must be >= 0"),
    ({"surv_coef_control": (0.3, 0.2)}, "surv_coef_control must be 3 coefficients"),
    ({"surv_coef_treated": (0.3, 0.3, 0.3, 0.0)}, "surv_coef_treated must be 3 coefficients"),
]

_UNIT = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
_REAL = st.floats(-3.0, 3.0)


@st.composite
def dgp_configs(draw, max_n=3000):
    """Valid :class:`DgpConfig`s of every case, n from 1 to ``max_n``, with
    every other field drawn too (probabilities including 0 and 1)."""
    def coefficients():
        # survival probabilities of never-takers, compliers and always-takers
        p_n, p_c, p_a = draw(_UNIT), draw(_UNIT), draw(_UNIT)
        return (p_n, p_a - p_c, p_c - p_n)

    sd_base = draw(st.floats(0.0, 2.0))
    config = DgpConfig(
        n=draw(st.integers(1, max_n)), case=draw(st.sampled_from((1, 2, 3, 4))),
        assign_rate=draw(_UNIT), p_d0=draw(_UNIT), p_d1_given_not_d0=draw(_UNIT),
        surv_coef_control=coefficients(), surv_coef_treated=coefficients(),
        mean_base=draw(_REAL), mean_gain=draw(_REAL), sd_base=sd_base,
        sd_gain=draw(st.floats(-sd_base, 2.0)), never_mean=draw(_REAL),
        never_sd=draw(st.floats(0.0, 1.0)), always_mean=draw(_REAL),
        always_sd=draw(st.floats(0.0, 1.0)), y0_gain_from_s1=draw(_REAL),
        y1_gain_from_s0=draw(_REAL))
    try:
        config.validate()
    except ValueError:  # a coefficient sum rounded out of [0, 1]
        reject()
    return config
