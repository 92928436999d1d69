"""Frozen reference implementations that the benchmark checks results against.

Everything here works on plain numpy arrays in the package's column order
``z, d, delta_s, s, delta_y, y`` (nan = missing) and imports nothing from
``brokenrct``.  The formulas are the closed forms of the survived-complier
estimator, the survivor-restricted comparators and the combining rules.  The
random streams of the hot-deck imputation and of the study generator repeat
those of the package at the commit that defined this benchmark, so a later
change that alters a result, and not only its speed, fails the check.

These are slow, direct implementations, kept apart from the package on
purpose: they are the oracle, not a second code path to optimise.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

LEVEL = 0.95
Z_LEVEL = NormalDist().inv_cdf(0.5 + LEVEL / 2.0)
#: a replication whose smaller mixing denominator is below this is a PACE
#: failure in the study harness
DENOMINATOR_WARN = 0.01


class ReferenceFailure(Exception):
    """The estimator is undefined on this dataset (the package raises)."""


def _interval(tau: float, se: float) -> dict:
    if se == 0.0:
        p = 1.0 if tau == 0.0 else 0.0
    else:
        p = math.erfc(abs(tau) / se / math.sqrt(2.0))
    return {"estimate": tau, "se": se, "ci_lower": tau - Z_LEVEL * se,
            "ci_upper": tau + Z_LEVEL * se, "p_value": p}


# --- complete-case survived-complier estimator -------------------------------

def _cells(arr):
    """Per-(z, d) counts and complete-case outcome moments."""
    z, d, ds, s, dy, y = (arr[:, i] for i in range(6))
    out = {}
    observed_y = (dy == 1) & (ds == 1) & (s == 1)
    for zz in (0, 1):
        for dd in (0, 1):
            cell = (z == zz) & (d == dd)
            ys = np.sort(y[cell & observed_y])
            mean = float(ys.mean()) if ys.size else 0.0
            out[zz, dd] = {
                "count": int(cell.sum()),
                "surv_obs": int((cell & (ds == 1)).sum()),
                "surv_pos": int((cell & (ds == 1) & (s == 1)).sum()),
                "k": int(ys.size),
                "mean": mean,
                "m2": float(((ys - mean) ** 2).sum()) if ys.size else 0.0,
            }
    return out


def _pace_parts(arr):
    """(take, survival, mean, covariance diagonal, den1, den0)."""
    cells = _cells(arr)
    n = arr.shape[0]
    arm = {zz: cells[zz, 0]["count"] + cells[zz, 1]["count"] for zz in (0, 1)}
    if arm[0] == 0 or arm[1] == 0:
        raise ReferenceFailure("an assignment arm is empty")
    a = arm[1] / n
    take = {zz: cells[zz, 1]["count"] / arm[zz] for zz in (0, 1)}
    surv, mean, v_surv, v_mean = {}, {}, {}, {}
    for key, c in cells.items():
        surv[key] = mean[key] = v_surv[key] = v_mean[key] = 0.0
        if c["count"] == 0:
            continue
        if c["surv_obs"] == 0:
            raise ReferenceFailure("cell without an observed survival status")
        rate = c["surv_pos"] / c["surv_obs"]
        surv[key] = rate
        v_surv[key] = rate * (1.0 - rate) / c["surv_obs"]
        if c["surv_pos"] == 0:
            continue
        if c["k"] == 0:
            raise ReferenceFailure("survivor cell without an observed outcome")
        mean[key] = c["mean"]
        var = c["m2"] / (c["k"] - 1) if c["k"] > 1 else 0.0
        v_mean[key] = var / c["k"]
    diag = np.array([
        a * (1 - a) / n,
        take[1] * (1 - take[1]) / arm[1],
        take[0] * (1 - take[0]) / arm[0],
        v_surv[1, 1], v_surv[1, 0], v_surv[0, 1], v_surv[0, 0],
        v_mean[1, 1], v_mean[1, 0], v_mean[0, 1], v_mean[0, 0],
    ])
    den1 = take[1] * surv[1, 1] - take[0] * surv[0, 1]
    den0 = (1.0 - take[1]) * surv[1, 0] - (1.0 - take[0]) * surv[0, 0]
    return take, surv, mean, diag, den1, den0


def pace(arr) -> dict:
    """Survived-complier effect with its delta-method interval."""
    take, surv, mean, diag, den1, den0 = _pace_parts(arr)
    if min(abs(den1), abs(den0)) <= 1e-10:
        raise ReferenceFailure("degenerate mixing denominator")
    t1, t0 = take[1], take[0]
    mu1 = (t1 * surv[1, 1] * mean[1, 1] - t0 * surv[0, 1] * mean[0, 1]) / den1
    mu0 = ((1 - t1) * surv[1, 0] * mean[1, 0] - (1 - t0) * surv[0, 0] * mean[0, 0]) / den0
    g1, g0 = np.zeros(11), np.zeros(11)
    g1[1] = surv[1, 1] * (mean[1, 1] - mu1) / den1
    g1[2] = -surv[0, 1] * (mean[0, 1] - mu1) / den1
    g1[3] = t1 * (mean[1, 1] - mu1) / den1
    g1[5] = -t0 * (mean[0, 1] - mu1) / den1
    g1[7] = t1 * surv[1, 1] / den1
    g1[9] = -t0 * surv[0, 1] / den1
    g0[1] = -surv[1, 0] * (mean[1, 0] - mu0) / den0
    g0[2] = surv[0, 0] * (mean[0, 0] - mu0) / den0
    g0[4] = (1 - t1) * (mean[1, 0] - mu0) / den0
    g0[6] = -(1 - t0) * (mean[0, 0] - mu0) / den0
    g0[8] = (1 - t1) * surv[1, 0] / den0
    g0[10] = -(1 - t0) * surv[0, 0] / den0
    se = math.sqrt(float(np.sum((g1 - g0) ** 2 * diag)))
    return _interval(float(mu1 - mu0), se)


# --- survivor-restricted comparators ----------------------------------------

def _survivors(arr):
    keep = (arr[:, 2] == 1) & (arr[:, 3] == 1) & (arr[:, 4] == 1)
    return arr[keep, 0], arr[keep, 1], arr[keep, 5]


def tsls(arr) -> dict:
    """Wald ratio among observed survivors with the sandwich standard error."""
    z, d, y = _survivors(arr)
    if z.size == 0 or z.min() == z.max():
        raise ReferenceFailure("one assignment arm has no observed survivor")
    zc, dc, yc = z - z.mean(), d - d.mean(), y - y.mean()
    first = float(np.dot(zc, dc))
    if first == 0.0:
        raise ReferenceFailure("zero first stage")
    tau = float(np.dot(zc, yc)) / first
    resid = y - (y.mean() - tau * d.mean()) - tau * d
    return _interval(tau, math.sqrt(float(np.sum((zc * resid) ** 2)) / first**2))


def contrast(arr, method: str) -> dict:
    """ITT, as-treated or per-protocol mean contrast among observed survivors."""
    z, d, y = _survivors(arr)
    if method == "itt":
        group = z
    elif method == "at":
        group = d
    else:
        keep = z == d
        group, y = z[keep], y[keep]
    y1, y0 = y[group == 1], y[group == 0]
    if y1.size == 0 or y0.size == 0:
        raise ReferenceFailure(f"{method}: empty comparison group")
    v1 = float(y1.var(ddof=1)) if y1.size > 1 else 0.0
    v0 = float(y0.var(ddof=1)) if y0.size > 1 else 0.0
    return _interval(float(y1.mean() - y0.mean()), math.sqrt(v1 / y1.size + v0 / y0.size))


def method_estimate(arr, method: str) -> dict:
    if method == "pace":
        return pace(arr)
    if method == "tsls":
        return tsls(arr)
    return contrast(arr, method)


# --- hot-deck imputation and pooling -----------------------------------------

def hot_deck(arr, m: int, seed) -> list:
    """m completed datasets: Bernoulli survival and donor outcomes per cell."""
    z, d = arr[:, 0].astype(int), arr[:, 1].astype(int)
    miss_s = arr[:, 2] == 0
    surv = (arr[:, 2] == 1) & (arr[:, 3] == 1)
    rates, donors = {}, {}
    for zz in (0, 1):
        for dd in (0, 1):
            cell = (z == zz) & (d == dd)
            if (cell & miss_s).any():
                rates[zz, dd] = float(arr[cell & (arr[:, 2] == 1), 3].mean())
            donors[zz, dd] = np.sort(arr[cell & surv & (arr[:, 4] == 1), 5])
    out = []
    for child in np.random.SeedSequence(seed).spawn(m):
        rng = np.random.default_rng(child)
        data = arr.copy()
        new_s = data[:, 3].copy()
        for (zz, dd), rate in rates.items():
            idx = np.flatnonzero((z == zz) & (d == dd) & miss_s)
            new_s[idx] = (rng.random(idx.size) < rate).astype(float)
        data[:, 3] = new_s
        data[:, 2] = 1.0
        fill = (new_s == 1) & np.isnan(data[:, 5])
        for zz in (0, 1):
            for dd in (0, 1):
                idx = np.flatnonzero((z == zz) & (d == dd) & fill)
                if idx.size:
                    pool = donors[zz, dd]
                    data[idx, 5] = pool[rng.integers(0, pool.size, idx.size)]
        data[fill, 4] = 1.0
        data[data[:, 3] == 0, 5] = np.nan
        out.append(data)
    return out


def pooled_pace(arr, m: int, seed) -> dict:
    """Combining-rule pool of the per-dataset survived-complier estimates."""
    fits = [pace(data) for data in hot_deck(arr, m, seed)]
    est = np.array([f["estimate"] for f in fits])
    within = float(np.mean([f["se"] ** 2 for f in fits]))
    between = float(est.var(ddof=1))
    return _interval(float(est.mean()), math.sqrt(within + (1.0 + 1.0 / m) * between))


# --- the Monte Carlo study ---------------------------------------------------

def generate(case: int, n: int, seed) -> tuple:
    """The default design's draw: (observed array, d1, d0, s1, s0, y1, y0)."""
    rng = np.random.default_rng(seed)
    d0 = (rng.random(n) < 0.3).astype(np.int8)
    d1 = np.where(d0 == 1, np.int8(1), (rng.random(n) < 0.4).astype(np.int8))
    s0 = (rng.random(n) < 0.3 + 0.2 * d0 + 0.2 * d1).astype(np.int8)
    s1 = (rng.random(n) < 0.3 + 0.3 * d0 + 0.3 * d1).astype(np.int8)
    y0 = rng.normal(1.0, 0.8, n)
    y1 = rng.normal(2.0, 1.0, n)
    if case in (2, 4):
        y0 = np.where(d1 == 0, y0 - rng.normal(0.5, 0.2, n), y0)
        y1 = np.where(d0 == 1, y1 + rng.normal(0.3, 0.2, n), y1)
    if case in (3, 4):
        y0 = y0 + 1.0 * s1
        y1 = y1 + 0.5 * s0
    y1 = np.where(s1 == 1, y1, np.nan)
    y0 = np.where(s0 == 1, y0, np.nan)
    z = (rng.random(n) < 0.5).astype(np.int8)
    d = np.where(z == 1, d1, d0)
    s = np.where(d == 1, s1, s0)
    y = np.where(d == 1, y1, y0)
    observed = np.column_stack([z.astype(float), d.astype(float), np.ones(n),
                                s.astype(float), np.ones(n), np.where(s == 1, y, np.nan)])
    return observed, d1, d0, s1, s0, y1, y0


def truth(case: int, seed: int, oracle_n: int) -> float:
    """Mean Y(1) - Y(0) over the survived compliers of the oracle draw."""
    key = np.random.SeedSequence(entropy=seed, spawn_key=(case, 999999))
    _, d1, d0, s1, s0, y1, y0 = generate(case, oracle_n, key)
    keep = (d1 == 1) & (d0 == 0) & (s1 == 1) & (s0 == 1)
    return float((y1[keep] - y0[keep]).mean())


def _study_estimate(arr, name: str):
    if name == "pace":
        *_, den1, den0 = _pace_parts(arr)
        if min(abs(den1), abs(den0)) < DENOMINATOR_WARN:
            raise ReferenceFailure("mixing denominator in the warning band")
    return method_estimate(arr, name)


def study_rows(cases, sizes, reps, estimators, seed, oracle_n) -> list:
    """[case, n, estimator, reps, failures, true_tau, bias, sd, mean_se, cp]."""
    rows = []
    for case in cases:
        true_tau = truth(case, seed, oracle_n)
        for size_index, n in enumerate(sizes):
            results = {name: [] for name in estimators}
            for rep in range(reps):
                key = np.random.SeedSequence(entropy=seed, spawn_key=(case, size_index, rep))
                arr = generate(case, n, key)[0]
                for name in estimators:
                    try:
                        results[name].append(_study_estimate(arr, name))
                    except ReferenceFailure:
                        results[name].append(None)
            for name in estimators:
                ok = [r for r in results[name] if r is not None]
                taus = np.array([r["estimate"] for r in ok])
                rows.append([
                    case, n, name, reps, reps - len(ok), true_tau,
                    float(taus.mean() - true_tau) if ok else math.nan,
                    float(taus.std(ddof=1)) if len(ok) > 1 else math.nan,
                    float(np.mean([r["se"] for r in ok])) if ok else math.nan,
                    float(np.mean([r["ci_lower"] <= true_tau <= r["ci_upper"] for r in ok]))
                    if ok else math.nan,
                ])
    return rows
