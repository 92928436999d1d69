"""Workload settings, seeded inputs and correctness checks.

Shared by ``run.py`` (set-up, in the benchmark's own process) and
``worker.py`` (the measured calls, in a fresh process per workload).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("analyze-csv", "fit-impute", "mc-study")

#: rows of the analyst / library dataset and its MCAR deletion shares
N_ROWS = 100_000
DATA_CASE = 2
MISSING_S_SHARE = 0.05
MISSING_Y_SHARE = 0.15
ANALYZE_METHODS = ("pace", "tsls", "itt", "at", "pp")
IMPUTATIONS = 10
#: the methodologist's study; one call is 4 * 3 * STUDY_REPS replications
STUDY = {"cases": (1, 2, 3, 4), "sizes": (500, 2000, 8000), "reps": 100,
         "estimators": ("pace", "tsls", "itt")}
STUDY_JOBS = 2
STUDY_ORACLE_N = 1_000_000  # run_study's default oracle size
STUDY_REPS = len(STUDY["cases"]) * len(STUDY["sizes"]) * STUDY["reps"]

#: fixed before any run: |got - want| <= RTOL * max(1, |want|)
RTOL = 1e-9


def reps_per_call(workload: str) -> int:
    """Replications per unit call: one dataset put through every estimator."""
    return STUDY_REPS if workload == "mc-study" else 1


def make_dataset(seed: int):
    """Seeded ``generate`` draw with MCAR deletion; returns (array, facts)."""
    from brokenrct.simulate import DgpConfig, generate

    arr, _ = generate(DgpConfig(n=N_ROWS, case=DATA_CASE), np.random.SeedSequence([seed, 0]))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    drop_s = rng.random(N_ROWS) < MISSING_S_SHARE
    arr[drop_s, 2:6] = (0.0, np.nan, 0.0, np.nan)
    survivors = (arr[:, 2] == 1) & (arr[:, 3] == 1)
    drop_y = survivors & (rng.random(N_ROWS) < MISSING_Y_SHARE)
    arr[drop_y, 4:6] = (0.0, np.nan)
    facts = {"n": N_ROWS, "case": DATA_CASE, "seed": seed,
             "missing_s_share": float(drop_s.mean()),
             "missing_y_share_of_survivors": float(drop_y.sum() / survivors.sum())}
    return arr, facts


def write_csv(path: Path, arr) -> None:
    """The dataset as the CLI reads it: integers, repr floats, blank = missing."""
    def field(value, is_y):
        if math.isnan(value):
            return ""
        return repr(float(value)) if is_y else str(int(value))

    lines = ["z,d,delta_s,s,delta_y,y"]
    for row in arr.tolist():
        lines.append(",".join(field(v, i == 5) for i, v in enumerate(row)))
    path.write_text("\n".join(lines) + "\n")


def reference_values(workload: str, arr, seed: int) -> dict:
    """Expected results, from the frozen implementations in ``reference``."""
    if workload == "analyze-csv":
        return {"n_records": int(arr.shape[0]),
                "estimates": {m: reference.method_estimate(arr, m) for m in ANALYZE_METHODS}}
    if workload == "fit-impute":
        pooled = reference.pooled_pace(arr, IMPUTATIONS, 0)
        tsls = reference.tsls(arr)
        return {"pace_pooled": {"estimate": pooled["estimate"], "se": pooled["se"],
                                "ci": [pooled["ci_lower"], pooled["ci_upper"]],
                                "p_value": pooled["p_value"]},
                "tsls": {"estimate": tsls["estimate"], "se": tsls["se"],
                         "ci": [tsls["ci_lower"], tsls["ci_upper"]]}}
    return {"rows": reference.study_rows(STUDY["cases"], STUDY["sizes"], STUDY["reps"],
                                         STUDY["estimators"], seed, STUDY_ORACLE_N)}


def mismatches(got, want, path: str = "") -> list:
    """Paths where ``got`` differs from ``want`` beyond RTOL (ints and text exactly)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{path}: length"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if math.isnan(want) and math.isnan(got):
            return []
        if not abs(got - want) <= RTOL * max(1.0, abs(want)):
            return [f"{path}: got {got!r}, want {want!r}"]
        return []
    return [] if got == want else [f"{path}: got {got!r}, want {want!r}"]
