"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The Monte Carlo criterion reuses one desk-scale
study (2000 replications per case/size, fixed seed) shared across its
checks.

The two comparator checks of criterion 5 hold the survivor-restricted IV
ratio (the ``tsls`` comparator) to what it provably does in this design.
Its probability limits come from enumerating the design's latent strata
(``helpers.stratum_oracle``): 1.0000, 0.9939, 0.6537 and 0.6476 in cases
1-4, against survived-complier truths 1, 1, 0.5 and 0.5.  In case 1 the
limit is exactly the truth, because Y(d) depends only on d, so
E[Y | Z, S=1] = 1 + P(D=1 | Z, S=1) among survivors.  The main estimator's
limit is 0.65 in cases 3 and 4, so in case 4 the comparator's limit bias
(0.1476) is smaller than the main estimator's (0.1500) by 0.0024; an
ordering of the two biases there is not promised.  Nor is the main
estimator's smaller Monte Carlo SD at n=500: its efficiency advantage is
asymptotic, and in a small sample one unstable replication of its ratio
form can reverse the ordering.  Tolerances are ``MC_SE_MULTIPLE`` Monte
Carlo standard errors, each computed from the study itself.
"""

import json

import numpy as np
import pytest

from brokenrct.cli import main
from brokenrct.estimation import estimate_pace, fit_cell_params
from brokenrct.identify import CellParams, pace_denominators, pace_identify, strata_proportions
from brokenrct.imputation import pool_estimates
from brokenrct.records import cells_from_arrays, ingest, write_csv
from brokenrct.simulate import DgpConfig, _run_chunk, generate, run_study

from helpers import (
    dataset_estimates,
    delete_outcomes_mcar,
    gradient_mu,
    no_missing_reduction,
    population_params,
    population_stratum_table,
    stratum_oracle,
    study_params,
    survivor_contrast_reduction,
    unpack_params,
    wald_reduction,
)

STUDY_SEED = 20260809
STUDY_REPS = 2000
#: Monte Carlo tolerances of criterion 5, in standard errors of the study
MC_SE_MULTIPLE = 3.0
#: paired bootstrap of the n=500 SD gap: resamples and generator seed
SD_BOOT_REPS = 1000
SD_BOOT_SEED = 5005


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


@pytest.fixture(scope="module")
def table2():
    return run_study(cases=(1, 2, 3, 4), sizes=(500, 2000, 8000), reps=STUDY_REPS,
                     estimators=("pace", "tsls"), seed=STUDY_SEED,
                     oracle_n=2_000_000, n_jobs=2)


def fit(arr):
    return fit_cell_params(cells_from_arrays(*(arr[:, i] for i in range(6))))


def test_criterion_1_identification_arithmetic():
    p = strata_proportions(study_params(3))
    exact = (abs(p.p_a - 0.606) <= 1e-12 and abs(p.p_c - 0.282) <= 1e-12
             and abs(p.p_n - 0.112) <= 1e-12)
    _, _, tau = pace_identify(study_params(3))
    in_range = abs(tau - 0.186) <= 0.005
    report(1, exact and in_range,
           f"strata=({p.p_a:.3f}, {p.p_c:.3f}, {p.p_n:.3f}), tau={tau:.6f}")
    assert exact
    assert in_range


def test_criterion_2_population_oracle_equivalence():
    params, truth = population_params()
    shares = population_stratum_table()["joint_c"]
    assert min(shares.values()) > 0  # all four complier survival strata populated
    mu1, mu0, tau = pace_identify(params)
    ok = abs(tau - truth) <= 1e-12
    report(2, ok, f"identified {tau:.15f} vs population truth {truth:.15f}")
    assert ok


def test_criterion_3_reductions_match_plugin_estimate():
    # no truncation: uptake-scaled contrast
    config = DgpConfig(n=6000, case=1,
                       surv_coef_control=(1.0, 0.0, 0.0),
                       surv_coef_treated=(1.0, 0.0, 0.0))
    arr, _ = generate(config, seed=301)
    cells = ingest(arr)
    params, cov = fit_cell_params(cells)
    gap_wald = abs(wald_reduction(cells) - estimate_pace(params, cov).tau)

    # perfect compliance: survivor contrast
    arr, _ = generate(DgpConfig(n=6000, case=1, p_d0=0.0,
                                p_d1_given_not_d0=1.0), seed=302)
    cells = ingest(arr)
    params, cov = fit_cell_params(cells)
    gap_contrast = abs(survivor_contrast_reduction(cells) - estimate_pace(params, cov).tau)

    # complete data: moment-ratio form
    arr, _ = generate(DgpConfig(n=6000, case=2), seed=303)
    cells = ingest(arr)
    params, cov = fit_cell_params(cells)
    gap_moment = abs(no_missing_reduction(cells) - estimate_pace(params, cov).tau)

    ok = gap_wald <= 1e-10 and gap_contrast <= 1e-10 and gap_moment <= 1e-10
    report(3, ok, f"gaps: wald {gap_wald:.2e}, survivor {gap_contrast:.2e}, "
                  f"moment {gap_moment:.2e}")
    assert ok


def random_interior_params(rng):
    while True:
        take0 = rng.uniform(0.05, 0.6)
        take1 = rng.uniform(take0 + 0.15, 0.95)
        survival = rng.uniform(0.1, 0.9, size=(2, 2))
        mean = rng.uniform(-2.0, 3.0, size=(2, 2))
        params = CellParams(take=np.array([take0, take1]), survival=survival,
                            mean_y=mean, assign_rate=rng.uniform(0.2, 0.8))
        den1, den0 = pace_denominators(params)
        if min(abs(den1), abs(den0)) >= 0.05:
            return params


def test_criterion_4_gradient_matches_finite_differences():
    rng = np.random.default_rng(404)
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        params = random_interior_params(rng)
        base = params.pack()
        for arm, which in ((1, 0), (0, 1)):
            analytic = gradient_mu(params, arm)
            for i in range(11):
                hi = unpack_params(np.where(np.arange(11) == i, base + step, base))
                lo = unpack_params(np.where(np.arange(11) == i, base - step, base))
                numeric = (pace_identify(hi)[which]
                           - pace_identify(lo)[which]) / (2 * step)
                err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1.0)
                worst = max(worst, err)
    ok = worst < 1e-6
    report(4, ok, f"max relative error {worst:.3e} over 100 interior points")
    assert ok


def test_criterion_5a_table2_pace_and_sd_shrink(table2):
    checks = {}
    row = table2.row(1, 2000, "pace")
    checks["case1 |bias|<=0.02"] = abs(row.bias) <= 0.02
    checks["case1 sd in [0.15,0.21]"] = 0.15 <= row.sd <= 0.21
    checks["case1 cp in [0.94,0.975]"] = 0.94 <= row.cp <= 0.975
    checks["case3 bias in [0.11,0.18]"] = 0.11 <= table2.row(3, 2000, "pace").bias <= 0.18
    checks["case4 bias in [0.12,0.18]"] = 0.12 <= table2.row(4, 8000, "pace").bias <= 0.18
    monotone = all(
        table2.row(c, 8000, e).sd < table2.row(c, 2000, e).sd < table2.row(c, 500, e).sd
        for c in (1, 2, 3, 4) for e in ("pace", "tsls")
    )
    checks["sd monotone in n"] = monotone
    # under ignorability the main estimator's bias vanishes with n
    for case in (1, 2):
        small, big = table2.row(case, 500, "pace"), table2.row(case, 8000, "pace")
        mc_se = small.sd / np.sqrt(small.reps - small.failures)
        checks[f"case{case} bias shrinks"] = abs(big.bias) <= abs(small.bias) + 2 * mc_se
    ok = all(checks.values())
    report("5a", ok, "; ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))
    assert ok, checks


def test_criterion_5b_table2_tsls_bias_ranges(table2):
    # The comparator's Monte Carlo mean must sit at its probability limit
    # from the stratum enumeration: exactly the truth 1 in case 1, 0.6476
    # (bias 0.1476) in case 4.  The mean is true_tau + bias, which cancels
    # the oracle draw's own error.  The case-4 ordering |pace bias| <
    # |tsls bias| is not checked: the limits are 0.1500 vs 0.1476, the
    # reverse, by less than the study's resolution.  A comparator with the
    # full-sample first stage has a case-1 limit of 0.9745 and fails here.
    checks, details = {}, []
    for case, n in ((1, 2000), (4, 8000)):
        row = table2.row(case, n, "tsls")
        limit = stratum_oracle(case).tsls_limit
        mean = row.true_tau + row.bias
        mc_se = row.sd / np.sqrt(row.reps - row.failures)
        distance = (mean - limit) / mc_se
        checks[f"case{case} n={n}"] = abs(distance) <= MC_SE_MULTIPLE
        details.append(f"case{case} n={n} tsls mean {mean:.4f} vs limit {limit:.4f} "
                       f"({distance:+.2f} MC SE)")
    ok = all(checks.values())
    report("5b", ok, "; ".join(details))
    assert ok, details


def replicate_estimates(case, size_index, n, reps, seed):
    """Per-replication (pace, tsls) estimates of one study cell, nan on failure.

    Runs the study's own task on all of the cell's replications: the same
    counter-keyed streams and the same stacked estimates, so the column
    SDs over non-failed replications are those of the study's rows.
    """
    names = ("pace", "tsls")
    out = _run_chunk((DgpConfig(n=n, case=case), case, size_index, range(reps), seed, names))
    taus = []
    for name in names:
        tau, _, _, _, failed = out[name]
        taus.append(np.where(failed, np.nan, tau))
    return np.column_stack(taus)


def sd_pair(taus):
    """(sd pace, sd tsls), each over its own non-failed replications."""
    return tuple(float(col[~np.isnan(col)].std(ddof=1)) for col in taus.T)


def test_criterion_5_sd_dominance_property(table2):
    # At n=2000 and 8000 the main estimator's Monte Carlo SD is strictly
    # below the comparator's in every case, with no allowance.  At n=500
    # the ordering is not promised (its efficiency advantage is asymptotic
    # and one unstable replication can reverse it), so there the SD gap
    # may exceed zero by at most MC_SE_MULTIPLE paired-bootstrap SEs,
    # resampling the study's own replications.
    checks, details = {}, []
    for case in (1, 2, 3, 4):
        for n in (2000, 8000):
            pace_sd, tsls_sd = table2.row(case, n, "pace").sd, table2.row(case, n, "tsls").sd
            checks[(case, n)] = pace_sd < tsls_sd
    rng = np.random.default_rng(SD_BOOT_SEED)
    for case in (1, 2, 3, 4):
        # n=500 is the study's first size, hence size index 0
        taus = replicate_estimates(case, 0, 500, STUDY_REPS, STUDY_SEED)
        pace_sd, tsls_sd = sd_pair(taus)
        assert (pace_sd, tsls_sd) == (table2.row(case, 500, "pace").sd,
                                      table2.row(case, 500, "tsls").sd), case
        gaps = [np.subtract(*sd_pair(taus[rng.integers(0, len(taus), len(taus))]))
                for _ in range(SD_BOOT_REPS)]
        boot_se = float(np.std(gaps, ddof=1))
        checks[(case, 500)] = pace_sd - tsls_sd <= MC_SE_MULTIPLE * boot_se
        details.append(f"case{case} n=500 gap {pace_sd - tsls_sd:+.4f} "
                       f"(bootstrap SE {boot_se:.4f})")
    bad = sorted(k for k, v in checks.items() if not v)
    report("5 (sd dominance)", not bad,
           ("holds" if not bad else f"violated at {bad}") + "; " + "; ".join(details))
    assert not bad, (bad, details)


def test_criterion_6_delta_method_vs_bootstrap():
    arr, _ = generate(DgpConfig(n=8000, case=1), seed=606)
    params, cov = fit(arr)
    delta_se = estimate_pace(params, cov).se
    rng = np.random.default_rng(99)
    taus = []
    for _ in range(1000):
        idx = rng.integers(0, 8000, 8000)
        p, c = fit(arr[idx])
        taus.append(estimate_pace(p, c).tau)
    boot_se = float(np.std(taus, ddof=1))
    identity_ok = abs(delta_se - boot_se) / boot_se <= 0.10

    arr2, _ = generate(DgpConfig(n=8000, case=1), seed=607)
    keep = arr2[:, 3] == 1
    rb = np.random.default_rng(55)
    arr2[keep, 5] = (rb.random(int(keep.sum())) < (0.5 + 0.25 * arr2[keep, 1])).astype(float)
    params2, cov2 = fit(arr2)
    delta_se2 = estimate_pace(params2, cov2, scale="logit").se
    taus2 = []
    for _ in range(1000):
        idx = rng.integers(0, 8000, 8000)
        p, c = fit(arr2[idx])
        taus2.append(estimate_pace(p, c, scale="logit").tau)
    boot_se2 = float(np.std(taus2, ddof=1))
    logit_ok = abs(delta_se2 - boot_se2) / boot_se2 <= 0.10

    ok = identity_ok and logit_ok
    report(6, ok, f"identity {delta_se:.4f} vs {boot_se:.4f}; "
                  f"logit {delta_se2:.4f} vs {boot_se2:.4f}")
    assert ok


def test_criterion_7_pooling_exactness():
    pooled = pool_estimates(dataset_estimates([1.0, 3.0], [0.0, 0.0]))
    hand_total = 0.0 + (1.0 + 1.0 / 2.0) * 2.0
    exact_a = (abs(pooled.tau - 2.0) <= 1e-12
               and abs(pooled.total_var - hand_total) <= 1e-12)

    pooled2 = pool_estimates(dataset_estimates([5.0] * 4, [0.04] * 4))
    exact_b = abs(pooled2.tau - 5.0) <= 1e-12 and abs(pooled2.se - 0.2) <= 1e-12

    rng = np.random.default_rng(7)
    estimates = dataset_estimates(rng.normal(size=8), rng.random(8))
    base = pool_estimates(estimates)
    invariant = True
    for _ in range(10):
        other = pool_estimates([estimates[i] for i in rng.permutation(8)])
        invariant &= (abs(other.tau - base.tau) <= 1e-12
                      and abs(other.se - base.se) <= 1e-12)
    ok = exact_a and exact_b and invariant
    report(7, ok, f"toy totals exact={exact_a and exact_b}, permutation invariant={invariant}")
    assert ok


def test_criterion_8_byte_identical_outputs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 12, "reps": 40, "cases": [1],
                                  "sizes": [400], "estimators": ["pace", "tsls"],
                                  "oracle_n": 100_000}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config), "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    simulate_ok = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("report.csv", "table.txt", "metadata.json")
    )

    arr, _ = generate(DgpConfig(n=1500, case=1), seed=801)
    damaged = delete_outcomes_mcar(arr, 0.2, seed=3)
    data = tmp_path / "missing.csv"
    write_csv(data, damaged)
    argv = ["analyze", "--input", str(data), "--impute", "6", "--seed", "21",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    analyze_ok = first == second

    ok = simulate_ok and analyze_ok
    report(8, ok, f"simulate identical={simulate_ok}, analyze --impute identical={analyze_ok}")
    assert ok


def test_study_runs_without_unexpected_failures(table2):
    # at these sizes only isolated small-sample denominator failures at n=500
    # are tolerated, and every row keeps nearly all replications
    for row in table2.rows:
        assert row.failures <= 5, (row.case, row.n, row.estimator, row.failures)
        assert row.reps - row.failures >= 1995
