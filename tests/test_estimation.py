import math

import numpy as np
import pytest

from brokenrct.errors import (
    AllOutcomesMissingError,
    EmptyCellError,
    MuOutOfUnitIntervalError,
)
from brokenrct.estimation import (
    CellCovariance,
    estimate_pace,
    fit_cell_params,
    normal_cdf,
    normal_quantile,
    two_sided_p,
)
from brokenrct.identify import CellParams, pace_identify
from brokenrct.records import ingest
from brokenrct.simulate import DgpConfig, generate

from helpers import gradient_mu, study_params, unpack_params, wald_reduction


def rows_to_cells(rows):
    return ingest(np.asarray(rows, dtype=float))


class TestFit:
    def test_hand_countable_ratios(self):
        rows = []
        for z in (0, 1):
            for d in (0, 1):
                rows += [(z, d, 1, 1, 1, 1.0), (z, d, 1, 1, 1, 2.0)]
        params, cov = fit_cell_params(rows_to_cells(rows))
        assert params.assign_rate == 0.5
        assert params.take[1] == 0.5 and params.take[0] == 0.5
        assert (params.survival == 1.0).all()
        assert (params.mean_y == 1.5).all()
        # outcome variance 0.5 over k = 2 per cell
        assert np.allclose(cov.diagonal[7:], 0.25)

    def test_case1_sample_close_to_truth(self):
        arr, _ = generate(DgpConfig(n=8000, case=1), seed=31)
        params, cov = fit_cell_params(ingest(arr))
        se1 = math.sqrt(0.58 * 0.42 / (arr[:, 0] == 1).sum())
        se0 = math.sqrt(0.30 * 0.70 / (arr[:, 0] == 0).sum())
        assert abs(params.take[1] - 0.58) < 3 * se1
        assert abs(params.take[0] - 0.30) < 3 * se0

    def test_assign_rate_variance(self):
        rows = [(1, 1, 1, 1, 1, 1.0)] * 50 + [(0, 0, 1, 1, 1, 1.0)] * 50
        params, cov = fit_cell_params(rows_to_cells(rows))
        assert params.assign_rate == 0.5
        assert cov.diagonal[0] == pytest.approx(0.25 / 100, abs=1e-15)

    def test_covariance_matches_realized_count_form(self):
        arr, _ = generate(DgpConfig(n=4000, case=1), seed=32)
        cells = ingest(arr)
        params, cov = fit_cell_params(cells)
        n = cells.n_records
        r = params.assign_rate
        t1 = params.take[1]
        # n * r * t1 equals the realized treated-cell count in arm 1
        expected = params.survival[1, 1] * (1 - params.survival[1, 1]) / (n * r * t1)
        assert cov.diagonal[3] == pytest.approx(expected, rel=1e-12)
        s11 = params.survival[1, 1]
        assert n * r * t1 == pytest.approx(cells.surv_obs[1, 1], rel=1e-12)
        assert cov.diagonal[7] == pytest.approx(
            cells.y_m2[1, 1] / (cells.y_count[1, 1] - 1) / cells.y_count[1, 1], rel=1e-12)
        assert s11 == pytest.approx(cells.surv_pos[1, 1] / cells.surv_obs[1, 1])

    def test_empty_arm_raises(self):
        rows = [(1, 1, 1, 1, 1, 1.0)] * 4
        with pytest.raises(EmptyCellError):
            fit_cell_params(rows_to_cells(rows))

    def test_empty_offdiagonal_cells_are_weightless(self):
        # perfect compliance: cells (1,0) and (0,1) are empty but harmless
        rows = [(1, 1, 1, 1, 1, 2.0)] * 6 + [(0, 0, 1, 1, 1, 1.0)] * 6
        params, cov = fit_cell_params(rows_to_cells(rows))
        mu1, mu0, tau = pace_identify(params)
        assert (mu1, mu0, tau) == (2.0, 1.0, 1.0)
        assert np.isfinite(cov.diagonal).all()

    def test_all_outcomes_missing_in_weighted_cell(self):
        rows = [(1, 1, 1, 1, 0, np.nan)] * 4 + [(0, 0, 1, 1, 1, 1.0)] * 4
        with pytest.raises(AllOutcomesMissingError):
            fit_cell_params(rows_to_cells(rows))


class TestGradients:
    def test_structural_zeros(self):
        grad1 = gradient_mu(study_params(3), 1)
        grad0 = gradient_mu(study_params(3), 0)
        assert grad1[0] == 0.0 and grad0[0] == 0.0
        # treated-arm mean touches neither the untreated survival nor means
        assert grad1[4] == 0.0 and grad1[6] == 0.0
        assert grad1[8] == 0.0 and grad1[10] == 0.0
        assert grad0[3] == 0.0 and grad0[5] == 0.0
        assert grad0[7] == 0.0 and grad0[9] == 0.0

    def test_flat_outcomes_kill_mixing_sensitivity(self):
        params = CellParams(take=np.array([0.3, 0.58]),
                            survival=np.array([[0.38, 0.9], [0.3, 0.7]]),
                            mean_y=np.full((2, 2), 4.0))
        grad1 = gradient_mu(params, 1)
        assert grad1[1] == pytest.approx(0.0, abs=1e-12)
        assert grad1[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("arm", [0, 1])
    def test_matches_central_differences_at_study_point(self, arm):
        params = study_params(3)
        rel = max_gradient_error(params, arm, step=1e-6)
        assert rel < 1e-6


def max_gradient_error(params, arm, step):
    analytic = gradient_mu(params, arm)
    base = params.pack()
    which = 0 if arm == 1 else 1
    worst = 0.0
    for i in range(11):
        hi = unpack_params(np.where(np.arange(11) == i, base + step, base))
        lo = unpack_params(np.where(np.arange(11) == i, base - step, base))
        numeric = (pace_identify(hi)[which]
                   - pace_identify(lo)[which]) / (2 * step)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst


class TestEstimatePace:
    def test_zero_covariance_degenerates(self):
        est = estimate_pace(study_params(3), CellCovariance(np.zeros(11)))
        assert est.se == 0.0
        assert est.ci == (est.tau, est.tau)
        assert est.p_value == 0.0

    def test_affine_equivariance(self):
        arr, _ = generate(DgpConfig(n=3000, case=1), seed=33)
        params, cov = fit_cell_params(ingest(arr))
        base = estimate_pace(params, cov)
        scaled = arr.copy()
        keep = ~np.isnan(scaled[:, 5])
        scaled[keep, 5] = -2.5 * scaled[keep, 5] + 7.0
        params2, cov2 = fit_cell_params(ingest(scaled))
        other = estimate_pace(params2, cov2)
        assert other.tau == pytest.approx(-2.5 * base.tau, rel=1e-12)
        assert other.se == pytest.approx(2.5 * base.se, rel=1e-12)

    def test_matches_wald_without_truncation_or_missingness(self):
        config = DgpConfig(n=5000, case=1,
                           surv_coef_control=(1.0, 0.0, 0.0),
                           surv_coef_treated=(1.0, 0.0, 0.0))
        arr, _ = generate(config, seed=34)
        cells = ingest(arr)
        params, cov = fit_cell_params(cells)
        est = estimate_pace(params, cov)
        assert est.tau == pytest.approx(wald_reduction(cells), abs=1e-10)

    def test_interval_contains_point_and_level_checks(self):
        params, cov = fit_cell_params(ingest(generate(DgpConfig(n=2000), seed=35)[0]))
        est = estimate_pace(params, cov, level=0.9)
        assert est.ci_lower <= est.tau <= est.ci_upper
        with pytest.raises(ValueError):
            estimate_pace(params, cov, level=1.5)


class TestLogitScale:
    def binary_params(self, p1, p0):
        return CellParams(take=np.array([0.3, 0.58]),
                          survival=np.array([[0.38, 0.9], [0.3, 0.7]]),
                          mean_y=np.array([[p0, p1], [p0, p1]]))

    def test_equal_means_zero_log_odds(self):
        est = estimate_pace(self.binary_params(0.4, 0.4), CellCovariance(np.zeros(11)),
                            scale="logit")
        assert est.tau == pytest.approx(0.0, abs=1e-12)

    def test_arithmetic_example(self):
        est = estimate_pace(self.binary_params(0.75, 0.5), CellCovariance(np.zeros(11)),
                            scale="logit")
        assert est.tau == pytest.approx(math.log(3.0), abs=1e-12)

    def test_out_of_unit_interval(self):
        with pytest.raises(MuOutOfUnitIntervalError):
            estimate_pace(self.binary_params(2.0, 1.0), CellCovariance(np.zeros(11)), scale="logit")

    def test_chain_rule_against_finite_difference_of_logit(self):
        arr, _ = generate(DgpConfig(n=6000, case=1), seed=36)
        keep = arr[:, 3] == 1
        rng = np.random.default_rng(9)
        arr[keep, 5] = (rng.random(keep.sum()) < (0.5 + 0.25 * arr[keep, 1])).astype(float)
        params, cov = fit_cell_params(ingest(arr))
        identity = estimate_pace(params, cov)
        logit_est = estimate_pace(params, cov, scale="logit")
        slope1 = 1.0 / (identity.mu1 * (1 - identity.mu1))
        slope0 = 1.0 / (identity.mu0 * (1 - identity.mu0))
        assert logit_est.se_mu1 == pytest.approx(identity.se_mu1 * slope1, rel=1e-10)
        assert logit_est.se_mu0 == pytest.approx(identity.se_mu0 * slope0, rel=1e-10)


class TestNormalHelpers:
    def test_quantile_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        grid = np.concatenate([
            np.array([1e-12, 1e-9, 1e-6, 1e-3]),
            np.linspace(0.01, 0.99, 197),
            1.0 - np.array([1e-12, 1e-9, 1e-6, 1e-3]),
        ])
        for p in grid:
            assert normal_quantile(float(p)) == pytest.approx(
                float(scipy_stats.norm.ppf(p)), abs=1e-9)

    def test_quantile_symmetry_and_domain(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        with pytest.raises(ValueError):
            normal_quantile(0.0)

    def test_p_value_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for est, se in ((0.5, 0.2), (-1.3, 0.7), (0.0, 1.0)):
            expected = 2 * scipy_stats.norm.sf(abs(est) / se)
            assert two_sided_p(est, se) == pytest.approx(float(expected), rel=1e-12)
        assert two_sided_p(1.0, 0.0) == 0.0
        assert two_sided_p(0.0, 0.0) == 1.0

    def test_cdf_quantile_round_trip(self):
        for p in (0.001, 0.3, 0.5, 0.72, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-9)
