import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brokenrct.errors import (
    DenominatorDegenerateError,
    IdentificationWarning,
    WeakDenominatorWarning,
)
from brokenrct.estimation import estimate_pace, fit_cell_params
from brokenrct.identify import (
    CellParams,
    complier_survival,
    pace_identify,
    strata_proportions,
    survivor_masses,
)
from brokenrct.records import ingest
from brokenrct.simulate import DgpConfig, generate

from helpers import (
    ReductionPreconditionError,
    SurvivalMonotonicityWarning,
    case1_params_oracle,
    cl_proportion_under_monotonicity,
    no_missing_reduction,
    population_params,
    study_params,
    survivor_contrast_reduction,
    wald_reduction,
)


def flat_params(take0, take1, survival=1.0, mean=1.0):
    return CellParams(take=np.array([take0, take1]),
                      survival=np.full((2, 2), float(survival)),
                      mean_y=np.full((2, 2), float(mean)))


class TestStrataProportions:
    def test_study_uptake(self):
        p = strata_proportions(flat_params(0.606, 0.888))
        assert p.p_a == pytest.approx(0.606, abs=1e-12)
        assert p.p_c == pytest.approx(0.282, abs=1e-12)
        assert p.p_n == pytest.approx(0.112, abs=1e-12)

    def test_benchmark_uptake(self):
        p = strata_proportions(flat_params(0.30, 0.58))
        assert (p.p_a, p.p_c, p.p_n) == pytest.approx((0.30, 0.28, 0.42), abs=1e-12)

    def test_perfect_compliance(self):
        p = strata_proportions(flat_params(0.0, 1.0))
        assert (p.p_a, p.p_c, p.p_n) == (0.0, 1.0, 0.0)

    def test_rejects_reversed_uptake(self):
        with pytest.raises(DenominatorDegenerateError):
            strata_proportions(flat_params(0.5, 0.5))
        with pytest.raises(DenominatorDegenerateError):
            strata_proportions(flat_params(0.6, 0.4))

    def test_components_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t0 = rng.uniform(0.01, 0.9)
            t1 = rng.uniform(t0 + 0.01, 0.99)
            p = strata_proportions(flat_params(t0, t1))
            assert abs(p.p_a + p.p_c + p.p_n - 1.0) < 1e-15


class TestComplierSurvival:
    def test_benchmark_values_from_enumeration(self):
        cs = complier_survival(case1_params_oracle())
        assert cs.s1_given_c == pytest.approx(0.6, abs=1e-10)
        assert cs.s0_given_c == pytest.approx(0.5, abs=1e-10)

    def test_study_year3(self):
        cs = complier_survival(study_params(3))
        assert cs.s1_given_c == pytest.approx(0.9046170212765956, abs=1e-12)
        assert cs.s0_given_c == pytest.approx(0.8287659574468085, abs=1e-12)
        assert cs.effect == pytest.approx(0.07585106382978724, abs=1e-12)

    def test_no_truncation(self):
        cs = complier_survival(flat_params(0.3, 0.6, survival=1.0))
        assert cs.s1_given_c == pytest.approx(1.0, abs=1e-12)
        assert cs.s0_given_c == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_warns_and_propagates(self):
        params = CellParams(take=np.array([0.1, 0.2]),
                            survival=np.array([[0.5, 0.1], [0.5, 0.9]]),
                            mean_y=np.ones((2, 2)))
        with pytest.warns(IdentificationWarning):
            cs = complier_survival(params)
        assert cs.s1_given_c == pytest.approx(1.7, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(take=st.lists(st.floats(0, 1), min_size=2, max_size=2),
       survival=st.lists(st.floats(0, 1), min_size=4, max_size=4))
def test_complier_survival_is_a_denominator_over_compliers(take, survival):
    """Complier survival is each mixing denominator of survivor_masses over
    the complier share, bit for bit."""
    take0, take1 = sorted(take)
    assume(take1 - take0 >= 0.01)
    params = CellParams(take=np.array([take0, take1]),
                        survival=np.reshape(survival, (2, 2)), mean_y=np.ones((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentificationWarning)
        cs = complier_survival(params)
    den, p_c = survivor_masses(params)[2], take1 - take0
    assert cs.s1_given_c == den[1] / p_c
    assert cs.s0_given_c == -den[0] / p_c


class TestPaceIdentify:
    def test_study_year3(self):
        mu1, mu0, tau = pace_identify(study_params(3))
        assert mu1 == pytest.approx(5.212787449725992, abs=1e-12)
        assert mu0 == pytest.approx(5.02651078250154, abs=1e-12)
        assert tau == pytest.approx(0.1862766672244516, abs=1e-12)

    def test_flat_outcomes_give_zero_effect(self):
        mu1, mu0, tau = pace_identify(flat_params(0.3, 0.7, survival=0.8, mean=3.25))
        assert mu1 == pytest.approx(3.25, abs=1e-12)
        assert mu0 == pytest.approx(3.25, abs=1e-12)
        assert tau == pytest.approx(0.0, abs=1e-12)

    def test_benchmark_case1(self):
        mu1, mu0, tau = pace_identify(case1_params_oracle())
        assert (mu1, mu0, tau) == pytest.approx((2.0, 1.0, 1.0), abs=1e-10)

    def test_degenerate_denominator_raises(self):
        params = CellParams(take=np.array([0.3, 0.6]),
                            survival=np.array([[0.5, 0.6], [0.5, 0.3]]),
                            mean_y=np.ones((2, 2)))
        with pytest.raises(DenominatorDegenerateError):
            pace_identify(params)

    def test_small_denominator_warns(self):
        params = flat_params(0.5, 0.505)
        with pytest.warns(WeakDenominatorWarning):
            pace_identify(params)


class TestPopulationOracle:
    def test_identification_recovers_population_truth(self):
        from helpers import population_stratum_table

        params, truth = population_params()
        mu1, mu0, tau = pace_identify(params)
        means = population_stratum_table()["means"]
        assert abs(mu1 - means[0]) < 1e-12
        assert abs(mu0 - means[1]) < 1e-12
        assert abs(tau - truth) < 1e-12


class TestReductions:
    def test_wald_matches_pace_without_truncation(self):
        config = DgpConfig(n=6000, case=1,
                           surv_coef_control=(1.0, 0.0, 0.0),
                           surv_coef_treated=(1.0, 0.0, 0.0))
        arr, _ = generate(config, seed=21)
        cells = ingest(arr)
        params, cov = fit_cell_params(cells)
        est = estimate_pace(params, cov)
        assert wald_reduction(cells) == pytest.approx(est.tau, abs=1e-10)

    def test_wald_requires_no_truncation(self):
        arr, _ = generate(DgpConfig(n=500, case=1), seed=1)
        with pytest.raises(ReductionPreconditionError):
            wald_reduction(ingest(arr))

    def test_wald_hand_case(self):
        # uptake difference 0.28, outcome gap 0.28 -> ratio 1
        rows = []
        for z, take in ((1, 0.58), (0, 0.30)):
            k = int(round(take * 100))
            rows += [(z, 1, 1, 1, 1, 1.0 + 0.28 * z)] * k
            rows += [(z, 0, 1, 1, 1, 1.0 + 0.28 * z)] * (100 - k)
        value = wald_reduction(ingest(np.asarray(rows, dtype=float)))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_survivor_contrast_matches_pace_under_perfect_compliance(self):
        config = DgpConfig(n=6000, case=1, p_d0=0.0, p_d1_given_not_d0=1.0)
        arr, _ = generate(config, seed=22)
        assert np.array_equal(arr[:, 0], arr[:, 1])
        cells = ingest(arr)
        params, cov = fit_cell_params(cells)
        est = estimate_pace(params, cov)
        assert survivor_contrast_reduction(cells) == pytest.approx(est.tau, abs=1e-10)

    def test_survivor_contrast_hand_case(self):
        rows = [(1, 1, 1, 1, 1, 2.0)] * 10 + [(0, 0, 1, 1, 1, 1.0)] * 10
        value = survivor_contrast_reduction(ingest(np.asarray(rows, dtype=float)))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_survivor_contrast_requires_perfect_compliance(self):
        arr, _ = generate(DgpConfig(n=500, case=1), seed=3)
        with pytest.raises(ReductionPreconditionError):
            survivor_contrast_reduction(ingest(arr))

    def test_no_missing_matches_pace(self):
        arr, _ = generate(DgpConfig(n=8000, case=2), seed=23)
        cells = ingest(arr)
        params, cov = fit_cell_params(cells)
        est = estimate_pace(params, cov)
        assert no_missing_reduction(cells) == pytest.approx(est.tau, abs=1e-10)

    def test_no_missing_zero_denominator(self):
        # identical arms: every between-arm moment difference vanishes
        rows = []
        for z in (0, 1):
            rows += [(z, 1, 1, 1, 1, 2.0), (z, 0, 1, 1, 1, 1.0),
                     (z, 1, 1, 0, 1, np.nan), (z, 0, 1, 0, 1, np.nan)]
        with pytest.raises(DenominatorDegenerateError):
            no_missing_reduction(ingest(np.asarray(rows, dtype=float)))

    def test_no_missing_requires_complete_data(self):
        arr, _ = generate(DgpConfig(n=400, case=1), seed=4)
        survivor = int(np.flatnonzero(arr[:, 3] == 1)[0])
        arr[survivor, 4] = 0
        arr[survivor, 5] = np.nan
        with pytest.raises(ReductionPreconditionError):
            no_missing_reduction(ingest(arr))


class TestClProportion:
    def test_requires_flag(self):
        with pytest.raises(ValueError):
            cl_proportion_under_monotonicity(study_params(3))

    def test_study_year3_arithmetic(self):
        value = cl_proportion_under_monotonicity(
            study_params(3), assume_survival_monotone=True)
        assert value == pytest.approx(0.233712, abs=1e-12)

    def test_negative_value_warns(self):
        params = CellParams(take=np.array([0.3, 0.9]),
                            survival=np.array([[0.1, 0.5], [0.9, 0.5]]),
                            mean_y=np.ones((2, 2)))
        with pytest.warns(SurvivalMonotonicityWarning):
            value = cl_proportion_under_monotonicity(
                params, assume_survival_monotone=True)
        assert value < 0

    def test_matches_enumerated_share_under_coupled_survival(self):
        # one shared uniform per subject makes S(1) >= S(0) pointwise
        rng = np.random.default_rng(77)
        n = 200_000
        d0 = (rng.random(n) < 0.3).astype(int)
        d1 = np.where(d0 == 1, 1, (rng.random(n) < 0.4).astype(int))
        p_s0 = 0.3 + 0.2 * d0 + 0.2 * d1
        p_s1 = p_s0 + 0.1
        u = rng.random(n)
        s0 = (u < p_s0).astype(int)
        s1 = (u < p_s1).astype(int)
        z = (rng.random(n) < 0.5).astype(int)
        d = np.where(z == 1, d1, d0)
        s = np.where(d == 1, s1, s0)
        y = rng.normal(1 + d, 1.0)
        arr = np.column_stack([z, d, np.ones(n), s, np.ones(n),
                               np.where(s == 1, y, np.nan)])
        params, _ = fit_cell_params(ingest(arr))
        value = cl_proportion_under_monotonicity(params, assume_survival_monotone=True)
        truth = float(((d1 > d0) & (s1 == 1) & (s0 == 1)).mean())
        assert value == pytest.approx(truth, abs=0.01)
