import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from brokenrct.comparators import METHODS, estimate, itt_at_pp, tsls_survivors
from brokenrct.errors import AllOutcomesMissingError, DesignError, WeakInstrumentWarning
from brokenrct.estimation import estimate_pace, fit_cell_params
from brokenrct.estimators import (
    PaceEstimator,
    SurvivorContrast,
    TwoStageLeastSquares,
    analyze_dataset,
)
from brokenrct.imputation import impute_within_cells
from brokenrct.records import ingest, read_csv
from brokenrct.simulate import DgpConfig, generate

from helpers import delete_outcomes_mcar, delete_survival_mcar, records_from_array


@pytest.fixture(scope="module")
def sample():
    arr, _ = generate(DgpConfig(n=4000, case=1), seed=71)
    return arr


class TestParamProtocol:
    def test_get_set_round_trip(self):
        est = PaceEstimator(level=0.9, scale="identity", impute=None, seed=3)
        params = est.get_params()
        assert params["level"] == 0.9 and params["seed"] == 3
        est.set_params(level=0.99, seed=5)
        assert est.level == 0.99 and est.seed == 5
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = PaceEstimator(level=0.9, impute=4, seed=12)
        cloned = sklearn_base.clone(est)
        assert cloned is not est
        assert cloned.get_params() == est.get_params()
        for cls in (TwoStageLeastSquares, SurvivorContrast):
            assert sklearn_base.clone(cls()).get_params() == cls().get_params()

    def test_repr_shows_params(self):
        assert "level=0.9" in repr(PaceEstimator(level=0.9))


class TestPaceEstimatorFit:
    def test_matches_functional_api(self, sample):
        est = PaceEstimator().fit(sample)
        params, cov = fit_cell_params(ingest(sample))
        expected = estimate_pace(params, cov, n=sample.shape[0])
        assert est.tau_ == expected.tau
        assert est.se_ == expected.se
        assert est.conf_int_ == expected.ci
        assert est.estimate_.mu1 == expected.mu1
        assert est.strata_proportions_.p_c > 0
        assert est.validation_.ok

    def test_accepts_records(self, sample):
        base = PaceEstimator().fit(sample).tau_
        as_records = PaceEstimator().fit(records_from_array(sample)).tau_
        assert base == as_records

    def test_accepts_frames(self, sample):
        pd = pytest.importorskip("pandas")
        base = PaceEstimator().fit(sample).tau_
        frame = pd.DataFrame(sample, columns=["z", "d", "delta_s", "s", "delta_y", "y"])
        as_frame = PaceEstimator().fit(frame).tau_
        assert base == as_frame

    def test_unfitted_access_raises(self):
        with pytest.raises(RuntimeError):
            PaceEstimator().tau_

    @pytest.mark.parametrize("fit", [
        lambda arr: estimate(ingest(arr), "pace", scale="odds"),
        lambda arr: PaceEstimator(scale="odds").fit(arr),
    ], ids=["estimate", "PaceEstimator"])
    def test_invalid_scale(self, sample, fit):
        with pytest.raises(ValueError, match="'identity' or 'logit', got 'odds'"):
            fit(sample)

    def test_imputed_fit_is_deterministic(self, sample):
        damaged = delete_outcomes_mcar(sample, 0.2, seed=8)
        a = PaceEstimator(impute=5, seed=42).fit(damaged)
        b = PaceEstimator(impute=5, seed=42).fit(damaged)
        assert a.pooled_ is not None
        assert a.tau_ == b.tau_ and a.se_ == b.se_
        assert a.se_ > 0
        c = PaceEstimator(impute=5, seed=43).fit(damaged)
        assert c.tau_ != a.tau_

    @pytest.mark.parametrize("impute", [0, 1, -3, True, False, 2.5, 3.0, "3"])
    def test_invalid_impute_is_rejected_before_the_records(self, impute):
        with pytest.raises(ValueError, match=rf"^impute must be None or an integer >= 2, "
                                             rf"got {re.escape(repr(impute))}$"):
            PaceEstimator(impute=impute).fit(np.full((1, 6), 7.0))

    def test_numpy_integer_impute(self, sample):
        damaged = delete_outcomes_mcar(sample, 0.2, seed=8)
        a = PaceEstimator(impute=np.int64(3), seed=4).fit(damaged)
        assert a.pooled_ == PaceEstimator(impute=3, seed=4).fit(damaged).pooled_

    def test_single_arm_is_a_design_error(self):
        one_arm = np.asarray([(1, d, 1, 1, 1, 1.0) for d in (0, 1)] * 5, dtype=float)
        with pytest.raises(DesignError, match="^validation failure: single assignment arm$"):
            PaceEstimator().fit(one_arm)

    def test_logit_scale_on_binary_outcomes(self, sample):
        arr = sample.copy()
        keep = arr[:, 3] == 1
        rng = np.random.default_rng(17)
        arr[keep, 5] = (rng.random(keep.sum()) < (0.5 + 0.25 * arr[keep, 1])).astype(float)
        est = PaceEstimator(scale="logit").fit(arr)
        assert est.estimate_.scale == "logit"
        assert np.isfinite(est.tau_)


class TestComparatorWrappers:
    def test_tsls_wrapper(self, sample):
        est = TwoStageLeastSquares(level=0.9).fit(sample)
        expected = tsls_survivors(sample, level=0.9)
        assert est.tau_ == expected.tau
        assert est.se_ == expected.se
        assert est.conf_int_ == expected.ci

    @pytest.mark.parametrize("method", ["itt", "at", "pp"])
    def test_contrast_wrapper(self, sample, method):
        est = SurvivorContrast(method=method).fit(sample)
        expected = itt_at_pp(sample, method)
        assert est.tau_ == expected.tau
        assert est.se_ == expected.se


GOLDEN = Path(__file__).parent / "data" / "analyze-golden"
#: the class that fits each method of METHODS
CLASSES = {"pace": PaceEstimator, "tsls": TwoStageLeastSquares,
           **{m: lambda m=m: SurvivorContrast(method=m) for m in ("itt", "at", "pp")}}


class TestOneRoute:
    """Every class fits through analyze_dataset, so it reports, fails and
    warns as ``analyze --method`` does."""

    @pytest.mark.parametrize("method", METHODS)
    def test_fit_equals_analyze_golden(self, method):
        want = json.loads((GOLDEN / "five.json").read_text())["estimates"][method]
        est = CLASSES[method]().fit(read_csv(GOLDEN / "case2.csv"))
        assert (est.tau_, est.se_, est.conf_int_, est.p_value_) == (
            want["estimate"], want["se"], (want["ci_lower"], want["ci_upper"]), want["p_value"])

    @pytest.mark.parametrize("method", ["pace", "tsls", "itt"])
    def test_single_arm_is_the_design_error_analyze_prints(self, method):
        message = (GOLDEN / "onearm.err").read_text().rstrip("\n")
        with pytest.raises(DesignError, match=f"^{re.escape(message)}$"):
            CLASSES[method]().fit(read_csv(GOLDEN / "onearm.csv"))

    def test_tsls_warns_of_a_weak_instrument(self):
        # first stage 0.016, below the default threshold 0.02
        arr, _ = generate(DgpConfig(n=2000, case=2, p_d1_given_not_d0=0.012), seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            TwoStageLeastSquares().fit(arr)
        assert caught and caught[0].category is WeakInstrumentWarning

    @pytest.mark.parametrize("method", ["tsls", "itt", "at", "pp"])
    def test_comparators_raise_what_fit_cell_params_raises(self, sample, method):
        # the survivors of cell (1, 1) all lack y: analyze exits 3
        arr = sample.copy()
        arr[(arr[:, 0] == 1) & (arr[:, 1] == 1) & (arr[:, 3] == 1), 4:] = [0, np.nan]
        with pytest.raises(AllOutcomesMissingError):
            fit_cell_params(ingest(arr))
        with pytest.raises(AllOutcomesMissingError):
            CLASSES[method]().fit(arr)

    @pytest.mark.parametrize("method", ["pace", "tsls", "foo"])
    def test_contrast_rejects_other_methods_before_the_records(self, method):
        with pytest.raises(ValueError, match=f"^method must be itt, at or pp, got '{method}'$"):
            SurvivorContrast(method=method).fit(np.full((1, 6), 7.0))

    @pytest.mark.parametrize("method", [None, 3])
    def test_contrast_rejects_a_method_that_is_no_text(self, sample, method):
        message = f"^method must be itt, at or pp, got {method!r}$"
        with pytest.raises(ValueError, match=message):
            SurvivorContrast(method=method).fit(np.full((1, 6), 7.0))
        with pytest.raises(ValueError, match=message):
            itt_at_pp(sample, method)


def test_analysis_record_estimates_each_method_on_its_cells(sample):
    damaged = delete_survival_mcar(delete_outcomes_mcar(sample, 0.2, seed=8), 0.1, seed=9)
    analysis = analyze_dataset(damaged, METHODS, level=0.9)
    assert analysis.cells.n_records == len(damaged) == analysis.validation.n_records
    assert list(analysis.estimates) == list(METHODS)
    for method in METHODS:
        assert analysis.estimates[method] == estimate(analysis.cells, method, level=0.9)


@pytest.mark.parametrize("order", ["C", "F"])
def test_callers_array_is_never_modified(sample, order):
    # as_array hands a column-major float64 array through without a copy
    arr = delete_survival_mcar(delete_outcomes_mcar(sample, 0.2, seed=8), 0.1, seed=9)
    arr = np.asarray(arr, order=order)
    before = arr.tobytes()
    ingest(arr)
    tsls_survivors(arr)
    impute_within_cells(arr, 3, 0)
    PaceEstimator(impute=3).fit(arr)
    assert arr.dtype == np.float64 and arr.tobytes() == before
    assert arr.flags[f"{order}_CONTIGUOUS"]
