import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenrct.comparators import METHODS, estimate, itt_at_pp, tsls_survivors
from brokenrct.errors import (
    DenominatorDegenerateError,
    EmptyCellError,
    EstimationError,
    InvalidRecordError,
)
from brokenrct.estimation import estimate_pace, fit_cell_params
from brokenrct.estimators import PaceEstimator, SurvivorContrast, TwoStageLeastSquares
from brokenrct.records import ingest, validate_design
from brokenrct.simulate import DgpConfig, generate

from helpers import (
    STUDY_CELLS,
    STUDY_TAKE,
    build_study_dataset,
    itt_at_pp_rows,
    survivor_contrast_reduction,
    survivor_outcome_rows,
    tsls_rows,
    wald_reduction,
)

#: relative agreement of the closed forms with the row-level reference,
#: fixed from float64 rounding (about 2.2e-16) with ample room for the
#: few dozen operations either side performs
REL_TOL = 1e-12


def no_truncation_sample(n=5000, seed=41):
    config = DgpConfig(n=n, case=1,
                       surv_coef_control=(1.0, 0.0, 0.0),
                       surv_coef_treated=(1.0, 0.0, 0.0))
    arr, _ = generate(config, seed=seed)
    return arr


class TestTsls:
    def test_equals_pace_and_wald_without_truncation(self):
        arr = no_truncation_sample()
        cells = ingest(arr)
        params, cov = fit_cell_params(cells)
        pace = estimate_pace(params, cov)
        tsls = tsls_survivors(arr)
        assert tsls.tau == pytest.approx(pace.tau, abs=1e-10)
        assert tsls.tau == pytest.approx(wald_reduction(cells), abs=1e-10)

    def test_consistent_for_survivor_iv_ratio_in_benchmark(self):
        # large-sample sanity for the implemented within-survivor ratio:
        # in the homogeneous benchmark its limit is the true effect
        arr, _ = generate(DgpConfig(n=400_000, case=1), seed=42)
        tsls = tsls_survivors(arr)
        assert tsls.tau == pytest.approx(1.0, abs=0.02)

    def test_sandwich_se_close_to_replication_sd(self):
        taus, ses = [], []
        for rep in range(300):
            arr, _ = generate(DgpConfig(n=2000, case=1), seed=1000 + rep)
            est = tsls_survivors(arr)
            taus.append(est.tau)
            ses.append(est.se)
        sd = np.std(taus, ddof=1)
        assert np.mean(ses) == pytest.approx(sd, rel=0.15)

    def test_zero_first_stage(self):
        rows = []
        for z in (0, 1):
            rows += [(z, 1, 1, 1, 1, 1.0)] * 5 + [(z, 0, 1, 1, 1, 2.0)] * 5
        with pytest.raises(DenominatorDegenerateError):
            tsls_survivors(np.asarray(rows, dtype=float))

    def test_single_arm_among_survivors(self):
        rows = [(1, 1, 1, 1, 1, 1.0)] * 5 + [(0, 0, 1, 0, 1, np.nan)] * 5
        with pytest.raises(EmptyCellError):
            tsls_survivors(np.asarray(rows, dtype=float))


def test_estimate_dispatches_every_method():
    arr = generate(DgpConfig(n=3000, case=2), seed=46)[0]
    cells = ingest(arr)
    params, cov = fit_cell_params(cells)
    pace = estimate_pace(params, cov, level=0.9, n=cells.n_records)
    assert estimate(cells, "pace", level=0.9) == pace
    assert estimate(cells, "tsls", level=0.9) == tsls_survivors(cells, level=0.9)
    for method in ("itt", "at", "pp"):
        assert estimate(cells, method, level=0.9) == itt_at_pp(cells, method, level=0.9)
    # raw records are ingested first
    for method in METHODS:
        assert estimate(arr, method, level=0.9) == estimate(cells, method, level=0.9)
    with pytest.raises(ValueError):
        estimate(cells, "ols")


@pytest.mark.parametrize("scale", ["logit", "odds"])
@pytest.mark.parametrize("method", ["tsls", "itt", "at", "pp"])
def test_comparators_reject_a_non_identity_scale(method, scale):
    cells = ingest(generate(DgpConfig(n=2000, case=1), seed=47)[0])
    with pytest.raises(ValueError, match=f"{method} .*'identity'.*{scale!r}"):
        estimate(cells, method, scale=scale)


class TestNaiveContrasts:
    def test_all_agree_under_full_protocol_adherence(self):
        arr, _ = generate(DgpConfig(n=4000, case=1, p_d0=0.0,
                                    p_d1_given_not_d0=1.0), seed=43)
        itt = itt_at_pp(arr, "itt")
        at = itt_at_pp(arr, "at")
        pp = itt_at_pp(arr, "pp")
        assert itt.tau == pytest.approx(at.tau, abs=1e-12)
        assert itt.tau == pytest.approx(pp.tau, abs=1e-12)

    def test_itt_equals_survivor_contrast_under_full_compliance(self):
        arr, _ = generate(DgpConfig(n=4000, case=1, p_d0=0.0,
                                    p_d1_given_not_d0=1.0), seed=44)
        cells = ingest(arr)
        itt = itt_at_pp(arr, "itt")
        assert itt.tau == pytest.approx(survivor_contrast_reduction(cells), abs=1e-12)

    def test_two_group_hand_case(self):
        spread = math.sqrt(1.5)
        rows = []
        for z, mean in ((1, 2.0), (0, 1.0)):
            for y in (mean - spread, mean, mean, mean + spread):
                rows.append((z, z, 1, 1, 1, y))
        est = itt_at_pp(np.asarray(rows, dtype=float), "itt")
        assert est.tau == pytest.approx(1.0, abs=1e-12)
        assert est.se == pytest.approx(math.sqrt(2.0 / 4.0), abs=1e-12)

    def test_study_itt_against_weighted_mean_oracle(self):
        arr = build_study_dataset(year=3)
        est = itt_at_pp(arr, "itt")
        # oracle: survivor-count-weighted cell means per arm, from the
        # integer construction of the synthetic dataset
        expected_means = {}
        for z in (0, 1):
            n_arm = {1: 5577, 0: 3663}[z]
            n_treat = int(round(STUDY_TAKE[z] * n_arm))
            total, weight = 0.0, 0
            for d, n_cell in ((1, n_treat), (0, n_arm - n_treat)):
                k = int(round(STUDY_CELLS[3]["survival"][z, d] * n_cell))
                total += k * STUDY_CELLS[3]["mean"][z, d]
                weight += k
            expected_means[z] = total / weight
        assert est.tau == pytest.approx(expected_means[1] - expected_means[0], abs=1e-9)

    def test_empty_group_raises(self):
        rows = [(1, 1, 1, 1, 1, 1.0)] * 4
        with pytest.raises(EmptyCellError):
            itt_at_pp(np.asarray(rows, dtype=float), "itt")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            itt_at_pp(np.zeros((2, 6)), "ols")

    def test_naive_intervals_tighter_than_ratio_estimators(self):
        arr, _ = generate(DgpConfig(n=8000, case=1), seed=45)
        params, cov = fit_cell_params(ingest(arr))
        pace = estimate_pace(params, cov)
        for method in ("itt", "at", "pp"):
            assert itt_at_pp(arr, method).se < pace.se


@st.composite
def datasets(draw):
    """Valid (n, 6) datasets of up to 40 rows with every record kind.

    Some draws fix d for every record (no first stage) and some leave one
    (z, d) cell without an observed outcome, so tiny cells with zero or one
    outcome, all-equal d and all-missing outcomes all come up.
    """
    n = draw(st.integers(1, 40))
    d_fixed = draw(st.sampled_from((None, 0, 1)))
    blank = draw(st.sampled_from((None, (0, 0), (0, 1), (1, 0), (1, 1))))
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    rows = []
    for _ in range(n):
        z = draw(st.integers(0, 1))
        d = draw(st.integers(0, 1)) if d_fixed is None else d_fixed
        kind = draw(st.sampled_from(("observed", "missing_y", "dead", "missing_s")))
        if kind == "observed" and (z, d) == blank:
            kind = "missing_y"
        if kind == "observed":
            rows.append((z, d, 1, 1, 1, draw(values)))
        elif kind == "missing_y":
            rows.append((z, d, 1, 1, 0, np.nan))
        elif kind == "dead":
            rows.append((z, d, 1, 0, draw(st.integers(0, 1)), np.nan))
        else:
            rows.append((z, d, 0, np.nan, 0, np.nan))
    return np.asarray(rows, dtype=float)


def assert_close(got, want, scale):
    """|got - want| within REL_TOL of |want|, or of ``scale`` near zero.

    ``scale`` bounds the rounding error the inputs allow in absolute terms,
    so that a value that cancels to about zero is compared by it.
    """
    assert abs(got - want) <= REL_TOL * max(abs(want), scale), (got, want)


class TestCellFormsMatchRowReference:
    @settings(max_examples=400, deadline=None)
    @given(arr=datasets())
    def test_tsls(self, arr):
        cells = ingest(arr)
        z, d, y = survivor_outcome_rows(arr)
        n, n_z1, n_d1, n_11 = z.size, int(z.sum()), int(d.sum()), int((z * d).sum())
        if 0 < n_z1 < n and n * n_11 == n_z1 * n_d1:
            # the exact integer first stage is zero; the row form may round
            # it to a tiny non-zero value, so it is no reference here
            with pytest.raises(DenominatorDegenerateError):
                tsls_survivors(cells)
            return
        try:
            want_tau, want_se, want_n = tsls_rows(arr)
        except EstimationError as exc:
            with pytest.raises(type(exc)):
                tsls_survivors(cells)
            return
        got = tsls_survivors(cells)
        first_stage = (n * n_11 - n_z1 * n_d1) / n
        scale = (1.0 + np.abs(y).max() + abs(want_tau)) * n / abs(first_stage)
        assert_close(got.tau, want_tau, scale)
        assert_close(got.se, want_se, scale)
        assert got.n == want_n

    @settings(max_examples=400, deadline=None)
    @given(arr=datasets(), method=st.sampled_from(("itt", "at", "pp")))
    def test_naive_contrasts(self, arr, method):
        cells = ingest(arr)
        try:
            want_tau, want_se, want_n = itt_at_pp_rows(arr, method)
        except EstimationError as exc:
            with pytest.raises(type(exc)):
                itt_at_pp(cells, method)
            return
        got = itt_at_pp(cells, method)
        scale = 1.0 + np.abs(survivor_outcome_rows(arr)[2]).max()
        assert_close(got.tau, want_tau, scale)
        assert_close(got.se, want_se, scale)
        assert got.n == want_n


#: an observed survivor (first row) without an outcome: not a valid record
SURVIVOR_WITHOUT_Y = np.array([
    (1, 1, 1, 1, 1, np.nan),
    (0, 0, 1, 1, 1, 2.0),
    (1, 0, 1, 1, 1, 1.0),
    (0, 1, 1, 1, 1, 3.0),
])

ARRAY_CONSUMERS = {
    "tsls_survivors": tsls_survivors,
    "itt_at_pp": lambda arr: itt_at_pp(arr, "itt"),
    "TwoStageLeastSquares.fit": lambda arr: TwoStageLeastSquares().fit(arr),
    "SurvivorContrast.fit": lambda arr: SurvivorContrast().fit(arr),
}
EMPTY_CONSUMERS = {
    **ARRAY_CONSUMERS,
    "ingest": ingest,
    "validate_design": validate_design,
    "PaceEstimator.fit": lambda arr: PaceEstimator().fit(arr),
}


class TestInputContract:
    @pytest.mark.parametrize("name", sorted(ARRAY_CONSUMERS))
    def test_invalid_array_record_rejected(self, name):
        with pytest.raises(InvalidRecordError):
            ARRAY_CONSUMERS[name](SURVIVOR_WITHOUT_Y)

    @pytest.mark.parametrize("name", sorted(EMPTY_CONSUMERS))
    def test_empty_array_rejected(self, name):
        with pytest.raises(ValueError, match="^no records to ingest$"):
            EMPTY_CONSUMERS[name](np.empty((0, 6)))

    def test_cells_without_survivors_in_an_arm(self):
        rows = [(1, 1, 1, 1, 1, 1.0)] * 3 + [(0, 0, 1, 0, 1, np.nan)] * 3
        cells = ingest(np.asarray(rows, dtype=float))
        with pytest.raises(EmptyCellError):
            tsls_survivors(cells)
        with pytest.raises(EmptyCellError):
            itt_at_pp(cells, "itt")
