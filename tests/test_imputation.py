import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenrct.comparators import estimate
from brokenrct.errors import InvalidRecordError, NoDonorsError
from brokenrct.estimation import estimate_pace, fit_cell_params
from brokenrct.estimators import PaceEstimator
from brokenrct.imputation import (
    _completed_cells,
    impute_within_cells,
    pool_estimates,
    read_completed_dir,
)
from brokenrct.records import cells_from_arrays, ingest, write_csv
from brokenrct.simulate import DgpConfig, generate

from helpers import (
    damaged_datasets,
    dataset_estimates,
    delete_outcomes_mcar,
    delete_survival_mcar,
    impute_within_cells_reference,
)


def analyse(arr):
    params, cov = fit_cell_params(cells_from_arrays(*(arr[:, i] for i in range(6))))
    return estimate_pace(params, cov)


class TestImputer:
    def test_complete_data_returns_identical_copies(self):
        arr, _ = generate(DgpConfig(n=300, case=1), seed=51)
        completed = impute_within_cells(arr, m=4, seed=0)
        assert len(completed) == 4
        for dataset in completed:
            assert np.array_equal(np.isnan(dataset), np.isnan(arr))
            assert np.array_equal(dataset[~np.isnan(dataset)], arr[~np.isnan(arr)])

    def test_single_donor_is_deterministic(self):
        rows = [
            (1, 1, 1, 1, 1, 7.0),
            (1, 1, 1, 1, 0, np.nan),   # missing outcome, donor pool = {7}
            (0, 0, 1, 1, 1, 3.0),
        ]
        completed = impute_within_cells(np.asarray(rows, dtype=float), m=6, seed=9)
        for dataset in completed:
            assert dataset[1, 5] == 7.0
            assert dataset[1, 4] == 1.0

    def test_seed_reproducibility_bitwise(self):
        arr, _ = generate(DgpConfig(n=400, case=1), seed=52)
        arr = delete_outcomes_mcar(arr, 0.2, seed=1)
        arr = delete_survival_mcar(arr, 0.1, seed=2)
        a = impute_within_cells(arr, m=5, seed=123)
        b = impute_within_cells(arr, m=5, seed=123)
        for left, right in zip(a, b):
            assert np.array_equal(np.isnan(left), np.isnan(right))
            assert np.array_equal(left[~np.isnan(left)], right[~np.isnan(right)])
        c = impute_within_cells(arr, m=5, seed=124)
        assert any(not np.array_equal(np.isnan(x), np.isnan(y))
                   or not np.array_equal(x[~np.isnan(x)], y[~np.isnan(y)])
                   for x, y in zip(a, c))

    def test_imputed_survival_uses_cell_rate(self):
        arr, _ = generate(DgpConfig(n=5000, case=1), seed=53)
        arr = delete_survival_mcar(arr, 0.3, seed=3)
        completed = impute_within_cells(arr, m=20, seed=7)
        was_missing = arr[:, 2] == 0
        cells = ingest(arr)
        z, d = arr[:, 0].astype(int), arr[:, 1].astype(int)
        for zz, dd in ((1, 1), (0, 0)):
            rate = cells.surv_pos[zz, dd] / cells.surv_obs[zz, dd]
            idx = was_missing & (z == zz) & (d == dd)
            draws = np.concatenate([c[idx, 3] for c in completed])
            se = math.sqrt(rate * (1 - rate) / draws.size)
            assert abs(draws.mean() - rate) < 4 * se

    def test_no_donors_error(self):
        rows = [
            (1, 1, 1, 1, 0, np.nan),   # outcome missing, no observed outcome donor
            (0, 0, 1, 1, 1, 3.0),
        ]
        with pytest.raises(NoDonorsError):
            impute_within_cells(np.asarray(rows, dtype=float), m=2, seed=0)
        rows = [
            (1, 1, 0, np.nan, 0, np.nan),  # survival missing, no observed status
            (0, 0, 1, 1, 1, 3.0),
        ]
        with pytest.raises(NoDonorsError):
            impute_within_cells(np.asarray(rows, dtype=float), m=2, seed=0)

    def test_invalid_array_is_rejected(self):
        rows = [
            (1, 1, 1, 1, 1, np.nan),       # observed survivor without an outcome
            (1, 1, 0, np.nan, 0, np.nan),  # survival missing in the same cell
            (0, 0, 1, 1, 1, 2.0),
            (1, 0, 1, 1, 1, 1.0),
            (0, 1, 1, 1, 1, 3.0),
        ]
        with pytest.raises(InvalidRecordError) as excinfo:
            impute_within_cells(np.asarray(rows, dtype=float), m=2, seed=0)
        assert excinfo.value.index == 0
        assert excinfo.value.rule == "y must be a finite number when delta_y = 1 and s = 1"

    def test_mcar_pooled_estimate_consistent_with_complete_data(self):
        arr, _ = generate(DgpConfig(n=6000, case=1), seed=54)
        complete_tau = analyse(arr).tau
        damaged = delete_outcomes_mcar(arr, 0.2, seed=4)
        completed = impute_within_cells(damaged, m=10, seed=11)
        pooled = pool_estimates([analyse(c) for c in completed])
        assert abs(pooled.tau - complete_tau) < 2 * pooled.se


def imputation_outcome(impute, arr, m, seed):
    """The bytes of every completed array, or the exception's type and message."""
    try:
        completed = impute(arr, m, seed)
    except Exception as exc:
        return type(exc), str(exc)
    return [(c.shape, c.dtype, c.tobytes()) for c in completed]


@settings(max_examples=400, deadline=None)
@given(arr=damaged_datasets(), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_plan_matches_reference(arr, m, seed):
    expected = imputation_outcome(impute_within_cells_reference, arr, m, seed)
    assert imputation_outcome(impute_within_cells, arr, m, seed) == expected


def completed_cells_outcome(completed_cells, arr, m, seed):
    """Every field of each completed dataset's cells, or the exception's type and message."""
    try:
        completed = completed_cells(arr, m, seed)
    except Exception as exc:
        return type(exc), str(exc)
    return [[(f.name, getattr(c, f.name).dtype, getattr(c, f.name).tobytes()) for f in fields(c)]
            for c in completed]


@settings(max_examples=400, deadline=None)
@given(arr=damaged_datasets(), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_completed_cells_match_reference(arr, m, seed):
    def via_arrays(arr, m, seed):
        return [cells_from_arrays(*a.T) for a in impute_within_cells_reference(arr, m, seed)]

    def via_cells(arr, m, seed):
        return _completed_cells(arr, cells_from_arrays(*arr.T), m, seed)

    expected = completed_cells_outcome(via_arrays, arr, m, seed)
    assert completed_cells_outcome(via_cells, arr, m, seed) == expected


def test_estimator_pools_the_completed_arrays():
    arr, _ = generate(DgpConfig(n=3000, case=2), seed=57)
    damaged = delete_survival_mcar(delete_outcomes_mcar(arr, 0.2, seed=7), 0.1, seed=8)
    expected = pool_estimates([estimate(cells_from_arrays(*a.T), "pace")
                               for a in impute_within_cells(damaged, 4, 21)])
    assert PaceEstimator(impute=4, seed=21).fit(damaged).pooled_ == expected


def test_m_below_one_is_rejected_before_the_records():
    expected = (ValueError, "m must be at least 1")
    for impute in (impute_within_cells, impute_within_cells_reference):
        assert imputation_outcome(impute, np.full((1, 6), 7.0), 0, 0) == expected


class TestRubinPool:
    def test_degenerate_identical_estimates(self):
        pooled = pool_estimates(dataset_estimates([2.0] * 5, [0.09] * 5))
        assert pooled.tau == 2.0
        assert pooled.between == 0.0
        assert pooled.se == pytest.approx(0.3, abs=1e-15)

    def test_hand_arithmetic(self):
        pooled = pool_estimates(dataset_estimates([1.0, 3.0], [0.0, 0.0]))
        assert pooled.tau == pytest.approx(2.0, abs=1e-15)
        assert pooled.between == pytest.approx(2.0, abs=1e-15)
        assert pooled.total_var == pytest.approx(3.0, abs=1e-12)
        assert pooled.se == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        estimates = dataset_estimates(rng.normal(size=9), rng.random(9))
        base = pool_estimates(estimates)
        for _ in range(5):
            other = pool_estimates([estimates[i] for i in rng.permutation(9)])
            assert other.tau == pytest.approx(base.tau, abs=1e-15)
            assert other.se == pytest.approx(base.se, abs=1e-15)

    def test_total_variance_dominates_within(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(2, 12))
            taus = rng.normal(size=m)
            pooled = pool_estimates(dataset_estimates(taus, rng.random(m)))
            assert pooled.total_var >= pooled.within - 1e-15
            if np.ptp(taus) > 0:
                assert pooled.total_var > pooled.within

    def test_requires_two_datasets(self):
        with pytest.raises(ValueError):
            pool_estimates(dataset_estimates([1.0], [0.1]))


class TestCompletedDir:
    def test_round_trip(self, tmp_path):
        arr, _ = generate(DgpConfig(n=500, case=1), seed=55)
        damaged = delete_outcomes_mcar(arr, 0.15, seed=5)
        for i, dataset in enumerate(impute_within_cells(damaged, m=3, seed=2)):
            write_csv(tmp_path / f"imp{i}.csv", dataset)
        loaded = read_completed_dir(tmp_path)
        assert len(loaded) == 3
        pooled = pool_estimates([analyse(c) for c in loaded])
        assert math.isfinite(pooled.tau)

    def test_rejects_incomplete_dataset(self, tmp_path):
        arr, _ = generate(DgpConfig(n=200, case=1), seed=56)
        damaged = delete_outcomes_mcar(arr, 0.2, seed=6)
        write_csv(tmp_path / "bad.csv", damaged)
        with pytest.raises(Exception):
            read_completed_dir(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_completed_dir(tmp_path)
