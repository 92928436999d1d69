import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenrct import identify, simulate
from brokenrct.cli import build_parser
from brokenrct.comparators import METHODS, estimate
from brokenrct.errors import EstimationError, Reason
from brokenrct.estimation import fit_cell_params
from brokenrct.identify import DENOMINATOR_WARN_TOLERANCE
from brokenrct.records import CellStatistics, cells_from_arrays
from brokenrct.simulate import (
    DgpConfig,
    SimulationReport,
    StudyRow,
    _replication_cells,
    _replication_seed,
    _run_chunk,
    generate,
    run_study,
    true_pace,
)

from helpers import (
    BROKEN_DGP,
    STRATA,
    assert_same_outcome,
    case1_params_oracle,
    dgp_configs,
    outcome,
    pace_denominators_twin,
    stratum_labels,
    survived_complier,
    true_pace_reference,
)

SEEDS = st.one_of(st.integers(0, 2**64 - 1),
                  st.tuples(st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 3),
                            st.integers(0, 2000)).map(
                      lambda key: np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])))


def test_stratum_taxonomy():
    assert len(STRATA) == 8
    assert len({s.label for s in STRATA}) == 8
    for stratum in STRATA:
        assert (stratum.d1, stratum.d0) in {(1, 1), (1, 0), (0, 0)}  # no defiers
        # survival is defined only under arms the stratum can receive
        if stratum.d1 == stratum.d0 == 1:
            assert stratum.s1 in (0, 1) and stratum.s0 is None
        elif stratum.d1 == stratum.d0 == 0:
            assert stratum.s0 in (0, 1) and stratum.s1 is None
        else:
            assert stratum.s1 in (0, 1) and stratum.s0 in (0, 1)
    compliers = [s for s in STRATA if (s.d1, s.d0) == (1, 0)]
    assert len(compliers) == 4


class TestGenerate:
    def test_reproducible_from_seed(self):
        config = DgpConfig(n=1000, case=2)
        a_obs, a_pot = generate(config, seed=61)
        b_obs, b_pot = generate(config, seed=61)
        assert np.array_equal(np.isnan(a_obs), np.isnan(b_obs))
        assert np.array_equal(a_obs[~np.isnan(a_obs)], b_obs[~np.isnan(b_obs)])
        assert np.array_equal(a_pot.d1, b_pot.d1)
        c_obs, _ = generate(config, seed=62)
        assert not np.array_equal(a_obs[:, 0], c_obs[:, 0])

    def test_no_defiers_and_consistency(self):
        for case in (1, 2, 3, 4):
            arr, pot = generate(DgpConfig(n=3000, case=case), seed=63)
            assert (pot.d1 >= pot.d0).all()
            d = np.where(pot.z == 1, pot.d1, pot.d0)
            s = np.where(d == 1, pot.s1, pot.s0)
            assert np.array_equal(arr[:, 1], d.astype(float))
            assert np.array_equal(arr[:, 3], s.astype(float))
            y = np.where(d == 1, pot.y1, pot.y0)
            keep = s == 1
            assert np.allclose(arr[keep, 5], y[keep])
            assert np.isnan(arr[~keep, 5]).all()

    def test_exclusion_restriction_structural(self):
        # the potential table is identical whatever the assignment mechanism
        config = DgpConfig(n=2000, case=3)
        _, pot_a = generate(config, seed=64)
        _, pot_b = generate(DgpConfig(n=2000, case=3, assign_rate=0.9), seed=64)
        for name in ("d1", "d0", "s1", "s0"):
            assert np.array_equal(getattr(pot_a, name), getattr(pot_b, name))
        assert np.array_equal(np.isnan(pot_a.y1), np.isnan(pot_b.y1))
        assert np.array_equal(pot_a.y1[~np.isnan(pot_a.y1)],
                              pot_b.y1[~np.isnan(pot_b.y1)])

    def test_strata_frequencies(self):
        _, pot = generate(DgpConfig(n=1_000_000, case=1), seed=65)
        labels = stratum_labels(pot)
        always = np.isin(labels, ("al", "ad")).mean()
        compliers = np.isin(labels, ("cl", "cp", "ch", "cd")).mean()
        never = np.isin(labels, ("nl", "nd")).mean()
        assert abs(always - 0.30) < 0.005
        assert abs(compliers - 0.28) < 0.005
        assert abs(never - 0.42) < 0.005

    def test_observed_cell_rates_match_enumeration(self):
        arr, _ = generate(DgpConfig(n=500_000, case=1), seed=66)
        oracle = case1_params_oracle()
        z, d, s = arr[:, 0], arr[:, 1], arr[:, 3]
        for zz in (0, 1):
            take = d[z == zz].mean()
            assert abs(take - oracle.take[zz]) < 0.005
            for dd in (0, 1):
                cell = (z == zz) & (d == dd)
                assert abs(s[cell].mean() - oracle.survival[zz, dd]) < 0.01

    @pytest.mark.parametrize("overrides,message", BROKEN_DGP)
    def test_broken_override_names_its_field(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            generate(DgpConfig(n=10, **overrides), seed=0)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, None, "10"])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            generate(DgpConfig(n=n), seed=0)

    def test_invalid_coefficients_rejected(self):
        config = DgpConfig(n=10, surv_coef_treated=(0.5, 0.4, 0.4))
        with pytest.raises(ValueError):
            generate(config, seed=0)
        with pytest.raises(ValueError):
            generate(DgpConfig(n=10, case=7), seed=0)


class TestTruePace:
    @pytest.mark.parametrize("case,expected", [(1, 1.0), (2, 1.0), (3, 0.5), (4, 0.5)])
    def test_matches_analytic_truth(self, case, expected):
        value = true_pace(DgpConfig(n=1, case=case), oracle_n=400_000, seed=67)
        assert value == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("config", [
        DgpConfig(case=1), DgpConfig(case=2), DgpConfig(case=3), DgpConfig(case=4),
        DgpConfig(case=2, assign_rate=0.8, p_d0=0.1, p_d1_given_not_d0=0.7),
        DgpConfig(case=4, surv_coef_control=(0.5, 0.1, 0.3), surv_coef_treated=(0.6, 0.2, 0.1),
                  y0_gain_from_s1=-0.5, never_sd=1.0),
        DgpConfig(case=3, assign_rate=0.0, mean_gain=-0.4, sd_base=1.5, y1_gain_from_s0=2.0),
    ])
    def test_bit_equal_to_the_truth_drawn_through_generate(self, config):
        for seed in (3, (config.case, 999999)):
            got = true_pace(config, oracle_n=20_000, seed=np.random.SeedSequence(seed))
            want = true_pace_reference(config, oracle_n=20_000, seed=np.random.SeedSequence(seed))
            assert got == want

    @settings(max_examples=150, deadline=None)
    @given(config=dgp_configs(), seed=SEEDS)
    def test_bit_equal_to_the_reference_on_any_config(self, config, seed):
        # the config's n is the oracle size; an oracle draw without survived
        # compliers must fail as the reference fails
        assert_same_outcome(outcome(true_pace, config, oracle_n=config.n, seed=seed),
                            outcome(true_pace_reference, config, oracle_n=config.n, seed=seed))

    def test_no_survived_compliers_raises_like_the_reference(self):
        config = DgpConfig(case=1, p_d1_given_not_d0=0.0)
        for truth in (true_pace, true_pace_reference):
            with pytest.raises(EstimationError, match="^no survived compliers in the oracle draw$"):
                truth(config, oracle_n=1000, seed=1)

    def test_survived_complier_gap_case1(self):
        _, pot = generate(DgpConfig(n=400_000, case=1), seed=68)
        keep = survived_complier(pot)
        assert (pot.y1[keep] - pot.y0[keep]).mean() == pytest.approx(1.0, abs=0.02)


@settings(max_examples=300, deadline=None)
@given(config=dgp_configs(), seed=SEEDS)
def test_replication_cells_are_the_generated_dataset_cells(config, seed):
    got = _replication_cells(config, seed)
    want = cells_from_arrays(*generate(config, seed)[0].T)
    for f in fields(CellStatistics):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), f.name


class TestRunStudy:
    def test_report_shape_and_determinism(self):
        kwargs = dict(cases=(1,), sizes=(400,), reps=60,
                      estimators=("pace", "tsls"), seed=99, oracle_n=100_000)
        a = run_study(**kwargs)
        b = run_study(**kwargs)
        assert len(a.rows) == 2
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb
        row = a.row(1, 400, "pace")
        assert row.reps == 60
        assert np.isfinite(row.bias)
        assert 0.0 <= row.cp <= 1.0

    def test_parallel_equals_serial(self):
        # 25 reps is not a multiple of the chunk size at n_jobs 2 (4) or 3 (3)
        kwargs = dict(cases=(1, 3), sizes=(300, 200), reps=25,
                      estimators=("pace", "tsls", "itt"), seed=7, oracle_n=50_000)
        serial = run_study(n_jobs=1, **kwargs)
        assert [(r.case, r.n, r.estimator) for r in serial.rows] == [
            (c, n, e) for c in (1, 3) for n in (300, 200) for e in ("pace", "tsls", "itt")]
        for n_jobs in (2, 3):
            assert run_study(n_jobs=n_jobs, **kwargs).rows == serial.rows

    @pytest.mark.parametrize("n_jobs,pools", [(1, 0), (2, 1)])
    def test_one_pool_per_study(self, monkeypatch, n_jobs, pools):
        started = []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        run_study(cases=(1, 2), sizes=(100, 200), reps=4, estimators=("tsls",),
                  seed=8, oracle_n=10_000, n_jobs=n_jobs)
        assert len(started) == pools

    def test_workers_are_capped_by_usable_cpus_and_tasks(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        opened = []

        class InlinePool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        cpus = [2]
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus[0])
        kwargs = dict(cases=(1, 2), sizes=(100, 200), reps=9, estimators=("pace", "tsls"),
                      seed=8, oracle_n=10_000)
        serial = run_study(n_jobs=1, **kwargs)
        assert opened == []
        assert run_study(n_jobs=64, **kwargs).rows == serial.rows
        assert opened == [2]
        # eight CPUs, but 2 reps at n_jobs 64 make two tasks, and 1 rep one
        cpus[0] = 8
        for reps in (2, 1):
            run_study(cases=(1,), sizes=(100,), reps=reps, estimators=("tsls",),
                      seed=8, oracle_n=10_000, n_jobs=64)
        assert opened == [2, 2]

    def test_usable_cpus(self):
        assert 1 <= simulate._usable_cpus() <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("field,value", [
        ("seed", True), ("seed", -1), ("reps", True), ("reps", 0), ("reps", -3),
        ("reps", 2.5), ("oracle_n", True), ("oracle_n", 0), ("n_jobs", True),
        ("n_jobs", 0), ("sizes", [0]), ("sizes", [300, True]), ("sizes", []),
        ("cases", [5]), ("cases", [True]), ("cases", 1), ("estimators", []),
    ])
    def test_invalid_setting_names_its_field(self, field, value):
        settings = dict(cases=(1,), sizes=(100,), reps=5, estimators=("tsls",),
                        seed=1, oracle_n=10_000)
        settings[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            run_study(**settings)

    @pytest.mark.parametrize("overrides,message", BROKEN_DGP)
    def test_broken_dgp_rejected_before_any_draw(self, monkeypatch, overrides, message):
        def never(*args):
            raise AssertionError("a replication or truth was drawn")

        monkeypatch.setattr(simulate, "_potential_outcomes", never)
        with pytest.raises(ValueError, match=f"^{message}"):
            run_study(cases=(2,), sizes=(100,), reps=5, estimators=("tsls",), seed=1,
                      oracle_n=10_000, config=DgpConfig(**overrides))

    def test_failures_counted_not_fatal(self):
        report = run_study(cases=(1,), sizes=(12,), reps=40,
                           estimators=("pace",), seed=3, oracle_n=50_000)
        row = report.row(1, 12, "pace")
        assert 0 < row.failures < row.reps
        assert np.isfinite(row.bias)

    def test_pace_identifies_once_and_rejects_the_warning_band(self, monkeypatch):
        masses, calls = identify.survivor_masses, []

        def counted(params):
            calls.append(params)
            return masses(params)

        monkeypatch.setattr(identify, "survivor_masses", counted)
        config = DgpConfig(n=300, case=1, p_d1_given_not_d0=0.1)
        cells = [cells_from_arrays(*generate(config, _replication_seed(9, 1, 0, rep))[0].T)
                 for rep in range(40)]
        in_band = np.array([min(map(abs, pace_denominators_twin(fit_cell_params(c)[0])))
                            < DENOMINATOR_WARN_TOLERANCE for c in cells])
        calls.clear()
        tau, _, _, _, failed = _run_chunk((config, 1, 0, range(40), 9, ("pace",)))["pace"]
        assert len(calls) == 1  # one identification for the whole chunk
        assert np.array_equal(failed, in_band)
        assert np.isfinite(tau[~failed]).all()
        assert 0 < in_band.sum() < 40
        reason = estimate(CellStatistics.stack(cells), "pace").reason
        assert np.array_equal(reason, np.where(in_band, Reason.WEAK_DENOMINATOR, Reason.OK))

    @pytest.mark.parametrize("field,value,repeated", [
        ("cases", [1, 2, 1], "1"), ("sizes", [300, 300], "300"),
        ("estimators", ["pace", "tsls", "pace"], "'pace'"),
    ])
    def test_repeated_entry_rejected(self, field, value, repeated):
        settings = dict(cases=(1,), sizes=(100,), reps=5, estimators=("tsls",),
                        seed=1, oracle_n=10_000)
        settings[field] = value
        with pytest.raises(ValueError) as excinfo:
            run_study(**settings)
        assert str(excinfo.value) == f"{field} must be distinct, got {repeated} more than once"

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="^estimators must be"):
            run_study(cases=(1,), sizes=(100,), reps=5, estimators=("magic",), seed=1)

    def test_registry_covers_cli_methods(self):
        analyze = build_parser()._subparsers._group_actions[0].choices["analyze"]
        method = next(a for a in analyze._actions if a.dest == "method")
        assert method.choices == METHODS == ("pace", "tsls", "itt", "at", "pp")
        report = run_study(cases=(1,), sizes=(300,), reps=3, estimators=METHODS,
                           seed=1, oracle_n=10_000)
        assert [r.estimator for r in report.rows] == list(METHODS)

    def test_csv_and_table_rendering(self, tmp_path):
        report = run_study(cases=(1,), sizes=(300,), reps=30,
                           estimators=("pace", "tsls"), seed=5, oracle_n=50_000)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0].startswith("case,n,estimator")
        assert len(text) == 3
        table = report.format_table()
        assert "case 1" in table and "bias" in table and "cp" in table

    def test_single_rep_sd_flagged(self):
        report = run_study(cases=(1,), sizes=(400,), reps=1,
                           estimators=("pace",), seed=11, oracle_n=50_000)
        row = report.row(1, 400, "pace")
        assert np.isnan(row.sd)
        assert "NA" in report.format_table()


def test_renderers_on_a_hand_built_report(tmp_path):
    nan, inf = float("nan"), float("inf")
    report = SimulationReport(rows=[
        StudyRow(2, 500, "tsls", 10, 0, 0.5, 1 / 3, 0.25, 0.0625, 0.9),
        StudyRow(2, 500, "pace", 10, 3, 0.5, -0.0625, nan, inf, 1.0),
        StudyRow(1, 100, "pace", 10, 10, 1.0, nan, nan, nan, nan),
        # a repeated (case, n, estimator) is written out but not tabulated
        StudyRow(2, 500, "tsls", 10, 0, 0.5, 9.0, 9.0, 9.0, 0.0),
    ])
    path = tmp_path / "report.csv"
    report.to_csv(path)
    assert path.read_bytes() == (
        b"case,n,estimator,reps,failures,true_tau,bias,sd,mean_se,cp\r\n"
        b"2,500,tsls,10,0,0.5,0.3333333333333333,0.25,0.0625,0.9\r\n"
        b"2,500,pace,10,3,0.5,-0.0625,nan,inf,1.0\r\n"
        b"1,100,pace,10,10,1.0,nan,nan,nan,nan\r\n"
        b"2,500,tsls,10,0,0.5,9.0,9.0,9.0,0.0\r\n"
    )
    # cases and sizes ascend, estimators keep their first-appearance order
    assert report.format_table().split("\n") == [
        "                    case 1            case 2      ",
        "     n metric      tsls     pace     tsls     pace",
        "--------------------------------------------------",
        "   100 bias          --       NA       --       --",
        "       sd            --       NA       --       --",
        "       se            --       NA       --       --",
        "       cp            --       NA       --       --",
        "   500 bias          --       --    0.333   -0.062",
        "       sd            --       --    0.250       NA",
        "       se            --       --    0.062       NA",
        "       cp            --       --    0.900    1.000",
        "",
    ]
