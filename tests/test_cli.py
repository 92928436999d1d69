import hashlib
import json

import numpy as np
import pytest

from brokenrct import cli
from brokenrct.cli import load_study_config, main
from brokenrct.estimators import PaceEstimator
from brokenrct.records import read_csv, write_csv
from brokenrct.simulate import DgpConfig, generate

from helpers import build_study_dataset, delete_outcomes_mcar, delete_survival_mcar


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("study") / "year3.csv"
    write_csv(path, build_study_dataset(year=3))
    return path


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_study_dataset_text(self, capsys, study_csv):
        code, out, err = run_cli(capsys, ["analyze", "--input", str(study_csv)])
        assert code == 0
        assert "strata proportions" in out
        assert "pace" in out

    def test_study_dataset_values(self, capsys, study_csv):
        code, out, _ = run_cli(capsys, [
            "analyze", "--input", str(study_csv), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        strata = payload["strata_proportions"]
        assert strata["always_takers"] == pytest.approx(0.606, abs=0.002)
        assert strata["compliers"] == pytest.approx(0.282, abs=0.002)
        assert strata["never_takers"] == pytest.approx(0.112, abs=0.002)
        assert payload["estimates"]["pace"]["estimate"] == pytest.approx(0.186, abs=0.005)
        assert payload["first_stage"] == pytest.approx(0.282, abs=0.002)

    def test_methods_agree_without_truncation(self, capsys, tmp_path):
        config = DgpConfig(n=3000, case=1,
                           surv_coef_control=(1.0, 0.0, 0.0),
                           surv_coef_treated=(1.0, 0.0, 0.0))
        arr, _ = generate(config, seed=81)
        path = tmp_path / "clean.csv"
        write_csv(path, arr)
        code, out, _ = run_cli(capsys, [
            "analyze", "--input", str(path),
            "--method", "pace", "--method", "tsls", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["estimates"]["pace"]["estimate"] == pytest.approx(
            payload["estimates"]["tsls"]["estimate"], abs=1e-10)

    def test_empty_file_is_schema_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run_cli(capsys, ["analyze", "--input", str(path)])
        assert code == 4
        assert "empty" in err

    def test_single_arm_fails_validation(self, capsys, tmp_path):
        rows = [(1, d, 1, 1, 1, 1.0) for d in (0, 1)] * 5
        path = tmp_path / "onearm.csv"
        write_csv(path, np.asarray(rows, dtype=float))
        code, _, err = run_cli(capsys, ["analyze", "--input", str(path)])
        assert code == 2
        assert "single assignment arm" in err

    def test_estimation_failure_exit_code(self, capsys, tmp_path):
        # uptake equal in both arms: strata proportions are undefined
        rows = []
        for z in (0, 1):
            rows += [(z, 1, 1, 1, 1, 1.0)] * 5 + [(z, 0, 1, 1, 1, 2.0)] * 5
        path = tmp_path / "flat.csv"
        write_csv(path, np.asarray(rows, dtype=float))
        code, _, err = run_cli(capsys, ["analyze", "--input", str(path)])
        assert code == 3

    def test_comparator_with_logit_scale_is_rejected(self, capsys, study_csv):
        code, out, err = run_cli(capsys, ["analyze", "--input", str(study_csv),
                                          "--method", "tsls", "--scale", "logit",
                                          "--format", "csv"])
        assert code == 4
        assert out == ""
        assert "tsls" in err and "identity" in err

    def test_comparator_scale_is_checked_before_imputing(self, capsys, tmp_path, monkeypatch):
        arr, _ = generate(DgpConfig(n=2000, case=1), seed=83)
        path = tmp_path / "missing.csv"
        write_csv(path, delete_outcomes_mcar(arr, 0.2, seed=8))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return impute(*args, **kwargs)

        impute = cli.impute_within_cells
        monkeypatch.setattr(cli, "impute_within_cells", counted)
        argv = ["analyze", "--input", str(path), "--method", "tsls", "--impute", "20"]
        code, out, err = run_cli(capsys, argv + ["--scale", "logit"])
        assert (code, out) == (4, "")
        assert "tsls is a mean difference" in err
        assert calls == []
        code, _, _ = run_cli(capsys, argv)
        assert code == 0 and calls == [(20, 0)]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["analyze", "--input", str(tmp_path / "nope.csv")])
        assert code == 4

    def test_impute_deterministic_output(self, capsys, tmp_path):
        arr, _ = generate(DgpConfig(n=2000, case=1), seed=82)
        damaged = delete_outcomes_mcar(arr, 0.2, seed=9)
        path = tmp_path / "missing.csv"
        write_csv(path, damaged)
        argv = ["analyze", "--input", str(path), "--impute", "5", "--seed", "11",
                "--format", "json"]
        code_a, out_a, _ = run_cli(capsys, argv)
        code_b, out_b, _ = run_cli(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["mode"] == "impute m=5 seed=11"

    def test_impute_matches_estimator_pooling(self, capsys, tmp_path):
        # the CLI and PaceEstimator pool the same per-dataset estimates
        arr, _ = generate(DgpConfig(n=5000, case=2), 7)
        damaged = delete_survival_mcar(delete_outcomes_mcar(arr, 0.15, seed=1), 0.05, seed=2)
        path = tmp_path / "mcar.csv"
        write_csv(path, damaged)
        code, out, _ = run_cli(capsys, [
            "analyze", "--input", str(path), "--impute", "5", "--seed", "9",
            "--format", "json"])
        assert code == 0
        pace = json.loads(out)["estimates"]["pace"]
        est = PaceEstimator(impute=5, seed=9).fit(read_csv(path))
        assert pace["estimate"] == est.tau_
        assert pace["se"] == est.se_
        assert (pace["ci_lower"], pace["ci_upper"]) == est.conf_int_
        assert pace["p_value"] == est.p_value_

    def test_impute_requires_m_at_least_two(self, capsys, study_csv):
        code, _, err = run_cli(capsys, [
            "analyze", "--input", str(study_csv), "--impute", "1"])
        assert code == 4

    def test_completed_dir_mode(self, capsys, tmp_path):
        from brokenrct.imputation import impute_within_cells

        arr, _ = generate(DgpConfig(n=1500, case=1), seed=83)
        damaged = delete_outcomes_mcar(arr, 0.2, seed=10)
        completed_dir = tmp_path / "completed"
        completed_dir.mkdir()
        for i, dataset in enumerate(impute_within_cells(damaged, m=3, seed=1)):
            write_csv(completed_dir / f"imp{i}.csv", dataset)
        data_path = tmp_path / "damaged.csv"
        write_csv(data_path, damaged)
        code, out, _ = run_cli(capsys, [
            "analyze", "--input", str(data_path),
            "--completed-dir", str(completed_dir), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "completed-dir m=3"

    def test_csv_format_round_trips(self, capsys, study_csv):
        code, out, _ = run_cli(capsys, [
            "analyze", "--input", str(study_csv), "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,scale,estimate,se,ci_lower,ci_upper,p_value"
        fields = lines[1].split(",")
        assert float(fields[2]) == pytest.approx(0.186, abs=0.005)


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        config = {"seed": 5, "reps": 25, "cases": [1], "sizes": [300],
                  "estimators": ["pace", "tsls"], "oracle_n": 50_000}
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_writes_deterministic_reports(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_a)]) == 0
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_b)]) == 0
        capsys.readouterr()
        for name in ("report.csv", "table.txt", "metadata.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        metadata = json.loads((out_a / "metadata.json").read_text())
        assert metadata["seed"] == 5
        assert len(metadata["config_sha256"]) == 64

    def test_report_round_trip(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        rows = (out_dir / "report.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        parsed = dict(zip(header, rows[1].split(",")))
        assert parsed["estimator"] == "pace"
        assert abs(float(parsed["bias"])) < 1.0

    def test_single_rep_flags_sd(self, capsys, tmp_path):
        config = self.write_config(tmp_path, reps=1, estimators=["pace"])
        out_dir = tmp_path / "single"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert "NA" in (out_dir / "table.txt").read_text()
        assert "nan" in (out_dir / "report.csv").read_text()

    def test_config_field_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"reps": "many"}))
        code, _, err = run_cli(capsys, [
            "simulate", "--config", str(path), "--out-dir", str(tmp_path / "x")])
        assert code == 4
        assert "reps" in err

        path.write_text(json.dumps({"dgp": {"p_d0": 1.7}}))
        code, _, err = run_cli(capsys, [
            "simulate", "--config", str(path), "--out-dir", str(tmp_path / "y")])
        assert code == 4
        assert "dgp" in err

        path.write_text("{not json")
        code, _, err = run_cli(capsys, [
            "simulate", "--config", str(path), "--out-dir", str(tmp_path / "z")])
        assert code == 4


    @pytest.mark.parametrize("field,value", [
        ("reps", True), ("oracle_n", True), ("n_jobs", True), ("seed", False),
        ("reps", 0), ("reps", -3), ("oracle_n", 0), ("n_jobs", -1), ("sizes", [0]),
    ])
    def test_invalid_setting_exits_4(self, capsys, tmp_path, field, value):
        config = self.write_config(tmp_path, **{field: value})
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, ["simulate", "--config", str(config),
                                          "--out-dir", str(out_dir)])
        assert code == 4
        assert f"error: {field} must be" in err
        assert not (out_dir / "report.csv").exists()

    def test_rejected_config_leaves_no_out_dir(self, capsys, tmp_path):
        config = self.write_config(tmp_path, reps=0)
        out_dir = tmp_path / "new" / "out"
        code, _, err = run_cli(capsys, ["simulate", "--config", str(config),
                                        "--out-dir", str(out_dir)])
        assert code == 4
        assert "error: reps must be" in err
        assert not (tmp_path / "new").exists()

    def test_empty_config_takes_run_study_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        config = load_study_config(path)
        assert json.loads(json.dumps(config)) == {
            "seed": 20240501, "reps": 2000, "cases": [1, 2, 3, 4],
            "sizes": [500, 2000, 8000], "estimators": ["pace", "tsls"],
            "oracle_n": 1_000_000, "n_jobs": 1, "dgp": {},
        }
        digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
        assert digest == "5fbc9b650a9a59379c86ef48192506a6d27181d4f275e8b896d9eda5c3faee7c"


class TestEffectSeries:
    def test_four_periods(self, capsys, tmp_path):
        paths = []
        for year in (1, 2, 3, 4):
            path = tmp_path / f"year{year}.csv"
            write_csv(path, build_study_dataset(year=year))
            paths.append(str(path))
        code, out, _ = run_cli(capsys, ["effect-series", *paths])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        year3 = dict(zip(header, lines[3].split(",")))
        assert year3["status"] == "ok"
        assert float(year3["survival_effect"]) == pytest.approx(0.0759, abs=0.002)
        assert float(year3["tau"]) == pytest.approx(0.186, abs=0.005)

    def test_single_period(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(path, build_study_dataset(year=2))
        code, out, _ = run_cli(capsys, ["effect-series", str(path)])
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_failed_period_flagged_inline(self, capsys, tmp_path):
        good = tmp_path / "good.csv"
        write_csv(good, build_study_dataset(year=3))
        arr, _ = generate(DgpConfig(n=300, case=1), seed=84)
        arr[:, 4] = 0.0
        arr[:, 5] = np.nan
        bad = tmp_path / "bad.csv"
        write_csv(bad, arr)
        code, out, _ = run_cli(capsys, ["effect-series", str(bad), str(good)])
        assert code == 0
        lines = out.strip().splitlines()
        assert "error" in lines[1]
        assert lines[2].split(",")[-1] == "ok"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(path, build_study_dataset(year=1))
        out_path = tmp_path / "series.csv"
        code, out, _ = run_cli(capsys, [
            "effect-series", str(path), "--output", str(out_path)])
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("period,")
