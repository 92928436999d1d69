import csv
import hashlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from brokenrct import comparators, estimators, imputation
from brokenrct.cli import load_study_config, main
from brokenrct.errors import DesignError, NoDonorsError, WeakInstrumentWarning
from brokenrct.estimators import PaceEstimator
from brokenrct.records import read_csv, write_csv
from brokenrct.simulate import DgpConfig, generate

from helpers import (
    BROKEN_DGP,
    build_study_dataset,
    delete_outcomes_mcar,
    delete_survival_mcar,
)


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("study") / "year3.csv"
    write_csv(path, build_study_dataset(year=3))
    return path


@pytest.fixture(scope="module")
def one_arm_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("onearm") / "onearm.csv"
    write_csv(path, np.asarray([(1, d, 1, 1, 1, 1.0) for d in (0, 1)] * 5, dtype=float))
    return path


@pytest.fixture(scope="module")
def weak_csv(tmp_path_factory):
    # first stage 0.016, below the default threshold 0.02; analyze also warns
    # of complier survival and weak mixing denominators
    path = tmp_path_factory.mktemp("weak") / "weak.csv"
    write_csv(path, generate(DgpConfig(n=2000, case=1, p_d1_given_not_d0=0.01), seed=0)[0])
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
            calls.append(args[2:])
            return impute(*args, **kwargs)

        impute = imputation._completed_cells
        monkeypatch.setattr(imputation, "_completed_cells", counted)
        argv = ["analyze", "--input", str(path), "--method", "tsls", "--impute", "20"]
        code, out, err = run_cli(capsys, argv + ["--scale", "logit"])
        assert (code, out) == (4, "")
        assert "tsls is a mean difference" in err
        assert calls == []
        code, _, _ = run_cli(capsys, argv)
        assert code == 0 and calls == [(20, 0)]

    def test_non_utf8_file_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"z,d,delta_s,s,delta_y,y\n1,1,1,1,1,2.0\n0,0,1,1,1,caf\xe9\n")
        code, out, err = run_cli(capsys, ["analyze", "--input", str(path)])
        assert (code, out) == (4, "")
        assert err.startswith(f"error: line 3: {path}: not UTF-8 text")

    def test_oversized_quoted_field_names_its_line(self, capsys, tmp_path):
        # a field over csv.field_size_limit() (131072 characters)
        path = tmp_path / "oversized.csv"
        path.write_text('z,d,delta_s,s,delta_y,y\n1,1,1,1,1,"' + "1" * 200_000 + '"\n')
        code, out, err = run_cli(capsys, ["analyze", "--input", str(path)])
        assert (code, out) == (4, "")
        assert err == f"error: line 2: {path}: field larger than field limit (131072)\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["analyze", "--input", str(tmp_path / "nope.csv")])
        assert code == 4

    @pytest.mark.parametrize("no_outcome, no_status, message", [
        ([(1, 1)], [], "cell (z=1, d=1, s=1) needs outcome imputation but has no observed outcome"),
        ([], [(0, 1)], "cell (z=0, d=1) needs survival imputation "
                       "but has no observed survival status"),
        ([(1, 1)], [(0, 1)], "cell (z=0, d=1) needs survival imputation "
                             "but has no observed survival status"),
        ([(0, 0)], [(0, 1)], "cell (z=0, d=0, s=1) needs outcome imputation "
                             "but has no observed outcome"),
    ])
    def test_impute_without_donors_names_the_first_cell(self, capsys, tmp_path,
                                                         no_outcome, no_status, message):
        # a cell whose records all miss s has no survivor, so it cannot also
        # lack an outcome donor: the faults are in different cells, and the
        # first cell in (z, d) order is reported whichever rule it breaks
        rows = []
        for z, d, copies in ((0, 0, 3), (0, 1, 1), (1, 0, 1), (1, 1, 3)):
            cell = [(z, d, 1, 1, 1, 1.0 + d), (z, d, 1, 1, 1, 2.5), (z, d, 1, 0, 0, np.nan),
                    (z, d, 1, 1, 0, np.nan), (z, d, 0, np.nan, 0, np.nan)] * copies
            if (z, d) in no_outcome:
                cell = [row[:4] + (0, np.nan) for row in cell]
            if (z, d) in no_status:
                cell = [(z, d, 0, np.nan, 0, np.nan)] * len(cell)
            rows += cell
        path = tmp_path / "donorless.csv"
        write_csv(path, np.asarray(rows, dtype=float))
        code, out, err = run_cli(capsys, ["analyze", "--input", str(path), "--impute", "3"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("lacking", ["y", "s"])
    def test_pace_estimator_fails_as_analyze_without_donors(self, capsys, tmp_path, lacking):
        arr, _ = generate(DgpConfig(n=2000, case=2), seed=85)
        arr = delete_outcomes_mcar(arr, 0.2, seed=12)
        if lacking == "y":    # the survivors of cell (1, 1) all lack y
            arr[(arr[:, 0] == 1) & (arr[:, 1] == 1) & (arr[:, 3] == 1), 4:] = [0, np.nan]
        else:                 # every record of cell (0, 1) misses s
            arr[(arr[:, 0] == 0) & (arr[:, 1] == 1), 2:] = [0, np.nan, 0, np.nan]
        path = tmp_path / "donorless.csv"
        write_csv(path, arr)
        code, out, err = run_cli(capsys, ["analyze", "--input", str(path), "--impute", "3"])
        assert (code, out) == (2, "")
        with pytest.raises(NoDonorsError) as raised:
            PaceEstimator(impute=3).fit(read_csv(path))
        assert err == f"error: {raised.value}\n"

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
        result = run_cli(capsys, ["analyze", "--input", str(study_csv), "--impute", "1"])
        assert result == (4, "", "error: --impute requires M >= 2 for pooled variance\n")

    def test_impute_and_completed_dir_are_exclusive(self, capsys, study_csv, tmp_path):
        result = run_cli(capsys, ["analyze", "--input", str(study_csv), "--impute", "1",
                                  "--completed-dir", str(tmp_path)])
        assert result == (4, "", "error: --impute and --completed-dir are mutually exclusive\n")

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

    def test_completed_dir_matches_impute(self, capsys, tmp_path):
        from brokenrct.imputation import impute_within_cells

        arr, _ = generate(DgpConfig(n=1500, case=3), seed=85)
        damaged = delete_survival_mcar(delete_outcomes_mcar(arr, 0.15, seed=12), 0.05, seed=13)
        completed_dir = tmp_path / "completed"
        completed_dir.mkdir()
        for i, dataset in enumerate(impute_within_cells(damaged, m=4, seed=6)):
            write_csv(completed_dir / f"imp{i}.csv", dataset)
        data_path = tmp_path / "damaged.csv"
        write_csv(data_path, damaged)
        methods = [arg for method in comparators.METHODS for arg in ("--method", method)]
        payloads = []
        for mode in (["--completed-dir", str(completed_dir)], ["--impute", "4", "--seed", "6"]):
            code, out, _ = run_cli(capsys, ["analyze", "--input", str(data_path), *mode,
                                            *methods, "--format", "json"])
            assert code == 0
            payloads.append(json.loads(out))
        assert sorted(payloads[0]["estimates"]) == sorted(comparators.METHODS)
        assert payloads[0]["estimates"] == payloads[1]["estimates"]

    def test_completed_dir_lf_and_crlf_agree(self, capsys, tmp_path):
        from brokenrct.imputation import impute_within_cells

        arr, _ = generate(DgpConfig(n=1500, case=2), seed=84)
        damaged = delete_outcomes_mcar(arr, 0.2, seed=11)
        outputs = []
        for ending in ("crlf", "lf"):
            folder = tmp_path / ending
            folder.mkdir()
            paths = [tmp_path / f"{ending}.csv"] + [folder / f"imp{i}.csv" for i in range(3)]
            for path, dataset in zip(paths, [damaged] + impute_within_cells(damaged, 3, 1)):
                write_csv(path, dataset)   # LF line ends
                if ending == "crlf":
                    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
                assert (b"\r" in path.read_bytes()) == (ending == "crlf")
            code, out, _ = run_cli(capsys, [
                "analyze", "--input", str(paths[0]), "--completed-dir", str(folder),
                "--method", "pace", "--method", "itt", "--format", "json"])
            assert code == 0
            outputs.append(out.replace(str(paths[0]), "INPUT"))
        assert outputs[0] == outputs[1]

    def test_pace_fits_cell_params_once(self, capsys, study_csv, monkeypatch):
        calls = []

        def counted(cells):
            calls.append(cells)
            return fit(cells)

        fit = estimators.fit_cell_params
        monkeypatch.setattr(estimators, "fit_cell_params", counted)
        monkeypatch.setattr(comparators, "fit_cell_params", counted)
        code, _, _ = run_cli(capsys, ["analyze", "--input", str(study_csv), "--method", "pace"])
        assert code == 0 and len(calls) == 1

    def test_pace_estimator_fails_as_analyze_on_a_single_arm(self, capsys, one_arm_csv):
        code, out, err = run_cli(capsys, ["analyze", "--input", str(one_arm_csv)])
        assert (code, out) == (2, "")
        with pytest.raises(DesignError) as raised:
            PaceEstimator().fit(read_csv(one_arm_csv))
        assert err == f"{raised.value}\n" == "validation failure: single assignment arm\n"

    def test_design_failure_comes_before_a_missing_completed_dir(self, capsys, tmp_path,
                                                                  one_arm_csv, study_csv):
        missing = str(tmp_path / "nowhere")
        code, _, err = run_cli(capsys, ["analyze", "--input", str(one_arm_csv),
                                        "--completed-dir", missing])
        assert (code, err) == (2, "validation failure: single assignment arm\n")
        code, _, err = run_cli(capsys, ["analyze", "--input", str(study_csv),
                                        "--completed-dir", missing])
        assert (code, err) == (4, f"error: no CSV files found in {missing}\n")

    @pytest.mark.parametrize("lacking", ["survival", "outcomes"])
    def test_incomplete_completed_file_exits_4(self, capsys, tmp_path, lacking):
        arr, _ = generate(DgpConfig(n=1500, case=1), seed=87)
        data_path = tmp_path / "data.csv"
        write_csv(data_path, arr)
        folder = tmp_path / "completed"
        folder.mkdir()
        write_csv(folder / "imp0.csv", arr)
        damaged = (delete_survival_mcar(arr, 0.1, seed=14) if lacking == "survival"
                   else delete_outcomes_mcar(arr, 0.1, seed=14))
        write_csv(folder / "imp1.csv", damaged)
        code, out, err = run_cli(capsys, ["analyze", "--input", str(data_path),
                                          "--completed-dir", str(folder)])
        assert (code, out) == (4, "")
        assert err == f"error: {folder / 'imp1.csv'}: completed dataset has missing {lacking}\n"

    def test_completions_of_another_file_exit_4(self, capsys, tmp_path):
        from brokenrct.imputation import impute_within_cells

        data, other = (delete_outcomes_mcar(generate(DgpConfig(n=2000, case=case), seed)[0],
                                            0.15, seed=15)
                       for case, seed in ((1, 1), (2, 2)))
        data_path = tmp_path / "case1.csv"
        write_csv(data_path, data)
        folder = tmp_path / "good"
        folder.mkdir()
        for i, dataset in enumerate(impute_within_cells(other, 3, seed=1)):
            write_csv(folder / f"imp{i}.csv", dataset)
        code, out, err = run_cli(capsys, ["analyze", "--input", str(data_path),
                                          "--completed-dir", str(folder)])
        assert (code, out) == (4, "")
        first = int(np.argmax(data[:, 0] != other[:, 0]))
        assert err == (f"error: {folder / 'imp0.csv'}: completed dataset does not complete "
                       f"the input: z differs at record {first}\n")

    def test_a_changed_observed_outcome_exits_4(self, capsys, tmp_path):
        from brokenrct.imputation import impute_within_cells

        arr, _ = generate(DgpConfig(n=1500, case=2), seed=86)
        damaged = delete_survival_mcar(delete_outcomes_mcar(arr, 0.15, seed=16), 0.05, seed=17)
        data_path = tmp_path / "data.csv"
        write_csv(data_path, damaged)
        folder = tmp_path / "completed"
        folder.mkdir()
        first, second, third = impute_within_cells(damaged, 3, seed=2)
        # 15 significant digits keep every observed y within a relative 1e-12
        (folder / "imp0.csv").write_text("z,d,delta_s,s,delta_y,y\n" + "".join(
            ",".join("" if np.isnan(v) else f"{v:.15g}" for v in row) + "\n"
            for row in first.tolist()))
        changed = int(np.flatnonzero(~np.isnan(damaged[:, 5]))[5])
        second[changed, 5] *= 1 + 1e-9
        write_csv(folder / "imp1.csv", second)
        write_csv(folder / "imp2.csv", third)
        code, out, err = run_cli(capsys, ["analyze", "--input", str(data_path),
                                          "--completed-dir", str(folder)])
        assert (code, out) == (4, "")
        assert err == (f"error: {folder / 'imp1.csv'}: completed dataset does not complete "
                       f"the input: y differs at record {changed}\n")

    def test_weak_instrument_is_the_first_warning(self, capsys, weak_csv):
        code, out, _ = run_cli(capsys, ["analyze", "--input", str(weak_csv),
                                        "--weak-threshold", "0.5", "--format", "json"])
        assert code == 0
        messages = json.loads(out)["warnings"]
        assert len(messages) > 1
        assert messages[0] == ("weak instrument: first-stage difference 0.0159 "
                               "below threshold 0.5")
        assert not any(m.startswith("weak instrument") for m in messages[1:])

    def test_pace_estimator_warns_of_a_weak_instrument_once(self, weak_csv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            PaceEstimator().fit(read_csv(weak_csv))
        weak = [w for w in caught if issubclass(w.category, WeakInstrumentWarning)]
        assert len(weak) == 1 and len(caught) > 1
        assert caught[0].category is WeakInstrumentWarning

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

    def test_study_golden_is_reproduced(self, capsys, tmp_path):
        # cases 1-4 at n = 60 and 300, 21 reps in uneven chunks, every
        # estimator; a deliberate change to the study's streams or rows
        # regenerates these files in the same commit
        golden = Path(__file__).parent / "data" / "study-golden"
        out_dir = tmp_path / "golden"
        assert main(["simulate", "--config", str(golden / "config.json"),
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        for name in ("report.csv", "table.txt"):
            assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name

    def test_metadata_leaves_out_n_jobs(self, capsys, tmp_path):
        outputs = []
        for n_jobs in (1, 2):
            config = self.write_config(tmp_path, n_jobs=n_jobs)
            out_dir = tmp_path / f"jobs{n_jobs}"
            assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
            outputs.append((out_dir / "metadata.json").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        metadata = json.loads(outputs[0])
        assert "n_jobs" not in metadata["config"]
        digest = hashlib.sha256(json.dumps(metadata["config"], sort_keys=True).encode())
        assert metadata["config_sha256"] == digest.hexdigest()

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


    @pytest.mark.parametrize("overrides,message", BROKEN_DGP)
    def test_broken_dgp_exits_4(self, capsys, tmp_path, overrides, message):
        config = self.write_config(tmp_path, dgp=overrides)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, ["simulate", "--config", str(config),
                                          "--out-dir", str(out_dir)])
        assert code == 4
        assert re.match(f"error: dgp: {message}", err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("field,value", [
        ("reps", True), ("oracle_n", True), ("n_jobs", True), ("seed", False),
        ("reps", 0), ("reps", -3), ("oracle_n", 0), ("n_jobs", -1), ("sizes", [0]),
        ("cases", [1, 1]), ("sizes", [300, 300]), ("estimators", ["tsls", "tsls"]),
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
        # the error row leaves every field blank but period, input and status
        assert lines[1] == (f'1,{bad},,,,,,,,,"error: cell (z=0, d=0, s=1) has survivors '
                            'but no observed outcome"')
        assert lines[2].split(",")[-1] == "ok"

    def test_non_utf8_period_flagged_inline(self, capsys, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_csv(good, build_study_dataset(year=3))
        bad.write_bytes(good.read_bytes() + b"0,0,1,1,1,caf\xe9\n")
        code, out, _ = run_cli(capsys, ["effect-series", str(good), str(bad)])
        assert code == 0
        series = list(csv.DictReader(io.StringIO(out)))
        assert (series[0]["status"], series[1]["period"]) == ("ok", "2")
        bad_line = good.read_bytes().count(b"\n") + 1
        assert series[1]["status"].startswith(f"error: line {bad_line}: {bad}: not UTF-8 text")

    def test_single_arm_period_fails_validation(self, capsys, tmp_path):
        good = tmp_path / "good.csv"
        write_csv(good, build_study_dataset(year=3))
        one_arm = tmp_path / "onearm.csv"
        write_csv(one_arm, np.asarray([(1, d, 1, 1, 1, 1.0) for d in (0, 1)] * 5, dtype=float))
        code, out, _ = run_cli(capsys, ["effect-series", str(one_arm), str(good)])
        assert code == 0
        series = list(csv.DictReader(io.StringIO(out)))
        code, _, err = run_cli(capsys, ["analyze", "--input", str(one_arm)])
        assert code == 2
        # the period reports the failure in analyze's words and estimates nothing
        assert series[0]["status"] == "error: " + err.strip()
        assert series[0]["status"] == "error: validation failure: single assignment arm"
        assert all(series[0][column] == "" for column in ("n", "tau", "se", "survival_effect"))
        assert series[1]["status"] == "ok"

    def test_agrees_with_analyze(self, capsys, tmp_path):
        arr, _ = generate(DgpConfig(n=2000, case=2), seed=86)
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_csv(good, delete_outcomes_mcar(arr, 0.2, seed=13))
        arr[(arr[:, 0] == 0) & (arr[:, 1] == 0) & (arr[:, 3] == 1), 4:] = [0, np.nan]
        write_csv(bad, arr)   # the survivors of cell (0, 0) all lack y
        code, out, _ = run_cli(capsys, ["effect-series", str(good), str(bad), "--level", "0.9"])
        assert code == 0
        series = list(csv.DictReader(io.StringIO(out)))
        code, out, _ = run_cli(capsys, ["analyze", "--input", str(good), "--level", "0.9",
                                        "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        pace, survival = payload["estimates"]["pace"], payload["complier_survival"]
        assert {column: float(series[0][column]) for column in (
            "tau", "se", "ci_lower", "ci_upper", "s1_complier", "s0_complier",
            "survival_effect")} == {
            "tau": pace["estimate"], "se": pace["se"], "ci_lower": pace["ci_lower"],
            "ci_upper": pace["ci_upper"], "s1_complier": survival["treated"],
            "s0_complier": survival["control"], "survival_effect": survival["effect"]}
        code, out, err = run_cli(capsys, ["analyze", "--input", str(bad)])
        assert (code, out) == (3, "")
        assert err.startswith("estimation error: ")
        assert series[1]["status"] == "error: " + err[len("estimation error: "):-1]

    def test_weak_instrument_prints_no_warning(self, capsys, weak_csv):
        code, out, err = run_cli(capsys, ["effect-series", str(weak_csv)])
        assert (code, err) == (0, "")
        assert list(csv.DictReader(io.StringIO(out)))[0]["status"] == "ok"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(path, build_study_dataset(year=1))
        out_path = tmp_path / "series.csv"
        code, out, _ = run_cli(capsys, [
            "effect-series", str(path), "--output", str(out_path)])
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("period,")


class TestAnalyzeGolden:
    """``analyze`` and ``effect-series`` bytes on tests/data/analyze-golden/.

    The inputs are a case-2 file (n = 2000, seed 1, about 5% of s and 15% of
    y deleted), a 10-row single-arm file and ``mismatch/``, a completed
    directory whose one file is that 10-row file.  Each expected output is what
    the command line below printed, run from the repository root with these
    relative paths; a deliberate change to these outputs regenerates them in
    the same commit.
    """

    GOLDEN = Path("tests/data/analyze-golden")
    CASE2, ONEARM = str(GOLDEN / "case2.csv"), str(GOLDEN / "onearm.csv")
    MISMATCH = str(GOLDEN / "mismatch")
    FIVE = [arg for method in comparators.METHODS for arg in ("--method", method)]

    @pytest.fixture(autouse=True)
    def _at_repo_root(self, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent.parent)

    @pytest.mark.parametrize("argv, expected", [
        (["analyze", "--input", CASE2, *FIVE, "--format", "json"], "five.json"),
        (["analyze", "--input", CASE2, *FIVE, "--impute", "5", "--seed", "3",
          "--format", "json"], "impute.json"),
        (["analyze", "--input", CASE2, "--weak-threshold", "0.5"], "weak.txt"),
        (["effect-series", CASE2, ONEARM], "series.csv"),
    ], ids=["five", "impute", "weak", "series"])
    def test_stdout(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out.encode() == (self.GOLDEN / expected).read_bytes()

    def test_single_arm(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "--input", self.ONEARM])
        assert out == ""
        assert err.encode() == (self.GOLDEN / "onearm.err").read_bytes()
        assert f"{code}\n".encode() == (self.GOLDEN / "onearm.exit").read_bytes()

    def test_completions_of_another_file(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "--input", self.CASE2,
                                          "--completed-dir", self.MISMATCH])
        assert out == ""
        assert err.encode() == (self.GOLDEN / "mismatch.err").read_bytes()
        assert f"{code}\n".encode() == (self.GOLDEN / "mismatch.exit").read_bytes()
