"""The measured part of one benchmark run, in a fresh process per workload.

Started by ``run.py`` after set-up.  It imports the package, warms up with one
checked call, then makes one call at a time (a closed loop with one client)
until the time is up, checking every call against the reference values and
against the first call's output bytes.  It prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
from brokenrct import cli, simulate  # noqa: E402
from brokenrct.estimators import PaceEstimator, TwoStageLeastSquares  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


class Workload:
    """One unit call of a workload plus the check of its output."""

    def __init__(self, name: str, workdir: Path, seed: int):
        self.name = name
        self.workdir = workdir
        self.seed = seed
        self.want = json.loads((workdir / "reference.json").read_text())
        self.first_bytes = None
        if name == "analyze-csv":
            self.argv = ["analyze", "--input", str(workdir / "dataset.csv"), "--format", "json"]
            for method in wl.ANALYZE_METHODS:
                self.argv += ["--method", method]
        elif name == "fit-impute":
            self.arr = np.load(workdir / "dataset.npy")

    def call(self, n_jobs: int = wl.STUDY_JOBS):
        """The timed call; returns what :meth:`check` needs.

        Package functions are looked up on their module at call time, so a
        tracer that rebinds them is seen.
        """
        if self.name == "analyze-csv":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
            return code, out.getvalue()
        if self.name == "fit-impute":
            return (PaceEstimator(impute=wl.IMPUTATIONS).fit(self.arr),
                    TwoStageLeastSquares().fit(self.arr))
        return simulate.run_study(**wl.STUDY, seed=self.seed, n_jobs=n_jobs)

    def check(self, result) -> list:
        """Mismatches against the reference and the first call's bytes."""
        if self.name == "analyze-csv":
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            payload = json.loads(text)
            got = {"n_records": payload["n_records"],
                   "estimates": payload["estimates"]}
            raw = text.encode()
        elif self.name == "fit-impute":
            pace, tsls = result  # public fitted attributes only
            got = {"pace_pooled": {"estimate": pace.tau_, "se": pace.se_,
                                   "ci": list(pace.conf_int_), "p_value": pace.p_value_},
                   "tsls": {"estimate": tsls.tau_, "se": tsls.se_, "ci": list(tsls.conf_int_)}}
            raw = repr(got).encode()
        else:
            got = {"rows": [[r.case, r.n, r.estimator, r.reps, r.failures, r.true_tau,
                             r.bias, r.sd, r.mean_se, r.cp] for r in result.rows]}
            path = self.workdir / "report.csv"
            result.to_csv(path)
            raw = path.read_bytes() + result.format_table().encode()
        problems = wl.mismatches(got, self.want)
        if self.first_bytes is None:
            self.first_bytes = raw
        elif raw != self.first_bytes:
            problems.append("output differs from the first call's bytes")
        return problems


class Loop:
    """Closed-loop caller that times each call and counts failures."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def one(self, n_jobs: int = wl.STUDY_JOBS):
        """Time one call; returns (wall seconds, result) or None if it failed."""
        self.attempted += 1
        gc.collect()  # the previous call's garbage is not charged to this one
        try:
            start = time.perf_counter()
            result = self.workload.call(n_jobs)
            wall = time.perf_counter() - start
            problems = self.workload.check(result)
        except Exception as exc:  # a raising call is a failed call, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(problems[:3]))
            return None
        return wall, result

    def run_for(self, seconds: float) -> list:
        """Calls until ``seconds`` have passed; walls of the successful ones."""
        walls = []
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            out = self.one()
            if out:
                walls.append(out[0])
        return walls


def tail(walls: list) -> tuple:
    """(value, percentile, samples beyond it) for ``latency_s.tail``.

    The highest percentile with at least ten samples beyond it, once there
    are enough calls for that to be the 90th percentile or above; with fewer
    than 100 calls it would fall near the median, so the slowest call stands
    in for it.
    """
    xs = sorted(walls)
    if len(xs) >= 100:
        return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10
    return xs[-1], 100.0, 0


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name: str, loop: Loop, seconds: float) -> dict:
    loop.one()  # warm-up: lazy imports, allocator and page cache; checked, not timed
    walls = loop.run_for(seconds)
    out = {"metrics": {}, "details": {"samples": len(walls)}}
    if walls:
        value, pct, beyond = tail(walls)
        out["metrics"] = {
            "latency_s.p50": (statistics.median(walls), "s"),
            "latency_s.tail": (value, "s"),
            "reps_per_s": (len(walls) * wl.reps_per_call(name) / sum(walls), "1/s"),
            "peak_rss_mb": (rss_mb(resource.RUSAGE_SELF), "MB"),
        }
        out["details"].update(tail_percentile=pct, samples_beyond_tail=beyond)
    out["details"]["peak_rss_children_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
    return out


def traced(name: str, loop: Loop, seconds: float, spans_path: Path) -> dict:
    """Per-replication layer times and counts from traced calls.

    Untraced and traced calls alternate, so that both see the same machine
    load and their difference is the tracing overhead.  ``mc-study`` adds
    untraced ``n_jobs=2`` calls to the rotation for the parallel speed-up.
    """
    loop.one(n_jobs=1)  # warm-up
    tracer = Tracer()
    rotation = [("serial", 1), ("traced", 1)]
    details = {}
    if name == "mc-study":
        rotation.insert(0, ("parallel", wl.STUDY_JOBS))
        details["note"] = ("spans in worker processes are not collected, so the "
                           "traced study runs with n_jobs=1")
    walls = {mode: [] for mode, _ in rotation}
    results = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        for mode, n_jobs in rotation:
            if mode != "traced":
                out = loop.one(n_jobs)
            else:
                tracer.request += 1
                tracer.install()
                try:
                    out = loop.one(n_jobs)
                finally:
                    tracer.uninstall()
                if out:
                    results.append(out[1])
            if out:
                walls[mode].append(out[0])
    tracer.write(spans_path)
    serial = statistics.median(walls["serial"])
    traced_wall = statistics.median(walls["traced"])
    speedup = serial / statistics.median(walls["parallel"]) if "parallel" in walls else 0.0
    # neighbouring calls share the machine's load, so difference them in pairs
    overhead = statistics.median(t - u for u, t in zip(walls["serial"], walls["traced"]))

    per_call = wl.reps_per_call(name)
    reps = len(walls["traced"]) * per_call
    selfs = tracer.self_times()
    counts = tracer.counts

    def layer(span_name):
        return sum(v for k, v in selfs.items() if k == span_name or k.startswith(span_name + ".")) / reps

    input_rows = reps * (wl.N_ROWS if name != "mc-study" else 0)
    failures = {e: 0 for e in wl.STUDY["estimators"]}
    if name == "mc-study":
        for row in results[0].rows:
            failures[row.estimator] += row.failures
    metrics = {
        "records.read_csv.s": (layer("records.read_csv"), "s/rep"),
        "records.as_array.s": (layer("records.as_array"), "s/rep"),
        "records.validate_design.s": (layer("records.validate_design"), "s/rep"),
        "records.validate_passes": (counts["validated_rows"] / input_rows if input_rows else 0.0, "count"),
        "records.cells_from_arrays.s": (layer("records.cells_from_arrays"), "s/rep"),
        "records.cells_from_arrays.calls": (counts["ingest_calls"] / reps, "count/rep"),
        "records.cells_from_arrays.rows": (counts["ingest_rows"] / reps, "count/rep"),
        "estimation.fit_cell_params.s": (layer("estimation.fit_cell_params"), "s/rep"),
        "estimation.estimate_pace.s": (layer("estimation.estimate_pace"), "s/rep"),
        "identify.s": (layer("identify"), "s/rep"),
        "comparators.tsls_survivors.s": (layer("comparators.tsls_survivors"), "s/rep"),
        "comparators.itt_at_pp.s": (layer("comparators.itt_at_pp"), "s/rep"),
        "imputation.impute_within_cells.s": (layer("imputation.impute_within_cells"), "s/rep"),
        "imputation.pool_estimates.s": (layer("imputation.pool_estimates"), "s/rep"),
        "imputation.datasets": (counts["imputed_datasets"] / reps, "count/rep"),
        "simulate.generate.s": (layer("simulate.generate"), "s/rep"),
        "simulate.true_pace.s": (layer("simulate.true_pace"), "s/rep"),
        "simulate.run_study.self_s": (layer("simulate.run_study"), "s/rep"),
        "simulate.parallel_speedup": (speedup, "x"),
        **{f"simulate.rep_failures.{e}": (float(n), "count/call") for e, n in failures.items()},
        "estimators.fit.self_s": (layer("estimators.fit"), "s/rep"),
        "cli.main.self_s": (layer("cli.main"), "s/rep"),
        "trace.overhead_s": (overhead / per_call, "s/rep"),
    }
    details.update(calls={mode: len(w) for mode, w in walls.items()}, spans=len(tracer.spans),
                   untraced_s_per_rep=serial / per_call, traced_s_per_rep=traced_wall / per_call)
    return {"metrics": metrics, "details": details}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    loop = Loop(Workload(args.workload, args.workdir, args.seed))
    if args.trace:
        out = traced(args.workload, loop, args.seconds, args.spans)
    else:
        out = end_to_end(args.workload, loop, args.seconds)
    out.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
