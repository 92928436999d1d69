"""Benchmark of the brokenrct package: one command, one workload per run.

    python3 bench/run.py --workload analyze-csv --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (it imports the package from
``src``).  Set-up is untimed except for ``setup_s``: it draws the seeded
inputs, writes the CSV, computes reference results and, with ``--trace 0``,
times fresh interpreters importing the CLI.  The measured calls then run in
a fresh worker process, so that ``peak_rss_mb`` is the workload's own.  The
last line of standard output is the result object; the line before it holds
the inputs, provenance and sample counts.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported here and inherited by every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
SETUP_PROBE = ("import time; t = time.perf_counter(); import brokenrct.cli as c; "
               "c.build_parser(); print(time.perf_counter() - t)")
#: kept below the 180 s a run may take
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import the CLI and build its parser."""
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first probe also writes the bytecode cache
            times.append(float(out.stdout))
    return statistics.median(times)


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "brokenrct").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": git_sha(),
            "source_sha256": digest.hexdigest(),
            "threads_pinned": {v: os.environ[v] for v in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def git_sha():
    """HEAD of a git checkout in the current directory, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "brokenrct" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'brokenrct'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        started = time.perf_counter()
        details = {"workload": args.workload, "seed": args.seed,
                   "provenance": provenance(), "loop": "closed, one client"}
        if args.workload == "mc-study":
            details["inputs"] = {**wl.STUDY, "seed": args.seed, "n_jobs": wl.STUDY_JOBS,
                                 "oracle_n": wl.STUDY_ORACLE_N}
            arr = None
        else:
            arr, details["inputs"] = wl.make_dataset(args.seed)
            if args.workload == "analyze-csv":
                wl.write_csv(workdir / "dataset.csv", arr)
            else:
                np.save(workdir / "dataset.npy", arr)
        (workdir / "reference.json").write_text(
            json.dumps(wl.reference_values(args.workload, arr, args.seed)))
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = (setup_seconds(), "s")
        details["benchmark_setup_s"] = time.perf_counter() - started

        spans = WORK / f"spans-{args.workload}.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
               "--workdir", str(workdir), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(spans)]
        # its own session, so that a timeout also stops the study's pool workers
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        out = json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics.update(out["metrics"])
    details.update(out["details"])
    details["fail_ratio"] = out["failed"] / out["attempted"]
    details["errors"] = out["errors"]
    if args.trace:
        details["spans_file"] = str(spans.relative_to(ROOT))
    correct = out["failed"] == 0 and bool(out["metrics"])
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
