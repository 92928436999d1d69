"""The command line loads the study harness only to run a study.

Each check runs in a fresh interpreter, as the tests' own imports already
load :mod:`brokenrct.simulate`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"


def run_python(*args):
    """Standard output of a fresh interpreter run with ``args``, importing from SRC."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_cli_import_leaves_simulate_and_the_process_pool_unloaded():
    out = run_python("-c", "import sys, brokenrct.cli; print(sorted(name for name in "
                           "('brokenrct.simulate', 'concurrent.futures') if name in sys.modules))")
    assert out == "[]\n"


def test_simulate_names_resolve_from_the_package():
    # the names first, which imports simulate; then the module, to compare
    out = run_python("-c", "import brokenrct; from brokenrct import DgpConfig, run_study; "
                           "from brokenrct import simulate; "
                           "print(run_study is simulate.run_study, "
                           "DgpConfig is simulate.DgpConfig, "
                           "all(hasattr(brokenrct, name) for name in brokenrct.__all__), "
                           "hasattr(brokenrct, 'no_such_name'))")
    assert out == "True True True False\n"


def test_simulate_command_runs(tmp_path):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"cases": [1], "sizes": [300], "reps": 3, "oracle_n": 20000,
                                  "n_jobs": 1}))
    run_python("-m", "brokenrct.cli", "simulate", "--config", str(config),
               "--out-dir", str(tmp_path / "out"))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "metadata.json", "report.csv", "table.txt"]
