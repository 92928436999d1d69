"""The error surface of ``brokenrct analyze``: any file gives an exit code.

Byte mutations of a small valid dataset file must make ``analyze`` return
0, 2, 3 or 4, never raise, and an exit-0 report must hold finite
estimates.
"""

import codecs
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from brokenrct.cli import main
from brokenrct.comparators import METHODS
from brokenrct.records import write_csv
from brokenrct.simulate import DgpConfig, generate

from helpers import delete_outcomes_mcar, delete_survival_mcar


def _base_file() -> bytes:
    """A 40-row case-2 dataset with about 10% of s and 20% of y missing, as bytes."""
    arr = generate(DgpConfig(n=40, case=2), seed=5)[0]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "base.csv"
        write_csv(path, delete_survival_mcar(delete_outcomes_mcar(arr, 0.2, seed=1), 0.1, seed=2))
        return path.read_bytes()


BASE = _base_file()

#: what a mutation inserts or writes over: quotes, line ends, NUL, a byte that
#: is not UTF-8, a byte order mark, an infinite and a nan number, and a quoted
#: field over csv.field_size_limit()
TOKENS = (b'"', b"\r", b"\n", b"\x00", b"\xe9", codecs.BOM_UTF8, b"1e400", b"nan",
          b'"' + b"1" * 200_000 + b'"')

#: a quoted field over the csv module's limit, which once escaped as a traceback
OVERSIZED = b'z,d,delta_s,s,delta_y,y\n1,1,1,1,1,"' + b"1" * 200_000 + b'"\n'
#: a case-2 file whose outcome 1.4e154 overflows its cell's M2
OVERFLOW = (Path(__file__).parent / "data" / "overflow.csv").read_bytes()


@st.composite
def mutated_files(draw):
    """BASE with one to four insertions, overwrites or deletions, then maybe truncated."""
    data = bytearray(BASE)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        token = draw(st.sampled_from(TOKENS))
        change = draw(st.sampled_from(("insert", "overwrite", "delete")))
        if change == "insert":
            data[at:at] = token
        elif change == "overwrite":
            data[at:at + len(token)] = token
        else:
            del data[at:at + draw(st.integers(1, 8))]
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


def analyze(path, extra):
    """``main``'s exit code and standard output for ``analyze`` on ``path``."""
    argv = ["analyze", "--input", str(path), "--format", "json", *extra]
    for method in METHODS:
        argv += ["--method", method]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=mutated_files(), impute=st.booleans())
@example(data=OVERSIZED, impute=False)
@example(data=OVERFLOW, impute=False)
@example(data=OVERFLOW, impute=True)
def test_analyze_exits_with_a_code_on_any_file(tmp_path_factory, data, impute):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(data)
    code, out = analyze(path, ["--impute", "3"] if impute else [])
    assert code in (0, 2, 3, 4)
    if code == 0:
        report = json.loads(out)
        assert all(math.isfinite(value) for estimate in report["estimates"].values()
                   for value in estimate.values()), report["estimates"]
