import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenrct.errors import BrokenRctError, InvalidRecordError, NoDonorsError, SchemaError
from brokenrct.estimation import fit_cell_params
from brokenrct.estimators import PaceEstimator, TwoStageLeastSquares
from brokenrct.imputation import impute_within_cells
from brokenrct.records import (
    CELLS,
    COLUMNS,
    CellStatistics,
    ObservationRecord,
    _cells_and_donors,
    _read_csv_lines,
    _read_plain_csv,
    as_array,
    cells_from_arrays,
    ingest,
    read_csv,
    validate_design,
    write_csv,
)
from brokenrct.simulate import DgpConfig, generate

from helpers import (
    case1_params_oracle,
    cells_from_arrays_reference,
    damaged_datasets,
    records_from_array,
    validate_design_reference,
    validate_rows,
)


def rec(z, d, delta_s, s, delta_y, y):
    return ObservationRecord(z=z, d=d, delta_s=delta_s, s=s, delta_y=delta_y, y=y)


def test_one_record_per_cell():
    records = [
        rec(1, 1, 1, 1, 1, 2.0),
        rec(1, 0, 1, 1, 1, 1.0),
        rec(0, 1, 1, 1, 1, 2.0),
        rec(0, 0, 1, 1, 1, 1.0),
    ]
    cells = ingest(records)
    for z in (0, 1):
        for d in (0, 1):
            assert cells.surv_pos[z, d] == 1
            assert cells.surv_obs[z, d] - cells.surv_pos[z, d] == 0
    assert cells.n_records == 4


def test_fully_missing_survival_is_ingestible_but_not_estimable():
    records = [rec(z, d, 0, None, 0, None) for z in (0, 1) for d in (0, 1)]
    cells = ingest(records * 3)
    assert cells.n_records == 12
    assert cells.miss_s[1, 1] == 3
    with np.errstate(invalid="ignore"):
        assert np.isnan(cells.surv_pos[1, 1] / cells.surv_obs[1, 1])
    with pytest.raises(Exception):
        fit_cell_params(cells)


def test_case1_cell_means_match_stratum_enumeration():
    arr, _ = generate(DgpConfig(n=10_000, case=1), seed=11)
    cells = ingest(arr)
    oracle = case1_params_oracle()
    n11 = cells.surv_obs[1, 1]
    se = np.sqrt(oracle.survival[1, 1] * (1 - oracle.survival[1, 1]) / n11)
    assert abs(cells.surv_pos[1, 1] / n11 - oracle.survival[1, 1]) < 3 * se


def test_ingest_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(5)
    arr, _ = generate(DgpConfig(n=500, case=2), seed=3)
    # punch some missingness in so every code path is exercised
    arr[rng.choice(500, 40, replace=False), 4] = 0
    arr[arr[:, 4] == 0, 5] = np.nan
    base = ingest(arr)
    for _ in range(3):
        shuffled = arr[rng.permutation(500)]
        other = ingest(shuffled)
        assert np.array_equal(base.count, other.count)
        assert np.array_equal(base.surv_pos, other.surv_pos)
        assert np.array_equal(base.y_count, other.y_count)
        assert np.array_equal(base.y_mean, other.y_mean)
        assert np.array_equal(base.y_m2, other.y_m2)


def test_invalid_records_are_rejected_with_index_and_rule():
    good = rec(1, 1, 1, 1, 1, 2.0)
    bad = rec(1, 1, 0, None, 1, None)  # delta_y must be 0 when delta_s = 0
    with pytest.raises(InvalidRecordError) as excinfo:
        ingest([good, bad])
    assert excinfo.value.index == 1
    assert "delta_y" in excinfo.value.rule

    with pytest.raises(InvalidRecordError):
        ingest([rec(1, 1, 1, 0, 1, 3.0)])  # y present though s = 0
    with pytest.raises(InvalidRecordError):
        ingest([rec(2, 1, 1, 1, 1, 3.0)])  # nonbinary z


FIELD_VALUES = (0.0, 1.0, 2.0, -1.0, 0.5, math.nan, math.inf, -math.inf)


@st.composite
def corrupted_arrays(draw, corrupt=True):
    """(n, 6) arrays of 1-40 rows: valid records, a few fields then corrupted.

    Rows start as valid records of every kind.  Unless ``corrupt`` is false,
    one row may be replaced by six fields from FIELD_VALUES or the finite
    floats, and up to four single fields are flipped (v -> 1 - v) or
    overwritten from FIELD_VALUES, so every rule, ties between rules within
    a row and later invalid rows all come up.
    """
    field = st.one_of(st.sampled_from(FIELD_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    n = draw(st.integers(1, 40))
    rows = []
    for _ in range(n):
        z, d = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        kind = draw(st.sampled_from(("observed", "missing_y", "dead", "missing_s")))
        rows.append({"observed": [z, d, 1, 1, 1, draw(field.filter(math.isfinite))],
                     "missing_y": [z, d, 1, 1, 0, math.nan],
                     "dead": [z, d, 1, 0, draw(st.integers(0, 1)), math.nan],
                     "missing_s": [z, d, 0, math.nan, 0, math.nan]}[kind])
    arr = np.asarray(rows, dtype=float)
    row = st.integers(0, n - 1)
    if corrupt and draw(st.booleans()):
        arr[draw(row)] = [draw(field) for _ in range(6)]
    for _ in range(draw(st.integers(0, 4)) if corrupt else 0):
        i, j = draw(row), draw(st.integers(0, 5))
        arr[i, j] = draw(st.one_of(st.just(1.0 - arr[i, j]), st.sampled_from(FIELD_VALUES)))
    return arr


def first_invalid(check, data):
    try:
        check(data)
    except InvalidRecordError as exc:
        return exc.index, exc.rule
    return None


@settings(max_examples=400, deadline=None)
@given(arr=corrupted_arrays())
def test_column_check_matches_row_reference(arr):
    expected = first_invalid(validate_rows, arr)
    fortran = np.asfortranarray(arr)
    assert first_invalid(as_array, arr) == expected
    assert first_invalid(as_array, fortran) == expected
    assert first_invalid(as_array, records_from_array(arr)) == expected
    if expected is None:
        # a row-major array is copied once into the column-major layout; a
        # single row is both row- and column-major, so it alone is not copied
        out = as_array(arr)
        assert out.flags.f_contiguous and (out is arr) == (len(arr) == 1)
        assert out.tobytes() == arr.tobytes()
        assert as_array(fortran) is fortran


# The record layout: column-major float64 whatever the input's layout, with
# the same results on a row-major and a column-major copy.

def layouts(arr):
    return np.ascontiguousarray(arr), np.asfortranarray(arr)


class FrameLike:
    """The two things as_array reads of a dataframe: ``columns`` and ``frame[name]``."""

    def __init__(self, arr):
        self.columns = list(COLUMNS)
        self._arr = arr

    def __getitem__(self, name):
        return self._arr[:, COLUMNS.index(name)].tolist()


def test_as_array_builds_the_layout_from_each_input_kind():
    arr, _ = generate(DgpConfig(n=50, case=2), seed=4)
    # a dataframe, lists of rows and of records, a strided view
    for records in (FrameLike(arr), arr.tolist(), records_from_array(arr),
                    np.hstack([arr, arr])[:, :6]):
        out = as_array(records)
        assert out.flags.f_contiguous and out.dtype == np.float64
        assert out.tobytes() == arr.tobytes()


@settings(max_examples=100, deadline=None)
@given(arr=corrupted_arrays(corrupt=False))
def test_both_csv_parsers_and_the_hot_deck_return_the_layout(tmp_path_factory, arr):
    path = tmp_path_factory.getbasetemp() / "layout.csv"
    write_csv(path, arr)
    for parse in (read_csv, _read_plain_csv, _read_csv_lines):
        out = parse(path)
        assert out.flags.f_contiguous and out.tobytes() == arr.tobytes()
    for copy in layouts(arr):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the moments of huge outcomes overflow
            try:
                completed = impute_within_cells(copy, 2, 0)
            except NoDonorsError:
                continue
        assert all(done.flags.f_contiguous for done in completed)


def fit_outcome(fit, arr):
    """The error a fit raises, or its cell statistics' bytes and its result's repr."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            fitted = fit(arr)
        except BrokenRctError as exc:
            return type(exc).__name__, str(exc)
    cells = fitted if isinstance(fitted, CellStatistics) else fitted.cells_
    return [getattr(cells, f.name).tobytes() for f in fields(cells)], repr(
        getattr(fitted, "result_", None))


@settings(max_examples=150, deadline=None)
@given(arr=corrupted_arrays(corrupt=False))
def test_row_and_column_major_copies_fit_alike(arr):
    row_major, column_major = layouts(arr)
    for fit in (ingest, PaceEstimator(impute=3).fit, TwoStageLeastSquares().fit):
        assert fit_outcome(fit, row_major) == fit_outcome(fit, column_major)


def test_csv_invalid_record_before_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z,d,delta_s,s,delta_y,y\n1,1,1,1,1,2.0\n\n1,1,0,,1,\n1,1,1,1,1,oops\n")
    with pytest.raises(SchemaError) as excinfo:
        read_csv(path)
    assert excinfo.value.line == 4
    assert "delta_y must be 0 when delta_s = 0" in str(excinfo.value)

    path.write_text("z,d,delta_s,s,delta_y,y\n1,1,1,1,1,2.0\n\n1,1,1,1,1,oops\n1,1,0,,1,\n")
    with pytest.raises(SchemaError) as excinfo:
        read_csv(path)
    assert excinfo.value.line == 4
    assert "not a number" in str(excinfo.value)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        ingest([])


def test_complete_case_means_respect_flags():
    records = [
        rec(1, 1, 1, 1, 1, 4.0),
        rec(1, 1, 1, 1, 0, None),   # survivor, outcome missing: survival only
        rec(1, 1, 0, None, 0, None),  # survival missing: neither
        rec(1, 1, 1, 0, 1, None),   # non-survivor: no outcome by definition
    ]
    cells = ingest(records)
    assert cells.surv_pos[1, 1] / cells.surv_obs[1, 1] == pytest.approx(2 / 3)
    assert cells.y_count[1, 1] == 1
    assert cells.y_mean[1, 1] == 4.0
    assert cells.miss_s[1, 1] == 1


def test_validate_design_single_arm():
    records = [rec(1, d, 1, 1, 1, 1.0) for d in (0, 1)] * 3
    report = validate_design(records)
    assert not report.ok
    assert any("single assignment arm" in f for f in report.failures)


def test_validate_design_first_stage_no_warning():
    # 88.8% vs 60.6% uptake: difference 0.282, comfortably strong
    rows = []
    for z, rate, n in ((1, 0.888, 1000), (0, 0.606, 1000)):
        k = int(round(rate * n))
        rows += [(z, 1, 1, 1, 1, 1.0)] * k + [(z, 0, 1, 1, 1, 1.0)] * (n - k)
    report = validate_design(np.asarray(rows, dtype=float))
    assert report.ok
    assert report.first_stage == pytest.approx(0.282, abs=1e-12)
    assert not report.weak_instrument


def test_validate_design_weak_instrument():
    rows = []
    for z in (0, 1):
        rows += [(z, 1, 1, 1, 1, 1.0)] * 50 + [(z, 0, 1, 1, 1, 1.0)] * 50
    report = validate_design(np.asarray(rows, dtype=float))
    assert report.ok
    assert report.weak_instrument
    assert any("weak instrument" in w for w in report.warnings)


@settings(max_examples=300, deadline=None)
@given(arr=damaged_datasets(min_rows=1, max_rows=40),
       weak_threshold=st.sampled_from((0.02, 0.3, 1.0)))
def test_validate_design_matches_row_reference(arr, weak_threshold):
    report = validate_design(arr, weak_threshold)
    want = validate_design_reference(arr, weak_threshold)
    got = {name: getattr(report, name) for name in want}
    assert got == want
    # the report holds plain Python numbers, as a JSON writer needs
    assert type(report.n_records) is int
    assert report.first_stage is None or type(report.first_stage) is float
    assert {type(v) for counts in report.cell_counts.values() for v in counts.values()} == {int}


def test_csv_round_trip(tmp_path):
    arr, _ = generate(DgpConfig(n=200, case=1), seed=2)
    arr[::7, 4] = 0
    arr[arr[:, 4] == 0, 5] = np.nan
    path = tmp_path / "data.csv"
    write_csv(path, arr)
    back = read_csv(path)
    # LF line ends: the file takes the bulk path
    assert _read_plain_csv(path).tobytes() == back.tobytes()
    assert back.shape == arr.shape
    assert np.array_equal(np.isnan(back), np.isnan(arr))
    assert np.array_equal(back[~np.isnan(back)], arr[~np.isnan(arr)])


def test_csv_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z,d,delta_s\n1,1,1\n")
    with pytest.raises(SchemaError):
        read_csv(path)

    path.write_text("z,d,delta_s,s,delta_y,y\n1,1,1,1,1,oops\n")
    with pytest.raises(SchemaError) as excinfo:
        read_csv(path)
    assert excinfo.value.line == 2

    path.write_text("")
    with pytest.raises(SchemaError):
        read_csv(path)


HEADER = "z,d,delta_s,s,delta_y,y"


def plain_lines(arr):
    """Data lines as the plain layout writes them: integers, repr floats, blank = nan."""
    def text(value, column):
        if math.isnan(value):
            return ""
        if column == 5 or not float(value).is_integer():
            return repr(float(value))
        return str(int(value))

    return [[text(v, j) for j, v in enumerate(row)] for row in arr.tolist()]


VALUE_EDITS = (
    lambda f: f" {f} ", lambda f: f"\t{f}", lambda f: " ", lambda f: "", lambda f: "nan",
    lambda f: "NaN", lambda f: "oops", lambda f: "1_0", lambda f: "\u0661", lambda f: "\x1c1",
    lambda f: "inf", lambda f: "-Infinity", lambda f: "1e5", lambda f: "+1", lambda f: ".5",
    lambda f: "0x10", lambda f: f[:1] + "#" + f[1:], lambda f: f + ".0", lambda f: "2",
    lambda f: "01", lambda f: "1e0", lambda f: "1.00",
)
LAYOUT_EDITS = (lambda f: f'"{f}"', lambda f: f'"{f}', lambda f: f + ",",
                lambda f: f + "\r", lambda f: "\r" + f)
HEADERS = ("\ufeff" + HEADER,) * 2 + (" z, d,delta_s,s,delta_y,y ", "z,d,delta_s,s,delta_y",
                                     '"z",d,delta_s,s,delta_y,y')
LINE_ENDS = ("\n", "\r\n", "\r")
FAULTS = ("none",) * 3 + ("field", "line", "shift", "header", "ends", "odd end",
                         "no final newline")


@st.composite
def csv_texts(draw):
    """Dataset files in the plain layout, most with one layout fault.

    The data lines render a :func:`corrupted_arrays` draw, uncorrupted half
    the time, or rarely no rows.  Up to three fields are edited: padded,
    blank, literal nan or infinity, non-numeric, unusual numerals or cut by
    a ``#``.  The fault is one of: a quote, comma or CR in a field; an
    added blank, whitespace-only, 5-field or 7-field line; a 5-field line
    followed by a 7-field one; another header; CRLF or lone-CR line ends;
    one odd line end; no final newline.  Half the files end their lines in
    CRLF rather than LF, so every fault is also drawn in a CRLF file.
    """
    fault = draw(st.sampled_from(FAULTS))
    arr = draw(corrupted_arrays(corrupt=draw(st.booleans())))
    rows = plain_lines(arr) if draw(st.integers(0, 9)) else []
    for edits in [VALUE_EDITS] * draw(st.sampled_from((0, 0, 1, 3))) + [
            LAYOUT_EDITS] * (fault == "field"):
        if rows:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 5))
            rows[i][j] = draw(st.sampled_from(edits))(rows[i][j])
    i = draw(st.integers(0, len(rows) - 1)) if rows else None
    if fault == "line" and rows:
        rows.insert(i, draw(st.sampled_from(([""], ["  "], rows[i][:-1], rows[i] + ["1"]))))
    elif fault == "shift" and rows and i + 1 < len(rows):
        # the last field moves to the next line: a flat field count still fits
        rows[i], rows[i + 1] = rows[i][:-1], rows[i][-1:] + rows[i + 1]
    header = draw(st.sampled_from(HEADERS)) if fault == "header" else HEADER
    lines = [header] + [",".join(row) for row in rows]
    end = draw(st.sampled_from(LINE_ENDS[:2]))
    ends = [draw(st.sampled_from(LINE_ENDS[1:])) if fault == "ends" else end] * len(lines)
    if fault == "odd end":
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(LINE_ENDS + ("",)))
    elif fault == "no final newline":
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def parse_outcome(parse, path):
    try:
        arr = parse(path)
    except SchemaError as exc:
        return "SchemaError", exc.line, str(exc)
    return arr.shape, arr.tobytes()


@settings(max_examples=600, deadline=None)
@given(text=csv_texts())
def test_read_csv_matches_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_bytes(text.encode("utf-8"))
    assert parse_outcome(read_csv, path) == parse_outcome(_read_csv_lines, path)


PLAIN = HEADER + "\n1,1,1,1,1,2.5\n0,1,1,0,0,\n1,0,0,,0,\n0,0,1,1,0,\n"


@pytest.mark.parametrize("text", [
    PLAIN.replace("z,d", " z, d", 1),                    # padded header, accepted
    PLAIN.replace("\n", "\r\n").replace("\r\n", "\n", 1),   # CRLF but for one line
    PLAIN.replace("\n", "\r"),
    PLAIN.replace("1,1,1,1,1", "1,1\r,1,1,1", 1),         # CR inside a line
    PLAIN.replace(",2.5\n0", "\n2.5,0", 1),              # 5 fields, then 7
    PLAIN.replace("\n0,1", "\n\n0,1", 1),                 # blank line
    PLAIN.replace("\n0,1", "\n  \n0,1", 1),               # whitespace-only line
    PLAIN.replace("\n0,1", "\n,,,,,\n0,1", 1),            # all fields blank
    PLAIN.replace("0,1,1,0,0", "nan,1,1,0,0", 1),
    PLAIN.replace("0,1,1,0,0", ",1,1,0,0", 1),
    PLAIN.replace("1,0,0,,0", "1,0,0,,,", 1),            # blank delta_y
    PLAIN.replace("0,1,1,0,0,", "0,1,1, ,0,", 1),         # whitespace-only s
    PLAIN.replace("0,1,1,0,0,", '"0",1,1,0,0,', 1),
    PLAIN.replace("2.5", "oops", 1),
    PLAIN.replace("0,0,1,1,0,", "1,1,0,,1,", 1) + "1,1,1,1,1,oops\n",  # record, then parse error
    PLAIN[:-1],                                           # no final newline
    HEADER + "\n",
    "",
    PLAIN.replace("\n", ",0\n").replace(",0\n", "\n", 1),   # every data line has 7 fields
    # a blank line next to an 11-field line keeps the file's comma count
    PLAIN.replace("\n0,1,1,0,0,\n", "\n\n0,1,1,0,0,,1,1,1,1,1\n", 1),
    HEADER + "\n\n1,1,1,1,1,2.5,0,1,1,0,0\n",              # ... as the only data line
    PLAIN.replace("\n0,1", "\n  \n0,1", 1).replace(",2.5\n", ",2.5,1,1,1,1,1\n", 1),
    PLAIN.replace("2.5", "2#5", 1),                        # a # inside a y field
    PLAIN.replace("2.5", "2.5#", 1),
    PLAIN.replace("2.5", "\u0661", 1),                     # non-ASCII digits, which float() reads
    PLAIN.replace("1,1,1,1,1", "\u0661,1,1,1,1", 1),
    PLAIN.replace("2.5", "0x10", 1),
    # a parse error, then an undecodable byte past the first block read
    (PLAIN + "1,1,1,1,1,oops\n" + "0,0,1,1,0,\n" * 1000).encode() + b"\xff\n",
])
def test_listed_layouts_are_parsed_line_by_line(tmp_path, text):
    path = tmp_path / "layout.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert _read_plain_csv(path) is None
    assert parse_outcome(read_csv, path) == parse_outcome(_read_csv_lines, path)


@pytest.mark.parametrize("text", [
    PLAIN,
    HEADER + "\n1,1,1,1,1,2.5\n",                          # one data line
    HEADER + "\n1,0,0,,0,\n",
    PLAIN.replace("2.5", "inf", 1),                        # read, then an invalid record
    PLAIN.replace("2.5", "-Infinity", 1),
    PLAIN.replace("2.5", "1e5", 1),
    PLAIN.replace("2.5", "+1", 1),
    PLAIN.replace("2.5", ".5", 1),
    PLAIN.replace("2.5", " 2.5\t", 1),
    PLAIN.replace("2.5", "\x1c2.5", 1),
    PLAIN.replace("2.5", "1_0", 1),
    PLAIN.replace("0,1,1,0,0,", "0,1,1,0.0,0,nan", 1),
    PLAIN.replace("\n", "\r\n"),                          # CRLF on every line
    PLAIN.replace("2.5", "inf", 1).replace("\n", "\r\n"),
])
def test_listed_layouts_are_parsed_in_bulk(tmp_path, text):
    path = tmp_path / "layout.csv"
    path.write_bytes(text.encode("utf-8"))
    arr = _read_plain_csv(path)
    assert arr is not None and arr.shape == (text.count("\n") - 1, 6)
    assert parse_outcome(read_csv, path) == parse_outcome(_read_csv_lines, path)


def test_bom_file_is_parsed_in_bulk(tmp_path):
    # a spreadsheet "CSV UTF-8" export starts with a byte order mark
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(PLAIN.encode())
    bom.write_bytes(("\ufeff" + PLAIN).encode())
    assert _read_plain_csv(bom).tobytes() == _read_plain_csv(plain).tobytes()
    outcome = parse_outcome(read_csv, bom)
    assert outcome == parse_outcome(_read_csv_lines, bom) == parse_outcome(read_csv, plain)
    assert outcome[0] == (4, 6)


def test_non_utf8_file_is_a_schema_error(tmp_path):
    path = tmp_path / "latin1.csv"
    # more lines than one decoding chunk, so some rows parse before the bad byte
    body = (HEADER + "\n" + "1,1,1,1,1,2.0\n" * 2000).encode()
    path.write_bytes(body + b"0,0,1,1,1,caf\xe9\n")
    with pytest.raises(SchemaError) as raised:
        read_csv(path)
    assert raised.value.line == 2002
    assert str(raised.value).startswith(f"line 2002: {path}: not UTF-8 text")
    # an invalid record parsed before the undecodable byte is reported first
    path.write_bytes(body.replace(b"2.0", b"", 1) + b"\xe9\n")
    with pytest.raises(SchemaError) as raised:
        read_csv(path)
    assert (raised.value.line, str(raised.value)) == (
        2, f"line 2: {path}: y must be a finite number when delta_y = 1 and s = 1")


@pytest.mark.parametrize("line2, line, error", [
    ("1,1,1,1,1,", 2, "y must be a finite number when delta_y = 1 and s = 1"),
    ("1,1,1,1,1,2.0", 3, "not UTF-8 text: invalid continuation byte"),
])
def test_undecodable_line_is_reported_after_earlier_lines(tmp_path, line2, line, error):
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{HEADER}\n{line2}\n".encode() + b"0,0,1,1,1,caf\xe9\n")
    for parse in (read_csv, _read_csv_lines):
        assert parse_outcome(parse, path) == ("SchemaError", line, f"line {line}: {path}: {error}")


def test_undecodable_header_is_reported_at_line_1(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"z,d,delta_s,s,delta_y,\xe9\n" + PLAIN.encode()[len(HEADER) + 1:])
    assert parse_outcome(read_csv, path) == (
        "SchemaError", 1, f"line 1: {path}: not UTF-8 text: invalid continuation byte")


def test_pandas_style_file_is_parsed_in_bulk(tmp_path):
    # pandas writes a float column that holds integers and blanks as 1.0
    arr, _ = generate(DgpConfig(n=10_000, case=2), seed=8)
    arr[::7, 2:6] = (0.0, np.nan, 0.0, np.nan)
    arr[1::5, 4:6] = (0.0, np.nan)
    rows = [[f if j == 5 or not f else f + ".0" for j, f in enumerate(row)]
            for row in plain_lines(arr)]
    path = tmp_path / "pandas.csv"
    path.write_text("\n".join([HEADER] + [",".join(row) for row in rows]) + "\n")
    bulk = _read_plain_csv(path)
    assert bulk is not None
    assert bulk.tobytes() == _read_csv_lines(path).tobytes() == arr.tobytes()


def test_lf_and_crlf_files_parse_alike(tmp_path, monkeypatch):
    arr, _ = generate(DgpConfig(n=300, case=2), seed=6)
    arr[::5, 4:6] = (0.0, np.nan)
    text = "\n".join([HEADER] + [",".join(row) for row in plain_lines(arr)]) + "\n"
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    calls = []

    def counted(path):
        calls.append(path)
        return _read_csv_lines(path)

    monkeypatch.setattr("brokenrct.records._read_csv_lines", counted)
    from_lf, from_crlf = read_csv(lf), read_csv(crlf)
    # both are parsed in bulk; the line parser is the reference
    assert calls == []
    assert from_lf.tobytes() == from_crlf.tobytes() == arr.tobytes()
    assert _read_csv_lines(crlf).tobytes() == arr.tobytes()


def test_as_array_accepts_dataframe():
    pd = pytest.importorskip("pandas")
    arr, _ = generate(DgpConfig(n=50, case=1), seed=4)
    frame = pd.DataFrame(arr, columns=["z", "d", "delta_s", "s", "delta_y", "y"])
    out = as_array(frame)
    assert np.array_equal(np.isnan(out), np.isnan(arr))


def test_cells_from_arrays_matches_ingest():
    arr, _ = generate(DgpConfig(n=300, case=2), seed=8)
    a = ingest(arr)
    b = cells_from_arrays(*(arr[:, i] for i in range(6)))
    assert np.array_equal(a.count, b.count)
    assert np.array_equal(a.y_mean, b.y_mean)


def cell_fields(ingest_columns, arr):
    """Every field's name, dtype, shape and bytes."""
    cells = ingest_columns(*arr.T)
    return [(f.name, getattr(cells, f.name).dtype, getattr(cells, f.name).shape,
             getattr(cells, f.name).tobytes()) for f in fields(cells)]


@settings(max_examples=400, deadline=None)
@given(arr=damaged_datasets(min_rows=1, max_rows=40))
def test_cells_from_arrays_matches_reference(arr):
    assert cell_fields(cells_from_arrays, arr) == cell_fields(cells_from_arrays_reference, arr)
    z, d, delta_s, s, delta_y, y = arr.T
    survived = (delta_s == 1) & (s == 1)
    # the kinds of the reduction: 0 observed y, 1 a survivor lacking y, 2 a death, 3 missing s
    masks = [survived & (delta_y == 1), survived & (delta_y == 0),
             (delta_s == 1) & (s == 0), delta_s == 0]
    cells = [(z == zz) & (d == dd) for zz, dd in CELLS]
    stats, donors, rows_of = _cells_and_donors(*arr.T)
    assert stats.miss_s.tolist() == np.reshape(
        [np.count_nonzero(masks[3] & cell) for cell in cells], (2, 2)).tolist()
    assert [(pool.dtype, pool.tobytes()) for pool in donors] == [
        (ys.dtype, ys.tobytes()) for ys in (np.sort(y[masks[0] & cell]) for cell in cells)]
    assert [[at.tolist() for at in rows_of(kind)] for kind in range(4)] == [
        [np.flatnonzero(mask & cell).tolist() for cell in cells] for mask in masks]
