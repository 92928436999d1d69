"""Observation records and cell statistics.

A study record carries the assignment Z, the received treatment D, the
survival indicator S (observed when ``delta_s = 1``) and the outcome Y
(observed when ``delta_y = 1`` and the subject survived).  The outcome is
undefined, not merely unobserved, for non-survivors.  Everything downstream
consumes :class:`CellStatistics`, the sufficient statistics of the data:
counts and complete-case means/variances per (z, d) cell.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidRecordError, SchemaError

COLUMNS = ("z", "d", "delta_s", "s", "delta_y", "y")

#: The (z, d) cells in ingestion order: a record counts towards cell 2 z + d.
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Default threshold on |P(D=1|Z=1) - P(D=1|Z=0)| below which the assignment
#: is flagged as a weak instrument.
WEAK_INSTRUMENT_THRESHOLD = 0.02


@dataclass(frozen=True)
class ObservationRecord:
    """One subject's observed tuple; None = missing; validated on ingestion."""

    z: int
    d: int
    delta_s: int
    s: int | None
    delta_y: int
    y: float | None


@dataclass
class CellStatistics:
    """Counts and complete-case moments per (z, d) cell.

    Arrays are indexed ``[z, d]``.  Outcome moments cover survivors with an
    observed outcome only; survival proportions cover records with an
    observed survival status only (the missing-at-random contract).  A
    :meth:`stack` of R datasets has (R, 2, 2) arrays.
    """

    count: np.ndarray          # all records per (z, d)
    surv_obs: np.ndarray       # records with delta_s = 1
    surv_pos: np.ndarray       # records with delta_s = 1 and s = 1
    y_count: np.ndarray        # survivors with delta_y = 1
    y_mean: np.ndarray         # complete-case outcome mean (0.0 if no data)
    y_m2: np.ndarray           # sum of squared deviations around y_mean

    @property
    def miss_s(self) -> np.ndarray:
        """Records with delta_s = 0."""
        return self.count - self.surv_obs

    @property
    def n_records(self) -> int:
        return int(self.count.sum())

    @classmethod
    def stack(cls, items) -> "CellStatistics":
        """The cell statistics of several datasets as one stack, row r from ``items[r]``."""
        return cls(*(np.stack([getattr(c, f.name) for c in items]) for f in fields(cls)))


def pool_moments(ka, mean_a, m2a, kb, mean_b, m2b):
    """Count, mean and M2 of two disjoint batches, elementwise.

    The pairwise update of Chan, Golub & LeVeque (1979); an empty batch
    (count 0, mean 0) leaves the other batch's moments exact.  Moments too
    large for float64 overflow to inf without a warning; the comparators
    reject them.
    """
    k = ka + kb
    delta = mean_b - mean_a
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mean = np.where(k > 0, mean_a + delta * np.divide(kb, np.maximum(k, 1)), 0.0)
        m2 = m2a + m2b + delta**2 * np.divide(ka * kb, np.maximum(k, 1))
    return k, mean, m2


#: the floating-point state in which outside outcomes are reduced to moments:
#: an overflowing M2 is reported by the estimators, not by numpy's warnings
_OVERFLOW_SILENT = dict(over="ignore", invalid="ignore")


def outcome_moments(cell_ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count, mean and M2 arrays, indexed ``[z, d]``, of each cell's outcomes.

    ``cell_ys`` holds the outcomes of each cell of :data:`CELLS`, in sorted
    order.  Every cell's moments are computed here, so two routes to the
    same sorted outcomes give bit-identical statistics.  An empty cell gives
    (0, 0.0, 0.0).  Outcomes too large for float64 moments give an infinite
    or nan mean or M2, which the estimators reject; the callers that ingest
    outside data silence numpy's warnings of it (:data:`_OVERFLOW_SILENT`).
    """
    k = np.zeros(len(CELLS), dtype=np.int64)
    mean = np.zeros(len(CELLS))
    m2 = np.zeros(len(CELLS))
    for i, ys in enumerate(cell_ys):
        if ys.size:
            k[i] = ys.size
            # ys.mean() and .sum() without their Python wrappers, bit for bit
            mean[i] = np.add.reduce(ys) / ys.size
            m2[i] = np.add.reduce((ys - mean[i]) ** 2)
    return k.reshape(2, 2), mean.reshape(2, 2), m2.reshape(2, 2)


def ingest(records) -> CellStatistics:
    """Reduce records to cell statistics; a :class:`CellStatistics` passes through.

    Validates every record, rejects empty input, and is exactly
    permutation-invariant: outcomes are accumulated in sorted order within
    each cell, so any ordering of the input produces bit-identical moments.
    """
    if isinstance(records, CellStatistics):
        return records
    return cells_from_arrays(*as_array(records).T)


def cells_from_arrays(z, d, delta_s, s, delta_y, y) -> CellStatistics:
    """Vectorised ingestion from parallel column arrays (nan = missing).

    The columns are taken as valid (see :func:`as_array`); empty input is
    rejected.  Each record counts towards cell ``2 z + d`` of :data:`CELLS`,
    and the outcome moments are those of each cell's observed survivors'
    outcomes, in sorted order (:func:`_reduce_rows`).
    """
    return _cells_and_donors(z, d, delta_s, s, delta_y, y)[0]


def _cells_and_donors(z, d, delta_s, s, delta_y, y) -> tuple[CellStatistics, list, Callable]:
    """:func:`cells_from_arrays`, the hot-deck donors and ``rows_of``, from
    one :func:`_reduce_rows` of the columns."""
    z, d, delta_s, s, delta_y, y = (np.asarray(col, dtype=float)
                                    for col in (z, d, delta_s, s, delta_y, y))
    if z.size == 0:
        raise ValueError("no records to ingest")
    survived = s == 1
    # valid columns: s = 1 only where observed, and a missing s is nan
    kind = np.int8(2) * ~survived + (delta_s == 0) + (survived & (delta_y == 0))
    with np.errstate(**_OVERFLOW_SILENT):
        return _reduce_rows(z == 1, d == 1, kind, y)


def _reduce_rows(z, d, kind, y) -> tuple[CellStatistics, list, Callable]:
    """The one row-to-cell grouping: cell statistics, each cell's sorted
    donors and ``rows_of``, from rows of boolean z and d, int8 kind and
    outcome y (read where kind is 0): 0 a survivor with an observed outcome,
    1 one without, 2 an observed death, 3 a missing survival status.  The
    int8 key ``2 z + d + 4 kind`` gives every count by one ``bincount``; one
    stable (radix) sort of it lists the rows key by key, in row order within
    a key.  The kind-0 rows come first, cell by cell; sorted per cell, their
    outcomes are the donors.  ``rows_of(kind)`` slices each cell's rows of a
    kind out of the sort; only the hot deck calls it.
    """
    key = np.int8(4) * kind + np.int8(2) * z + d
    counts = np.bincount(key, minlength=16)
    ends = np.cumsum(counts).tolist()
    starts = [0] + ends
    order = np.argsort(key, kind="stable")
    by_cell = y[order[:ends[3]]]
    donors = [np.sort(by_cell[starts[c]:ends[c]]) for c in range(4)]
    observed, lacking_y, dead, missing_s = counts.reshape(4, 2, 2)
    count = observed + lacking_y + dead + missing_s

    def rows_of(k):
        return [order[starts[4 * k + c]:ends[4 * k + c]] for c in range(4)]
    return CellStatistics(count, count - missing_s, observed + lacking_y,
                          *outcome_moments(donors)), donors, rows_of


def as_array(records) -> np.ndarray:
    """Coerce records to a validated (n, 6) column-major float64 array, nan for missing.

    Accepts a 2-D array-like in column order ``z, d, delta_s, s, delta_y, y``,
    a dataframe-like with those columns, or a sequence of
    :class:`ObservationRecord`.  Column-major (Fortran-order) float64 is the
    package's one record layout: every column is contiguous, so the record
    check and the cell reduction read memory in order.  Such an ndarray is
    returned as is, not copied; nothing in the package writes to it.  Any
    other input, a row-major array included, is copied once into the layout,
    in blocks of rows (:func:`_column_major`).
    An invalid record raises :class:`InvalidRecordError` naming the first
    offending row and the first rule that row breaks.
    """
    if hasattr(records, "columns"):
        missing = [c for c in COLUMNS if c not in set(records.columns)]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")
        # the rows of a (6, n) array are the columns of its column-major transpose
        records = np.stack([np.asarray(records[c], dtype=float) for c in COLUMNS]).T
    elif not isinstance(records, np.ndarray):
        records = list(records)
        if not records or isinstance(records[0], ObservationRecord):
            records = np.array([(r.z, r.d, r.delta_s, np.nan if r.s is None else r.s,
                                 r.delta_y, np.nan if r.y is None else r.y)
                                for r in records], dtype=float).reshape(-1, 6)
        records = np.asarray(records, dtype=float)
    else:
        records = np.asarray(records)
    if records.ndim != 2:
        raise SchemaError("expected a 2-D array of records")
    if records.shape[1] != 6:
        raise SchemaError(f"expected 6 columns {COLUMNS}, got {records.shape[1]}")
    arr = _column_major(records)
    _check_records(arr)
    return arr


#: rows per block of :func:`_column_major`'s copy
_BLOCK_ROWS = 4096


def _column_major(records: np.ndarray) -> np.ndarray:
    """``np.asfortranarray(records, dtype=float)``, copied block by block.

    A column-major float64 array is returned as is.  Any other is copied in
    blocks of :data:`_BLOCK_ROWS` rows, whose columns stay in cache while
    they are written, which a strided copy of the whole array does not do.
    """
    if records.dtype == np.float64 and records.flags.f_contiguous:
        return records
    arr = np.empty(records.shape, order="F")
    for start in range(0, len(records), _BLOCK_ROWS):
        arr[start:start + _BLOCK_ROWS] = records[start:start + _BLOCK_ROWS]
    return arr


def _is_int(value, low: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _check_records(arr: np.ndarray) -> None:
    """Raise :class:`InvalidRecordError` for the first row that breaks a rule.

    ``arr`` is (n, 6) in :data:`COLUMNS` order, nan for missing.  Each rule
    is a mask over all rows; the error names the lowest offending row and,
    of the rules that row breaks, the first in the order below.  The masks
    are built only when :func:`_records_valid` finds a broken rule.
    """
    if _records_valid(arr):
        return
    z, d, delta_s, s, delta_y, y = arr.T
    survivor_y = (delta_s == 1) & (s == 1) & (delta_y == 1)
    rules = [(~np.isin(col, (0, 1)), f"{name} must be 0 or 1")
             for name, col in (("z", z), ("d", d), ("delta_s", delta_s), ("delta_y", delta_y))]
    rules += [
        ((delta_s == 0) & ~np.isnan(s), "s must be absent when delta_s = 0"),
        ((delta_s == 0) & (delta_y != 0), "delta_y must be 0 when delta_s = 0"),
        ((delta_s == 1) & ~np.isin(s, (0, 1)), "s must be 0 or 1 when delta_s = 1"),
        (survivor_y & ~np.isfinite(y), "y must be a finite number when delta_y = 1 and s = 1"),
        (~survivor_y & ~np.isnan(y), "y must be absent unless delta_y = 1 and s = 1"),
    ]
    broken = [(int(mask.argmax()), order) for order, (mask, _) in enumerate(rules) if mask.any()]
    if broken:
        index, order = min(broken)
        raise InvalidRecordError(index, rules[order][1])


def _records_valid(arr: np.ndarray) -> bool:
    """Whether every row keeps every rule of :func:`_check_records`, as one
    aggregate test over the columns: z, d and delta_s are 0 or 1; then
    delta_y is 0 or delta_s, s is 0 or 1 where delta_s = 1 and missing
    elsewhere, and y is finite where s = 1 and delta_y = 1 and missing
    elsewhere.  Where the first tests hold, s = 1 and delta_y = 1 imply
    delta_s = 1, so together these are exactly the nine rules.
    """
    z, d, delta_s, s, delta_y, y = arr.T
    observed, alive = delta_s == 1, s == 1
    if not (((z == 0) | (z == 1)) & ((d == 0) | (d == 1)) & ((delta_s == 0) | observed)).all():
        return False
    survivor_y = alive & (delta_y == 1)
    # & and | rather than np.where, which is several times slower on booleans
    return bool((((delta_y == 0) | (delta_y == delta_s))
                 & ((observed & ((s == 0) | alive)) | (~observed & np.isnan(s)))
                 & ((survivor_y & np.isfinite(y)) | (~survivor_y & np.isnan(y)))).all())


@dataclass
class ValidationReport:
    """Design diagnostics: first-stage strength, cell sizes, failures and warnings."""

    n_records: int
    first_stage: float | None
    weak_instrument: bool
    cell_counts: dict
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_design(records,
                    weak_threshold: float = WEAK_INSTRUMENT_THRESHOLD) -> ValidationReport:
    """Report-only design checks; never raises on bad designs.

    ``records`` is anything :func:`ingest` accepts, :class:`CellStatistics`
    included, so a dataset already ingested is not validated again.
    """
    cells = ingest(records)
    failures, warns = [], []
    first_stage, weak = None, False
    arm = cells.count.sum(-1)
    if arm.all():
        take = cells.count[:, 1] / arm
        first_stage = float(take[1] - take[0])
        weak = abs(first_stage) < weak_threshold
        if weak:
            warns.append(
                f"weak instrument: first-stage difference {first_stage:.4f} "
                f"below threshold {weak_threshold:g}"
            )
    else:
        failures.append("single assignment arm")
    counts = {}
    for zz, dd in CELLS:
        counts[(zz, dd)] = {
            "n": int(cells.count[zz, dd]),
            "survivors": int(cells.surv_pos[zz, dd]),
            "non_survivors": int(cells.surv_obs[zz, dd] - cells.surv_pos[zz, dd]),
            "missing_s": int(cells.miss_s[zz, dd]),
            "observed_y": int(cells.y_count[zz, dd]),
        }
    return ValidationReport(
        n_records=cells.n_records,
        first_stage=first_stage,
        weak_instrument=weak,
        cell_counts=counts,
        failures=failures,
        warnings=warns,
    )


def read_csv(path) -> np.ndarray:
    """Read a dataset CSV (`z,d,delta_s,s,delta_y,y`; blanks = missing) into a
    column-major (n, 6) float64 array, the layout :func:`as_array` passes through.

    The file is UTF-8, with or without a byte order mark.  An ASCII,
    unquoted file with the exact header, no blank line and six fields on
    every line, whose lines all end in LF or all in CRLF, is parsed in bulk
    from its bytes; every other file is parsed line by line.  Both convert a
    field with ``float(field.strip())`` (a one-digit field, or a digit then
    ``.0``, by arithmetic with the same result), so they agree on results
    and errors.  Errors name the first offending line: an invalid record on
    an earlier line is reported before a parse error or an undecodable byte
    on a later one.  A file that is not UTF-8 raises a ``SchemaError``
    naming the file and the line of the first undecodable byte.
    """
    arr = _read_plain_csv(path)
    if arr is None:
        return _read_csv_lines(path)
    return _check_csv_rows(path, arr, range(2, len(arr) + 2))


def _read_bytes(path) -> bytes:
    """The file's bytes without a UTF-8 byte order mark."""
    with open(path, "rb") as handle:
        return handle.read().removeprefix(codecs.BOM_UTF8)


_HEADER = ",".join(COLUMNS).encode()


def _read_plain_csv(path) -> np.ndarray | None:
    """The unchecked column-major (n, 6) array of a plain file, or None for any other file.

    Plain: ASCII, the exact header, then at least one line of six fields,
    every line ending in LF, or every line in CRLF with no other CR, and no
    blank line.  A field is blank (an s or y only, read as nan), one digit
    or a digit then ``.0`` (read by arithmetic), or a text that
    ``float(field.strip())`` reads, as the line parser does; a nan z, d,
    delta_s or delta_y is left to the line parser.  For any other file the
    line parser reads or reports it.
    """
    data = _read_bytes(path)
    crlf = b"\r" in data
    n_lines = data.count(b"\n")
    if (not data.startswith(_HEADER + (b"\r\n" if crlf else b"\n")) or not data.endswith(b"\n")
            or n_lines < 2 or data.count(b",") != 5 * n_lines or not data.isascii()):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # one row of separators per line, the header's first; each must end in LF
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n"))).reshape(n_lines, len(COLUMNS))
    if (buf[seps[:, -1]] != ord("\n")).any():
        return None
    # a CR anywhere but before every LF is left to the line parser
    if crlf and ((buf[seps[:, -1] - 1] != ord("\r")).any() or data.count(b"\r") != n_lines):
        return None
    arr = np.empty((n_lines - 1, len(COLUMNS)), order="F")
    text = data.decode("ascii")
    starts = seps[:-1, -1] + 1
    seps[:, -1] -= crlf  # a line's last field ends at its CR
    for j, name in enumerate(COLUMNS):
        ends = seps[1:, j]
        if not _parse_column(arr[:, j], buf, text, starts, ends, name in ("s", "y")):
            return None
        starts = ends + 1
    return arr


def _parse_column(col, buf, text, starts, ends, blank_is_nan) -> bool:
    """Fill ``col`` with the fields ``text[starts:ends]``; False when the line
    parser must read the file: a blank it may not hold, a field that
    ``float()`` rejects, or a nan in a column that may not hold one."""
    width = ends - starts
    lead = buf[starts] - ord("0")  # unsigned: below 10 only for a digit
    digit = lead < 10
    easy = digit & (width == 1)
    # pandas writes an integer column as 1.0
    three = np.flatnonzero(digit & (width == 3))
    easy[three] = (buf[starts[three] + 1] == ord(".")) & (buf[starts[three] + 2] == ord("0"))
    col[:] = lead
    blank = width == 0
    if blank.any():
        if not blank_is_nan:
            return False
        col[blank] = np.nan
    rest = np.flatnonzero(~(easy | blank))
    try:
        col[rest] = [float(text[a:b].strip())
                     for a, b in zip(starts[rest].tolist(), ends[rest].tolist())]
    except ValueError:
        return False
    return blank_is_nan or not np.isnan(col[rest]).any()


def _read_csv_lines(path) -> np.ndarray:
    """:func:`read_csv` one line at a time: the parser of every file that is
    not parsed in bulk, and the reference the bulk parser is tested against."""
    data = _read_bytes(path)
    try:
        decoded, undecodable = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        # the whole lines before the undecodable one are parsed: their errors come first
        decoded, undecodable = data[:exc.start].decode("utf-8"), exc
        decoded = decoded[:max(decoded.rfind("\n"), decoded.rfind("\r")) + 1]
    reader = csv.reader(io.StringIO(decoded, newline=""))
    rows, lines = [], []
    try:
        header = next(reader, None)
        if header is not None and [h.strip() for h in header] != list(COLUMNS):
            raise SchemaError(f"{path}: header must be {','.join(COLUMNS)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != 6:
                raise SchemaError(f"{path}: expected 6 fields, got {len(row)}", line=lineno)
            values = []
            for name, fieldval in zip(COLUMNS, row):
                text = fieldval.strip()
                if text == "":
                    if name not in ("s", "y"):
                        raise SchemaError(f"{path}: column {name} may not be empty",
                                          line=lineno)
                    values.append(np.nan)
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise SchemaError(f"{path}: column {name}: not a number: {text!r}",
                                      line=lineno) from None
            rows.append(values)
            lines.append(lineno)
    except SchemaError:
        _check_csv_rows(path, rows, lines)
        raise
    except csv.Error as exc:   # a field over csv.field_size_limit(), for one
        _check_csv_rows(path, rows, lines)
        raise SchemaError(f"{path}: {exc}", line=reader.line_num) from None
    arr = _check_csv_rows(path, rows, lines)
    if undecodable is not None:
        raise SchemaError(f"{path}: not UTF-8 text: {undecodable.reason}",
                          line=reader.line_num + 1)
    if header is None:
        raise SchemaError(f"{path}: empty file")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return arr


def _check_csv_rows(path, rows, lines) -> np.ndarray:
    """Parsed rows as a column-major (n, 6) array, not copied when ``rows`` is
    one; a SchemaError at the line of the first invalid one."""
    arr = np.asfortranarray(rows, dtype=float).reshape(len(rows), len(COLUMNS))
    try:
        _check_records(arr)
    except InvalidRecordError as exc:
        raise SchemaError(f"{path}: {exc.rule}", line=lines[exc.index]) from None
    return arr


def write_csv(path, arr) -> None:
    """Write a dataset CSV with LF line ends, which :func:`read_csv` parses in bulk."""
    arr = np.asarray(arr, dtype=float)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in arr:
            out = []
            for name, value in zip(COLUMNS, row):
                if math.isnan(value):
                    out.append("")
                elif name == "y":
                    out.append(repr(float(value)))
                else:
                    out.append(str(int(value)))
            writer.writerow(out)
