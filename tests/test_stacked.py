"""The stacked estimators against the one-dataset references.

``tests/helpers.py`` keeps the estimators as they were written for one
dataset: a loop over the (z, d) cells, Python scalars and exceptions.  On a
stack of cell statistics every row must give the reference's tau, se and
interval bit for bit, or the :class:`Reason` that stands for the
reference's error (a warning-band denominator, which the reference only
warns about, included).  One dataset through the package must raise the
reference's error with its message, warn its warnings and return its
estimate, p-value included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenrct.comparators import METHODS, estimate
from brokenrct.errors import (
    AllOutcomesMissingError,
    DenominatorDegenerateError,
    EmptyCellError,
    MuOutOfUnitIntervalError,
    Reason,
    WeakDenominatorWarning,
)
from brokenrct.records import CellStatistics, cells_from_arrays

from helpers import assert_same_outcome, estimate_reference, outcome, same

#: every method, and the main estimator on the log-odds scale too
METHOD_SCALES = [(method, "identity") for method in METHODS] + [("pace", "logit")]


def expected_reason(method, want, warned):
    """The reason code of a reference :func:`outcome`."""
    weak = any(category is WeakDenominatorWarning for category, _ in warned)
    if not isinstance(want, tuple):
        return Reason.WEAK_DENOMINATOR if weak else Reason.OK
    error, message = want
    if error is EmptyCellError:
        if message.startswith("assignment arm"):
            return Reason.EMPTY_ARM
        if message.endswith("no observed survival status"):
            return Reason.NO_SURVIVAL_STATUS
        return Reason.EMPTY_GROUP
    if error is AllOutcomesMissingError:
        return Reason.NO_OUTCOME
    if error is DenominatorDegenerateError:
        return Reason.ZERO_FIRST_STAGE if method == "tsls" else Reason.DEGENERATE_DENOMINATOR
    assert error is MuOutOfUnitIntervalError, want
    # the warning band fails a row before the log-odds check does
    return Reason.WEAK_DENOMINATOR if weak else Reason.MU_OUT_OF_UNIT_INTERVAL


def assert_rows_match_reference(rows, level=0.95):
    """Each row of the stacked estimate against the reference on that row alone."""
    stack = CellStatistics.stack(rows)
    for method, scale in METHOD_SCALES:
        est = estimate(stack, method, level, scale)
        assert est.p_value is None
        for r, cells in enumerate(rows):
            want = outcome(estimate_reference, cells, method, level, scale)
            assert est.reason[r] == expected_reason(method, *want), (method, scale, r, want)
            if not isinstance(want[0], tuple):
                for name in ("tau", "se", "ci_lower", "ci_upper"):
                    got_value, want_value = getattr(est, name)[r], getattr(want[0], name)
                    assert same(got_value, want_value), (method, scale, r, name)
            assert_same_outcome(outcome(estimate, cells, method, level, scale), want)
    return stack


@st.composite
def cell(draw, size, binary):
    """[count, surv_obs, surv_pos, y_count, y_mean, y_m2] of one
    consistent (z, d) cell: often empty, all dead or with no observed outcome."""
    count = draw(size)
    obs = draw(st.integers(0, count))
    pos = draw(st.integers(0, obs))
    k = draw(st.integers(0, pos))
    mean = draw(st.floats(0.0, 1.0) if binary else st.floats(-20.0, 20.0)) if k else 0.0
    m2 = draw(st.floats(0.0, 0.25 * k if binary else 50.0)) if k > 1 else 0.0
    return [count, obs, pos, k, mean, m2]


@st.composite
def cell_statistics(draw):
    """One dataset's cells.  A mirrored arm 1 copies arm 0, which makes both
    mixing denominators and the survivors' first stage zero; one dead record
    added to it puts the denominators near zero, in or near the warning band."""
    size = st.integers(0, draw(st.sampled_from((3, 8, 400))))
    binary = draw(st.booleans())
    arm0 = [draw(cell(size, binary)) for _ in range(2)]
    mode = draw(st.sampled_from(("free", "free", "mirror", "nudge")))
    if mode == "free":
        arm1 = [draw(cell(size, binary)) for _ in range(2)]
    else:
        arm1 = [list(c) for c in arm0]
        if mode == "nudge":
            nudged = arm1[draw(st.integers(0, 1))]
            nudged[0] += 1
            nudged[1] += 1
    fields = np.array([arm0, arm1], dtype=float).transpose(2, 0, 1)  # [field, z, d]
    counts = fields[:4].astype(np.int64)
    return CellStatistics(*counts, fields[4], fields[5])


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(cell_statistics(), min_size=1, max_size=6),
       level=st.sampled_from((0.9, 0.95)))
def test_stacked_rows_match_the_one_dataset_reference(rows, level):
    assert_rows_match_reference(rows, level)


def cells_of(spec):
    """Cells from records: ``spec[z, d]`` = (dead, survivors with an outcome,
    survivors without one, records of unknown survival); outcomes i / 10."""
    records = []
    for (z, d), (dead, observed, unobserved, unknown) in spec.items():
        records += [(z, d, 1, 0, 0, math.nan)] * dead
        records += [(z, d, 1, 1, 1, (i + 1) / 10.0) for i in range(observed)]
        records += [(z, d, 1, 1, 0, math.nan)] * unobserved
        records += [(z, d, 0, math.nan, 0, math.nan)] * unknown
    return cells_from_arrays(*np.asarray(records, dtype=float).T)


GOOD = {(0, 0): (4, 6, 0, 0), (0, 1): (2, 3, 0, 0), (1, 0): (3, 4, 0, 0), (1, 1): (2, 9, 0, 0)}


def with_cells(**changes):
    spec = dict(GOOD)
    for key, value in changes.items():
        spec[int(key[1]), int(key[2])] = value
    return cells_of(spec)


#: one row per reason: (cells, the reason of each of METHOD_SCALES)
REASON_ROWS = [
    (with_cells(), [Reason.OK] * 6),
    (cells_of({(0, 0): GOOD[0, 0], (0, 1): GOOD[0, 1]}),
     [Reason.EMPTY_ARM, Reason.EMPTY_GROUP, Reason.EMPTY_GROUP, Reason.OK, Reason.EMPTY_GROUP,
      Reason.EMPTY_ARM]),
    (with_cells(c01=(0, 0, 0, 3)),
     [Reason.NO_SURVIVAL_STATUS] + [Reason.OK] * 4 + [Reason.NO_SURVIVAL_STATUS]),
    (with_cells(c10=(3, 0, 2, 0)), [Reason.NO_OUTCOME] + [Reason.OK] * 4 + [Reason.NO_OUTCOME]),
    (with_cells(c10=GOOD[0, 0], c11=GOOD[0, 1]),
     [Reason.DEGENERATE_DENOMINATOR, Reason.ZERO_FIRST_STAGE] + [Reason.OK] * 3
     + [Reason.DEGENERATE_DENOMINATOR]),
    (with_cells(c00=(40, 60, 0, 0), c01=(20, 30, 0, 0), c10=(41, 60, 0, 0), c11=(20, 31, 0, 0)),
     [Reason.WEAK_DENOMINATOR] + [Reason.OK] * 4 + [Reason.WEAK_DENOMINATOR]),
    # outcomes up to 2 put the treated survived-complier mean at 1.4
    (with_cells(c11=(2, 20, 0, 0)), [Reason.OK] * 5 + [Reason.MU_OUT_OF_UNIT_INTERVAL]),
]


def test_every_reason_is_coded_as_the_reference_fails():
    stack = assert_rows_match_reference([cells for cells, _ in REASON_ROWS])
    for (method, scale), column in zip(METHOD_SCALES, zip(*(codes for _, codes in REASON_ROWS))):
        assert list(estimate(stack, method, scale=scale).reason) == list(column), (method, scale)


def test_a_stack_of_one_is_the_dataset():
    cells = with_cells()
    stack = CellStatistics.stack([cells])
    for method, scale in METHOD_SCALES[:-1]:
        one, stacked = estimate(cells, method, 0.9, scale), estimate(stack, method, 0.9, scale)
        assert stacked.reason.shape == (1,) and stacked.reason[0] == Reason.OK
        for name in ("tau", "se", "ci_lower", "ci_upper", "n"):
            assert same(getattr(stacked, name), [getattr(one, name)]), (method, name)


def test_rejects_a_comparator_off_the_identity_scale_for_a_stack():
    with pytest.raises(ValueError, match="only the 'identity' scale"):
        estimate(CellStatistics.stack([with_cells()]), "tsls", scale="logit")
