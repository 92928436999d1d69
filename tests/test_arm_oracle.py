"""The one per-arm identification against its hand-written twin formulas.

``tests/helpers.py`` keeps the formulas as they were written before the
per-arm algebra was shared: one block per arm, the 11-parameter order as
index literals.  Every result here must be the same float, signed zeros
included, and every call must raise the same error and emit the same
warnings in the same order.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenrct.errors import DenominatorDegenerateError, WeakDenominatorWarning
from brokenrct.estimation import CellCovariance, estimate_pace, fit_cell_params, gradient_mu
from brokenrct.identify import (
    CellParams,
    cl_proportion_under_monotonicity,
    pace_denominators,
    pace_identify,
)
from brokenrct.records import cells_from_arrays

from helpers import (
    cl_proportion_twin,
    covariance_diagonal_twin,
    estimate_pace_twin,
    gradient_mu_twin,
    pace_denominators_twin,
    pace_identify_twin,
)

#: values that make exact ties, zero masses and signed zeros common
SMALL_SET = (0.0, -0.0, 1.0, 0.5, 0.25, 0.75, 0.1, 0.9)
#: target denominators: degenerate, on either tolerance and in the warning band
TARGET_DEN = (0.0, -0.0, 1e-12, -1e-10, 1e-10, 2e-10, 0.005, -0.003, 0.01, 0.2)


@st.composite
def cell_params(draw):
    """Random cell parameters; about half force one or both denominators
    to a target in :data:`TARGET_DEN` by solving for the arm-0 survival."""
    unit = st.one_of(st.sampled_from(SMALL_SET), st.floats(0.0, 1.0))
    take = np.array([draw(unit), draw(unit)])
    survival = np.array([[draw(unit) for _ in range(2)] for _ in range(2)])
    mean_y = np.array([[draw(st.one_of(st.sampled_from(SMALL_SET + (-2.0,)),
                                       st.floats(-50.0, 50.0)))
                        for _ in range(2)] for _ in range(2)])
    for d in (1, 0):
        weight = take if d else 1.0 - take
        if draw(st.booleans()) and weight[0] >= 0.01:
            target = draw(st.sampled_from(TARGET_DEN))
            survival[0, d] = (weight[1] * survival[1, d] - target) / weight[0]
    return CellParams(take=take, survival=survival, mean_y=mean_y,
                      assign_rate=draw(st.floats(0.05, 0.95)))


def outcome(fn, *args, **kwargs):
    """(result or (error type, message), [(warning category, message)])."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the error itself is compared
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def same(a, b):
    """Bit-equal floats: equal values, equal signs of zero, or both nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(
        ((a == b) & (np.signbit(a) == np.signbit(b)) | both_nan).all())


def assert_same_outcome(got, want):
    (got_value, got_warnings), (want_value, want_warnings) = got, want
    assert got_warnings == want_warnings
    if isinstance(want_value, tuple) and isinstance(want_value[0], type):
        assert got_value == want_value
    elif hasattr(want_value, "__dataclass_fields__"):
        for name in want_value.__dataclass_fields__:
            g, w = getattr(got_value, name), getattr(want_value, name)
            assert same(g, w) if isinstance(w, float) else g == w, name
    else:
        assert same(got_value, want_value), (got_value, want_value)


@settings(max_examples=1000, deadline=None)
@given(params=cell_params(), diagonal=st.lists(st.floats(0.0, 0.01), min_size=11, max_size=11))
def test_per_arm_identification_matches_twin_formulas(params, diagonal):
    cov = CellCovariance(diagonal=np.array(diagonal))
    pairs = [
        (outcome(pace_denominators, params), outcome(pace_denominators_twin, params)),
        (outcome(pace_identify, params), outcome(pace_identify_twin, params)),
        (outcome(cl_proportion_under_monotonicity, params, assume_survival_monotone=True),
         outcome(cl_proportion_twin, params)),
    ]
    for arm in (1, 0):
        pairs.append((outcome(gradient_mu, params, arm), outcome(gradient_mu_twin, params, arm)))
    for scale in ("identity", "logit"):
        pairs.append((outcome(estimate_pace, params, cov, 0.9, 11, scale),
                      outcome(estimate_pace_twin, params, cov, 0.9, 11, scale)))
    for got, want in pairs:
        assert_same_outcome(got, want)


@st.composite
def record_arrays(draw):
    """Small valid datasets in which cells are often empty, all dead or
    without an observed outcome."""
    rows = []
    for _ in range(draw(st.integers(2, 30))):
        z, d = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        kind = draw(st.sampled_from(("observed", "observed", "missing_y", "dead", "missing_s")))
        if kind == "observed":
            rows.append((z, d, 1, 1, 1, draw(st.floats(-100.0, 100.0))))
        elif kind == "missing_y":
            rows.append((z, d, 1, 1, 0, math.nan))
        elif kind == "dead":
            rows.append((z, d, 1, 0, 0, math.nan))
        else:
            rows.append((z, d, 0, math.nan, 0, math.nan))
    return np.asarray(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(arr=record_arrays())
def test_covariance_diagonal_matches_twin(arr):
    cells = cells_from_arrays(*arr.T)
    got = outcome(lambda: fit_cell_params(cells)[1].diagonal)
    assert_same_outcome(got, outcome(covariance_diagonal_twin, cells))


def test_pack_and_unpack_are_inverse():
    vec = np.arange(11.0) - 5.0
    vec[4] = -0.0
    assert same(CellParams.unpack(vec).pack(), vec)
    params = CellParams.unpack(vec)
    assert (params.take[1], params.take[0]) == (vec[1], vec[2])
    assert params.survival[1, 1] == vec[3] and params.survival[0, 0] == vec[6]
    assert params.mean_y[1, 0] == vec[8] and params.mean_y[0, 1] == vec[9]


@pytest.mark.parametrize("fn", [pace_identify, pace_identify_twin,
                                lambda p: estimate_pace(p, CellCovariance.zero())])
def test_weak_arm_1_warns_before_arm_0_raises(fn):
    # den1 = 0.6 * 0.5 - 0.4 * 0.7375 = 0.005 (warning band); den0 = 0.4 * 0.6 - 0.6 * 0.4 = 0
    params = CellParams(take=np.array([0.4, 0.6]),
                        survival=np.array([[0.4, 0.7375], [0.6, 0.5]]),
                        mean_y=np.ones((2, 2)))
    den1, den0 = pace_denominators(params)
    assert 0.0 < den1 < 0.01 and den0 == 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DenominatorDegenerateError, match="^arm-0 mixing denominator"):
            fn(params)
    assert [(w.category, str(w.message)) for w in caught] == [
        (WeakDenominatorWarning,
         f"arm-1 mixing denominator is small ({den1:.3e}); estimates may be unstable")]
