"""The public API resolves and reports every estimate through one result type."""

import pytest

import brokenrct
from brokenrct import identify
from brokenrct.estimation import Estimate, PaceEstimate
from brokenrct.estimators import TwoStageLeastSquares
from brokenrct.simulate import DgpConfig, generate


@pytest.mark.parametrize("module", [brokenrct, identify], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_pace_estimate_is_an_estimate():
    assert issubclass(PaceEstimate, Estimate)


def test_fitted_comparator_reports_its_result():
    arr, _ = generate(DgpConfig(n=2000, case=1), seed=91)
    est = TwoStageLeastSquares().fit(arr)
    assert est.p_value_ == est.result_.p_value
    assert (est.tau_, est.se_, est.conf_int_) == (est.result_.tau, est.result_.se,
                                                  est.result_.ci)
