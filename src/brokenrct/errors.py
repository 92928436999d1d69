"""Exception and warning types shared across the package, and their reason codes."""

from contextlib import nullcontext

import numpy as np


class BrokenRctError(Exception):
    """Base class for all package errors."""


class InvalidRecordError(BrokenRctError):
    """A record violates the observation-schema invariants."""

    def __init__(self, index, rule):
        self.index = index
        self.rule = rule
        super().__init__(f"record {index}: {rule}")


class DesignError(BrokenRctError):
    """The design fails a check of :func:`~brokenrct.records.validate_design`."""


class SchemaError(BrokenRctError):
    """A CSV file does not conform to the expected schema."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EstimationError(BrokenRctError):
    """Base class for estimation failures."""


class EmptyCellError(EstimationError):
    """A cell required by the estimator contains no usable records."""


class AllOutcomesMissingError(EstimationError):
    """A cell has survivors but no observed outcomes."""


class DenominatorDegenerateError(EstimationError):
    """An identification denominator is too close to zero to invert."""


class MuOutOfUnitIntervalError(EstimationError):
    """A survived-complier mean lies outside (0, 1) on the logit scale."""


class NoDonorsError(BrokenRctError):
    """A cell with missing values has no observed donor values."""


class IdentificationWarning(UserWarning):
    """An identified quantity signals a possible assumption violation."""


class WeakDenominatorWarning(IdentificationWarning):
    """An identification denominator is small; estimates may be unstable."""


class WeakInstrumentWarning(UserWarning):
    """The assignment barely moves treatment uptake."""


class Reason:
    """Why a row of a stacked estimate failed (0 if it did not), where one
    dataset raises or warns as noted.  A row takes the first code that
    applies, but codes 2 and 3 are checked cell by cell: (0, 0), (0, 1), ...
    Plain ints, which numpy takes faster than an ``IntEnum``."""

    OK = 0
    EMPTY_ARM = 1               # EmptyCellError: an assignment arm has no records
    NO_SURVIVAL_STATUS = 2      # EmptyCellError: a cell's records have no observed survival
    NO_OUTCOME = 3              # AllOutcomesMissingError: a cell's survivors have no outcome
    DEGENERATE_DENOMINATOR = 4  # DenominatorDegenerateError: arm 1, then arm 0
    WEAK_DENOMINATOR = 5        # WeakDenominatorWarning: a denominator in the warning band
    MU_OUT_OF_UNIT_INTERVAL = 6  # MuOutOfUnitIntervalError: logit scale only
    EMPTY_GROUP = 7             # EmptyCellError: a comparator's group has no outcome
    ZERO_FIRST_STAGE = 8        # DenominatorDegenerateError: tsls among survivors


def stack_errstate(stacked: bool):
    """Silence numpy's floating-point warnings for a stack, whose failed rows
    compute undefined values; one dataset keeps them, as it raises first."""
    return np.errstate(all="ignore") if stacked else nullcontext()

