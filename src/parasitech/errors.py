"""Exception hierarchy.

Callers care about two broad families: data/validation problems (bad or
degenerate input) and fit failures (an estimator ran but could not produce a
usable result). The CLI maps the families to distinct exit codes.
"""


class ParasitechError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ParasitechError):
    """Invalid, insufficient, or degenerate input data."""


class InvalidInputError(DataError):
    """An argument is outside its documented domain (non-finite, wrong range)."""


class InsufficientDataError(DataError):
    """Too few observations for the requested operation."""


class SingularDesignError(DataError):
    """Regression design has no usable variation (e.g. constant regressor)."""


class CollinearityError(SingularDesignError):
    """A predictor column is linearly dependent on earlier columns.

    ``column_index`` is the 0-based index of the offending predictor (not
    counting the intercept), so callers can map it back to a named series.
    """

    def __init__(self, message: str, column_index: int | None = None):
        super().__init__(message)
        self.column_index = column_index


class NoOverlapError(DataError):
    """Two series share no observation years."""


class SeriesFormatError(DataError):
    """A series file does not conform to the expected CSV schema."""


class EmptySeriesError(DataError):
    """Parsing produced no valid observations."""


class DegenerateSeriesError(DataError):
    """A series has zero variance where variation is required."""


class UndefinedCorrelationError(DataError):
    """Correlation is undefined (a constant side, or too few pairs)."""


class FitFailureError(ParasitechError):
    """A fitting procedure ran but the result is unusable (e.g. b <= 0)."""


class HarnessError(FitFailureError):
    """Every replicate of a Monte Carlo run failed to fit."""
