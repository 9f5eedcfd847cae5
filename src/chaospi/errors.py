"""Exception and warning types shared across the package.

Every domain error raised by this package derives from :class:`ChaospiError`
so callers (and the CLI) can distinguish domain failures from genuine I/O or
programming errors. :func:`is_number` is the one type rule that config
checks apply before they raise :class:`ConfigError`.
"""

from __future__ import annotations

import numbers


def is_number(value: object, kind: type = numbers.Real) -> bool:
    """Whether ``value`` is an instance of ``kind``, ``numbers.Integral`` or
    ``numbers.Real`` (numpy scalars included); a bool is neither, and a real
    must convert to a float (an integer beyond float's range does not)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    if kind is numbers.Real:
        try:
            float(value)
        except OverflowError:
            return False
    return True


class ChaospiError(Exception):
    """Base class for all domain errors raised by this package."""


class MissingFileError(ChaospiError):
    """An input path does not exist."""


class _RowError(ChaospiError):
    """An error that may name the input row it arose on.

    Attributes:
        row: 1-based number of the file line on which the offending
            record ends (``csv.reader``'s ``line_num``), when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class ParseError(_RowError):
    """A CSV cell could not be interpreted."""


class EmptySeriesError(ChaospiError):
    """A series contains no observations."""


class NonFiniteValueError(_RowError):
    """A series value is NaN or infinite."""


class InvalidSplitError(ChaospiError):
    """A train/test split request is out of range for the series."""


class SeriesTooShortError(ChaospiError):
    """An input has too few observations for the requested operation."""


class ZeroVarianceError(ChaospiError):
    """A constant series; autocorrelation is undefined."""


class NoValidPairsError(ChaospiError):
    """No usable neighbor pairs survive for divergence tracking."""


class DegenerateNeighborsError(ChaospiError):
    """Every candidate neighbor sits at zero distance; ratios are undefined."""


class LengthMismatchError(ChaospiError):
    """Paired sequences differ in length."""


class EmptyInputError(ChaospiError):
    """A metric was called with zero-length inputs."""


class EmptyFrontError(ChaospiError):
    """A front or model list is empty where at least one entry is required."""


class DimensionMismatchError(ChaospiError):
    """Array shapes are inconsistent with the declared embedding dimension."""


class InvalidLevelError(ChaospiError):
    """An attainment level is outside 1..n_runs."""


class ConfigError(ChaospiError):
    """A run configuration value is missing, malformed, or out of range."""


class WorkerExitError(ChaospiError):
    """A seed worker process ended before sending its share's results."""


class DegenerateTrainingWarning(UserWarning):
    """Training predictions are constant; interval widths collapse to zero."""
