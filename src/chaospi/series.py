"""Univariate series ingestion.

Accepted CSV shapes:

* a single ``value`` column,
* two columns interpreted as ``date,value`` (the date is kept as an opaque
  label and never parsed),
* any wider file when a header row is present and ``column`` names the value
  column.

A header row is optional and detected by attempting to parse the candidate
value cell of the first row as a float. Missing or non-numeric value cells
are hard errors, as are NaN and infinity.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySeriesError,
    MissingFileError,
    NonFiniteValueError,
    ParseError,
    SeriesTooShortError,
)


def finite_values(values) -> np.ndarray:
    """``values`` as a float array; NaN or infinity raises
    :class:`NonFiniteValueError` naming the first bad position."""
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise NonFiniteValueError(f"non-finite value at position {bad}")
    return x


@dataclass
class TimeSeries:
    """Equally spaced univariate observations in temporal order.

    ``labels`` optionally carries one opaque string per observation (dates,
    period names). Values must be finite; at least one observation is
    required. Most downstream operations demand more and say so themselves.
    """

    values: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ParseError("series values must be one-dimensional")
        if self.values.size == 0:
            raise EmptySeriesError("series has no observations")
        finite_values(self.values)
        if self.labels is not None and len(self.labels) != self.values.size:
            raise ParseError("label count does not match value count")

    def __len__(self) -> int:
        return int(self.values.size)


def load_series(path: str | os.PathLike, column: str | None = None) -> TimeSeries:
    """Read a univariate series from a CSV file.

    Args:
        path: file to read.
        column: value column name; required for files wider than two columns
            and only usable when a header row is present.

    Returns:
        The parsed series with labels taken from the first column when the
        file has more than one column.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise MissingFileError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None
    if not rows:
        raise EmptySeriesError(f"no data rows in {path}")

    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("inconsistent column count across rows")

    # Header detection: if the candidate value cell of row 1 is not a float,
    # row 1 is a header.
    value_idx = width - 1 if width <= 2 else None
    has_header = False
    probe = rows[0][value_idx if value_idx is not None else -1]
    if not _is_float(probe):
        has_header = True
    if column is not None:
        if not has_header:
            raise ParseError(f"column {column!r} requested but file has no header row")
        try:
            value_idx = rows[0].index(column)
        except ValueError:
            raise ParseError(f"no column named {column!r} in header") from None
    elif width > 2:
        raise ParseError("files wider than two columns need an explicit column name")

    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise EmptySeriesError(f"no data rows in {path}")

    values: list[float] = []
    labels: list[str] | None = [] if width > 1 else None
    base = 2 if has_header else 1
    for offset, row in enumerate(data_rows):
        cell = row[value_idx].strip()
        if not cell:
            raise ParseError("empty value cell", row=base + offset)
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(f"not a number: {cell!r}", row=base + offset) from None
        if not math.isfinite(v):
            raise NonFiniteValueError(f"non-finite value: {cell!r}", row=base + offset)
        values.append(v)
        if labels is not None:
            labels.append(row[0].strip())

    if len(values) < 2:
        raise SeriesTooShortError("a series needs at least two observations")
    return TimeSeries(np.array(values), labels)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
