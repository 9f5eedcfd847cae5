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
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChaospiError,
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


# Values per float64 block while loading: enough that a block's array header
# is noise, few enough that the pending Python floats stay small. Blocks, not
# an ``array('d')``: importing that extension module alone raises a command's
# peak resident memory by about 0.2 MB.
_BLOCK = 1024


def load_series(path: str | os.PathLike, column: str | None = None) -> TimeSeries:
    """Read a univariate series from a CSV file.

    Rows stream from ``csv.reader``: values collect in float64 blocks of
    ``_BLOCK`` as their rows arrive, so loading keeps about 8 bytes per
    value, plus the labels. Blank and whitespace-only lines are skipped. A
    file with several faults raises the one that wins in this order:
    undecodable bytes, ragged rows, header and column faults, no data rows,
    then the first bad value cell, so a fault is raised only once the whole
    file is read. Row errors name the file line on which the offending record
    ends.

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
            values, labels = _read_rows(csv.reader(fh), column, path)
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None
    if values.size < 2:
        raise SeriesTooShortError("a series needs at least two observations")
    return TimeSeries(values, labels)


def _read_rows(reader, column: str | None, path: str) -> tuple[np.ndarray, list[str] | None]:
    """Values and labels of the non-blank rows of ``reader``.

    A fault found on the way is kept, not raised, until every row is read,
    so that an undecodable byte or a ragged row further on still wins.
    """
    rows = (row for row in reader if row and any(cell.strip() for cell in row))
    head = next(rows, None)
    if head is None:
        raise EmptySeriesError(f"no data rows in {path}")
    width = len(head)
    # Header detection: if the candidate value cell of row 1 (the last one)
    # is not a float, row 1 is a header.
    has_header = not _is_float(head[-1])
    value_idx = width - 1
    fault: ChaospiError | None = None
    if column is not None:
        if not has_header:
            fault = ParseError(f"column {column!r} requested but file has no header row")
        elif column not in head:
            fault = ParseError(f"no column named {column!r} in header")
        else:
            value_idx = head.index(column)
    elif width > 2:
        fault = ParseError("files wider than two columns need an explicit column name")

    blocks: list[np.ndarray] = []
    block: list[float] = []
    labels: list[str] | None = [] if width > 1 else None
    for row in rows if has_header else itertools.chain([head], rows):
        if len(row) != width:
            fault = ParseError("inconsistent column count across rows")
            break
        if fault is not None:
            continue
        cell = row[value_idx].strip()
        if not cell:
            fault = ParseError("empty value cell", row=reader.line_num)
            continue
        try:
            v = float(cell)
        except ValueError:
            fault = ParseError(f"not a number: {cell!r}", row=reader.line_num)
            continue
        if not math.isfinite(v):
            fault = NonFiniteValueError(f"non-finite value: {cell!r}", row=reader.line_num)
            continue
        block.append(v)
        if len(block) == _BLOCK:
            blocks.append(np.array(block))
            block.clear()
        if labels is not None:
            labels.append(row[0].strip())
    for _ in reader:  # a later undecodable byte still wins over the fault
        pass
    if fault is not None:
        raise fault
    values = np.concatenate([*blocks, np.array(block, dtype=float)])
    if not values.size:
        raise EmptySeriesError(f"no data rows in {path}")
    return values, labels


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
