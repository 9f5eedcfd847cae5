"""Forecast accuracy and interval quality metrics.

Point metrics:

* ``smape`` -- symmetric mean absolute percentage error, in percent, range
  [0, 200]. A term whose actual and forecast are both exactly zero
  contributes zero rather than 0/0.
* ``directional_symmetry`` -- percentage of steps whose actual and forecast
  moves agree in sign, range [0, 100]. Agreement is strict: a zero move on
  either side counts as disagreement.

Interval metrics:

* ``picp`` -- fraction of actuals inside their interval, bounds inclusive.
* ``piaw`` -- mean interval width.

Every metric reduces along the last axis. One-dimensional inputs give a
float. A later argument may be a ``(k, n)`` array of candidates, paired
with an earlier one of length ``n`` or of the same shape; the metric then
gives ``k`` values, each equal to the one-dimensional call on its row.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, LengthMismatchError, SeriesTooShortError


def _paired(actual, predicted, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if p.ndim not in (1, 2) or a.shape not in (p.shape, p.shape[-1:]):
        raise LengthMismatchError(f"paired sequences or rows required, got {a.shape} vs {p.shape}")
    if a.shape[-1] == 0:
        raise EmptyInputError("metric inputs are empty")
    if a.shape[-1] < min_len:
        raise SeriesTooShortError(f"need at least {min_len} observations, got {a.shape[-1]}")
    return a, p


def _reduced(values: np.ndarray) -> float | np.ndarray:
    """A float for one-dimensional inputs, else one value per row."""
    return float(values) if values.ndim == 0 else values


def smape(actual, predicted) -> float | np.ndarray:
    """Symmetric MAPE in percent.

    .. math:: \\frac{100}{n} \\sum_t \\frac{|y_t - \\hat y_t|}{(|y_t| + |\\hat y_t|)/2}
    """
    a, p = _paired(actual, predicted)
    denom = (np.abs(a) + np.abs(p)) / 2.0
    terms = np.abs(a - p)
    positive = denom > 0
    # the masked divide is slow; NaN fails ``> 0``, so it takes that path too
    if positive.all():
        terms /= denom
    else:
        terms = np.divide(terms, denom, out=np.zeros_like(terms), where=positive)
    return _reduced(100.0 / a.shape[-1] * np.add.reduce(terms, axis=-1))


def directional_symmetry(actual, predicted) -> float | np.ndarray:
    """Percentage of moves whose actual and predicted directions agree.

    A step counts as a hit only when the product of consecutive differences
    is strictly positive, so flat moves on either side never count.
    """
    a, p = _paired(actual, predicted, min_len=2)
    hits = (a[..., 1:] - a[..., :-1]) * (p[..., 1:] - p[..., :-1]) > 0
    return _reduced(100.0 * (np.count_nonzero(hits, axis=-1) / hits.shape[-1]))


def picp(actual, lower, upper) -> float | np.ndarray:
    """Prediction interval coverage probability, bounds inclusive, in [0, 1]."""
    lo, hi = _paired(lower, upper)
    a, _ = _paired(actual, lo)
    return _reduced(np.count_nonzero((a >= lo) & (a <= hi), axis=-1) / a.shape[-1])


def piaw(lower, upper) -> float | np.ndarray:
    """Prediction interval average width."""
    lo, hi = _paired(lower, upper)
    return _reduced(np.add.reduce(hi - lo, axis=-1) / hi.shape[-1])
