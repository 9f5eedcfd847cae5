"""Empirical attainment functions for ensembles of bi-objective fronts.

Both objectives are minimization-oriented. A run attains a query point q
when at least one of its front points weakly dominates q (no worse in both
coordinates). The level-k attainment surface is the staircase boundary of
the region attained by at least k of the n runs; level 1 is the best case,
level ``ceil(n/2)`` the median, level n the worst.

The construction follows the classic sweep: on the grid of distinct
first-objective values, read each run's best (lowest) second objective so
far, and take the k-th smallest among runs. Every emitted vertex therefore
uses only coordinates present in the input fronts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFrontError, InvalidLevelError


@dataclass
class FrontEnsemble:
    """Fronts from repeated runs of one optimizer setup, minimization space."""

    fronts: list[np.ndarray]

    def __post_init__(self):
        if not self.fronts:
            raise EmptyFrontError("an ensemble needs at least one front")
        clean = []
        for f in self.fronts:
            arr = np.asarray(f, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
                raise EmptyFrontError("each front must be a non-empty (n, 2) array")
            if not np.all(np.isfinite(arr)):
                raise EmptyFrontError("front points must be finite")
            clean.append(arr)
        self.fronts = clean

    @property
    def n_runs(self) -> int:
        return len(self.fronts)


@dataclass
class AttainmentSurface:
    """Staircase vertices of one attainment level, f1 ascending."""

    level: int
    vertices: np.ndarray  # (n, 2), f1 strictly increasing, f2 strictly decreasing


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` for finite floats, by
    the same in-place sort and first-of-each-run pick, so the signed zero
    kept is the same, without ``np.unique``'s import of ``numpy.ma``."""
    values.sort()
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def attainment_surface(ensemble: FrontEnsemble, level: int) -> AttainmentSurface:
    """Exact level-``level`` attainment surface of the ensemble."""
    n = ensemble.n_runs
    if not 1 <= level <= n:
        raise InvalidLevelError(f"level must lie in [1, {n}], got {level}")

    xs = _distinct_sorted(np.concatenate([f[:, 0] for f in ensemble.fronts]))
    # best[r, j]: run r's lowest f2 among its points with f1 <= xs[j]
    best = np.empty((n, xs.size))
    for r, front in enumerate(ensemble.fronts):
        order = np.argsort(front[:, 0], kind="stable")
        f1, f2 = front[order, 0], front[order, 1]
        starts = np.flatnonzero(np.concatenate(([True], f1[1:] != f1[:-1])))
        lowest = np.minimum.reduceat(f2, starts)
        # a tie keeps the value first reached, so the sign of a zero is the
        # one met first along f1
        running = np.minimum.accumulate(lowest)
        drops = np.concatenate(([True], running[1:] < running[:-1]))
        held = lowest[drops][np.cumsum(drops) - 1]
        best[r] = np.concatenate(([np.inf], held))[np.searchsorted(f1[starts], xs, side="right")]
    y = np.partition(best, level - 1, axis=0)[level - 1]
    vertex = y < np.concatenate(([np.inf], y[:-1]))  # wherever the level drops
    return AttainmentSurface(level=level, vertices=np.column_stack([xs[vertex], y[vertex]]))


def standard_levels(n_runs: int) -> dict[str, int]:
    """The conventional best / median / worst attainment levels."""
    if n_runs < 1:
        raise InvalidLevelError("need at least one run")
    return {"best": 1, "median": math.ceil(n_runs / 2), "worst": n_runs}

