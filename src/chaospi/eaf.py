"""Empirical attainment functions for ensembles of bi-objective fronts.

Both objectives are minimization-oriented. A run attains a query point q
when at least one of its front points weakly dominates q (no worse in both
coordinates). The level-k attainment surface is the staircase boundary of
the region attained by at least k of the n runs; level 1 is the best case,
level ``ceil(n/2)`` the median, level n the worst.

The construction follows the classic sweep: walk the distinct first-objective
values left to right, maintain each run's best (lowest) second objective so
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


def attainment_surface(ensemble: FrontEnsemble, level: int) -> AttainmentSurface:
    """Exact level-``level`` attainment surface of the ensemble."""
    n = ensemble.n_runs
    if not 1 <= level <= n:
        raise InvalidLevelError(f"level must lie in [1, {n}], got {level}")

    xs = np.unique(np.concatenate([f[:, 0] for f in ensemble.fronts]))
    # best_f2[r] tracks run r's lowest f2 among points with f1 <= current x
    best_f2 = np.full(n, np.inf)
    vertices: list[tuple[float, float]] = []
    last_y = np.inf
    for x in xs:
        for r, front in enumerate(ensemble.fronts):
            at_x = front[front[:, 0] == x, 1]
            if at_x.size:
                best_f2[r] = min(best_f2[r], float(at_x.min()))
        y = float(np.partition(best_f2, level - 1)[level - 1])
        if math.isfinite(y) and y < last_y:
            vertices.append((float(x), y))
            last_y = y
    return AttainmentSurface(level=level, vertices=np.array(vertices, dtype=float))


def standard_levels(n_runs: int) -> dict[str, int]:
    """The conventional best / median / worst attainment levels."""
    if n_runs < 1:
        raise InvalidLevelError("need at least one run")
    return {"best": 1, "median": math.ceil(n_runs / 2), "worst": n_runs}

