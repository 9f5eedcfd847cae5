"""2-D hypervolume on the benchmark's fixed normalized axes.

Both objectives are minimized. The front fingerprints use

* three-stage fronts ``(neg_picp, piaw)``: axes ``(-PICP, PIAW / sigma)``,
  reference point ``(0, 2)``, area divided by 2;
* two-stage fronts ``(smape, neg_ds)``: axes ``(sMAPE / 200, -DS / 100)``,
  reference point ``(1, 0)``;

so every value lies in [0, 1] whatever the series scale.

Run ``python3 perfbench/hv.py`` for the self-test against a grid oracle.
"""

from __future__ import annotations

import sys

import numpy as np


def hypervolume(points, ref) -> float:
    """Area weakly dominated by ``points`` and strictly below ``ref``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    r1, r2 = float(ref[0]), float(ref[1])
    pts = pts[(pts[:, 0] < r1) & (pts[:, 1] < r2)]
    if pts.size == 0:
        return 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    area, best_f2 = 0.0, r2
    for i, (f1, f2) in enumerate(pts):
        best_f2 = min(best_f2, f2)
        right = pts[i + 1, 0] if i + 1 < len(pts) else r1
        area += (right - f1) * (r2 - best_f2)
    return float(area)


def three_stage_hv(front, sigma: float) -> float:
    """Normalized hypervolume of a ``(neg_picp, piaw)`` front."""
    f = np.asarray(front, dtype=float).reshape(-1, 2)
    return hypervolume(np.column_stack([f[:, 0], f[:, 1] / sigma]), (0.0, 2.0)) / 2.0


def two_stage_hv(front) -> float:
    """Normalized hypervolume of a ``(smape, neg_ds)`` front."""
    f = np.asarray(front, dtype=float).reshape(-1, 2)
    return hypervolume(np.column_stack([f[:, 0] / 200.0, f[:, 1] / 100.0]), (1.0, 0.0))


def _grid_oracle(points, lo, ref, cells: int) -> float:
    """Area of the dominated region counted over a ``cells x cells`` grid of
    cell centres inside the box ``[lo, ref]``."""
    xs = lo[0] + (np.arange(cells) + 0.5) * (ref[0] - lo[0]) / cells
    ys = lo[1] + (np.arange(cells) + 0.5) * (ref[1] - lo[1]) / cells
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    hit = np.zeros(gx.shape, dtype=bool)
    for f1, f2 in points:
        hit |= (gx >= f1) & (gy >= f2)
    return float(hit.mean()) * (ref[0] - lo[0]) * (ref[1] - lo[1])


def self_test(trials: int = 12, cells: int = 400) -> bool:
    """Compare ``hypervolume`` with the grid oracle on random fronts that
    straddle the reference point. Each cell the staircase crosses can be
    misclassified, so the tolerance is the cell area times the number of
    cells a monotone staircase can cross (2 * cells)."""
    rng = np.random.default_rng(12345)
    lo, ref = (-1.0, 0.0), (0.0, 2.0)
    cell_area = (ref[0] - lo[0]) * (ref[1] - lo[1]) / cells**2
    for _ in range(trials):
        n = int(rng.integers(1, 15))
        pts = np.column_stack([rng.uniform(-1.0, 0.2, n), rng.uniform(0.0, 2.2, n)])
        exact = hypervolume(pts, ref)
        oracle = _grid_oracle(pts, lo, ref, cells)
        if abs(exact - oracle) > 2 * cells * cell_area:
            return False
    # dominated and duplicate points add nothing
    base = np.array([[-0.8, 0.5], [-0.3, 0.2]])
    padded = np.vstack([base, [[-0.5, 1.0], [-0.8, 0.5]]])
    hv = hypervolume(base, ref)
    return abs(hv - hypervolume(padded, ref)) < 1e-12 and abs(hv - (0.5 * 1.5 + 0.3 * 1.8)) < 1e-12


if __name__ == "__main__":
    ok = self_test()
    print("hypervolume self-test:", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)
