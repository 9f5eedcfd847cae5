"""Output checks and quality fingerprints, computed from the files a command
wrote. Nothing here imports ``chaospi``: the checks re-derive each property
from the CSV/JSON outputs so that a broken program cannot vouch for itself.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import hv
from inputs import HENON_LAMBDA

PIAW_IDENTITY_TOL = 1e-12


def read_tree(root: str) -> dict[str, bytes]:
    """Every file under ``root`` keyed by relative path."""
    tree = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def _read_pairs(path: str, header: list[str]) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][: len(header)] != header:
        raise ValueError(f"{path}: expected header {header}")
    return np.array([[float(r[0]), float(r[1])] for r in rows[1:]], dtype=float).reshape(-1, 2)


def mutually_nondominated(front: np.ndarray) -> bool:
    f1, f2 = front[:, 0], front[:, 1]
    no_worse = (f1[:, None] <= f1[None, :]) & (f2[:, None] <= f2[None, :])
    better = (f1[:, None] < f1[None, :]) | (f2[:, None] < f2[None, :])
    return not np.any(no_worse & better)


def _staircase(vertices: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Lowest f2 attained with f1 <= x, for each x (inf when none)."""
    out = np.full(xs.shape, np.inf)
    for f1, f2 in vertices:
        out = np.where(xs >= f1, np.minimum(out, f2), out)
    return out


def eaf_ordered(out: str) -> bool:
    """best <= median <= worst attainment surfaces, pointwise."""
    surfaces = [
        _read_pairs(os.path.join(out, f"eaf_{name}.csv"), ["f1", "f2", "level"])
        for name in ("best", "median", "worst")
    ]
    xs = np.unique(np.concatenate([s[:, 0] for s in surfaces]))
    best, median, worst = (_staircase(s, xs) for s in surfaces)
    return bool(np.all(best <= median) and np.all(median <= worst))


def check_experiment(out: str, seeds: list[int], model: str) -> tuple[set[int], dict]:
    """Failed seeds and fingerprints of one ``experiment`` output directory.

    A seed fails when the program reports it failed, when its PIAW breaks
    ``PIAW == (r1 + r2) * sigma`` or when its saved front is not mutually
    non-dominated. An unreadable report or mis-ordered attainment surfaces
    fail every seed.
    """
    try:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        ordered = eaf_ordered(out)
    except (OSError, ValueError, IndexError, KeyError):
        return set(seeds), {}
    if not ordered:
        return set(seeds), {}

    per_seed = {int(row["seed"]): row for row in report.get("per_seed", [])}
    failed = {int(f["seed"]) for f in report.get("failures", [])}
    hvs = []
    for seed in seeds:
        row = per_seed.get(seed)
        if row is None:
            failed.add(seed)
            continue
        width = (row["r1"] + row["r2"]) * row["sigma"]
        try:
            front = _read_pairs(os.path.join(out, "fronts", f"seed_{seed}.csv"), ["f1", "f2"])
        except (OSError, ValueError, IndexError):
            failed.add(seed)
            continue
        if abs(row["piaw"] - width) > PIAW_IDENTITY_TOL or not mutually_nondominated(front):
            failed.add(seed)
            continue
        if model == "two_stage":
            hvs.append(hv.two_stage_hv(front))
        else:
            hvs.append(hv.three_stage_hv(front, row["sigma"]))

    picps = [per_seed[s]["picp"] for s in seeds if s in per_seed]
    if picps and abs(report["picp_mean"] - float(np.mean(picps))) > PIAW_IDENTITY_TOL:
        return set(seeds), {}
    fingerprints = {
        "test_picp_mean": report["picp_mean"],
        "test_piaw_mean": report["piaw_mean"],
        "front_hv_mean": float(np.mean(hvs)) if hvs else math.nan,
    }
    return failed, fingerprints


def check_analyze(out: str) -> tuple[bool, dict]:
    """Whether ``chaos.json`` holds finite ``lambda``, ``tau`` and ``m``; the
    fingerprint is the distance of lambda from the Henon textbook value."""
    try:
        with open(os.path.join(out, "chaos.json")) as fh:
            chaos = json.load(fh)
        values = [float(chaos[k]) for k in ("lambda", "tau", "m")]
    except (OSError, ValueError, KeyError, TypeError):
        return False, {}
    if not all(math.isfinite(v) for v in values):
        return False, {}
    return True, {"lambda_abs_err": abs(values[0] - HENON_LAMBDA)}
