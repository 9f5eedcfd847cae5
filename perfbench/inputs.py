"""Seeded inputs for the three benchmark workloads.

Everything here is derived from the workload seed alone; the program under
test only ever sees the CSV and the JSON config written by ``write_inputs``.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Headline CPI inflation (MoSPI, 2012-01..2018-12): length, mean and std that
# the Lorenz stand-in is rescaled to.
CPI_MONTHS = 84
CPI_MEAN = 6.23
CPI_STD = 2.71

HENON_A = 1.4
HENON_B = 0.3
HENON_N = 4000
HENON_LAMBDA = 0.419  # textbook largest Lyapunov exponent, nats per iterate

AR2_N = 200

# Commands per workload. Seeds per experiment command are kept small so a
# run repeats the command several times and reports a median. ``probe``
# names the machine-speed gauge the command's wall time is divided by
# (``child.PROBES``).
WORKLOADS = {
    "cpi_dual_serial": {
        "command": "experiment",
        "n_seeds": 2,
        "probe": "interpreter",
        "config": {
            "model": "three_stage_dual",
            "preset": "cpi_headline",
            "tau": 1,
            "m": 8,
            "test_horizon": 6,
            "workers": 1,
        },
    },
    "ar2_two_stage_w2": {
        "command": "experiment",
        "n_seeds": 2,
        "probe": "interpreter",
        "config": {
            "model": "two_stage",
            "tau": 1,
            "m": 2,
            "test_horizon": 20,
            "workers": 2,
        },
    },
    "henon_analyze": {
        "command": "analyze",
        "n_seeds": 0,
        "probe": "arrays",
        "config": {},
    },
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    """One generator per (workload, seed); workloads never share a stream."""
    tag = sum(ord(c) << (8 * (i % 4)) for i, c in enumerate(workload))
    return np.random.default_rng([seed, tag])


def lorenz_cpi(rng: np.random.Generator) -> np.ndarray:
    """Lorenz x-coordinate (sigma 10, rho 28, beta 8/3), RK4 with dt 0.01,
    sampled every 0.1 time units, rescaled to the headline CPI mean and std.

    The seed perturbs the initial state; a 20-unit transient is discarded so
    every seed starts on the attractor at a different phase.
    """

    def f(s):
        x, y, z = s
        return np.array([10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z])

    dt, every, burn = 0.01, 10, 2000
    s = np.array([1.0, 1.0, 1.0]) + rng.uniform(-1.0, 1.0, 3)
    out = np.empty(CPI_MONTHS)
    for step in range(burn + every * CPI_MONTHS):
        k1 = f(s)
        k2 = f(s + 0.5 * dt * k1)
        k3 = f(s + 0.5 * dt * k2)
        k4 = f(s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        j = step + 1 - burn
        if j > 0 and j % every == 0:
            out[j // every - 1] = s[0]
    return CPI_MEAN + CPI_STD * (out - out.mean()) / out.std()


def ar2(rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(2) draw, the acceptance suite's end-to-end shape:
    intercept 0.05, phi 0.49/0.49, noise sd 0.05, 100 burn-in steps."""
    burn = 100
    noise = rng.normal(0.0, 0.05, AR2_N + burn)
    x = np.zeros(AR2_N + burn)
    for t in range(2, AR2_N + burn):
        x[t] = 0.05 + 0.49 * x[t - 1] + 0.49 * x[t - 2] + noise[t]
    return x[burn:]


def henon(rng: np.random.Generator) -> np.ndarray:
    """Henon map x-coordinate (a 1.4, b 0.3); the seed perturbs the initial
    state and 1000 transient iterates are discarded."""
    burn = 1000
    x, y = 0.1 + rng.uniform(-0.05, 0.05), 0.1 + rng.uniform(-0.05, 0.05)
    out = np.empty(HENON_N)
    for i in range(burn + HENON_N):
        x, y = 1.0 - HENON_A * x * x + y, HENON_B * x
        if i >= burn:
            out[i - burn] = x
    return out


def _monthly_labels(n: int, year: int = 2012) -> list[str]:
    return [f"{year + i // 12}-{i % 12 + 1:02d}" for i in range(n)]


def write_inputs(workload: str, seed: int, directory: str) -> tuple[str, str, list[int]]:
    """Write ``series.csv`` and ``config.json`` for one workload seed.

    Returns the two paths and the experiment seed list (empty for analyze).
    """
    spec = WORKLOADS[workload]
    rng = _rng(workload, seed)
    if workload == "cpi_dual_serial":
        values, labels = lorenz_cpi(rng), _monthly_labels(CPI_MONTHS)
    elif workload == "ar2_two_stage_w2":
        values, labels = ar2(rng), None
    else:
        values, labels = henon(rng), None
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, spec["n_seeds"])]

    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, "series.csv")
    with open(csv_path, "w") as fh:
        if labels is None:
            fh.write("value\n")
            fh.writelines(f"{v!r}\n" for v in values.tolist())
        else:
            fh.write("date,value\n")
            fh.writelines(f"{d},{v!r}\n" for d, v in zip(labels, values.tolist()))
    config = dict(spec["config"])
    if seeds:
        config["seeds"] = seeds
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return csv_path, config_path, seeds
