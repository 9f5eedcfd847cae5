"""Acceptance gate: one test per release criterion, each printing a verdict
line and enforcing its stated tolerance.

Criterion 8 exercises soft targets against the optional CPI dataset and is
skipped unless ``CHAOSPI_CPI_DIR`` points at the three series files.
"""

import json
import math
import os
import pathlib
import time

import numpy as np
import pytest

from chaospi import cli
from chaospi.chaos import AnalyzeOptions, EmbeddingParams, analyze, cao_min_dimension, lyapunov_rosenstein
from chaospi.eaf import FrontEnsemble, attainment_surface, standard_levels
from chaospi.metrics import directional_symmetry, piaw, picp, smape
from chaospi.nsga2 import NsgaParams, Problem, nondominated_fronts, run as nsga_run
from chaospi.pipeline import PipelineConfig, apply_preset, fit_stage3, run_experiment
from chaospi.series import TimeSeries, load_series
from helpers import (
    ar2_values,
    attained_count,
    brute_force_fronts,
    elitism_violations,
    logistic_map,
    sine_wave,
    surface_value,
    write_series,
)


def verdict(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {state}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# --- criterion 1: metric oracles ------------------------------------------


def test_criterion_01_metric_oracles():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        a = rng.uniform(-50.0, 50.0, n)
        p = rng.uniform(-50.0, 50.0, n)
        lo = np.minimum(a, p) - rng.uniform(0.0, 1.0, n)
        hi = np.maximum(a, p) - rng.uniform(0.0, 2.0, n)
        hi = np.maximum(lo, hi)

        s = sum(abs(x - y) / ((abs(x) + abs(y)) / 2.0) for x, y in zip(a, p) if abs(x) + abs(y) > 0)
        worst = max(worst, abs(smape(a, p) - 100.0 * s / n))

        hits = sum(1 for t in range(1, n) if (a[t] - a[t - 1]) * (p[t] - p[t - 1]) > 0)
        worst = max(worst, abs(directional_symmetry(a, p) - 100.0 * hits / (n - 1)))

        inside = sum(1 for x, l, u in zip(a, lo, hi) if l <= x <= u)
        worst = max(worst, abs(picp(a, lo, hi) - inside / n))
        worst = max(worst, abs(piaw(lo, hi) - sum(hi - lo) / n))
    elapsed = time.perf_counter() - start
    verdict(1, "metric oracles", worst <= 1e-12 and elapsed < 1.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


# --- criterion 2: Lyapunov recovery ----------------------------------------


def test_criterion_02_lyapunov_recovery():
    start = time.perf_counter()
    est = lyapunov_rosenstein(
        logistic_map(2000), EmbeddingParams(tau=1, m=2), fit_stop=8
    )
    t_logistic = time.perf_counter() - start

    start = time.perf_counter()
    report = analyze(TimeSeries(values=sine_wave(1000)))
    t_sine = time.perf_counter() - start

    ok = (
        0.59 <= est.exponent <= 0.79
        and report.lyapunov <= 0.01
        and t_logistic < 5.0
        and t_sine < 5.0
    )
    verdict(2, "Lyapunov recovery", ok,
            f"logistic {est.exponent:.4f} in [0.59, 0.79], sine {report.lyapunov:.4f} <= 0.01")


# --- criterion 3: Cao recovery ---------------------------------------------


def test_criterion_03_cao_recovery():
    start = time.perf_counter()
    m, e1, _ = cao_min_dimension(logistic_map(2000), tau=1, max_dim=10)
    noise = np.random.default_rng(5).uniform(0.0, 1.0, 2000)
    _, _, e2 = cao_min_dimension(noise, tau=1, max_dim=10)
    elapsed = time.perf_counter() - start

    e1_flat = bool(np.all(np.abs(e1[m - 1 :] - 1.0) < 0.05))
    e2_flat = bool(np.all(np.abs(e2[:8] - 1.0) < 0.1))
    verdict(3, "Cao recovery", m <= 3 and e1_flat and e2_flat and elapsed < 10.0,
            f"logistic m={m}, E1 flat beyond={e1_flat}, noise E2 flat={e2_flat}, {elapsed:.1f}s")


# --- criterion 4: NSGA-II on ZDT1 -----------------------------------------


def zdt1_problem(n_vars=30):
    def evaluate(X):
        f1 = X[:, 0]
        g = 1.0 + 9.0 * np.sum(X[:, 1:], axis=1) / (n_vars - 1)
        return np.column_stack([f1, g * (1.0 - np.sqrt(f1 / g))])

    return Problem(lower=np.zeros(n_vars), upper=np.ones(n_vars), evaluate=evaluate)


@pytest.fixture(scope="module")
def zdt1_run():
    snapshots = []
    params = NsgaParams(pop_size=50, generations=250, crossover_prob=0.9,
                        crossover_eta=15.0, mutation_prob=1.0, mutation_eta=20.0)
    start = time.perf_counter()
    front = nsga_run(zdt1_problem(), params, seed=42,
                     on_generation=lambda g, F: snapshots.append(
                         F[nondominated_fronts(F)[0]]))
    elapsed = time.perf_counter() - start
    return front, snapshots, elapsed, params


def test_criterion_04a_zdt1_convergence(zdt1_run):
    front, _, elapsed, _ = zdt1_run
    objs = np.array([f for _, f in front])
    gaps = np.abs(objs[:, 1] - (1.0 - np.sqrt(objs[:, 0])))
    mean_gap = float(gaps.mean())
    spread_ok = objs[:, 0].min() <= 0.05 and objs[:, 0].max() >= 0.95
    verdict("4a", "ZDT1 convergence and spread", mean_gap < 0.05 and spread_ok and elapsed < 30.0,
            f"mean gap {mean_gap:.4f}, f1 in [{objs[:, 0].min():.3f}, {objs[:, 0].max():.3f}], {elapsed:.1f}s")


def test_criterion_04b_zdt1_elitism_invariant(zdt1_run):
    """Checks the elitism that NSGA-II guarantees: a front-0 point of
    generation t may be missing from generation t+1 (no new front-0 point
    weakly dominates it) only once front 0 saturates the population, only if
    it dominates no survivor, and only if it lies strictly inside the new
    front's extent in both objectives.

    Strict no-regression is not asserted: crowding-distance truncation drops
    interior points for diversity once front 0 saturates, and nothing that
    remains dominates them. The detail reports how often that happens and
    the worst additive epsilon by which a lost point escapes the next front.
    """
    _, snapshots, _, params = zdt1_run
    violations = elitism_violations(snapshots, params.pop_size)
    eps = [eps_coverage(prev, nxt) for prev, nxt in zip(snapshots, snapshots[1:])]
    lost = sum(e > 0.0 for e in eps)
    detail = f"{lost} of {len(eps)} transitions lost front-0 points, worst eps {max(eps):.3f}"
    if violations:
        t, clause = violations[0]
        detail += f"; {len(violations)} violations, first of the {clause} clause at transition {t}"
    else:
        detail += "; each lost point an interior peer after saturation"
    verdict("4b", "ZDT1 elitism under crowding truncation", not violations, detail)


# --- criterion 5: sorting oracle -------------------------------------------


def test_criterion_05_sort_oracle():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    for case in range(500):
        n = int(rng.integers(1, 101))
        if case % 2 == 0:
            objs = rng.integers(0, 8, size=(n, 2)).astype(float)  # heavy ties
        else:
            objs = rng.uniform(0.0, 1.0, size=(n, 2))
        got = [sorted(front.tolist()) for front in nondominated_fronts(objs)]
        assert got == brute_force_fronts(objs), f"case {case} diverged"
    elapsed = time.perf_counter() - start
    verdict(5, "non-dominated sort oracle", True, f"500 populations, {elapsed:.1f}s")


# --- criterion 6: stage-3 search against the exhaustive grid ---------------


def pareto_min(points):
    """Non-dominated subset of (f1, f2) rows, f1 ascending."""
    best = {}
    for a, b in points:
        if a not in best or b < best[a]:
            best[a] = b
    front = []
    low = math.inf
    for a in sorted(best):
        if best[a] < low - 1e-15:
            front.append((a, best[a]))
            low = best[a]
    return np.array(front)


def eps_coverage(covered, covering):
    """Smallest eps so every row of ``covered`` is weakly dominated by some
    row of ``covering`` shifted down by eps in both objectives."""
    d1 = covering[None, :, 0] - covered[:, None, 0]
    d2 = covering[None, :, 1] - covered[:, None, 1]
    return float(np.maximum(d1, d2).clip(min=0.0).min(axis=1).max())


def test_criterion_06_stage3_vs_grid_oracle():
    rng = np.random.default_rng(7)
    point = rng.uniform(4.0, 6.0, 10)
    actual = point + rng.uniform(-0.25, 0.25, 10)
    sigma = 0.3

    start = time.perf_counter()
    params = NsgaParams(pop_size=90, generations=300, crossover_prob=0.75,
                        crossover_eta=15.0, mutation_prob=1.0, mutation_eta=20.0)
    _, F = fit_stage3(actual, point, sigma, "dual", params, seed=11)
    elapsed = time.perf_counter() - start
    nsga_front = pareto_min(F.tolist())

    rs = 0.001 * np.arange(1, 1000)
    low_ok = (point[None, :] - rs[:, None] * sigma <= actual[None, :]).astype(float)
    high_ok = (actual[None, :] <= point[None, :] + rs[:, None] * sigma).astype(float)
    coverage = (low_ok @ high_ok.T) / point.size
    widths = (rs[:, None] + rs[None, :]) * sigma
    grid_front = pareto_min(zip((-coverage).ravel(), widths.ravel()))

    eps_a = eps_coverage(grid_front, nsga_front)
    eps_b = eps_coverage(nsga_front, grid_front)
    ok = eps_a <= 1e-3 and eps_b <= 1e-3 and elapsed < 60.0
    verdict(6, "stage-3 front vs 0.001 grid", ok,
            f"eps(grid|search)={eps_a:.2e}, eps(search|grid)={eps_b:.2e}, {elapsed:.1f}s")


# --- criterion 7: end-to-end synthetic -------------------------------------


@pytest.fixture(scope="module")
def synthetic_experiments():
    series = TimeSeries(values=ar2_values(n=200, seed=2024))
    seeds = list(range(20))
    embedding = AnalyzeOptions(tau=1, m=2)
    two = run_experiment(
        series, PipelineConfig(model="two_stage", test_horizon=20, chaos=embedding),
        seeds, workers=4,
    )
    three = run_experiment(
        series, PipelineConfig(model="three_stage_single", test_horizon=20, chaos=embedding),
        seeds, workers=4,
    )
    return two, three


def test_criterion_07_end_to_end_synthetic(synthetic_experiments):
    two, three = synthetic_experiments
    assert not two.failures and not three.failures

    identity_gap = 0.0
    for report in (two, three):
        for r in report.results:
            expected = (r.interval.r1 + r.interval.r2) * r.interval.sigma
            identity_gap = max(identity_gap, abs(r.test.piaw - expected),
                               abs(r.train.piaw - expected))

    ok = (
        two.picp_mean >= 0.80
        and three.picp_mean >= two.picp_mean
        and identity_gap <= 1e-12
    )
    verdict(7, "end-to-end synthetic coverage", ok,
            f"two-stage picp {two.picp_mean:.4f} >= 0.80, "
            f"three-stage {three.picp_mean:.4f} >= two-stage, "
            f"width identity gap {identity_gap:.1e}")


# --- criterion 8: CPI soft targets (dataset-conditional) --------------------

CPI_SERIES = {
    # file stem -> (mean, std, max, min), lyapunov, dimension, preset,
    #              two-stage (picp, piaw)
    "cpi_headline": ((6.23, 2.71, 11.16, 1.46), 0.074, 8, "cpi_headline", (0.93, 1.89)),
    "cpi_food_beverages": ((6.23, 4.08, 14.45, -1.69), 0.062, 8, "cpi_food_beverages", (0.91, 2.59)),
    "cpi_fuel_light": ((6.19, 2.35, 13.13, 2.49), 0.060, 7, "cpi_fuel_light", (0.83, 1.68)),
}


@pytest.mark.skipif(
    "CHAOSPI_CPI_DIR" not in os.environ,
    reason="soft targets need the CPI CSVs (set CHAOSPI_CPI_DIR)",
)
def test_criterion_08_cpi_soft_targets():
    base = os.environ["CHAOSPI_CPI_DIR"]
    seeds = list(range(20))
    details = []
    ok = True
    for stem, (stats, lam, dim, preset, (t_picp, t_piaw)) in CPI_SERIES.items():
        series = load_series(os.path.join(base, f"{stem}.csv"))
        v = series.values
        for have, want in zip((np.mean(v), np.std(v), np.max(v), np.min(v)), stats):
            assert abs(have - want) <= 0.05, f"{stem} does not match the documented statistics"

        embedding = AnalyzeOptions(tau=1, m=dim)
        report = analyze(series, embedding)
        ok &= abs(report.lyapunov - lam) <= 0.05

        cfg = apply_preset(
            PipelineConfig(model="two_stage", test_horizon=6, chaos=embedding), preset
        )
        two = run_experiment(series, cfg, seeds, workers=4)
        ok &= abs(two.picp_mean - t_picp) <= 0.15 and abs(two.piaw_mean - t_piaw) <= 0.6

        cfg3 = apply_preset(
            PipelineConfig(model="three_stage_single", test_horizon=6, chaos=embedding), preset
        )
        three = run_experiment(series, cfg3, seeds, workers=4)
        ok &= abs(three.picp_mean - 1.00) <= 0.05
        details.append(f"{stem}: lambda {report.lyapunov:.3f}, "
                       f"2-stage ({two.picp_mean:.2f}, {two.piaw_mean:.2f}), "
                       f"3-stage picp {three.picp_mean:.2f}")
    verdict(8, "CPI soft targets", ok, "; ".join(details))


# --- criterion 9: determinism ----------------------------------------------


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = pathlib.Path(path).read_bytes()
    return out


def test_criterion_09_determinism(tmp_path):
    series = TimeSeries(values=ar2_values(n=90, seed=31))
    config = PipelineConfig(
        model="three_stage_single", test_horizon=5, chaos=AnalyzeOptions(tau=1, m=2),
        stage2=NsgaParams(pop_size=16, generations=20),
        stage3=NsgaParams(pop_size=16, generations=20),
    )
    seeds = [0, 1, 2, 3]
    serial = run_experiment(series, config, seeds, workers=1)
    parallel = run_experiment(series, config, seeds, workers=8)
    library_ok = all(
        a.test.picp == b.test.picp
        and a.test.piaw == b.test.piaw
        and a.interval == b.interval
        and np.array_equal(a.point_model.coeffs, b.point_model.coeffs)
        for a, b in zip(serial.results, parallel.results)
    ) and (serial.picp_mean, serial.picp_std) == (parallel.picp_mean, parallel.picp_std)

    csv_path = tmp_path / "series.csv"
    write_series(series, csv_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "tau": 1, "m": 2, "test_horizon": 5, "seeds": [0, 1, 2],
        "stage2": {"pop_size": 16, "generations": 20},
        "stage3": {"pop_size": 16, "generations": 20},
    }))
    trees = []
    for stamp in ("x", "y"):
        out = tmp_path / f"exp_{stamp}"
        rc = cli.main(["experiment", "--input", str(csv_path), "--config", str(cfg_path),
                       "--out", str(out)])
        assert rc == 0
        rc = cli.main(["intervals", "--input", str(csv_path), "--config", str(cfg_path),
                       "--model", "three_stage_dual", "--out", str(out / "one")])
        assert rc == 0
        trees.append(read_tree(out))
    cli_ok = trees[0] == trees[1] and len(trees[0]) >= 8

    verdict(9, "bit-identical reruns", library_ok and cli_ok,
            f"serial==parallel {library_ok}, cli trees equal {cli_ok} ({len(trees[0])} files)")


# --- criterion 10: attainment surface oracle --------------------------------


def test_criterion_10_eaf_oracle(synthetic_experiments):
    fronts = [
        np.array([[1.0, 5.0], [4.0, 2.0]]),
        np.array([[2.0, 3.0], [5.0, 1.0]]),
        np.array([[0.5, 6.0], [3.0, 2.5]]),
    ]
    ensemble = FrontEnsemble(fronts)
    surfaces = {k: attainment_surface(ensemble, k) for k in (1, 2, 3)}
    grid = np.arange(0.0, 7.0, 0.25)
    exact = all(
        (attained_count(ensemble, (x, y)) >= k) == (surface_value(surf, x) <= y)
        for x in grid
        for y in grid
        for k, surf in surfaces.items()
    )

    two, three = synthetic_experiments
    monotone = True
    for report in (two, three):
        e = FrontEnsemble([r.front for r in report.results])
        levels = standard_levels(e.n_runs)
        best = attainment_surface(e, levels["best"])
        median = attainment_surface(e, levels["median"])
        worst = attainment_surface(e, levels["worst"])
        xs = np.unique(np.concatenate([f[:, 0] for f in e.fronts]))
        for x in xs:
            if not (surface_value(best, x) <= surface_value(median, x) <= surface_value(worst, x)):
                monotone = False

    verdict(10, "attainment surface oracle", exact and monotone,
            f"grid equivalence {exact}, best<=median<=worst {monotone}")
