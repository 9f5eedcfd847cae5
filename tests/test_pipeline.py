"""Pipeline tests: the stage fits against recomputed metrics, the grid
search against exhaustive enumeration, and the seeded runs end to end."""

import contextlib
import math
import multiprocessing
import os
import pickle
import signal
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaospi import pipeline
from chaospi.chaos import AnalyzeOptions, EmbeddingParams, reconstruct
from chaospi.errors import (
    ConfigError,
    DegenerateTrainingWarning,
    DimensionMismatchError,
    EmptyFrontError,
    InvalidSplitError,
    SeriesTooShortError,
    WorkerExitError,
    ZeroVarianceError,
)
from chaospi.metrics import directional_symmetry, piaw, picp, smape
from chaospi.nsga2 import NsgaParams
from chaospi.pipeline import (
    PRESETS,
    ArModel,
    IntervalParams,
    IntervalSeries,
    PipelineConfig,
    apply_preset,
    ar_predict,
    fit_stage2,
    fit_stage3,
    grid_search_r,
    pi_bounds,
    run_experiment,
    run_model,
    select_interval_params,
    select_point_model,
)
from chaospi.series import TimeSeries
from helpers import (
    ar2_values,
    dense_grid_search,
    exit_in_worker,
    flat_training_values,
    fork_only,
    henon_x,
    same_bits,
    splitmix64_mix,
)

SMALL_STAGE2 = NsgaParams(pop_size=20, generations=25, crossover_prob=0.8,
                          crossover_eta=15.0, mutation_prob=1.0, mutation_eta=20.0)
SMALL_STAGE3 = NsgaParams(pop_size=24, generations=40, crossover_prob=0.75,
                          crossover_eta=15.0, mutation_prob=1.0, mutation_eta=20.0)


def small_config(**kw):
    base = dict(
        test_horizon=6,
        chaos=AnalyzeOptions(tau=1, m=2),
        stage2=SMALL_STAGE2,
        stage3=SMALL_STAGE3,
    )
    base.update(kw)
    return PipelineConfig(**base)


def use_cpus(monkeypatch, cpus, affinity=True):
    """Give ``run_experiment`` ``cpus`` usable CPUs.

    With ``affinity`` the CPUs are this process's affinity set and
    ``os.cpu_count`` reports many more; without it ``os.sched_getaffinity``
    is absent, as on macOS, and ``os.cpu_count`` reports ``cpus``."""
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def use_recording_pool(monkeypatch, cpus, affinity=True):
    """Give ``run_experiment`` ``cpus`` usable CPUs (see ``use_cpus``) and,
    in place of its worker processes, a stand-in that records the number of
    workers and the job and runs the job in this process, so no process is
    started. Returns the pools made."""
    pools = []

    def recording_shares(job, seeds, size):
        pools.append(SimpleNamespace(max_workers=size, job=job))
        return [job(s) for s in seeds]

    monkeypatch.setattr("chaospi.workers.run_shares", recording_shares)
    use_cpus(monkeypatch, cpus, affinity)
    return pools


def assert_same_runs(serial, parallel):
    """The two experiment reports agree seed for seed."""
    for a, b in zip(serial.results, parallel.results, strict=True):
        assert a.seed == b.seed
        assert np.array_equal(a.point_model.coeffs, b.point_model.coeffs)
        assert (a.test.picp, a.test.piaw) == (b.test.picp, b.test.piaw)
    assert serial.picp_mean == parallel.picp_mean
    assert serial.piaw_std == parallel.piaw_std


# One forced and one automatic (tau, m), each on a series it suits; the runs
# hold out the last 6 points.
EMBEDDINGS = {
    "forced": (ar2_values(n=120, seed=77), AnalyzeOptions(tau=1, m=2)),
    "automatic": (henon_x(100), AnalyzeOptions()),
}
# arbitrary finite values for the held-out points
TEST_POINTS = st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=6, max_size=6)


def chaos_bits(chaos):
    """Every field of a chaos report, each float as its bits."""
    curves = (chaos.e1_curve, chaos.e2_curve, chaos.divergence_curve)
    return (chaos.tau, chaos.m, chaos.chaotic, np.float64(chaos.lyapunov).tobytes(),
            *(None if c is None else c.tobytes() for c in curves))


def training_bits(result):
    """Everything a run takes from its training segment, each float as its
    bits: the point model, the interval parameters, the front and every
    training metric."""
    ip, t = result.interval, result.train
    floats = (result.point_model.coeffs, [ip.r1, ip.r2, ip.sigma], result.front,
              t.point, t.lower, t.upper, t.actual,
              [t.picp, t.piaw, result.train_smape, result.train_ds])
    return (result.seed, result.point_model.params, result.front_objectives,
            *(np.asarray(f, dtype=float).tobytes() for f in floats))


def no_analysis(*args):
    raise AssertionError("the chaos analysis ran")


def dummy_model(m=1):
    return ArModel(np.full(m + 1, 0.1), EmbeddingParams(tau=1, m=m))


def test_ar_predict_known_value():
    model = ArModel(np.array([0.1, 0.4]), EmbeddingParams(tau=1, m=1))
    assert ar_predict(model, np.array([[5.0]])) == pytest.approx([2.1])
    model2 = ArModel(np.array([0.0, 0.25, -0.25]), EmbeddingParams(tau=1, m=2))
    assert ar_predict(model2, np.array([[4.0, 2.0], [1.0, 1.0]])) == pytest.approx([0.5, 0.0])


def test_ar_model_validation():
    with pytest.raises(ConfigError):
        ArModel(np.array([0.5, 0.1]), EmbeddingParams(tau=1, m=1))  # on the bound
    with pytest.raises(DimensionMismatchError):
        ArModel(np.array([0.1]), EmbeddingParams(tau=1, m=1))
    with pytest.raises(DimensionMismatchError):
        ar_predict(dummy_model(m=2), np.array([[1.0]]))


def test_pi_bounds_known_value():
    ip = IntervalParams(r1=0.5, r2=0.9, sigma=2.0)
    lower, upper = pi_bounds(np.array([5.0, 1.0]), ip)
    assert lower == pytest.approx([4.0, 0.0])
    assert upper == pytest.approx([6.8, 2.8])


def test_interval_params_validation():
    for r1, r2 in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
        with pytest.raises(ConfigError):
            IntervalParams(r1=r1, r2=r2, sigma=1.0)
    with pytest.raises(ConfigError):
        IntervalParams(r1=0.5, r2=0.5, sigma=-1.0)


def test_interval_series_validation():
    two = np.zeros(2)
    with pytest.raises(DimensionMismatchError, match="actual must align"):
        IntervalSeries(point=two, lower=two, upper=two, actual=np.zeros(3), picp=1.0, piaw=0.0)
    with pytest.raises(ConfigError, match="lower bounds must not exceed"):
        IntervalSeries(point=two, lower=np.ones(2), upper=two, actual=two, picp=1.0, piaw=0.0)


class TestGridSearch:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.0, 10.0, 12)
        actual = pred + rng.normal(0.0, 0.8, 12)
        sigma = 1.1
        step, target = 0.05, 0.9
        got = grid_search_r(actual, pred, sigma, grid_step=step, picp_target=target)

        rs = step * np.arange(1, int((1.0 - step) / step + 1e-9) + 1)
        best = None
        for r1 in rs:
            for r2 in rs:
                cov = picp(actual, pred - r1 * sigma, pred + r2 * sigma)
                width = (r1 + r2) * sigma
                key = (cov >= target, -width, -r1, -r2)
                cand = (cov, width, r1, r2)
                if best is None:
                    best, best_key = cand, key
                elif key > best_key:
                    best, best_key = cand, key
        if best[0] < target:
            # no pair reaches the target; redo preferring raw coverage
            best = max(
                ((picp(actual, pred - r1 * sigma, pred + r2 * sigma), -(r1 + r2) * sigma, -r1, -r2, r1, r2)
                 for r1 in rs for r2 in rs),
            )
            assert got.r1 == pytest.approx(best[4]) and got.r2 == pytest.approx(best[5])
        else:
            assert got.r1 == pytest.approx(best[2])
            assert got.r2 == pytest.approx(best[3])

    def test_matches_dense_coverage_table(self):
        # tie-heavy cases: values on a 0.1 lattice, points on their forecast,
        # far outliers that make a target of 1.0 unreachable, n = 1, and a
        # few at the finest allowed step
        rng = np.random.default_rng(2011)
        steps = [0.01, 0.02, 0.05, 0.1, 0.13, 0.25, 0.3, 0.49]
        for case in range(1200):
            n = 1 if case % 10 == 0 else int(rng.integers(2, 250))
            pred = np.round(rng.uniform(-1.0, 1.0, n), 1)
            actual = pred + np.round(rng.normal(0.0, rng.choice([0.1, 0.5, 2.0]), n), 1)
            actual[rng.random(n) < 0.2] += 40.0
            on = rng.random(n) < 0.2
            actual[on] = pred[on]
            sigma = float(rng.choice([0.1, 0.5, 1.0, 3.0]))
            step = 0.001 if case % 100 == 7 else float(rng.choice(steps))
            target = float(rng.choice([0.5, 0.8, 0.9, 0.95, 1.0]))
            got = grid_search_r(actual, pred, sigma, grid_step=step, picp_target=target)
            assert (got.r1, got.r2) == dense_grid_search(actual, pred, sigma, step, target), case

    def test_perfect_predictions_take_smallest_corner(self):
        pred = np.array([1.0, 2.0, 3.0])
        got = grid_search_r(pred.copy(), pred, sigma=1.0, grid_step=0.01, picp_target=0.95)
        assert (got.r1, got.r2) == (pytest.approx(0.01), pytest.approx(0.01))

    @pytest.mark.filterwarnings("ignore::chaospi.errors.DegenerateTrainingWarning")
    def test_unreachable_target_maximizes_coverage(self):
        pred = np.zeros(4)
        actual = np.array([0.0, 0.0, 0.0, 50.0])  # the outlier is never covered
        got = grid_search_r(actual, pred, sigma=1.0, grid_step=0.1, picp_target=1.0)
        cov = picp(actual, pred - got.r1, pred + got.r2)
        assert cov == pytest.approx(0.75)
        assert (got.r1, got.r2) == (pytest.approx(0.1), pytest.approx(0.1))

    def test_constant_predictions_warn_and_collapse(self):
        pred = np.full(5, 2.0)
        with pytest.warns(DegenerateTrainingWarning):
            got = grid_search_r(pred.copy(), pred, sigma=0.0, grid_step=0.02)
        assert got.sigma == 0.0
        assert got.r1 == got.r2 == pytest.approx(0.02)

    def test_coverage_is_judged_at_the_bound(self):
        # the gap p - a rounds to 0.6000000000000001, above 0.6 * sigma, but
        # the bound p - 0.6 * sigma is exactly -0.8, so r1 = 0.6 covers
        pred, actual = np.array([-0.2]), np.array([-0.8])
        got = grid_search_r(actual, pred, sigma=1.0, grid_step=0.3, picp_target=0.95)
        assert (got.r1, got.r2) == (0.6, 0.3)
        assert picp(actual, *pi_bounds(pred, got)) == 1.0

    def test_validation(self):
        a = np.zeros(3)
        with pytest.raises(ConfigError):
            grid_search_r(a, a, 1.0, grid_step=0.5)
        with pytest.raises(ConfigError):  # below the floor of 999 multipliers per side
            grid_search_r(a, a, 1.0, grid_step=1e-61)
        with pytest.raises(ConfigError):
            grid_search_r(a, a, 1.0, picp_target=0.0)


class TestStage2:
    def setup_method(self):
        self.emb = EmbeddingParams(tau=1, m=2)
        self.inputs, self.targets = reconstruct(TimeSeries(values=ar2_values(n=80, seed=9)), self.emb)

    def test_front_objectives_match_recomputation(self):
        X, F = fit_stage2(self.inputs, self.targets, self.emb, SMALL_STAGE2, 4)
        assert len(F) and X.shape == (len(F), 3)
        for x, f in zip(X, F):
            pred = ar_predict(ArModel(x, self.emb), self.inputs)
            assert f[0] == pytest.approx(smape(self.targets, pred), abs=1e-12)
            assert -f[1] == pytest.approx(directional_symmetry(self.targets, pred), abs=1e-12)
            assert np.all(np.abs(x) < 0.5)

    def test_front_is_mutually_nondominated(self):
        _, F = fit_stage2(self.inputs, self.targets, self.emb, SMALL_STAGE2, 4)
        objs = [tuple(f) for f in F]
        for a in objs:
            assert not any(
                b[0] <= a[0] and b[1] <= a[1] and b != a for b in objs
            )

    def test_too_few_rows(self):
        with pytest.raises(SeriesTooShortError):
            fit_stage2(self.inputs[:3], self.targets[:3], self.emb, SMALL_STAGE2, 0)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            fit_stage2(self.inputs[:, :1], self.targets, self.emb, SMALL_STAGE2, 0)


def captured_problem(monkeypatch, fit, *args):
    """The ``Problem`` a stage fit hands to the engine."""
    seen = []
    monkeypatch.setattr(pipeline, "nsga_run", lambda problem, params, seed: seen.append(problem) or [])
    fit(*args)
    return seen[0]


def test_batched_stage2_objective_matches_per_vector_values(monkeypatch):
    emb = EmbeddingParams(tau=1, m=2)
    X, y = reconstruct(TimeSeries(values=ar2_values(n=80, seed=9)), emb)
    problem = captured_problem(monkeypatch, fit_stage2, X, y, emb, SMALL_STAGE2, 0)
    C = np.random.default_rng(3).uniform(problem.lower, problem.upper, size=(40, 3))
    got = problem.evaluate(C)
    assert got.shape == (40, 2)
    for c, f in zip(C, got):
        # the matrix product may sum in another order than X @ c did
        pred = c[0] + X @ c[1:]
        assert f[0] == pytest.approx(smape(y, pred), abs=1e-12)
        assert f[1] == pytest.approx(-directional_symmetry(y, pred), abs=1e-12)


def stage3_inputs(case):
    """(actual, predicted, sigma) for the stage-3 objective checks."""
    rng = np.random.default_rng(12)
    pred = rng.uniform(2.0, 4.0, 15)
    actual = pred + rng.normal(0.0, 0.4, 15)
    if case == "noisy":
        return actual, pred, 0.5
    if case == "sigma_not_a_power_of_two":
        return actual, pred, 0.37
    # tied predictions, actuals on a 0.1 grid so that gaps fall on multiples
    # of sigma / 5, and every third point on its forecast
    pred = np.repeat([2.0, 2.5, 3.1], 5)
    actual = np.round(pred + rng.normal(0.0, 0.4, 15), 1)
    actual[::3] = pred[::3]
    return actual, pred, 0.0 if case == "zero_sigma" else 0.5


@pytest.mark.parametrize(
    "case", ["noisy", "sigma_not_a_power_of_two", "on_and_tied", "zero_sigma"]
)
@pytest.mark.parametrize("variant", ["single", "dual"])
@pytest.mark.filterwarnings("ignore::chaospi.errors.DegenerateTrainingWarning")
def test_batched_stage3_objective_is_bit_identical_to_per_vector_values(
    monkeypatch, variant, case
):
    actual, pred, sigma = stage3_inputs(case)
    problem = captured_problem(monkeypatch, fit_stage3, actual, pred, sigma, variant, SMALL_STAGE3, 0)
    d = problem.lower.size
    V = [np.random.default_rng(3).uniform(problem.lower, problem.upper, size=(40, d))]
    if sigma > 0.0:
        # each point's gap in multiples of sigma and one ulp to either side;
        # then reaches at each point's coverage threshold and one ulp below,
        # exact where sigma is a power of two, so an ulp's error shows
        r = np.abs(pred - actual) / sigma
        t = np.concatenate(pipeline._coverage_thresholds(actual, pred, sigma)[:2])
        probes = [r, np.nextafter(r, 0.0), np.nextafter(r, 2.0)]
        probes += [t / sigma, np.nextafter(t, 0.0) / sigma]
        V += [np.column_stack([q, q])[:, :d] for q in probes]
    V = np.concatenate(V)
    got = problem.evaluate(V)
    assert got.shape == (len(V), 2)
    for v, f in zip(V, got):
        assert_stage3_row(actual, pred, sigma, v, f)


def assert_stage3_row(actual, pred, sigma, v, f):
    """One stage-3 objective row ``f`` against the metrics on the rounded
    bounds ``lo = p - R1``, ``hi = p + R2`` (``R1 = r1*sigma``,
    ``R2 = r2*sigma``) of its multiplier row ``v``.

    -PICP is ``metrics.picp`` on them bit for bit. PIAW is the exact width
    ``W = R1 + R2``, within ``(2n + 5)`` ulps of A, the largest ``|lo|``,
    ``|hi|``, of ``metrics.piaw`` on them, for n < 2**20 points. A rounded
    result is within half its own ulp of the exact one. So each bound is
    within ulp(A)/2 of ``p -/+ R``, and each width ``w = hi - lo <= 2A``
    within ulp(2A)/2 = ulp(A) of the exact difference: within 2 ulp(A) of
    ``R1 + R2``. Summing n widths in any order errs by at most
    ``(n-1)u/(1-(n-1)u) * 2nA`` (u = 2**-53, and u*A < ulp(A)); divided by
    n, less than ``(2n - 1)`` ulp(A). The division and W's own rounding, both
    of values below 4A, add at most 2 ulp(A) each.
    """
    r1, r2 = float(v[0]), float(v[-1])
    lower, upper = pred - r1 * sigma, pred + r2 * sigma
    assert f[0] == -picp(actual, lower, upper)
    assert f[1] == r1 * sigma + r2 * sigma
    if sigma == 0.0:
        assert f[1] == 0.0 == piaw(lower, upper)
    big = max(np.abs(lower).max(), np.abs(upper).max())
    assert abs(f[1] - piaw(lower, upper)) <= (2 * pred.size + 5) * np.spacing(big)


def _values(n):
    return st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)


# (actual, predicted) pairs of one length
_STAGE3_POINTS = st.integers(1, 40).flatmap(lambda n: st.tuples(_values(n), _values(n)))


@pytest.mark.filterwarnings("ignore::chaospi.errors.DegenerateTrainingWarning")
@settings(max_examples=60, deadline=None)
@given(
    points=_STAGE3_POINTS,
    sigma=st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1e3),
    rows=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
    variant=st.sampled_from(["single", "dual"]),
)
def test_stage3_objective_rows_hold_for_any_points(points, sigma, rows, variant):
    actual, pred = (np.array(side) for side in points)
    with pytest.MonkeyPatch.context() as mp:
        problem = captured_problem(mp, fit_stage3, actual, pred, sigma, variant, SMALL_STAGE3, 0)
    V = np.clip(np.array(rows)[:, : problem.lower.size], problem.lower, problem.upper)
    for v, f in zip(V, problem.evaluate(V)):
        assert_stage3_row(actual, pred, sigma, v, f)


def threshold_inputs(kind):
    """(actual, predicted) pairs where a coverage threshold is easy to get
    wrong by an ulp, or where the rounded gap is no guide at all."""
    rng = np.random.default_rng(11)
    n = 60
    if kind == "sub_ulp_gaps":
        pred = rng.uniform(-5.0, 5.0, n)
        return pred + rng.integers(-3, 4, n) * np.spacing(pred), pred
    if kind == "lattice":
        pred = np.round(rng.uniform(-3.0, 3.0, n), 1)
        return np.round(pred + rng.normal(0.0, 0.5, n), 1), pred
    if kind == "near_1e15":
        pred = 1e15 * rng.choice([-1.0, 1.0], n) + rng.integers(-50, 50, n)
        return pred + rng.integers(-5, 6, n), pred
    if kind == "on_forecast":
        pred = rng.normal(0.0, 1.0, n)
        return np.where(rng.random(n) < 0.5, pred, pred + rng.normal(0.0, 1.0, n)), pred
    # huge magnitudes with infinities and NaN, each side drawn independently
    extremes = np.array([1e300, -1e300, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan,
                         0.0, 1.0, 5e-324, -5e-324])
    with np.errstate(over="ignore"):
        actual = rng.choice(extremes, n) * rng.choice([1.0, 1.5, 1.0 - 2.0**-53], n)
    return actual, rng.choice(extremes, n)


@pytest.mark.parametrize(
    "kind", ["sub_ulp_gaps", "lattice", "near_1e15", "on_forecast", "extremes"]
)
def test_coverage_thresholds_are_the_least_covering_reaches(kind):
    actual, pred = threshold_inputs(kind)
    below, above, on = pipeline._coverage_thresholds(actual, pred, 1.0)
    # one point at a time, each mirrored so that it lies below its forecast
    lone = []
    for a, p in zip(actual, pred):
        if not (a < p or a > p):
            continue  # on its forecast, or NaN
        side = 1.0 if a < p else -1.0
        b, x, _ = pipeline._coverage_thresholds(np.array([a]), np.array([p]), 1.0)
        t = float((b if side > 0 else x)[0])
        lone.append((side, t))
        a, p = side * a, side * p
        if p == np.inf:
            assert math.isnan(t)  # no reach covers it
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            assert a >= p - t
            assert not a >= p - np.nextafter(t, 0.0)
    assert same_bits(below, np.sort([t for side, t in lone if side > 0]))
    assert same_bits(above, np.sort([t for side, t in lone if side < 0]))
    assert on == int(np.count_nonzero(actual == pred))


class TestPointSelection:
    # (smape, -ds) rows
    def front(self):
        return np.array([(2.0, -90.0), (10.0, -98.0), (3.0, -96.5)])

    def test_min_smape(self):
        assert self.front()[select_point_model(self.front()), 0] == 2.0

    def test_min_smape_tie_prefers_higher_ds(self):
        F = np.array([(5.0, -60.0), (5.0, -70.0)])
        assert F[select_point_model(F, "min_smape"), 1] == -70.0

    def test_max_ds(self):
        assert self.front()[select_point_model(self.front(), "max_ds"), 1] == -98.0

    def test_knee_picks_farthest_from_chord(self):
        assert self.front()[select_point_model(self.front(), "knee"), 0] == 3.0

    def test_knee_falls_back_below_three_points(self):
        F = self.front()[:2]
        assert F[select_point_model(F, "knee"), 0] == 2.0

    def test_errors(self):
        with pytest.raises(EmptyFrontError):
            select_point_model(np.empty((0, 2)))
        with pytest.raises(ConfigError):
            select_point_model(self.front(), "best")


class TestStage3:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.pred = rng.uniform(2.0, 4.0, 15)
        self.actual = self.pred + rng.normal(0.0, 0.4, 15)
        self.sigma = 0.5

    def test_objectives_match_recomputation(self):
        X, F = fit_stage3(self.actual, self.pred, self.sigma, "dual", SMALL_STAGE3, 2)
        assert len(F) and X.shape == (len(F), 2)
        for (r1, r2), (neg_picp, width) in zip(X, F):
            lower, upper = pi_bounds(self.pred, IntervalParams(r1, r2, self.sigma))
            assert -neg_picp == pytest.approx(picp(self.actual, lower, upper), abs=1e-12)
            assert width == pytest.approx(piaw(lower, upper), abs=1e-12)
            assert width == pytest.approx((r1 + r2) * self.sigma, abs=1e-12)

    def test_single_variant_shares_one_multiplier(self):
        X, F = fit_stage3(self.actual, self.pred, self.sigma, "single", SMALL_STAGE3, 2)
        assert X.shape == (len(F), 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_stage3(self.actual, self.pred, self.sigma, "triple", SMALL_STAGE3, 0)


@pytest.mark.parametrize(
    "actual, pred, sigma, error, message",
    [
        (np.zeros(0), np.zeros(0), 1.0, DimensionMismatchError, "matching 1-d"),
        (np.zeros((3, 2)), np.zeros((3, 2)), 1.0, DimensionMismatchError, "matching 1-d"),
        (np.zeros(3), np.zeros(2), 1.0, DimensionMismatchError, "matching 1-d"),
        (np.zeros(3), np.zeros(3), -0.1, ConfigError, "sigma"),
        (np.zeros(3), np.zeros(3), float("nan"), ConfigError, "sigma"),
    ],
    ids=["empty", "2d", "mismatched", "negative_sigma", "nan_sigma"],
)
@pytest.mark.parametrize(
    "fit",
    [grid_search_r, partial(fit_stage3, variant="dual", params=SMALL_STAGE3, seed=0)],
    ids=["grid_search_r", "fit_stage3"],
)
def test_interval_stages_share_input_checks(fit, actual, pred, sigma, error, message):
    with pytest.raises(error, match=message):
        fit(actual, pred, sigma)


# Front 0 of a dual stage-3 run (pop 12, 20 generations, seed 11) on 40
# points whose gaps to the forecast take six distinct values, recorded with
# repr precision from the engine's SplitMix64 stream. -PICP takes only
# multiples of 1/40, so survivor selection meets many tied and equal points;
# the values hold that sort to its output.
PINNED_STAGE3_X = [
    [1e-06, 1e-06], [1e-06, 1e-06], [0.5289514043325287, 0.5002253802470193],
    [0.5410008055294848, 0.31807442403121444], [0.21896943448792164, 0.1032963189998041],
    [1e-06, 0.1253186480345741], [0.0015665778187786837, 0.41567470743701784],
    [0.2109590903487205, 1e-06], [1e-06, 0.5015762097532046],
    [0.2052444165478331, 0.5011510627040195], [0.2052444165478331, 0.4042887234928355],
    [0.17444074521193417, 0.5011510627040195],
]
PINNED_STAGE3_F = [
    [-0.075, 2e-06], [-0.075, 2e-06], [-1.0, 1.029176784579548],
    [-0.8, 0.8590752295606993], [-0.35, 0.32226575348772574], [-0.175, 0.1253196480345741],
    [-0.45, 0.4172412852557965], [-0.25, 0.2109600903487205], [-0.55, 0.5015772097532046],
    [-0.725, 0.7063954792518526], [-0.625, 0.6095331400406686], [-0.65, 0.6755918079159537],
]


def test_stage3_reproduces_pinned_front():
    i = np.arange(40)
    actual = (i % 7) * 0.5
    predicted = actual + ((i * 13) % 11 - 5) * 0.1
    X, F = fit_stage3(actual, predicted, 1.0, "dual", NsgaParams(12, 20), 11)
    assert X.tolist() == PINNED_STAGE3_X
    assert F.tolist() == PINNED_STAGE3_F


# Front 0 of a stage-2 run (pop 12, 20 generations, seed 11) on an AR(2)
# draw of 80 points embedded with tau = 1, m = 2, recorded with repr
# precision from the engine's SplitMix64 stream. The objective is a BLAS
# matrix product, so the values also hold the batches the engine hands it
# to their shape.
PINNED_STAGE2_X = [
    [-0.17600969127575156, -0.3551555374181851, -0.1327640466358102],
    [0.3005158730915997, -0.33728190464896357, -0.14135642984775598],
    [0.24256853541915652, 0.39753251521719163, 0.499999],
    [0.3079476415010019, -0.3226063968433573, 0.36127721997773027],
    [0.23999948946020433, 0.20602881424172248, 0.499999],
    [0.37094472200346107, -0.29985321257376757, 0.4114698736873535],
    [0.31129883728809005, 0.038431456677535364, 0.499999],
    [0.303044000921758, -0.1385291710848393, 0.41966598257873816],
    [0.24389455064913837, -0.09780378417282212, 0.4676973159286981],
    [0.23143685052432525, 0.2766248462850389, 0.499999],
    [0.303044000921758, -0.10515613755204133, 0.4242930524714735],
    [0.2308665019367371, 0.2588593824521882, 0.499999],
]
PINNED_STAGE2_F = [
    [200.00000000000003, -67.53246753246754], [200.00000000000003, -67.53246753246754],
    [1.7252223714262476, -45.45454545454545], [141.06049742718093, -66.23376623376623],
    [21.23260674424055, -49.35064935064935], [114.18311038801599, -64.93506493506493],
    [39.190582676094685, -57.14285714285714], [83.21924411592866, -61.038961038961034],
    [71.25747014321959, -58.44155844155844], [13.368975064609176, -46.75324675324675],
    [75.81935780618244, -59.74025974025974], [15.433977398693669, -48.05194805194805],
]


def test_stage2_reproduces_pinned_front():
    emb = EmbeddingParams(tau=1, m=2)
    inputs, targets = reconstruct(TimeSeries(values=ar2_values(80, 9)), emb)
    X, F = fit_stage2(inputs, targets, emb, NsgaParams(12, 20), 11)
    assert X.tolist() == PINNED_STAGE2_X
    assert F.tolist() == PINNED_STAGE2_F


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_stage_seeds_hash_the_two_keys_of_the_run_seed(seed):
    # the keys 2s and 2s + 1 of the run seeds in [0, 2**63) fill [0, 2**64)
    assert pipeline._stage_seeds(seed) == (splitmix64_mix(2 * seed), splitmix64_mix(2 * seed + 1))


class TestIntervalSelection:
    # (-picp, piaw) rows
    def front(self):
        return np.array([(-1.0, 5.0), (-0.9, 2.0), (-0.96, 3.0)])

    def test_max_picp(self):
        assert self.front()[select_interval_params(self.front()), 1] == 5.0

    def test_max_picp_tie_prefers_narrow(self):
        F = np.array([(-1.0, 4.0), (-1.0, 3.0)])
        assert F[select_interval_params(F), 1] == 3.0

    def test_min_piaw_above_threshold(self):
        got = select_interval_params(self.front(), "min_piaw_above", picp_target=0.95)
        assert tuple(self.front()[got]) == (-0.96, 3.0)

    def test_min_piaw_above_falls_back_to_max_picp(self):
        got = select_interval_params(self.front(), "min_piaw_above", picp_target=0.999)
        assert self.front()[got, 0] == -1.0

    def test_errors(self):
        with pytest.raises(EmptyFrontError):
            select_interval_params(np.empty((0, 2)))
        with pytest.raises(ConfigError):
            select_interval_params(self.front(), "widest")


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(model="four_stage")
    with pytest.raises(ConfigError):
        PipelineConfig(test_horizon=0)
    with pytest.raises(ConfigError):
        PipelineConfig(point_policy="best")
    with pytest.raises(ConfigError):
        PipelineConfig(interval_policy="narrow")
    with pytest.raises(ConfigError):
        PipelineConfig(grid_step=0.5)
    with pytest.raises(ConfigError):
        PipelineConfig(grid_step=0.0009)
    with pytest.raises(ConfigError):
        PipelineConfig(picp_target=1.5)


def test_apply_preset_selects_stage3_block_by_model():
    dual = apply_preset(PipelineConfig(model="three_stage_dual"), "cpi_fuel_light")
    assert dual.stage3 == PRESETS["cpi_fuel_light"]["stage3_dual"]
    assert dual.stage3.pop_size == 76

    single = apply_preset(PipelineConfig(model="two_stage"), "cpi_headline")
    assert single.stage2 == PRESETS["cpi_headline"]["stage2"]
    assert single.stage3 == PRESETS["cpi_headline"]["stage3_single"]

    with pytest.raises(ConfigError):
        apply_preset(PipelineConfig(), "cpi_unknown")


class TestSeededRuns:
    def setup_method(self):
        values = ar2_values(n=120, seed=77)
        labels = [f"2015-{i:03d}" for i in range(len(values))]
        self.series = TimeSeries(values=values, labels=labels)

    @staticmethod
    def run(series, seed=0, **kw):
        return run_model(series, small_config(**kw), seed)[0]

    @pytest.mark.parametrize("seed", [-1, 2**63, 1.5])
    def test_bad_seed_is_rejected_before_the_analysis(self, monkeypatch, seed):
        monkeypatch.setattr(pipeline, "analyze", no_analysis)
        with pytest.raises(ConfigError, match="run seeds must be"):
            run_model(self.series, small_config(), seed)

    @pytest.mark.filterwarnings("ignore:divergence tracking failed:UserWarning")
    @pytest.mark.parametrize("model", pipeline.MODEL_KINDS)
    def test_constant_training_predictions_warn(self, model):
        # the flat training rows give equal predictions, whose np.std may
        # leave rounding residue, not 0 (6.7e-16 at run seed 3 with numpy 2.4,
        # with AVX-512 dispatch on or off)
        series = TimeSeries(values=np.r_[np.full(30, 2.0), [2.5, 1.5, 3.0, 2.2, 1.9]])
        with pytest.warns(DegenerateTrainingWarning, match="intervals collapse"):
            result, _ = run_model(series, small_config(model=model, test_horizon=5), 3)
        assert result.interval.sigma < 1e-15
        assert np.all(result.train.point == result.train.point[0])

    def test_training_segment_too_short_for_the_exponent_still_runs(self):
        """Stage 1 reports a NaN exponent, with a warning, when the training
        segment holds fewer than 20 state vectors; the model still runs on
        its 17 training rows."""
        config = small_config(test_horizon=5, chaos=AnalyzeOptions(tau=1, m=8))
        with pytest.warns(UserWarning, match="need at least 20 state vectors, got 18"):
            result, chaos = run_model(TimeSeries(values=ar2_values(n=30)), config, 0)
        assert math.isnan(chaos.lyapunov) and chaos.chaotic is False
        assert (chaos.tau, chaos.m) == (1, 8)
        assert len(result.train.point) == 17 and len(result.test.point) == 5

    def test_two_stage_run_is_internally_consistent(self):
        config = small_config()
        result, chaos = run_model(self.series, config, 0)
        assert config.model == "two_stage"
        assert (chaos.tau, chaos.m) == (1, 2)
        assert result.point_model.params == EmbeddingParams(chaos.tau, chaos.m)
        assert result.front_objectives == ("smape", "neg_ds")
        assert len(result.test.point) == 6
        assert len(result.train.point) == 120 - 2 - 6

        # the reported metrics must agree with recomputing them from the parts
        assert result.test.picp == pytest.approx(
            picp(result.test.actual, result.test.lower, result.test.upper), abs=1e-12
        )
        assert result.train.piaw == pytest.approx(
            (result.interval.r1 + result.interval.r2) * result.interval.sigma, abs=1e-12
        )
        inputs, _ = reconstruct(self.series, result.point_model.params)
        pred = ar_predict(result.point_model, inputs)
        assert result.interval.sigma == pytest.approx(float(np.std(pred[: len(result.train.point)])), abs=1e-12)
        assert result.train_smape == pytest.approx(
            smape(result.train.actual, result.train.point), abs=1e-12
        )

        # the test rows are the series' last test_horizon observations
        assert np.array_equal(result.test.actual, self.series.values[-6:])
        assert np.all(result.test.lower <= result.test.point)
        assert np.all(result.test.point <= result.test.upper)

    def test_three_stage_variant_override(self):
        config = small_config(model="three_stage_single")
        result, chaos = run_model(self.series, config, 0)
        assert config.model == "three_stage_single"
        assert result.point_model.params == EmbeddingParams(chaos.tau, chaos.m)
        assert result.interval.r1 == result.interval.r2
        assert result.front_objectives == ("neg_picp", "piaw")

        dual, _ = run_model(self.series, small_config(model="three_stage_dual"), 0)
        assert dual.front_objectives == ("neg_picp", "piaw")
        assert dual.interval.r1 != dual.interval.r2
        with pytest.raises(ConfigError):
            small_config(model="three_stage_both")

    def test_stage2_model_is_shared_across_model_kinds(self):
        a = self.run(self.series, seed=5)
        b = self.run(self.series, seed=5, model="three_stage_single")
        assert np.array_equal(a.point_model.coeffs, b.point_model.coeffs)
        assert np.array_equal(a.test.point, b.test.point)

    def test_standardize_maps_back_to_original_units(self):
        shifted = TimeSeries(values=self.series.values * 3.0 + 100.0)
        result = self.run(shifted, standardize=True)
        assert np.all(np.isfinite(result.test.point))
        # predictions must live near the raw data, not near the z-scores
        assert abs(float(np.mean(result.test.point)) - float(np.mean(shifted.values))) < 5.0
        assert result.train.piaw == pytest.approx(
            (result.interval.r1 + result.interval.r2) * result.interval.sigma, abs=1e-12
        )

    def test_standardize_rejects_constant_training_data(self):
        flat = TimeSeries(values=np.ones(40))
        with pytest.warns(UserWarning):
            with pytest.raises(ZeroVarianceError):
                self.run(flat, test_horizon=4, standardize=True)

    @pytest.mark.parametrize("embedding", EMBEDDINGS)
    @settings(max_examples=10, deadline=None)
    @given(values=TEST_POINTS)
    def test_test_points_reach_only_the_test_metrics(self, embedding, values):
        x, options = EMBEDDINGS[embedding]
        config = small_config(model="three_stage_dual", chaos=options)
        base, base_chaos = run_model(TimeSeries(values=x), config, 3)
        result, chaos = run_model(TimeSeries(values=np.r_[x[:-6], values]), config, 3)
        assert chaos_bits(chaos) == chaos_bits(base_chaos)
        assert training_bits(result) == training_bits(base)

    def test_horizon_must_leave_training_data(self):
        with pytest.raises(InvalidSplitError):
            self.run(self.series, test_horizon=120)
        short = TimeSeries(values=ar2_values(n=30, seed=1))
        # the exponent is NaN for 5 training points, and the model cannot fit
        with pytest.warns(UserWarning, match="at least 20 state vectors"):
            with pytest.raises(SeriesTooShortError):
                self.run(short, test_horizon=25)


class TestExperiment:
    def setup_method(self):
        self.series = TimeSeries(values=ar2_values(n=100, seed=55))
        self.config = small_config(test_horizon=5)

    def test_serial_and_parallel_agree(self):
        seeds = [0, 1, 2]
        serial = run_experiment(self.series, self.config, seeds, workers=1)
        parallel = run_experiment(self.series, self.config, seeds, workers=3)
        assert_same_runs(serial, parallel)

    def test_uneven_shares_agree_with_serial(self, monkeypatch):
        # two workers split five seeds three and two, in real processes
        use_cpus(monkeypatch, cpus=2)
        seeds = [4, 0, 3, 1, 2]
        serial = run_experiment(self.series, self.config, seeds, workers=1)
        parallel = run_experiment(self.series, self.config, seeds, workers=2)
        assert [r.seed for r in parallel.results] == seeds
        assert_same_runs(serial, parallel)

    @fork_only
    def test_dead_worker_is_a_domain_error(self, monkeypatch):
        use_cpus(monkeypatch, cpus=2)
        monkeypatch.setattr(pipeline, "_seed_outcome", exit_in_worker)
        with pytest.raises(WorkerExitError, match=r"seeds \[0, 2\] exited with code 3"):
            run_experiment(self.series, self.config, [0, 1, 2, 3], workers=2)

    @pytest.mark.parametrize("case", [
        "success",
        "failing_seeds",
        pytest.param("dead_worker", marks=fork_only),
        pytest.param("interrupt", marks=fork_only),
    ])
    def test_no_worker_outlives_the_run(self, monkeypatch, case):
        use_cpus(monkeypatch, cpus=2)
        series, config, raised = self.series, self.config, contextlib.nullcontext()
        if case == "failing_seeds":  # as in test_failing_seeds_are_recorded
            series = TimeSeries(values=flat_training_values())
            config = small_config(test_horizon=5, standardize=True)
            raised = pytest.warns(UserWarning, match="divergence tracking failed")
        elif case == "dead_worker":
            monkeypatch.setattr(pipeline, "_seed_outcome", exit_in_worker)
            raised = pytest.raises(WorkerExitError)
        elif case == "interrupt":
            # Ctrl-C reaches the parent while its workers are still running
            monkeypatch.setattr(pipeline, "_seed_outcome", lambda *args: time.sleep(60))
            previous = signal.signal(signal.SIGALRM, signal.default_int_handler)
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            raised = pytest.raises(KeyboardInterrupt)
        try:
            with raised:
                run_experiment(series, config, [0, 1], workers=2)
        finally:
            if case == "interrupt":
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    # two worker processes, so that CI's start-method step checks the split
    # inside spawned and forkserver workers too
    @pytest.mark.parametrize("embedding", EMBEDDINGS)
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=TEST_POINTS)
    def test_test_points_reach_only_the_test_metrics(self, monkeypatch, embedding, values):
        use_cpus(monkeypatch, cpus=2)
        x, options = EMBEDDINGS[embedding]
        config = small_config(chaos=options)
        base = run_experiment(TimeSeries(values=x), config, [0, 1], workers=1)
        report = run_experiment(TimeSeries(values=np.r_[x[:-6], values]), config, [0, 1], workers=2)
        assert report.failures == base.failures == []
        assert chaos_bits(report.chaos) == chaos_bits(base.chaos)
        assert [training_bits(r) for r in report.results] == [training_bits(r) for r in base.results]

    def test_aggregates_are_population_moments(self):
        report = run_experiment(self.series, self.config, [0, 1, 2, 3])
        picps = np.array([r.test.picp for r in report.results])
        assert report.picp_mean == pytest.approx(float(picps.mean()), abs=1e-15)
        assert report.picp_std == pytest.approx(float(picps.std()), abs=1e-15)
        assert report.seeds == [0, 1, 2, 3]

    # workers=2 runs the seeds in worker processes, so the failures cross the
    # process boundary as values
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_seeds_are_recorded(self, workers):
        flat = TimeSeries(values=flat_training_values())
        config = small_config(test_horizon=5, standardize=True)
        with pytest.warns(UserWarning, match="divergence tracking failed"):
            report = run_experiment(flat, config, [0, 1], workers=workers)
        assert report.results == []
        assert [s for s, _ in report.failures] == [0, 1]
        assert "ZeroVarianceError" in report.failures[0][1]
        assert math.isnan(report.picp_mean) and math.isnan(report.piaw_mean)

    def test_split_is_checked_before_the_analysis(self, monkeypatch):
        monkeypatch.setattr(pipeline, "analyze", no_analysis)
        with pytest.raises(InvalidSplitError, match="test_horizon 100 leaves no training data"):
            run_experiment(self.series, small_config(test_horizon=100), [0, 1])
        with pytest.raises(InvalidSplitError, match="test_horizon 100 leaves no training data"):
            run_model(self.series, small_config(test_horizon=100))

    def test_a_training_segment_too_short_to_analyze_fails_the_whole_run(self):
        # 5 training points cannot give Cao's method a dimension at tau 2
        short = TimeSeries(values=ar2_values(n=30, seed=8))
        config = small_config(test_horizon=25, chaos=AnalyzeOptions(tau=2))
        with pytest.raises(SeriesTooShortError, match="cannot support Cao's method"):
            run_experiment(short, config, [0, 1])

    def test_a_window_longer_than_the_training_segment_fails_the_whole_run(self):
        # 5 training points hold no state vector at tau 1, m 8
        short = TimeSeries(values=ar2_values(n=30, seed=8))
        config = small_config(test_horizon=25, chaos=AnalyzeOptions(tau=1, m=8))
        with pytest.raises(SeriesTooShortError, match="holds no state vector"):
            run_experiment(short, config, [0, 1])

    def test_a_training_segment_too_short_for_the_exponent_fails_each_seed(self):
        # 5 training points hold fewer than the exponent's 20 state vectors,
        # and fewer than stage 2's rows
        short = TimeSeries(values=ar2_values(n=30, seed=8))
        with pytest.warns(UserWarning, match="at least 20 state vectors"):
            report = run_experiment(short, small_config(test_horizon=25), [0, 1])
        assert math.isnan(report.chaos.lyapunov) and report.chaos.chaotic is False
        assert report.results == []
        assert [s for s, _ in report.failures] == [0, 1]
        assert "SeriesTooShortError" in report.failures[0][1]

    def test_seed_list_must_not_be_empty(self):
        with pytest.raises(ConfigError):
            run_experiment(self.series, self.config, [])

    def test_repeated_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="seed 3 appears more than once"):
            run_experiment(self.series, self.config, [1, 3, 2, 3])

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "non-negative, got -1"),
            (1.5, "integers, got 1.5"),
            (True, "integers, got True"),
            (np.float64(2.0), "integers"),
            ("3", "integers, got '3'"),
            (2**63, r"below 2\*\*63, got 9223372036854775808"),
        ],
        ids=["negative", "float", "bool", "numpy_float", "str", "too_large"],
    )
    def test_bad_seed_is_rejected_before_any_work(self, monkeypatch, seed, message):
        monkeypatch.setattr(pipeline, "analyze", no_analysis)
        with pytest.raises(ConfigError, match=f"run seeds must be {message}"):
            run_experiment(self.series, self.config, [2, seed])

    def test_numpy_integer_seeds_run_as_python_ints(self):
        report = run_experiment(self.series, self.config, np.arange(2))
        assert report.seeds == [0, 1] and all(type(s) is int for s in report.seeds)
        assert_same_runs(report, run_experiment(self.series, self.config, [0, 1]))

    @pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True, np.float64(2.0)])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(self.series, self.config, [0], workers=workers)

    @pytest.mark.parametrize(
        "workers, n_seeds, cpus, affinity, pool_size",
        [
            (10_000, 4, 3, True, 3),  # capped at the affinity set, not cpu_count
            (10_000, 4, 3, False, 3),  # capped at cpu_count without affinity
            (10_000, 2, 3, True, 2),  # capped at the seed count
            (10_000, 1, 3, True, None),  # one seed runs serially
            (2, 4, 1, True, None),  # one usable CPU runs serially
            (2, 4, None, False, None),  # an unknown CPU count runs serially
            (1, 4, 3, True, None),  # workers=1 runs serially
        ],
    )
    def test_pool_size_is_capped(self, monkeypatch, workers, n_seeds, cpus, affinity, pool_size):
        pools = use_recording_pool(monkeypatch, cpus, affinity)
        seeds = list(range(n_seeds))
        report = run_experiment(self.series, self.config, seeds, workers=workers)
        assert [p.max_workers for p in pools] == ([] if pool_size is None else [pool_size])
        assert [r.seed for r in report.results] == seeds

    def test_seed_job_pickles(self, monkeypatch):
        pools = use_recording_pool(monkeypatch, cpus=2)
        run_experiment(self.series, self.config, [0, 1], workers=2)
        (job,) = [p.job for p in pools]
        # spawn-started workers receive the job pickled
        clone = pickle.loads(pickle.dumps(job))
        a, b = job(1), clone(1)
        assert a.seed == b.seed == 1
        assert np.array_equal(a.point_model.coeffs, b.point_model.coeffs)
        assert (a.test.picp, a.test.piaw) == (b.test.picp, b.test.piaw)
        assert isinstance(clone(-1), ConfigError)  # a failure comes back as a value
