"""Interval-forecast pipelines built on lagged autoregression and NSGA-II.

Two model families share the same first two steps:

1. Embed the series (delay ``tau``, dimension ``m``, chosen by the chaos
   diagnostics of the training segment or forced through ``config.chaos``)
   into lagged input/target rows and hold out the last ``test_horizon``
   targets.
2. Fit a linear autoregression ``y = a0 + a1*y[t-tau] + ... + am*y[t-m*tau]``
   with NSGA-II, minimizing SMAPE and maximizing directional symmetry over
   the training rows; coefficients live in (-0.5, 0.5).

They then diverge on how the interval half-widths around the point forecast
are chosen, both expressed as multiples (r1 down, r2 up) of the population
standard deviation of the training point predictions:

* two-stage: exhaustive grid search over (r1, r2), smallest average width
  subject to a training coverage target;
* three-stage: a second NSGA-II run trading coverage (PICP) against width
  (PIAW) directly, with a single shared r or separate r1/r2 depending on the
  variant. It optimizes the exact width ``r1*sigma + r2*sigma``; the
  reported PIAW averages the rounded bounds, which can differ from it by a
  few ulps of the largest bound (``fit_stage3``).

Every run is reproducible from its integer seed in [0, 2**63), which
``_stage_seeds`` hashes into one engine seed per optimizer stage, so two-
and three-stage runs with the same seed share an identical stage-2 model.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import metrics
from .chaos import AnalyzeOptions, ChaosReport, EmbeddingParams, analyze, reconstruct
from .errors import (
    ConfigError,
    DegenerateTrainingWarning,
    DimensionMismatchError,
    EmptyFrontError,
    InvalidSplitError,
    SeriesTooShortError,
    ZeroVarianceError,
    is_number,
)
from .nsga2 import NsgaParams, Problem, mix64, run as nsga_run
from .series import TimeSeries

# Open-interval constraints (-0.5, 0.5) for coefficients and (0, 1) for the
# width multipliers are realized by shrinking the optimizer box by a margin,
# so clipping can never park a variable on an excluded endpoint.
_BOUND_MARGIN = 1e-6

# Bounds the grid search at 999 multipliers per side.
_MIN_GRID_STEP = 0.001

# +inf as an int64 bit pattern: the top of the non-negative floats.
_INF_BITS = int(np.float64(np.inf).view(np.int64))

MODEL_KINDS = ("two_stage", "three_stage_single", "three_stage_dual")
POINT_POLICIES = ("min_smape", "max_ds", "knee")
INTERVAL_POLICIES = ("max_picp", "min_piaw_above")


@dataclass
class ArModel:
    """Linear autoregression on delayed lags; ``coeffs[0]`` is the intercept."""

    coeffs: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.params.m + 1,):
            raise DimensionMismatchError(
                f"need {self.params.m + 1} coefficients, got {self.coeffs.shape}"
            )
        if not np.all(np.abs(self.coeffs) < 0.5):
            raise ConfigError("coefficients must lie strictly inside (-0.5, 0.5)")


@dataclass(frozen=True)
class IntervalParams:
    """Interval geometry: bounds are ``point - r1*sigma`` and ``point + r2*sigma``."""

    r1: float
    r2: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.r1 < 1.0 and 0.0 < self.r2 < 1.0):
            raise ConfigError("r1 and r2 must lie strictly inside (0, 1)")
        if not self.sigma >= 0.0:
            raise ConfigError("sigma must be non-negative")


@dataclass
class IntervalSeries:
    """Aligned point forecasts, interval bounds, and actuals."""

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    actual: np.ndarray
    picp: float
    piaw: float

    def __post_init__(self):
        n = self.point.shape[0]
        for name in ("lower", "upper", "actual"):
            if getattr(self, name).shape != (n,):
                raise DimensionMismatchError(f"{name} must align with point forecasts")
        if not np.all(self.lower <= self.upper):
            raise ConfigError("lower bounds must not exceed upper bounds")


# NSGA-II blocks tuned for monthly CPI-style series (stage 2, then the
# three-stage single-r and dual-r refinements).
PRESETS: dict[str, dict[str, NsgaParams]] = {
    "cpi_food_beverages": {
        "stage2": NsgaParams(50, 300, 0.8, 15.0, 1.0, None, 20.0),
        "stage3_single": NsgaParams(90, 300, 0.75, 15.0, 1.0, None, 20.0),
        "stage3_dual": NsgaParams(70, 200, 0.75, 15.0, 1.0, None, 20.0),
    },
    "cpi_fuel_light": {
        "stage2": NsgaParams(50, 100, 0.85, 15.0, 1.0, None, 20.0),
        "stage3_single": NsgaParams(90, 350, 0.85, 15.0, 1.0, None, 20.0),
        # population bumped 75 -> 76: the engine pairs parents, so it needs
        # an even population
        "stage3_dual": NsgaParams(76, 300, 0.8, 15.0, 1.0, None, 20.0),
    },
    "cpi_headline": {
        "stage2": NsgaParams(50, 50, 0.95, 15.0, 1.0, None, 20.0),
        "stage3_single": NsgaParams(90, 100, 0.95, 15.0, 1.0, None, 20.0),
        "stage3_dual": NsgaParams(70, 400, 0.75, 15.0, 1.0, None, 20.0),
    },
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run one model on one series, apart from the
    seed, which is an argument of each run.

    ``picp_target`` is the training coverage sought by both the two-stage
    grid search and the ``min_piaw_above`` interval policy.
    """

    model: str = "two_stage"
    test_horizon: int = 6
    chaos: AnalyzeOptions = field(default_factory=AnalyzeOptions)
    stage2: NsgaParams = PRESETS["cpi_food_beverages"]["stage2"]
    stage3: NsgaParams = PRESETS["cpi_food_beverages"]["stage3_single"]
    grid_step: float = 0.01
    picp_target: float = 0.95
    point_policy: str = "min_smape"
    interval_policy: str = "max_picp"
    standardize: bool = False

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.test_horizon < 1:
            raise ConfigError("test_horizon must be >= 1")
        if self.point_policy not in POINT_POLICIES:
            raise ConfigError(f"point_policy must be one of {POINT_POLICIES}")
        if self.interval_policy not in INTERVAL_POLICIES:
            raise ConfigError(f"interval_policy must be one of {INTERVAL_POLICIES}")
        if not _MIN_GRID_STEP <= self.grid_step < 0.5:
            raise ConfigError(f"grid_step must lie in [{_MIN_GRID_STEP}, 0.5)")
        if not 0.0 < self.picp_target <= 1.0:
            raise ConfigError("picp_target must lie in (0, 1]")


@dataclass
class RunResult:
    """One seeded run of ``config.model`` on the chaos report's embedding;
    its test rows are the series' last ``config.test_horizon`` positions."""

    seed: int
    point_model: ArModel
    interval: IntervalParams
    train: IntervalSeries
    test: IntervalSeries
    train_smape: float
    train_ds: float
    front: np.ndarray
    front_objectives: tuple[str, str]


@dataclass
class ExperimentReport:
    """Aggregate of one model re-run over many seeds on one series.

    Means and standard deviations (population) summarize test PICP/PIAW over
    the successful runs; failed seeds are kept in ``failures`` as
    (seed, message) pairs.
    """

    seeds: list[int]
    chaos: ChaosReport
    results: list[RunResult]
    failures: list[tuple[int, str]]
    picp_mean: float
    picp_std: float
    piaw_mean: float
    piaw_std: float


def apply_preset(config: PipelineConfig, name: str) -> PipelineConfig:
    """Swap in the preset NSGA-II blocks matching ``config.model``."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    block = PRESETS[name]
    stage3 = block["stage3_dual"] if config.model == "three_stage_dual" else block["stage3_single"]
    return replace(config, stage2=block["stage2"], stage3=stage3)


def ar_predict(model: ArModel, inputs: np.ndarray) -> np.ndarray:
    """One-step-ahead predictions for rows of lagged inputs."""
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.params.m:
        raise DimensionMismatchError(
            f"inputs must be (rows, {model.params.m}), got {X.shape}"
        )
    return model.coeffs[0] + X @ model.coeffs[1:]


def fit_stage2(
    inputs: np.ndarray,
    targets: np.ndarray,
    emb: EmbeddingParams,
    params: NsgaParams,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the autoregression front with NSGA-II run from ``seed``: minimize
    SMAPE, maximize directional symmetry (internally minimized as its
    negative).

    Returns front 0 as ``(X, F)``: one coefficient row (intercept first) and
    one ``(smape, -ds)`` objective row per model.
    """
    X = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2 or X.shape[1] != emb.m or y.shape != (X.shape[0],):
        raise DimensionMismatchError("inputs/targets shaped inconsistently with m")
    if X.shape[0] < emb.m + 2:
        raise SeriesTooShortError(
            f"need at least m + 2 = {emb.m + 2} training rows, got {X.shape[0]}"
        )

    def evaluate(C: np.ndarray) -> np.ndarray:
        P = C[:, :1] + C[:, 1:] @ X.T
        F = np.empty((C.shape[0], 2))
        F[:, 0] = metrics.smape(y, P)
        np.negative(metrics.directional_symmetry(y, P), out=F[:, 1])
        return F

    bound = 0.5 - _BOUND_MARGIN
    problem = Problem(
        lower=np.full(emb.m + 1, -bound),
        upper=np.full(emb.m + 1, bound),
        evaluate=evaluate,
    )
    return _front_arrays(nsga_run(problem, params, seed))


def _front_arrays(front: list) -> tuple[np.ndarray, np.ndarray]:
    """The engine's ``(x, f)`` pairs as decision rows and objective rows."""
    return np.array([x for x, _ in front]), np.array([f for _, f in front])


def _least(F: np.ndarray, col: int) -> int:
    """Row least in column ``col``, then in the other column, then first."""
    return int(np.lexsort((F[:, 1 - col], F[:, col]))[0])


def _objective_rows(F: np.ndarray, stage: int) -> np.ndarray:
    """``F`` as an (n, 2) float array; an empty front is an error."""
    F = np.asarray(F, dtype=float).reshape(-1, 2)
    if F.shape[0] == 0:
        raise EmptyFrontError(f"stage-{stage} front is empty")
    return F


def select_point_model(F: np.ndarray, policy: str = "min_smape") -> int:
    """Row of the stage-2 objectives ``F`` (``(smape, -ds)`` rows) to use.

    ``min_smape`` (default) prefers accuracy, breaking ties by higher DS and
    then position; ``max_ds`` is the mirror image; ``knee`` takes the point
    farthest from the chord through the front's two extreme points (the
    first such row), falling back to ``min_smape`` when the front has fewer
    than three points.
    """
    F = _objective_rows(F, 2)
    if policy not in POINT_POLICIES:
        raise ConfigError(f"unknown point policy {policy!r}")
    if policy == "max_ds":
        return _least(F, 1)
    a = _least(F, 0)
    if policy == "knee" and F.shape[0] >= 3:
        chord = F[_least(F, 1)] - F[a]
        norm = float(np.hypot(chord[0], chord[1]))
        if norm > 0.0:
            rel = F - F[a]
            return int(np.argmax(np.abs(chord[0] * rel[:, 1] - chord[1] * rel[:, 0]) / norm))
    return a


def pi_bounds(predictions: np.ndarray, params: IntervalParams) -> tuple[np.ndarray, np.ndarray]:
    """Constant-width bounds around the point predictions."""
    p = np.asarray(predictions, dtype=float)
    return p - params.r1 * params.sigma, p + params.r2 * params.sigma


def grid_search_r(
    actual: np.ndarray,
    predicted: np.ndarray,
    sigma: float,
    grid_step: float = 0.01,
    picp_target: float = 0.95,
) -> IntervalParams:
    """The best (r1, r2) on the grid {step, 2*step, ..., 1-step}^2.

    Picks the smallest average width subject to training coverage reaching
    ``picp_target``; when no pair reaches it, maximizes coverage first. Ties
    always resolve to the lexicographically smallest (r1, r2).

    Coverage is counted from the same per-point thresholds as stage 3's
    PICP, so it equals ``metrics.picp`` on the returned bounds. It is
    separable: a point below its forecast needs only r1, one above only r2,
    and one on it is always covered. So each r1 needs just the least r2
    that reaches the coverage count sought.
    """
    below, above, on = _coverage_thresholds(actual, predicted, sigma)
    if not _MIN_GRID_STEP <= grid_step < 0.5:
        raise ConfigError(f"grid_step must lie in [{_MIN_GRID_STEP}, 0.5)")
    if not 0.0 < picp_target <= 1.0:
        raise ConfigError("picp_target must lie in (0, 1]")
    if sigma == 0.0:
        warnings.warn(
            "training predictions are constant; intervals collapse to zero width",
            DegenerateTrainingWarning,
            stacklevel=2,
        )

    count = int(math.floor((1.0 - grid_step) / grid_step + 1e-9))
    rs = grid_step * np.arange(1, count + 1)
    reach = rs * sigma
    # points each multiplier covers on its side
    low = below.searchsorted(reach, "right")
    high = above.searchsorted(reach, "right")
    # the least count meeting the target, or the most any pair covers
    n = np.size(predicted)
    need = min(int(np.argmax(np.arange(n + 1) / n >= picp_target)), on + low[-1] + high[-1])
    j2 = np.searchsorted(high, need - on - low, side="left")
    j1 = np.flatnonzero(j2 < count)
    j2 = j2[j1]
    best = np.lexsort((rs[j2], rs[j1], rs[j1] + rs[j2]))[0]
    return IntervalParams(r1=float(rs[j1[best]]), r2=float(rs[j2[best]]), sigma=float(sigma))


def _coverage_thresholds(
    actual: np.ndarray, predicted: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sorted coverage thresholds of the points below and above their
    forecasts, and the count of points on them; the one coverage count of
    both interval stages, which also checks their shared inputs.

    The interval ``[p - t1, p + t2]`` covers a point below its forecast
    exactly when ``t1`` reaches its threshold, the least float ``t >= 0``
    with ``a >= p - t``, and one above it when ``t2`` reaches the least ``t``
    with ``a <= p + t``: the same search on ``-a`` and ``-p``. A point on its
    forecast is covered by every finite reach, and a NaN point by none.
    Rounding is monotone, so each test flips once as ``t`` grows; a
    bisection on the int64 images of the non-negative floats, which sort as
    the floats do, finds where. A point below a forecast of +inf, which no
    reach covers, gets a NaN threshold: it sorts last and is never counted.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1 or actual.size == 0:
        raise DimensionMismatchError("actual and predicted must be matching 1-d arrays")
    if not sigma >= 0.0:
        raise ConfigError("sigma must be non-negative")
    below, above = actual < predicted, actual > predicted
    a = np.concatenate([actual[below], -actual[above]])
    p = np.concatenate([predicted[below], -predicted[above]])
    # -1 lies just below the image of +0.0
    lo = np.full(a.size, -1, dtype=np.int64)
    hi = np.full(a.size, _INF_BITS, dtype=np.int64)
    with np.errstate(over="ignore"):  # p - t may round to -inf
        while (hi - lo > 1).any():
            mid = lo + (hi - lo) // 2  # (lo + hi) // 2 would overflow
            hit = a >= p - mid.view(np.float64)
            hi = np.where(hit, mid, hi)
            lo = np.where(hit, lo, mid)
    t = hi.view(np.float64)
    t[p == np.inf] = np.nan
    split = np.count_nonzero(below)
    return np.sort(t[:split]), np.sort(t[split:]), int(np.count_nonzero(actual == predicted))


def fit_stage3(
    actual: np.ndarray,
    predicted: np.ndarray,
    sigma: float,
    variant: str,
    params: NsgaParams,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimize interval width multipliers directly with NSGA-II run from
    ``seed``: maximize PICP (minimized as its negative) against PIAW on the
    training rows.

    ``variant`` is ``"single"`` (one shared r) or ``"dual"`` (separate
    r1, r2); multipliers live strictly inside (0, 1). Returns front 0 as
    ``(X, F)``: one multiplier row (``r`` or ``r1, r2``) and one
    ``(-picp, piaw)`` objective row per configuration.

    PICP is counted from each point's coverage threshold, found once per
    fit; for non-negative multipliers and a finite ``sigma`` it equals
    ``metrics.picp`` on the same bounds bit for bit. PIAW is every
    interval's exact width ``r1*sigma + r2*sigma``, with no bound array
    built. ``metrics.piaw`` on the rounded bounds, which the run reports,
    differs from it by at most ``2n + 5`` ulps of the largest ``|bound|``
    over n < 2**20 points, and is 0 with it when ``sigma`` is 0.
    """
    p = np.asarray(predicted, dtype=float)
    below, above, on = _coverage_thresholds(actual, p, sigma)
    if variant not in ("single", "dual"):
        raise ConfigError(f"variant must be 'single' or 'dual', got {variant!r}")
    n_vars = 1 if variant == "single" else 2

    def evaluate(V: np.ndarray) -> np.ndarray:
        reach1, reach2 = V[:, 0] * sigma, V[:, -1] * sigma
        F = np.empty((V.shape[0], 2))
        covered = below.searchsorted(reach1, "right")
        covered += above.searchsorted(reach2, "right") + on
        np.divide(covered, -p.size, out=F[:, 0])  # -picp from an exact integer count
        np.add(reach1, reach2, out=F[:, 1])  # every interval's exact width
        return F

    problem = Problem(
        lower=np.full(n_vars, _BOUND_MARGIN),
        upper=np.full(n_vars, 1.0 - _BOUND_MARGIN),
        evaluate=evaluate,
    )
    return _front_arrays(nsga_run(problem, params, seed))


def select_interval_params(
    F: np.ndarray,
    policy: str = "max_picp",
    picp_target: float = 0.95,
) -> int:
    """Row of the stage-3 objectives ``F`` (``(-picp, piaw)`` rows) to use.

    ``max_picp`` (default) takes the highest training coverage, tie-broken
    by smaller width and then position; ``min_piaw_above`` takes the
    narrowest configuration whose coverage reaches ``picp_target``
    (tie-broken by higher coverage), falling back to ``max_picp`` when none
    does.
    """
    F = _objective_rows(F, 3)
    if policy not in INTERVAL_POLICIES:
        raise ConfigError(f"unknown interval policy {policy!r}")
    if policy == "min_piaw_above":
        ok = np.flatnonzero(-F[:, 0] >= picp_target)
        if ok.size:
            return int(ok[_least(F[ok], 1)])
    return _least(F, 0)


def _run_seed(seed) -> int:
    """``seed`` as an int; it must be an integer in [0, 2**63), not a bool,
    so that the stage keys ``2 * seed`` and ``2 * seed + 1`` fit 64 bits."""
    if not is_number(seed, numbers.Integral):
        raise ConfigError(f"run seeds must be integers, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"run seeds must be non-negative, got {seed}")
    if seed >= 2**63:
        raise ConfigError(f"run seeds must be below 2**63, got {seed}")
    return int(seed)


def _stage_seeds(seed: int) -> tuple[int, int]:
    """The engine seeds of stages 2 and 3 for one run seed: ``mix64`` of
    ``2 * seed`` and of ``2 * seed + 1``. ``mix64`` is a bijection, so no
    two stages of any two runs share a seed."""
    seed = _run_seed(seed)
    return mix64(2 * seed), mix64(2 * seed + 1)


def _interval_series(pred, actual, ip: IntervalParams) -> IntervalSeries:
    lower, upper = pi_bounds(pred, ip)
    return IntervalSeries(
        point=pred,
        lower=lower,
        upper=upper,
        actual=actual,
        picp=metrics.picp(actual, lower, upper),
        piaw=metrics.piaw(lower, upper),
    )


def _run_seeded(
    series: TimeSeries,
    config: PipelineConfig,
    chaos: ChaosReport,
    seed: int,
) -> RunResult:
    """One seeded run after the (shared) chaos analysis."""
    x, k = series.values, config.test_horizon
    emb_params = EmbeddingParams(tau=chaos.tau, m=chaos.m)

    fit_values = x
    if config.standardize:
        mu, scale = float(np.mean(x[:-k])), float(np.std(x[:-k]))
        if scale == 0.0:
            raise ZeroVarianceError("training segment is constant; cannot standardize")
        fit_values = (x - mu) / scale

    inputs, targets = reconstruct(TimeSeries(fit_values), emb_params)
    n_train = targets.size - k
    # not left to fit_stage2: a count below 1 would slice rows from the end
    if n_train < emb_params.m + 2:
        raise SeriesTooShortError(
            f"{n_train} training rows after embedding; need at least {emb_params.m + 2}"
        )

    s2_seed, s3_seed = _stage_seeds(seed)
    X2, F2 = fit_stage2(inputs[:n_train], targets[:n_train], emb_params, config.stage2, s2_seed)
    model = ArModel(X2[select_point_model(F2, config.point_policy)], emb_params)

    pred_all = ar_predict(model, inputs)
    if config.standardize:
        pred_all = mu + scale * pred_all
    actual_all = x[emb_params.m * emb_params.tau :]
    pred_tr, pred_te = pred_all[:n_train], pred_all[n_train:]
    act_tr, act_te = actual_all[:n_train], actual_all[n_train:]
    sigma = float(np.std(pred_tr))

    if config.model == "two_stage":
        ip = grid_search_r(act_tr, pred_tr, sigma, config.grid_step, config.picp_target)
        front, front_objectives = F2, ("smape", "neg_ds")
    else:
        variant = "single" if config.model == "three_stage_single" else "dual"
        X3, front = fit_stage3(act_tr, pred_tr, sigma, variant, config.stage3, s3_seed)
        r = X3[select_interval_params(front, config.interval_policy, config.picp_target)]
        ip = IntervalParams(r1=float(r[0]), r2=float(r[-1]), sigma=sigma)
        front_objectives = ("neg_picp", "piaw")

    return RunResult(
        seed=seed,
        point_model=model,
        interval=ip,
        train=_interval_series(pred_tr, act_tr, ip),
        test=_interval_series(pred_te, act_te, ip),
        train_smape=metrics.smape(act_tr, pred_tr),
        train_ds=metrics.directional_symmetry(act_tr, pred_tr),
        front=front,
        front_objectives=front_objectives,
    )


def _training_chaos(series: TimeSeries, config: PipelineConfig) -> ChaosReport:
    """The chaos analysis of the training segment: the series without its
    last ``config.test_horizon`` points, which only the test metrics see."""
    n, k = series.values.size, config.test_horizon
    if k >= n:
        raise InvalidSplitError(f"test_horizon {k} leaves no training data for length {n}")
    return analyze(TimeSeries(series.values[: n - k]), config.chaos)


def run_model(
    series: TimeSeries, config: PipelineConfig, seed: int = 0
) -> tuple[RunResult, ChaosReport]:
    """Run ``config.model`` once with run seed ``seed``; also hand back the
    chaos report of the training segment, which holds the run's embedding
    and exponent."""
    seed = _run_seed(seed)  # before the analysis, as in run_experiment
    chaos = _training_chaos(series, config)
    return _run_seeded(series, config, chaos, seed), chaos


def _seed_outcome(series, config, chaos, seed: int) -> RunResult | Exception:
    """One seeded run, or the exception it raised; module-level so that the
    bound job pickles for a worker process under any start method."""
    try:
        return _run_seeded(series, config, chaos, seed)
    except Exception as exc:  # noqa: BLE001 - preserved in the report
        return exc


def run_experiment(
    series: TimeSeries,
    config: PipelineConfig,
    seeds: list[int],
    workers: int = 1,
) -> ExperimentReport:
    """Re-run one model over many seeds and aggregate test-set quality.

    The chaos analysis of the training segment runs once and is shared by
    every seed's run. Seeds
    run in ``min(workers, len(seeds), usable CPUs)`` worker processes, one
    per share of them (``workers.run_shares``), or serially in this process
    when that is 1; results come back in seed order, so the report does not
    depend on ``workers``. A failing seed is recorded and skipped; aggregates
    cover the successful runs. A worker that dies raises ``WorkerExitError``.
    """
    if not is_number(workers, numbers.Integral) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    seeds = [_run_seed(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    repeated = [s for s, c in Counter(seeds).items() if c > 1]
    if repeated:
        raise ConfigError(f"seed {repeated[0]} appears more than once in the seed list")
    chaos = _training_chaos(series, config)
    job = partial(_seed_outcome, series, config, chaos)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = min(workers, len(seeds), cpus or 1)
    if size == 1:
        outcomes = [job(s) for s in seeds]
    else:
        from .workers import run_shares

        outcomes = run_shares(job, seeds, size)

    results = [o for o in outcomes if isinstance(o, RunResult)]
    failures = [(seed, f"{type(o).__name__}: {o}")
                for seed, o in zip(seeds, outcomes) if isinstance(o, Exception)]
    stats = [math.nan] * 4
    if results:
        picps = np.array([r.test.picp for r in results])
        piaws = np.array([r.test.piaw for r in results])
        stats = [float(v) for v in (picps.mean(), picps.std(), piaws.mean(), piaws.std())]
    return ExperimentReport(
        seeds=seeds,
        chaos=chaos,
        results=results,
        failures=failures,
        picp_mean=stats[0],
        picp_std=stats[1],
        piaw_mean=stats[2],
        piaw_std=stats[3],
    )
