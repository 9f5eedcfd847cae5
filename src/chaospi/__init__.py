"""Prediction intervals for univariate series via phase-space reconstruction
and bi-objective evolutionary optimization."""

from .chaos import (
    AnalyzeOptions,
    ChaosReport,
    EmbeddedDataset,
    EmbeddingParams,
    LyapunovEstimate,
    analyze,
    autocorrelation,
    cao_min_dimension,
    lyapunov_rosenstein,
    reconstruct,
    select_delay,
)
from .eaf import (
    AttainmentSurface,
    FrontEnsemble,
    attainment_surface,
    standard_levels,
)
from .metrics import directional_symmetry, piaw, picp, smape
from .nsga2 import NsgaParams, Problem, run as nsga2_run
from .pipeline import (
    ArModel,
    ExperimentReport,
    IntervalParams,
    IntervalSeries,
    PipelineConfig,
    RunResult,
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
from .series import TimeSeries, load_series

__version__ = "0.1.0"
