"""Prediction intervals for univariate series via phase-space reconstruction
and bi-objective evolutionary optimization.

The top level holds the library entry points; every other name is imported
from its own module, such as ``chaospi.pipeline.PipelineConfig``.
"""

from .chaos import analyze
from .pipeline import run_experiment, run_model
from .series import load_series

__version__ = "0.1.0"
