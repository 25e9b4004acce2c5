"""Workbench for Model GB random constraint satisfaction problems."""

from .analytics import (
    AnalyticParams,
    Prediction,
    predict,
    log_exact_expected_nodes,
    log_expected_solutions,
    r_critical,
    r_regime_boundary,
    uc_bound,
)
from .backtracker import SearchStats, solve_all
from .generator import sample_instance
from .model import (
    ConstraintSpec,
    Instance,
    Params,
    dumps_instance,
    is_consistent,
    is_violated,
    loads_instance,
)
from .rng import SeedSpec
from .uc import UCOutcome, run_uc, uc_success_rate

__version__ = "0.1.0"

__all__ = [
    "AnalyticParams",
    "ConstraintSpec",
    "Instance",
    "Params",
    "Prediction",
    "SearchStats",
    "SeedSpec",
    "UCOutcome",
    "dumps_instance",
    "is_consistent",
    "is_violated",
    "loads_instance",
    "log_exact_expected_nodes",
    "log_expected_solutions",
    "predict",
    "r_critical",
    "r_regime_boundary",
    "run_uc",
    "sample_instance",
    "solve_all",
    "uc_bound",
    "uc_success_rate",
]
