"""Crossing-interaction models and paired strategy evaluation.

The package fits box-truncated Gaussian mixtures to vehicle-pedestrian
passing observations, simulates unsignalized-crossing episodes against
reactive pedestrians, and scores automated passing strategies against a
mixture-derived human-driver baseline.
"""

from crossingsim.scenario import time_advantage
from crossingsim.mixture import (
    Conditioner,
    FitConfig,
    GaussianComponent,
    GaussianMixture,
    TruncationBox,
    bic,
    conditional_mode,
    em_fit,
    select_components,
    truncated_moments,
)
from crossingsim.agents import (
    ArrivalSchedule,
    HumanDriver,
    HumanDriverParams,
    SoftYieldParams,
    SoftYieldStrategy,
    decide_walk_speed,
    sample_arrivals,
    soft_yield_decide,
)
from crossingsim.sim import (
    EpisodeResult,
    PairResult,
    SimConfig,
    detect_crash,
    run_episode,
    run_paired_experiments,
)
from crossingsim.metrics import EvaluationReport, compute_report
from crossingsim.ingest import (
    ObservationMatrix,
    generate_synthetic,
    reference_generator,
)

__all__ = [
    "time_advantage",
    "GaussianComponent",
    "GaussianMixture",
    "TruncationBox",
    "FitConfig",
    "em_fit",
    "truncated_moments",
    "bic",
    "select_components",
    "conditional_mode",
    "Conditioner",
    "ArrivalSchedule",
    "sample_arrivals",
    "decide_walk_speed",
    "SoftYieldParams",
    "SoftYieldStrategy",
    "soft_yield_decide",
    "HumanDriverParams",
    "HumanDriver",
    "SimConfig",
    "EpisodeResult",
    "PairResult",
    "run_episode",
    "detect_crash",
    "run_paired_experiments",
    "EvaluationReport",
    "compute_report",
    "ObservationMatrix",
    "generate_synthetic",
    "reference_generator",
]

__version__ = "0.1.0"
