"""Discrete-time simulator for HTTP video streaming under early viewer
departure, with departure-aware bandwidth allocation strategies."""

from .behavior import (
    DepartureModel,
    histogram_from_rates,
    phase_boundary,
    rates_from_histogram,
    synthetic_model,
)
from .engine import SimConfig, World, load_to_arrival_rate, planning_viewing_ratio, run
from .metrics import MetricsReport, SessionLog, aggregate

__all__ = [
    "DepartureModel",
    "MetricsReport",
    "SessionLog",
    "SimConfig",
    "World",
    "aggregate",
    "histogram_from_rates",
    "load_to_arrival_rate",
    "planning_viewing_ratio",
    "phase_boundary",
    "rates_from_histogram",
    "run",
    "synthetic_model",
]

__version__ = "0.1.0"
