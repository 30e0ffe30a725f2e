"""Discrete-time simulator for HTTP video streaming under early viewer
departure, with departure-aware bandwidth allocation strategies."""

from .behavior import (
    DepartureHistogram,
    DepartureModel,
    DepartureRates,
    PhaseBoundary,
    ViewingRatioCdf,
    histogram_from_rates,
    phase_boundary,
    rates_from_histogram,
    sample_departure_slot,
    synthetic_model,
)
from .engine import SimConfig, World, load_to_arrival_rate, planning_viewing_ratio, run
from .metrics import MetricsReport, SessionLog, aggregate

__all__ = [
    "DepartureHistogram",
    "DepartureModel",
    "DepartureRates",
    "MetricsReport",
    "PhaseBoundary",
    "SessionLog",
    "SimConfig",
    "ViewingRatioCdf",
    "World",
    "aggregate",
    "histogram_from_rates",
    "load_to_arrival_rate",
    "planning_viewing_ratio",
    "phase_boundary",
    "rates_from_histogram",
    "run",
    "sample_departure_slot",
    "synthetic_model",
]

__version__ = "0.1.0"
