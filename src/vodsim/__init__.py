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
from .metrics import MetricsReport, SessionRecord, aggregate
from .strategy import (
    Allocation,
    UserView,
    allocate_bb,
    allocate_be,
    allocate_eb,
    allocate_ew,
    allocate_sc,
)

__all__ = [
    "Allocation",
    "DepartureHistogram",
    "DepartureModel",
    "DepartureRates",
    "MetricsReport",
    "PhaseBoundary",
    "SessionRecord",
    "SimConfig",
    "UserView",
    "ViewingRatioCdf",
    "World",
    "aggregate",
    "allocate_bb",
    "allocate_be",
    "allocate_eb",
    "allocate_ew",
    "allocate_sc",
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
