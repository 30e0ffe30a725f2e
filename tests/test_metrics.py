"""QoE metric aggregation and serialization tests."""

import json

import numpy as np
import pytest

from vodsim.metrics import (
    CSV_HEADER,
    MetricsReport,
    SessionLog,
    aggregate,
    csv_row,
    reports_to_json,
)


def _log(*sessions):
    """A SessionLog of the given (arrival_slot, freeze_count, freeze_time,
    play_time, waste) rows."""
    return SessionLog(np.array(sessions, dtype=float).reshape(-1, 5).T)


class TestAggregate:
    def test_worked_example(self):
        # Four sessions totaling 200 s; one saw 2 freezes lasting 10 s total.
        sessions = _log(
            (0, 2, 10.0, 40.0, 0.0),
            (0, 0, 0.0, 50.0, 0.0),
            (0, 0, 0.0, 50.0, 0.0),
            (0, 0, 0.0, 50.0, 0.0),
        )
        report = aggregate(sessions, np.zeros(0))
        assert report.percent_user == 0.25
        assert report.avg_n_freeze == 0.5
        assert report.avg_t_freeze == 2.5
        assert report.freeze_ratio == 0.05
        assert report.rate_freeze == pytest.approx(0.6)

    def test_no_freezes_all_zero(self):
        sessions = _log(*[(0, 0, 0.0, 30.0, 1.0)] * 3)
        report = aggregate(sessions, np.zeros(0))
        assert (report.percent_user, report.avg_n_freeze, report.avg_t_freeze,
                report.freeze_ratio, report.rate_freeze) == (0, 0, 0, 0, 0)

    def test_waste_is_summed(self):
        report = aggregate(_log((0, 0, 0.0, 150.0, 150.0)), np.zeros(0))
        assert report.wasted_bw == 150.0

    def test_peak_over_ledgers(self):
        report = aggregate(_log((0, 0, 0.0, 1.0, 0.0)), np.array([3.0, 7.5, 2.0]))
        assert report.peak_bw == 7.5

    def test_empty_is_flagged(self):
        report = aggregate(_log(), np.array([2.0]))
        assert report.empty
        assert report.sessions_completed == 0
        assert report.peak_bw == 2.0


class TestInvariants:
    def test_avg_n_freeze_bounds_percent_user(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sessions = [
                (0, int(rng.integers(0, 4)), float(rng.uniform(0, 5)),
                 float(rng.uniform(1, 50)), 0.0)
                for _ in range(int(rng.integers(1, 20)))
            ]
            sessions = [
                s if s[1] else (0, 0, 0.0, s[3], 0.0)
                for s in sessions
            ]
            report = aggregate(_log(*sessions), np.zeros(0))
            assert report.avg_n_freeze >= report.percent_user - 1e-12

    def test_zero_metric_equivalence(self):
        sessions = _log((0, 0, 0.0, 10.0, 0.0))
        report = aggregate(sessions, np.zeros(0))
        assert report.freeze_ratio == report.avg_t_freeze == report.rate_freeze == 0.0


class TestSerialization:
    REPORT = MetricsReport(0.25, 0.5, 2.5, 0.05, 0.6, 150.0, 7.5, 4, 200.0)

    def test_header_matches_row_width(self):
        row = csv_row("be", 0.995, self.REPORT)
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_row_values(self):
        row = csv_row("be", 0.995, self.REPORT).split(",")
        assert row[0] == "be"
        assert row[1] == "0.995"
        assert float(row[2]) == 0.25
        assert row[-1] == "4"

    def test_trace_rows_have_empty_rho(self):
        assert csv_row("sc", None, self.REPORT).split(",")[1] == ""

    def test_json_roundtrip(self):
        docs = json.loads(reports_to_json([("be", 0.995, self.REPORT)]))
        assert docs[0]["strategy"] == "be"
        assert docs[0]["percent_user"] == 0.25
