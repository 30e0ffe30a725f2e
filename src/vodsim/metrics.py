"""QoE metric aggregation over departed sessions and per-slot ledgers."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

CSV_HEADER = (
    "strategy,rho,percent_user,avg_n_freeze,avg_t_freeze,"
    "freeze_ratio,rate_freeze,wasted_bw,peak_bw,sessions"
)


class SessionLog:
    """Per-session QoE facts, reported at departure, as columns in departure
    order, one row per field of `FIELDS`.  freeze_time counts slots spent
    frozen, play_time slots of content actually played, and waste the
    downloaded-but-never-viewed content (rate*slot units).  The columns live
    in one float block that grows geometrically; len() counts the sessions."""

    FIELDS = ("arrival_slot", "freeze_count", "freeze_time", "play_time", "waste")

    def __init__(self, columns=None):
        if columns is None:
            columns = np.zeros((len(self.FIELDS), 0))
        self._block = np.asarray(columns, dtype=float)
        self._n = self._block.shape[1]

    @property
    def columns(self) -> np.ndarray:
        """(fields, sessions) view, rows in `FIELDS` order."""
        return self._block[:, : self._n]

    def append(self, *columns) -> None:
        """Append sessions given as one array per field, in `FIELDS` order."""
        k = self._n
        m = k + len(columns[0])
        if m > self._block.shape[1]:
            grown = np.empty((len(self.FIELDS), max(2 * self._block.shape[1], m, 256)))
            grown[:, :k] = self._block[:, :k]
            self._block = grown
        self._block[:, k:m] = columns
        self._n = m

    def select(self, mask) -> "SessionLog":
        return SessionLog(self.columns[:, mask])

    def __len__(self) -> int:
        return self._n


def _sum_left_to_right(x: np.ndarray) -> float:
    """Sequential float sum, as builtin sum() adds on Python < 3.12; numpy's
    pairwise x.sum() may differ in the last bits."""
    return float(np.cumsum(x)[-1])


@dataclass(frozen=True)
class MetricsReport:
    percent_user: float
    avg_n_freeze: float
    avg_t_freeze: float
    freeze_ratio: float
    rate_freeze: float
    wasted_bw: float
    peak_bw: float
    sessions_completed: int
    total_session_seconds: float = 0.0
    empty: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def aggregate(sessions: SessionLog, ledgers) -> MetricsReport:
    """Fold departed sessions and slot ledgers into the five QoE metrics plus
    wasted and peak bandwidth.

    Session time is play plus freeze time; startup buffering is excluded.
    An empty session set yields an all-zero report flagged `empty`.
    """
    peak = max((l.bw_used for l in ledgers), default=0.0)
    n = len(sessions)
    if n == 0:
        return MetricsReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, float(peak), 0, 0.0, empty=True)
    _, freeze_count, freeze_time, play_time, waste = sessions.columns
    freezes = int(freeze_count.sum())
    freeze_seconds = _sum_left_to_right(freeze_time)
    session_seconds = _sum_left_to_right(play_time + freeze_time)
    return MetricsReport(
        percent_user=int(np.count_nonzero(freeze_count > 0)) / n,
        avg_n_freeze=freezes / n,
        avg_t_freeze=freeze_seconds / n,
        freeze_ratio=freeze_seconds / session_seconds if session_seconds > 0 else 0.0,
        rate_freeze=freezes / (session_seconds / 60.0) if session_seconds > 0 else 0.0,
        wasted_bw=_sum_left_to_right(waste),
        peak_bw=float(peak),
        sessions_completed=n,
        total_session_seconds=session_seconds,
    )


def csv_row(strategy: str, rho, report: MetricsReport) -> str:
    rho_str = "" if rho is None else f"{rho:g}"
    return ",".join(
        [
            strategy,
            rho_str,
            f"{report.percent_user:.6f}",
            f"{report.avg_n_freeze:.6f}",
            f"{report.avg_t_freeze:.6f}",
            f"{report.freeze_ratio:.6f}",
            f"{report.rate_freeze:.6f}",
            f"{report.wasted_bw:.3f}",
            f"{report.peak_bw:.3f}",
            str(report.sessions_completed),
        ]
    )


def reports_to_json(rows) -> str:
    """rows: iterable of (strategy, rho, MetricsReport)."""
    docs = []
    for strategy, rho, report in rows:
        doc = {"strategy": strategy, "rho": rho}
        doc.update(report.as_dict())
        docs.append(doc)
    return json.dumps(docs, indent=2, sort_keys=True)
