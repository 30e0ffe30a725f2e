"""Slot-loop simulation engine.

Each slot runs, in order: arrivals, rate allocation, download, playback and
freeze-state transitions, departures, accounting.  A run is strictly
sequential and deterministic given its seed (one RNG substream feeds
arrivals, another the departure-time draws).

Active sessions live in one preallocated float64 block of nine rows that
grows geometrically: buffer, downloaded, skipped, arrival, target, playback,
freeze_count, freeze_time and state.  The integer rows hold slot counts and
the state code, all far below 2**53, so float64 stores them exactly and the
arithmetic on them (`freeze_count += to_freeze`, `np.maximum(playback,
target)`) gives the same bits as int64 columns would.
Columns [0, n) are the n active sessions, oldest arrival first.  Admission
writes the columns after them; playback and freeze updates are whole-row
arithmetic over the first n columns.  A departure gathers the departing
columns with one `take` and appends them to the `SessionLog`.  It then
slides each run of survivors left over the gaps before it, in order, one
slice per run.  The survivors keep their relative order, and that order
must stay stable: it is the allocators' tie order and the order of the
float sums, so any reordering changes the output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrivals import ArrivalProcess
from .behavior import DepartureModel
from .metrics import MetricsReport, SessionLog, aggregate
from .strategy import PoolState, make_allocator

# Session states.  Each transition steps to a neighbouring code, so the slot
# loop applies it by adding or subtracting the transition's mask.
STARTUP, PLAYING, FROZEN = 0, 1, 2

# Rows of the session slab, in order.
SLAB_ROWS = ("buffer", "downloaded", "skipped", "arrival", "target", "playback",
             "freeze_count", "freeze_time", "state")
ARRIVAL, TARGET = SLAB_ROWS.index("arrival"), SLAB_ROWS.index("target")

LEDGER_HEADER = "slot,arrivals,active,bw_used,bw_wasted,departures"


@dataclass
class SimConfig:
    bitrate: float = 1.0             # Mb/s
    video_length: int = 300          # slots (= seconds)
    access_cap: float = 2.0          # Mb/s per user
    server_capacity: float = 1000.0  # Mb/s; math.inf for unlimited
    startup_threshold: float = 2.0   # buffer seconds before playback starts
    rebuffer_threshold: float = 2.0  # buffer seconds to exit a freeze
    freeze_trigger: float = 0.0      # buffer seconds at/below which a freeze begins
    playback_model: str = "freeze"   # "freeze" | "skip"
    seed: int = 12345
    duration: int = 3600             # slots to simulate
    warmup: int | None = None        # slots excluded from metrics; default 2 * video_length

    def validate(self) -> None:
        # Comparisons are written so that NaN fails them.
        for name in ("bitrate", "access_cap", "server_capacity",
                     "startup_threshold", "rebuffer_threshold"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.video_length < 1:
            raise ValueError("video_length must be positive")
        if not self.freeze_trigger >= 0:
            raise ValueError(f"freeze_trigger must be nonnegative, got {self.freeze_trigger}")
        if not self.rebuffer_threshold >= self.freeze_trigger:
            raise ValueError("rebuffer_threshold must be >= freeze_trigger")
        if self.playback_model not in ("freeze", "skip"):
            raise ValueError("playback_model must be 'freeze' or 'skip'")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be nonnegative")

    @property
    def warmup_slots(self) -> int:
        return 2 * self.video_length if self.warmup is None else self.warmup

    @property
    def file_size(self) -> float:
        return self.video_length * self.bitrate


@dataclass
class SlotLedger:
    slot: int
    arrivals: int = 0
    active: int = 0
    bw_used: float = 0.0
    bw_wasted: float = 0.0
    departures: int = 0
    playing: int = 0       # sessions attempting playback this slot
    consumed: float = 0.0  # slots of content actually played (skip mode < playing)

    def row(self) -> str:
        return (
            f"{self.slot},{self.arrivals},{self.active},"
            f"{self.bw_used:.6f},{self.bw_wasted:.6f},{self.departures}"
        )


class World:
    """Mutable simulation state for one run."""

    def __init__(
        self,
        config: SimConfig,
        strategy: str,
        model: DepartureModel,
    ):
        config.validate()
        if model.slots != config.video_length:
            raise ValueError("departure model length must match video_length")
        self.config = config
        self.strategy = strategy
        self.model = model
        self._alloc = make_allocator(strategy, config.bitrate, model)
        # The second of two substreams of the seed; `run` draws arrivals
        # from the first.
        self._dep_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
        self.slot = 0
        self.ledgers: list[SlotLedger] = []
        self.sessions = SessionLog()  # departed sessions, in departure order
        self._skip_mode = config.playback_model == "skip"
        # The session slab: columns [0, _n) are the active sessions, rows as
        # in SLAB_ROWS.
        self._n = 0
        self._slab = np.zeros((len(SLAB_ROWS), 0))

    @property
    def active_count(self) -> int:
        return self._n

    def _admit(self, k: int) -> None:
        draws = self._dep_rng.random(k)
        targets = self.model.sample_slots(draws)
        n, m = self._n, self._n + k
        if m > self._slab.shape[1]:
            self._grow(max(m, 2 * self._slab.shape[1]))
        new = self._slab[:, n:m]
        new[:] = 0.0  # also sets state to STARTUP
        new[ARRIVAL] = self.slot
        new[TARGET] = targets
        self._n = m

    def _grow(self, size: int) -> None:
        slab = np.empty((len(SLAB_ROWS), size))
        slab[:, : self._n] = self._slab[:, : self._n]
        self._slab = slab

    def step(self, n_arrivals: int = 0) -> SlotLedger:
        """Advance one slot: arrivals, allocation, download, playback, departures."""
        cfg = self.config
        if n_arrivals:
            self._admit(n_arrivals)
        n = self._n
        ledger = SlotLedger(slot=self.slot, arrivals=n_arrivals, active=n)
        if n:
            (buffer, downloaded, skipped, _, target, playback,
             freeze_count, freeze_time, state) = self._slab[:, :n]
            in_startup = state == STARTUP
            # Sessions playing at the start of the slot are the ones that try
            # to consume: those leaving startup or a freeze resume next slot.
            playing = state == PLAYING
            # The most each session can take this slot: its access link or
            # what is left of its file, whichever is less.
            cap = np.maximum(cfg.file_size - downloaded, 0.0)
            np.minimum(cap, cfg.access_cap, out=cap)
            pool = PoolState(buffer, playback, cap, in_startup, playing)
            rates = self._alloc(pool, cfg.server_capacity)
            ledger.bw_used = float(rates.sum())
            buffer += rates / cfg.bitrate
            downloaded += rates

            state += in_startup & (buffer >= cfg.startup_threshold)  # STARTUP -> PLAYING
            ledger.playing = int(np.count_nonzero(playing))
            if self._skip_mode:
                take = np.minimum(buffer[playing], 1.0)
                buffer[playing] -= take
                playback += playing
                skipped[playing] += 1.0 - take
                ledger.consumed = float(take.sum())
            else:
                exits = (state == FROZEN) & (buffer >= cfg.rebuffer_threshold)
                state -= exits  # FROZEN -> PLAYING
                consume = playing & (buffer - 1.0 > cfg.freeze_trigger)
                buffer -= consume
                playback += consume
                to_freeze = playing ^ consume
                state += to_freeze  # PLAYING -> FROZEN
                freeze_count += to_freeze
                freeze_time += state == FROZEN
                ledger.consumed = float(np.count_nonzero(consume))

            departing = (playback >= target) | (downloaded >= cfg.file_size - 1e-9)
            if departing.any():
                self._depart(departing, ledger)
        self.ledgers.append(ledger)
        self.slot += 1
        return ledger

    def _depart(self, departing: np.ndarray, ledger: SlotLedger) -> None:
        """Log the departing sessions, then compact the slab stably."""
        cfg = self.config
        gone = departing.nonzero()[0]
        (_, downloaded, skipped, arrival, target, playback,
         freeze_count, freeze_time, _) = self._slab.take(gone, axis=1)
        # Download-complete departures get credited up to their target:
        # the buffered tail up to the target would still be viewed.
        if self._skip_mode:
            viewed = playback - skipped
        else:
            viewed = np.maximum(playback, target)
        waste = np.maximum(downloaded - viewed * cfg.bitrate, 0.0)
        ledger.bw_wasted = float(waste.sum())
        ledger.departures = gone.size
        self.sessions.append(arrival, freeze_count, freeze_time, playback, waste)
        self._n = _compact(self._slab, self._n, gone)


def _compact(slab: np.ndarray, n: int, gone: np.ndarray) -> int:
    """Drop the columns `gone` (ascending, all below n) from the first n
    columns of `slab` by sliding each run of survivors left over the gaps
    before it, one slice per run, so the survivors keep their relative order.
    Returns the survivor count.
    """
    ends = gone.tolist()
    ends.append(n)
    dst = ends[0]
    for src, end in zip(ends, ends[1:]):
        width = end - src - 1
        if width:
            slab[:, dst : dst + width] = slab[:, src + 1 : end]
            dst += width
    return dst


@dataclass
class RunResult:
    strategy: str
    config: SimConfig
    report: MetricsReport
    ledgers: list[SlotLedger] = field(repr=False, default_factory=list)
    sessions: SessionLog = field(repr=False, default_factory=SessionLog)


def run(
    config: SimConfig,
    strategy: str,
    arrival_process: ArrivalProcess,
    model: DepartureModel,
) -> RunResult:
    """Execute `config.duration` slots from an empty system.

    Sessions report QoE at departure; sessions still alive at the end are
    excluded, as are sessions arriving (and slots falling) inside the warmup
    window.  Identical inputs and seed give identical outputs.
    """
    config.validate()
    arr_seq = np.random.SeedSequence(config.seed).spawn(2)[0]
    counts = arrival_process.generate(config.duration, np.random.default_rng(arr_seq))
    world = World(config, strategy, model)
    for c in counts:
        world.step(int(c))
    w = config.warmup_slots
    sessions = world.sessions.select(world.sessions.columns[0] >= w)
    measured = [l for l in world.ledgers if l.slot >= w]
    report = aggregate(sessions, measured)
    return RunResult(
        strategy=strategy,
        config=config,
        report=report,
        ledgers=world.ledgers,
        sessions=sessions,
    )


def load_to_arrival_rate(
    rho: float,
    C: float,
    L: int,
    bitrate: float,
    mean_viewing_ratio: float = 1.0,
) -> float:
    """Arrival rate per slot producing offered load rho = lam*L*bitrate/C,
    corrected for the expected viewing ratio under early departure."""
    inputs = dict(rho=rho, C=C, L=L, bitrate=bitrate, mean_viewing_ratio=mean_viewing_ratio)
    for name, value in inputs.items():
        if not 0 < value < math.inf:  # NaN and inf fail
            raise ValueError(f"{name} must be positive and finite, got {value}")
    return rho * C / (bitrate * L * mean_viewing_ratio)


# Step to which `planning_viewing_ratio` rounds the download ratio up.
PLANNING_PRECISION = 0.01


def planning_viewing_ratio(
    mean_viewing_ratio: float,
    video_length: int,
    startup_threshold: float = 2.0,
    bitrate: float = 1.0,
) -> float:
    """Viewing-ratio estimate used when converting offered load to an
    arrival rate.

    A session downloads its viewed seconds plus the startup prefetch, so the
    per-session volume is mean_viewing_ratio * L * bitrate + startup bytes.
    Sizing the arrival rate with the raw mean viewing ratio therefore leaves
    the server slightly oversubscribed at any nominal load, and near rho = 1
    the active population random-walks instead of settling.  Rounding the
    per-session download ratio up to the planning precision keeps every
    nominal load < 1 strictly subcritical.
    """
    if video_length <= 0 or bitrate <= 0:
        raise ValueError("video_length and bitrate must be positive")
    download_ratio = mean_viewing_ratio + startup_threshold / (video_length * bitrate)
    return math.ceil(download_ratio / PLANNING_PRECISION) * PLANNING_PRECISION


def poisson_arrival_rate(rho: float, config: SimConfig, model: DepartureModel) -> float:
    """Poisson arrival rate per slot for offered load `rho` on `config`'s
    server, sized with `planning_viewing_ratio` of the model's mean viewing
    ratio."""
    estimate = planning_viewing_ratio(
        model.mean_viewing_ratio,
        config.video_length,
        config.startup_threshold,
        config.bitrate,
    )
    return load_to_arrival_rate(
        rho, config.server_capacity, config.video_length, config.bitrate, estimate
    )


def export_ledgers(ledgers, path) -> None:
    """Write the per-slot table: slot,arrivals,active,bw_used,bw_wasted,departures."""
    with open(path, "w") as fh:
        fh.write(LEDGER_HEADER + "\n")
        for l in ledgers:
            fh.write(l.row() + "\n")
