"""Slot-loop simulation engine.

Each slot runs, in order: arrivals, rate allocation, download, playback and
freeze-state transitions, departures, accounting.  A run is strictly
sequential and deterministic given its seed (one RNG substream feeds
arrivals, another the departure-time draws).  The departure targets are
drawn ahead, at least TARGET_CHUNK sessions at a time, and handed out in
admission order; `Generator.random` gives the same doubles whether it is
called in chunks or once per slot, so the targets are those of one draw
per admitted session.

Active sessions live in one preallocated float64 block of nine rows that
grows geometrically: buffer, state, skipped, downloaded, arrival,
freeze_count, freeze_time, playback and target.  The integer rows hold slot
counts and the state code, all far below 2**53, so float64 stores them
exactly and the arithmetic on them (`freeze_count += to_freeze`,
`np.maximum(playback, target)`) gives the same bits as int64 columns would.
The rows a departure reads, skipped to target, come last and in one run,
and their last five, arrival to target, are the session log's fields in its
order once waste takes target's place.  A departure copies those rows of its
sessions into the next columns of the departed block, which grows like the
slab, and prices nothing.  Settlement (`_settle`) computes the waste of the
sessions departed since the last settlement in the block's target row in
one pass and fills the `bw_wasted` of the slots they left in, each the one
`np.add.reduce` of its departures' waste in departure order (`_group_sums`,
as at unlimited capacity).  It runs whenever `ledgers` or `sessions` is
read; until then a slot's `bw_wasted` is NaN.  The session log is a view of
the block's last five rows over the sessions departed so far, columns that
no later slot writes.
Columns [0, n) are the n active sessions, oldest arrival first.  Admission
writes the columns after them; playback and freeze updates are whole-row
arithmetic over the first n columns.  A transition that no session takes
would change no bit, so a slot skips it: the startup transition when no
session is in startup, the freeze updates when no session is frozen or
freezes, the `playing` mask of the consume test when every session plays,
and the 0.0/1.0 consume step when every session consumes, which then
subtracts and adds 1.0.
`step` binds only the five rows every slot reads (buffer, state,
downloaded, playback and target) and indexes skipped, freeze_count and
freeze_time in the branches that update them.
The slot loop counts content seconds: `World` divides the access cap and
the capacity by the bitrate once, and the bitrate multiplies back in only
where bandwidth is written out, in `bw_used` and each departure's waste.
In freeze mode a playing session consumes a second when
`buffer - 1.0 > freeze_trigger`.  `b - 1.0` rounds monotonically in b, so
that holds exactly when `buffer > c*`, where c* is the largest double b with
`b - 1.0 <= freeze_trigger`; `World` finds c* once and each slot makes the
one comparison.
No allocator's result shares memory with the pool it was given, and none
keeps the pool, so once the allocator returns `step` reuses the pool's `cap`
row as scratch (for the 0.0/1.0 consumed step) and writes the departure test
into the startup and playing masks.
One scan of that test finds the departing columns.  After the copy to the
departed block, a departure copies the survivors into a spare slab of the
same shape, the prefix before the first gap and then each run of survivors,
one slice per run, and swaps the two slabs, so no copy overlaps its source.
The survivors keep their relative order, and that order must stay stable:
it is the allocators' tie order and the order of the float sums, so any
reordering changes the output bytes.

The departure rule: a session departs at the end of the first slot in which
its playback reaches its target or its download completes, with
`downloaded` within 1e-9 of the video length.  `step` applies it
(`departing`), and `_waste` prices each departure as the seconds downloaded
beyond those viewed, at least 0, times the bitrate: skip mode views the
slots it played less the seconds it skipped, and freeze mode credits a
session up to its target, since it would still watch its buffered tail.
Nothing else in the engine restates the rule.

Each slot's accounting is row `slot` of the slot table, a record array with
the fields SLOT_FIELDS that grows geometrically like the slab.  Every
field is float64, as in the slab: the counts stay exact, a row is written
with one tuple assignment, and the counts a row hands out are floats, which
`json.dumps` takes as they are.

`World` is the engine at finite capacity and the reference at unlimited
capacity, where `run` steps no `World` over the arrivals.  Two premises hold
there: no budget binds, so every allocator gives each session what its own
state asks for and a session's trajectory depends on its departure target
alone; and the targets are drawn independently of the arrivals.  So `run`
steps one small `World` on the run's config, holding a single session with
target L (`_Trajectory`), and keeps that session's slab column at the end of
each slot.  A session with target k follows it until its own departure slot
d_k.  The target enters the departure rule only through `playback >=
target`, and k <= L, so d_k is the earlier of the first slot whose playback
reaches k, one search of a row that never decreases, and the slot in which
the target-L session itself departed, its last column.  The column of slot
d_k with target k, priced by settlement's `_waste`, is its logged row.
`_run_unlimited` builds the slot table and session log from these with a
few passes over the sessions and no loop over slots.  Each session's
class is the run of constant `bw_used`, `playing` and `consumed` offsets
that holds its last offset; two histograms over (class, slot), of arrivals
and of exits, give each run's session count per slot as one integer
cumsum.  The log is ordered by departure slot and then by admission, as the
slot loop appends it: one stable sort of the departure slots, a radix sort
below 2**16 slots.  Each slot's `bw_wasted` is one `np.add.reduce` over its
departures' waste, in that order, as settlement sums it; the slots with m
departures are summed together, as the rows of one (slots, m) block
(`_group_sums`).
Every lifecycle rule is the slot loop's own.  The integer columns,
`bw_wasted`, freeze mode's `consumed` and every session-log column equal the
slot loop's bit for bit.  `bw_used` and skip mode's `consumed` sum over the
pool in another order and may differ from it in the last bits, within
1e-12 relative.
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

# Rows of the session slab, in order, and their indices.
SLAB_ROWS = ("buffer", "state", "skipped", "downloaded", "arrival", "freeze_count",
             "freeze_time", "playback", "target")
(BUFFER, STATE, SKIPPED, DOWNLOADED, ARRIVAL, FREEZE_COUNT, FREEZE_TIME, PLAYBACK,
 TARGET) = range(len(SLAB_ROWS))

# Departure targets are drawn at least this many sessions at a time.
TARGET_CHUNK = 4096

# Fields of the slot table; `export_ledgers` writes the first six.  `playing`
# counts playback attempts, `consumed` the slots played (fewer in skip mode).
SLOT_FIELDS = ("slot", "arrivals", "active", "bw_used", "bw_wasted", "departures",
               "playing", "consumed")
SLOT_DTYPE = np.dtype((np.record, [(f, np.float64) for f in SLOT_FIELDS]))
LEDGER_HEADER = ",".join(SLOT_FIELDS[:6])


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
        for name in ("video_length", "seed", "duration", "warmup"):
            value = getattr(self, name)
            if name == "warmup" and value is None:
                continue
            if type(value) is bool or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        # Only the capacities may be unlimited.
        for name in ("bitrate", "startup_threshold", "rebuffer_threshold", "freeze_trigger"):
            value = getattr(self, name)
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.rebuffer_threshold >= self.freeze_trigger:
            raise ValueError("rebuffer_threshold must be >= freeze_trigger")
        if self.playback_model not in ("freeze", "skip"):
            raise ValueError("playback_model must be 'freeze' or 'skip'")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be nonnegative")

    @property
    def warmup_slots(self) -> int:
        return 2 * self.video_length if self.warmup is None else self.warmup


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
            raise ValueError(
                f"departure model has {model.slots} slots but video_length is "
                f"{config.video_length}"
            )
        self.config = config
        self.strategy = strategy
        self.model = model
        self._alloc = make_allocator(strategy, model)
        # The second of two substreams of the seed; `run` draws arrivals
        # from the first.
        self._dep_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
        self.slot = 0
        self._table = np.zeros(0, dtype=SLOT_DTYPE)  # rows [0, slot) are written
        # The departed block: columns [0, _held) hold the slab rows skipped
        # to target of the departed sessions, in departure order.  The first
        # _priced hold their waste in target's place, and the slots before
        # _settled their bw_wasted.
        self._departed = np.empty((len(SLAB_ROWS) - SKIPPED, 256))
        self._held = self._priced = self._settled = 0
        self._skip_mode = config.playback_model == "skip"
        # The config's scalars, read once rather than on every slot, with
        # the capacities in content seconds per slot.  A session has its
        # whole video once `downloaded >= _complete_at`.
        self._video_length = config.video_length
        self._complete_at = config.video_length - 1e-9
        self._access_cap = config.access_cap / config.bitrate
        self._capacity = config.server_capacity / config.bitrate
        self._bitrate = config.bitrate
        self._startup_threshold = config.startup_threshold
        self._rebuffer_threshold = config.rebuffer_threshold
        self._consume_above = _consume_threshold(config.freeze_trigger)
        # Departure targets drawn ahead; the next session takes
        # _targets[_next_target].
        self._targets = np.zeros(0)
        self._next_target = 0
        # The session slab: columns [0, _n) are the active sessions, rows as
        # in SLAB_ROWS.  Compaction copies the survivors into the spare slab
        # of the same shape and swaps the two.
        self._n = 0
        self._slab = np.zeros((len(SLAB_ROWS), 0))
        self._spare = np.zeros_like(self._slab)

    @property
    def active_count(self) -> int:
        return self._n

    @property
    def ledgers(self) -> np.recarray:
        """The slot table so far, one row per slot, as a view; settles."""
        self._settle()
        return self._table[: self.slot].view(np.recarray)

    @property
    def sessions(self) -> SessionLog:
        """The departed sessions, in departure order, as a view of the
        departed block; settles."""
        self._settle()
        return SessionLog(self._departed[ARRIVAL - SKIPPED :, : self._held])

    def _admit(self, k: int) -> None:
        n, m = self._n, self._n + k
        if m > self._slab.shape[1]:
            self._grow(max(m, 2 * self._slab.shape[1]))
        new = self._slab[:, n:m]
        new[:] = 0.0  # also sets state to STARTUP
        new[ARRIVAL] = self.slot
        new[TARGET] = self._take_targets(k)
        self._n = m

    def _take_targets(self, k: int) -> np.ndarray:
        """The next k departure targets, drawn at least TARGET_CHUNK at a
        time; the chunking changes no target (see the module docstring)."""
        i, j = self._next_target, self._next_target + k
        if j > self._targets.size:
            draws = self._dep_rng.random(max(TARGET_CHUNK, k))
            self._targets = np.concatenate((self._targets[i:], self.model.sample_slots(draws)))
            i, j = 0, k
        self._next_target = j
        return self._targets[i:j]

    def _grow(self, size: int) -> None:
        slab = np.empty((len(SLAB_ROWS), size))
        slab[:, : self._n] = self._slab[:, : self._n]
        self._slab = slab
        self._spare = np.empty_like(slab)

    def step(self, n_arrivals: int = 0) -> np.record:
        """Advance one slot: arrivals, allocation, download, playback,
        departures.  Returns the slot's row of the slot table, whose
        `bw_wasted` is NaN until the slot is settled."""
        # `type` rather than `isinstance`: bool is a subclass of int.
        if (type(n_arrivals) is not int and not isinstance(n_arrivals, np.integer)
                or n_arrivals < 0):
            raise ValueError(f"arrival count must be a nonnegative integer, got {n_arrivals!r}")
        if n_arrivals:
            self._admit(n_arrivals)
        n = self._n
        bw_used = consumed = n_playing = departures = 0
        if n:
            rows = self._slab[:, :n]
            buffer, state, downloaded = rows[BUFFER], rows[STATE], rows[DOWNLOADED]
            playback, target = rows[PLAYBACK], rows[TARGET]
            in_startup = state == STARTUP
            n_startup = np.count_nonzero(in_startup)
            # Sessions playing at the start of the slot are the ones that try
            # to consume: those leaving startup or a freeze resume next slot.
            playing = state == PLAYING
            # The most each session can take this slot: its access link or
            # what is left of its video, whichever is less.  What is left is
            # positive: a newcomer holds nothing, and a session within 1e-9
            # of its video length departed at the end of the last slot.
            cap = self._video_length - downloaded
            np.minimum(cap, self._access_cap, out=cap)
            pool = PoolState(buffer, playback, cap, in_startup, playing)
            rates = self._alloc(pool, self._capacity)
            scratch = cap  # the pool is done with (see the module docstring)
            bw_used = np.add.reduce(rates) * self._bitrate
            buffer += rates
            downloaded += rates

            if n_startup:
                state += in_startup & (buffer >= self._startup_threshold)  # STARTUP -> PLAYING
            n_playing = np.count_nonzero(playing)
            if self._skip_mode:
                take = np.minimum(buffer[playing], 1.0)
                buffer[playing] -= take
                playback += playing
                rows[SKIPPED][playing] += 1.0 - take
                consumed = take.sum()
            else:
                # In a slot where no session is frozen or freezes, the freeze
                # updates would add or subtract all-False masks, which leaves
                # these nonnegative rows bit for bit; such a slot skips them.
                n_frozen = n - n_playing - n_startup
                if n_frozen:
                    exits = (state == FROZEN) & (buffer >= self._rebuffer_threshold)
                    state -= exits  # FROZEN -> PLAYING
                consume = buffer > self._consume_above
                if n_playing < n:
                    consume &= playing
                consumed = n_consumed = np.count_nonzero(consume)
                if n_consumed == n:
                    buffer -= 1.0
                    playback += 1.0
                else:
                    scratch[:] = consume  # the step as 0.0/1.0, cast once for both rows
                    buffer -= scratch
                    playback += scratch
                if n_consumed < n_playing:
                    to_freeze = playing ^ consume
                    state += to_freeze  # PLAYING -> FROZEN
                    rows[FREEZE_COUNT] += to_freeze
                if n_frozen or n_consumed < n_playing:
                    rows[FREEZE_TIME] += state == FROZEN

            departing = np.greater_equal(playback, target, out=in_startup)
            departing |= np.greater_equal(downloaded, self._complete_at, out=playing)
            gone = departing.nonzero()[0]
            departures = gone.size
            if departures:
                self._depart(gone)
        slot = self.slot
        if slot == self._table.size:
            self._table = np.concatenate((self._table, np.zeros(max(slot, 256), SLOT_DTYPE)))
        self._table[slot] = (slot, n_arrivals, n, bw_used, math.nan, departures,
                             n_playing, consumed)
        self.slot = slot + 1
        return self._table[slot]

    def _depart(self, gone: np.ndarray) -> None:
        """Copy the sessions in columns `gone` (ascending) to the departed
        block, growing it if need be, then compact the slab stably into the
        spare slab and swap the two."""
        held, m = self._held, self._held + gone.size
        if m > self._departed.shape[1]:
            grown = np.empty((len(SLAB_ROWS) - SKIPPED, max(m, 2 * self._departed.shape[1])))
            grown[:, :held] = self._departed[:, :held]
            self._departed = grown
        self._departed[:, held:m] = self._slab[SKIPPED:].take(gone, axis=1)
        self._held = m
        self._n = _compact(self._slab, self._spare, self._n, gone)
        self._slab, self._spare = self._spare, self._slab

    def _settle(self) -> None:
        """Price the departures not yet priced and fill the `bw_wasted` of
        the slots they left in."""
        block = self._departed[:, self._priced : self._held]
        self._waste(block)
        rows = self._table[self._settled : self.slot]
        rows["bw_wasted"] = _group_sums(block[-1], rows["departures"].astype(np.intp))
        self._priced = self._held
        self._settled = self.slot

    def _waste(self, block: np.ndarray) -> None:
        """Overwrite the target row of `block`, departing sessions' slab rows
        skipped to target, with their waste in Mb."""
        # Indexing three rows is cheaper than unpacking seven.  Viewed as
        # the departure rule says (see the module docstring).
        downloaded, playback, waste = block[1], block[5], block[6]
        if self._skip_mode:
            np.subtract(playback, block[0], out=waste)  # viewed: block[0] is skipped
        else:
            np.maximum(playback, waste, out=waste)  # viewed: waste holds target
        np.subtract(downloaded, waste, out=waste)
        np.maximum(waste, 0.0, out=waste)
        waste *= self._bitrate


class _Trajectory(World):
    """A `World` holding one session with target L, admitted in slot 0 and
    stepped until it departs or `config.duration` slots have passed.  `path`
    holds the session's slab column at the end of each of those slots, as
    (rows, slots), the departure slot's as `_depart` finds it."""

    def __init__(self, config: SimConfig, strategy: str, model: DepartureModel):
        super().__init__(config, strategy, model)
        self._targets = np.array([float(config.video_length)])
        self._columns = []
        k = 1
        while self.slot < config.duration and (k or self._n):
            self.step(k)
            k = 0
            if self._n:
                self._columns.append(self._slab[:, 0].copy())
        self.path = np.reshape(self._columns, (-1, len(SLAB_ROWS))).T

    def _depart(self, gone: np.ndarray) -> None:
        self._columns.append(self._slab[:, 0].copy())
        super()._depart(gone)

    def read_off(self) -> tuple[np.ndarray, np.ndarray]:
        """d_k for each target k in 1..L, the slot in which a session with
        target k departs (the departure rule and its read-off are in the
        module docstring), or the slot count for
        one that does not depart; and the `SessionLog` rows of the targets
        that depart, in target order."""
        path = self.path
        d = np.minimum(np.searchsorted(path[PLAYBACK], np.arange(1, self._video_length + 1)),
                       path.shape[1] - self._held)
        block = path[SKIPPED:, d[d < path.shape[1]]]
        block[-1] = np.arange(1, block.shape[1] + 1)
        self._waste(block)
        return d, block[ARRIVAL - SKIPPED:]


def _consume_threshold(freeze_trigger: float) -> float:
    """c*, the largest double b with `b - 1.0 <= freeze_trigger` in float
    arithmetic, for a finite `freeze_trigger`: `buffer - 1.0 >
    freeze_trigger` holds exactly when `buffer > c*`."""
    b = freeze_trigger + 1.0
    while b - 1.0 > freeze_trigger:
        b = math.nextafter(b, -math.inf)
    while math.nextafter(b, math.inf) - 1.0 <= freeze_trigger:
        b = math.nextafter(b, math.inf)
    return b


def _compact(src: np.ndarray, dst: np.ndarray, n: int, gone: np.ndarray) -> int:
    """Copy the first n columns of `src`, except the columns `gone`
    (ascending, all below n), to the front of `dst`: the prefix before the
    first gap, then each run of survivors, one slice per run.  The survivors
    keep their relative order, and no copy overlaps its source.  Returns the
    survivor count.
    """
    ends = gone.tolist()
    ends.append(n)
    at = ends[0]
    dst[:, :at] = src[:, :at]
    for start, end in zip(ends, ends[1:]):
        width = end - start - 1
        if width:
            dst[:, at : at + width] = src[:, start + 1 : end]
            at += width
    return at


@dataclass
class RunResult:
    strategy: str
    config: SimConfig
    report: MetricsReport
    ledgers: np.recarray = field(repr=False)
    sessions: SessionLog = field(repr=False)


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

    At finite capacity a `World` steps through the slots.  At unlimited
    capacity no budget binds, so a session's trajectory depends on its
    departure target alone, and the targets do not depend on the arrivals:
    the slot table and session log are built from one session's trajectory,
    each target's departure read off it (`_run_unlimited`).  They equal the slot loop's bit for bit, except
    `bw_used` and skip mode's `consumed`, sums over the pool in another
    order, which agree to 1e-12 relative.
    """
    config.validate()
    arr_seq = np.random.SeedSequence(config.seed).spawn(2)[0]
    counts = arrival_process.generate(config.duration, np.random.default_rng(arr_seq))
    w = config.warmup_slots
    if math.isinf(config.server_capacity):
        ledgers, sessions = _run_unlimited(config, strategy, model, counts)
    else:
        world = World(config, strategy, model)
        for c in counts:
            world.step(int(c))
        ledgers = world.ledgers
        log = world.sessions
        sessions = log.select(log.columns[0] >= w)
    report = aggregate(sessions, ledgers.bw_used[w:])
    return RunResult(
        strategy=strategy,
        config=config,
        report=report,
        ledgers=ledgers,
        sessions=sessions,
    )


def _run_unlimited(config: SimConfig, strategy: str, model: DepartureModel,
                   counts: np.ndarray) -> tuple[np.recarray, SessionLog]:
    """`run`'s slot table and warmup-filtered session log at unlimited
    capacity, built from one session's trajectory.

    No budget binds, so every session with target k follows the trajectory
    of a session with target L until it departs, d_k slots after its
    arrival.  `one` holds a single session with target L: its slot table
    gives one session's `bw_used`, `playing` and `consumed` at each offset
    from arrival, and `read_off` gives each target's d_k and logged row from
    the session's slab columns.  The run's `active`, `bw_used`, `playing`
    and `consumed` are counts over the R runs of offsets where `one`'s three
    columns stay constant: a session is in every run up to the one holding
    its last offset, its class, and two histograms over (class, slot), of
    arrivals and of exits from the class's run, give every run's count per
    slot as one integer cumsum.  The histograms are built for a block of
    classes at a time, so that memory stays O(N + T) for N sessions and T
    slots however many runs there are.  The log is the departed sessions'
    logged rows in departure order, by slot and then by admission, and
    `bw_wasted` sums each slot's run of waste in that order by departure
    count (`_group_sums`).
    """
    T, w = config.duration, config.warmup_slots
    one = _Trajectory(config, strategy, model)
    # `one`'s departure draws are unused: they are the run's own substream.
    k = model.sample_slots(one._dep_rng.random(int(counts.sum()))) - 1  # target - 1
    offset, logged = one.read_off()
    arrival = np.repeat(np.arange(T), counts)
    departure = np.minimum(arrival + offset[k], T)  # T: still active at the end
    departures = np.bincount(departure, minlength=T + 1)[:T]

    # Runs [start, end) of offsets over which `one`'s bw_used, playing and
    # consumed stay constant: offset 0 starts one, as does each offset whose
    # values differ from the offset before.
    prof = one.ledgers
    values = np.stack((prof.bw_used, prof.playing, prof.consumed))
    changed = (values[:, 1:] != values[:, :-1]).any(axis=0)
    starts = np.flatnonzero(np.concatenate(([one.slot > 0], changed)))
    R = starts.size
    # Each session's class, and the slot at which it leaves its class's run
    # (T: not before the end); a session outliving `one`'s slots stays in
    # the last run to its end.
    cls = (np.searchsorted(starts, offset, side="right") - 1)[k]
    leave = np.minimum(arrival + np.minimum(offset + 1, one.slot)[k], T)
    # The classes go in blocks of B, each block's histograms of arrivals and
    # of exits over (class, slot) holding at most max(N, T + 1) entries for
    # N sessions, so memory stays O(N + T) however many runs `one` makes.
    W = T + 1
    B = max(1, k.size // W)
    runs = list(zip(starts.tolist(), starts[1:].tolist() + [one.slot]))
    above = counts  # arrivals per slot of class r or above
    bw_used, playing, consumed = np.zeros((3, T))
    for lo in range(0, R, B):
        mine = (cls >= lo) & (cls < lo + B)
        key = (cls[mine] - lo) * W
        size = min(B, R - lo) * W
        H = np.bincount(key + arrival[mine], minlength=size).reshape(-1, W)
        E = np.bincount(key + leave[mine], minlength=size).reshape(-1, W)
        for r, (start, end) in enumerate(runs[lo: lo + B]):
            # Class lo + r and above enter its run at offset start; above it
            # leave at end, and the class itself at its exit.
            edges = -E[r, :T]
            edges[start:] += above[: T - start]
            above = above - H[r, :T]
            edges[end:] -= above[: T - end]
            n = np.cumsum(edges)
            bw, play, take = values[:, start]
            bw_used += bw * n
            playing += play * n
            consumed += take * n
        del mine, key, H, E
    del cls, leave

    # Departure order: by slot, then by admission, with the sessions still
    # active (slot T) last and cut off.  numpy's stable sort of 16-bit keys,
    # those of runs below 2**16 slots, is a radix sort.
    order = np.argsort(departure.astype(np.min_scalar_type(T)), kind="stable")
    order = order[: int(departures.sum())]
    del departure
    k = k[order]
    bw_wasted = _group_sums(logged[-1][k], departures)

    # Arrivals never decrease, so the sessions arriving from slot w on are
    # those admitted from index counts[:w].sum() on.
    measured = order >= counts[:w].sum()
    sessions = logged.take(k[measured], axis=1)
    del k
    sessions[0] = arrival[order[measured]]

    table = np.zeros(T, SLOT_DTYPE)
    table["slot"] = np.arange(T)
    table["arrivals"] = counts
    table["active"] = np.cumsum(counts) - np.cumsum(departures) + departures
    table["bw_used"] = bw_used
    table["bw_wasted"] = bw_wasted
    table["departures"] = departures
    table["playing"] = playing
    table["consumed"] = consumed
    return table.view(np.recarray), SessionLog(sessions)


def _group_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sums of the consecutive groups of `values` whose sizes are
    `counts`, each bit for bit the one 1-D `np.add.reduce` of its group.
    The groups of one size m are gathered into one C-contiguous (groups, m)
    block and reduced along its rows, which numpy sums as it sums a 1-D
    array of m; one reduction per distinct size, fewer than sqrt(2N) for N
    values.  The sizes come from a `bincount`: the first `np.unique` call in
    a process faults in about 1.6 MB."""
    sums = np.zeros(counts.size)
    first = np.cumsum(counts) - counts
    sizes = np.bincount(counts)
    sizes[:1] = 0  # empty groups sum to 0.0
    for m in np.flatnonzero(sizes).tolist():
        groups = np.flatnonzero(counts == m)
        sums[groups] = np.add.reduce(values[first[groups, None] + np.arange(m)], axis=1)
    return sums


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
) -> float:
    """Viewing-ratio estimate used when converting offered load to an
    arrival rate.

    A session downloads its viewed seconds plus the startup prefetch, so its
    download is mean_viewing_ratio * L + startup_threshold content seconds,
    the same share of the video at any bitrate.
    Sizing the arrival rate with the raw mean viewing ratio therefore leaves
    the server slightly oversubscribed at any nominal load, and near rho = 1
    the active population random-walks instead of settling.  Rounding the
    per-session download ratio up to the planning precision keeps every
    nominal load < 1 strictly subcritical.
    """
    if video_length <= 0:
        raise ValueError("video_length must be positive")
    download_ratio = mean_viewing_ratio + startup_threshold / video_length
    return math.ceil(download_ratio / PLANNING_PRECISION) * PLANNING_PRECISION


def poisson_arrival_rate(rho: float, config: SimConfig, model: DepartureModel) -> float:
    """Poisson arrival rate per slot for offered load `rho` on `config`'s
    server, sized with `planning_viewing_ratio` of the model's mean viewing
    ratio."""
    config.validate()
    estimate = planning_viewing_ratio(
        model.mean_viewing_ratio, config.video_length, config.startup_threshold
    )
    return load_to_arrival_rate(
        rho, config.server_capacity, config.video_length, config.bitrate, estimate
    )


def export_ledgers(ledgers, path) -> None:
    """Write the slot table's first six fields as CSV under LEDGER_HEADER:
    slot,arrivals,active,bw_used,bw_wasted,departures."""
    columns = np.column_stack([ledgers[f] for f in SLOT_FIELDS[:6]])
    np.savetxt(path, columns, fmt="%d,%d,%d,%.6f,%.6f,%d", header=LEDGER_HEADER, comments="")
