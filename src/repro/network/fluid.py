"""Flow-level (fluid) network simulation.

Both sides of the paper's evaluation need to turn a set of concurrent
transfers into completion times:

* the **measured** side uses the cluster emulator's rate allocator
  (:mod:`repro.network.allocator`) as the rate provider;
* the **predicted** side uses a contention model wrapped by
  :class:`repro.simulator.providers.ModelRateProvider`.

The machinery in between is identical and lives here: an **event-calendar**
fluid simulation that keeps, for every in-flight transfer, its remaining
byte count and a predicted completion entry in a lazy min-heap, refreshes
rates whenever the set of active transfers changes (a transfer starts or
finishes), and advances time to the next calendar entry.  This is the
standard flow-level approximation used by simulators such as SimGrid and is
exact for max-min style allocations that only change at flow
arrival/departure.

Delta recomputation contract
----------------------------
A rate provider (:class:`RateProvider`) has exactly two methods the
calendar calls:

* ``update_slots(added, added_slots, removed) -> (tids, slots, rates)`` —
  apply the flow arrivals (``added``, :class:`Transfer` objects, each with
  its structure-of-arrays *slot index* in ``added_slots``) and departures
  (``removed``, transfer ids) and return, as a parallel id list, intp
  ndarray and float64 ndarray, the rates of exactly the transfers that
  were **re-priced** — every added transfer plus any incumbent whose rate
  may have changed (for the model-side provider that is the membership of
  the conflict components dirtied by the delta, straight out of
  :class:`repro.core.incremental.IncrementalPenaltyEngine`; for the
  emulator it is the value-diff of the re-solved allocation).  Transfers
  absent from the answer are guaranteed to keep their previous rate, which
  is what lets the calendar leave their predicted completion untouched.
  The provider stores each arrival's slot handle and returns it with every
  later rate of that transfer; returned slots are authoritative, so the
  provider must report only transfers it was handed and not yet removed.
  The rates for a given active set must not depend on *when* the provider
  was previously asked, only on the set itself.
* ``reset()`` — drop the tracked active set (memo caches survive a reset);
  called between independent runs and by :meth:`TransferCalendar.reprice`.

Every flush, stall retry and reprice goes through ``update_slots``, traced
or not and with or without a rate scale; the calendar rejects a provider
that lacks either method at construction.  Both built-in providers
(:class:`repro.simulator.providers.ModelRateProvider`, which threads slot
handles through the incremental pricing engine's component bookkeeping,
and :class:`repro.network.allocator.EmulatorRateProvider`, which stores
them in its endpoint-pair buckets) validate each delta with
:func:`validate_delta` and keep ``update(added, removed)`` as a dict view
over the same pricing walk for direct callers.  The contract, including
slot-map ownership rules, is documented in ``docs/delta-handoff.md``.

Calendar invariants
-------------------
:class:`TransferCalendar` maintains, per in-flight transfer, ``remaining``
bytes, the current ``rate``, the time the rate was last applied from, and an
``epoch``; the min-heap holds ``(predicted_completion, seq, id, epoch)``
entries.

* **Epoch-stale entries**: re-timing a transfer gives it a fresh epoch and
  pushes a fresh entry; superseded entries stay in the heap and are
  discarded when they surface (their epoch no longer matches).  Entries of
  departed transfers are discarded the same way — also when a later
  transfer reuses the id, because epochs come from one calendar-wide
  counter (a new transfer starts at epoch 0, which no entry carries).
* **Re-timing rule**: a transfer is re-timed (remaining bytes integrated at
  the old rate up to "now", then a new completion predicted at the new
  rate) only when the provider returns a rate whose *value* differs from
  the stored one.  A re-priced transfer whose rate came back unchanged
  keeps its calendar entry bit-for-bit, so the provider may over-report —
  correctness only requires that every actual change is reported.
* **Completion rule**: when an entry surfaces at or before the simulation
  clock, the transfer's remaining bytes are integrated; it completes when
  they are negligible (≤ :attr:`~TransferCalendar.EPSILON_BYTES`) or when
  the time still needed at the current rate is below the clock resolution.
  A non-negligible pop (floating-point drift) re-times instead of
  completing, so the calendar can never lose a transfer.
* **Heap compaction**: lazy deletion leaves one superseded entry behind per
  re-timing, so a long run with frequent rate changes would grow the heap
  without bound.  Whenever the heap exceeds
  :attr:`~TransferCalendar.COMPACT_MIN_HEAP` entries *and* more than half of
  them are provably stale (a flight owns at most one live entry, so
  ``len(heap) > 2 × len(flights)`` implies a stale majority), the heap is
  rebuilt in place keeping only current-epoch entries of live flights.
  Compacted-away entries count into ``CalendarStats.stale_entries`` exactly
  as if they had surfaced and been discarded; ``CalendarStats.compactions``
  counts the rebuilds.  Compaction is checked once after every applied
  changed set (per-flight loop and batch alike), after every drift
  re-timing in the pop loop and after every :meth:`cancel` (a cancel-heavy
  workload grows only stale entries, so re-timings alone would never
  trigger it), so the heap stays ``max(COMPACT_MIN_HEAP, 2 × active)``-
  bounded after every mutating call.
* **Zero-rate flights**: a flight whose applied rate is ``<= 0`` gets no
  calendar entry (nothing to predict).  The calendar tracks these in a
  *stalled* set; every subsequent :meth:`flush` re-rates them through a
  departure+arrival cycle of ``update_slots`` (which dirties their
  conflict component, forcing the provider to re-report them), so a
  transfer zero-rated by an under-reporting provider resurfaces as soon as
  anything else changes instead of starving silently.  When nothing else
  will ever change, the simulation loops fail fast with a diagnostic naming
  the starved transfer ids (:meth:`TransferCalendar.stalled_ids`).
* **Error atomicity**: the pending arrival/departure queues are cleared only
  after the provider query returns.  A provider that raises mid-flush
  leaves the calendar consistent — the same flush can be retried (or the
  error handled) without losing the delta.

Interference injection
----------------------
The calendar is deliberately agnostic about *who* owns a transfer:
foreground MPI traffic and injected background flows
(:mod:`repro.simulator.interference`) ride the same heap and the same
delta path, so injected flows contend in the rate provider exactly like
foreground ones.  Two hooks exist for injectors:

* :meth:`TransferCalendar.set_rate_scale` installs a post-provider rate
  multiplier (link degradation windows); because scaled rates feed the
  value-compare of the re-timing rule, the scale must only change at
  :meth:`TransferCalendar.reprice` boundaries;
* :meth:`TransferCalendar.reprice` forces a full re-rate of every in-flight
  transfer through ``provider.reset()`` + a full re-add — the re-rate hook
  for capacity changes that the delta contract cannot express.

Injectors reach both hooks through one
:class:`~repro.simulator.interference.InjectionState` per run, the surface
:class:`FluidTransferSimulator` and the execution engine share.

With no injectors installed (no scale hook, no reprice calls) every code
path is bit-for-bit identical to the pre-injection calendar.

Flight store
------------
Flight state lives in dense **structure-of-arrays** storage
(:class:`_FlightArrays`): parallel numpy arrays ``remaining`` / ``rate`` /
``last_update`` (float64), ``epoch`` (int64) and ``rated`` (bool), indexed
by an integer *slot* per in-flight transfer.  A :class:`SlotMap` maintains
the tid↔slot mapping — the same dense-slot-plus-free-list discipline the
emulator allocator uses for its incidence arrays.  Slot-map invariants:

* every active tid owns exactly one slot; ``SlotMap.slot_of`` preserves
  *activation order*, so missing-rate scans and :meth:`reprice` enumerate
  transfers in activation order;
* released slots go to a free-list and are reused LIFO; array cells of
  free slots are garbage and are never read (liveness is defined by
  ``slot_of`` membership, not by array contents);
* arrays grow by doubling and never shrink — the slot high-water mark
  bounds their length.

A changed set smaller than :attr:`~TransferCalendar.BATCH_MIN` is applied
flight by flight; a larger one in one numpy batch: gather old rates by
slot, mask the entries whose rate *value* actually changed, integrate
``remaining -= rate · dt`` and predict ``now + remaining / rate`` for the
whole changed set elementwise, then insert the fresh heap entries either
one ``heappush`` at a time or — when the batch has at least
:attr:`~TransferCalendar.BULK_HEAPIFY_MIN` entries and is at least a
quarter of the current heap size — by a single list-extend + ``heapify``
rebuild (O(heap) once beats O(k·log heap) pushes precisely in that
regime).  Compaction evaluates the epoch-liveness mask with one
vectorized compare.

The batch is **bit-exact** with the per-flight loop: numpy float64
elementwise arithmetic performs the same IEEE-754 operations in the same
per-flight order, heap entries carry unique ``(completion, seq)`` keys so
the pop stream is a pure function of the entry *set* (never of the heap's
internal arrangement), and seq numbers are drawn in changed-set order.
Tracing never changes the handoff or the strategy: the batch emits
``calendar.stall``/``calendar.retime`` records per flight in changed order
and every path checks compaction once per apply (not per push), so traced
and untraced runs see the same heap evolution and report the same stats.
The scalar per-flight calendar this store replaced is kept as a test
oracle (``tests/oracles/scalar_calendar.py``);
``tests/property/test_vectorized_calendar.py`` checks the two agree across
both provider families, natively and behind the rates-only test adapter.

Simulation cost therefore scales with *state changes* (how many transfers
each arrival/departure re-prices) rather than with the size of the active
set: per event the provider prices one dirtied conflict component and the
calendar re-times only the transfers inside it.

Calendar trace events
---------------------
When a :class:`repro.trace.TraceSink` is attached (``trace=`` on the
calendar or the simulator), the calendar emits one structured
:class:`~repro.trace.TraceRecord` per state change.  What each kind means,
in terms of the invariants above:

* ``calendar.activate`` — a transfer joined the in-flight set (it becomes
  part of the next flush's arrival delta); payload carries ``src``/``dst``/
  ``size``.
* ``calendar.complete`` — a due heap entry surfaced with negligible
  remaining bytes and the transfer left the calendar (it joins the next
  flush's departure delta).
* ``calendar.cancel`` — a transfer was removed *before* completing (injector
  deactivation); ``remaining`` is the un-transferred byte count at the
  cancel instant.
* ``calendar.retime`` — a rate-*value* change (or fp-drift re-pop) bumped a
  flight's epoch and pushed a fresh completion entry; payload carries the
  new ``rate``, ``remaining`` bytes and predicted ``completion``.  The
  superseded entry dies lazily.
* ``calendar.flush`` — one provider handoff: ``added``/
  ``removed`` are the delta sizes, ``changed`` how many rates came back,
  ``active`` the in-flight count — the per-step work the scale benchmark
  tracks.
* ``calendar.reprice`` — a forced full re-rate (provider ``reset()`` +
  re-add), the injector hook for capacity changes outside the delta
  contract.
* ``calendar.compaction`` — the lazy-deletion heap was rebuilt in place
  because stale entries held the majority; ``dropped``/``kept`` count the
  entries discarded/retained.
* ``calendar.stall`` — a flight's applied rate dropped to ``<= 0``; it has
  no heap entry and sits in the stalled set until re-rated.
* ``calendar.stall_retry`` — stalled flights were forced back through the
  delta API (departure+arrival cycle); ``count`` is how many, ``ids`` names
  the first :attr:`~TransferCalendar.STALL_RETRY_TRACE_IDS` of them (a
  persistent stall re-emits this record every flush, so the payload is
  bounded instead of carrying the full stringified id list each time).

With ``trace=None`` (or a disabled sink) no record is ever constructed and
every code path is bit-exact with the untraced calendar — property-tested
in ``tests/property/test_trace_properties.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields
from operator import itemgetter
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from .._numpy import np
from ..exceptions import SimulationError
from ..trace.records import SnapshotBase, TraceRecord
from ..trace.sinks import TraceSink, active_sink

__all__ = [
    "Transfer",
    "TransferResult",
    "RateProvider",
    "validate_delta",
    "CalendarStats",
    "CalendarStatsSnapshot",
    "SlotMap",
    "TransferCalendar",
    "FluidTransferSimulator",
]


class SlotMap:
    """Dense integer slots for hashable keys, with LIFO free-list reuse.

    The tid↔slot discipline shared by the calendar's structure-of-arrays
    flight store and the emulator allocator's persistent resource index:
    keys acquire the lowest-overhead available slot (a freed one if any,
    else the high-water mark), so parallel arrays indexed by slot stay
    dense and bounded by the peak live-set size.

    ``slot_of`` is the public key → slot mapping; its iteration order is
    *acquisition order* of the currently live keys (a plain insertion-ordered
    dict), which callers rely on to enumerate keys deterministically.
    """

    __slots__ = ("slot_of", "_free", "capacity")

    def __init__(self) -> None:
        self.slot_of: Dict[Hashable, int] = {}
        self._free: List[int] = []
        #: slot high-water mark — parallel arrays must hold at least this many cells
        self.capacity = 0

    def __len__(self) -> int:
        return len(self.slot_of)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.slot_of

    def get(self, key: Hashable, default: Optional[int] = None) -> Optional[int]:
        return self.slot_of.get(key, default)

    def acquire(self, key: Hashable) -> int:
        """Assign a slot to ``key`` (which must not currently hold one)."""
        free = self._free
        if free:
            slot = free.pop()
        else:
            slot = self.capacity
            self.capacity += 1
        self.slot_of[key] = slot
        return slot

    def release(self, key: Hashable) -> int:
        """Return ``key``'s slot to the free-list; raises ``KeyError`` if absent."""
        slot = self.slot_of.pop(key)
        self._free.append(slot)
        return slot

    def clear(self) -> None:
        self.slot_of.clear()
        self._free.clear()
        self.capacity = 0


@dataclass
class Transfer:
    """One point-to-point transfer handed to the fluid simulator."""

    transfer_id: Hashable
    src: int
    dst: int
    size: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(f"transfer {self.transfer_id!r} has negative size")
        if self.start_time < 0:
            raise SimulationError(f"transfer {self.transfer_id!r} starts before t=0")

    @property
    def is_intra_node(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class TransferResult:
    """Completion record of one transfer."""

    transfer_id: Hashable
    start_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


class RateProvider(Protocol):
    """Allocates instantaneous rates to concurrent transfers, delta by delta.

    See the module docstring for the contract; the shipped
    :class:`repro.simulator.providers.ModelRateProvider` and
    :class:`repro.network.allocator.EmulatorRateProvider` both implement it.
    """

    def update_slots(
        self, added: Sequence[Transfer], added_slots: Sequence[int],
        removed: Sequence[Hashable],
    ) -> Tuple[List[Hashable], np.ndarray, np.ndarray]:
        """Apply a flow delta; return the re-priced ``(tids, slots, rates)``."""
        ...  # pragma: no cover - protocol

    def reset(self) -> None:
        """Forget the tracked active set."""
        ...  # pragma: no cover - protocol


def validate_delta(active: Mapping[Hashable, object],
                   added: Sequence[Transfer],
                   removed: Sequence[Hashable]) -> None:
    """Reject a flow delta that does not fit the tracked set ``active``.

    Every removed id must be tracked and removed once; an added id must not
    be tracked (unless it departs in the same delta, as in the calendar's
    stall-retry cycle) nor added twice.  Each id is checked on its own, so
    the cost follows the delta, not the active set.  Providers call this
    before mutating anything, so a rejected delta can be retried.
    """
    departing = set()
    for tid in removed:
        if tid not in active or tid in departing:
            raise SimulationError(f"unknown transfer {tid!r} removed from rate set")
        departing.add(tid)
    arriving = set()
    for transfer in added:
        tid = transfer.transfer_id
        if tid in arriving or (tid in active and tid not in departing):
            raise SimulationError(f"transfer {tid!r} added to the rate set twice")
        arriving.add(tid)


@dataclass(frozen=True)
class CalendarStatsSnapshot(SnapshotBase):
    """Immutable, typed view of one calendar's work counters.

    Replaces the raw dicts the calendar used to hand out; dict-style access
    (``snapshot["rate_updates"]``, ``**snapshot``) still works through
    :class:`~repro.trace.SnapshotBase`, and :meth:`~repro.trace.SnapshotBase.
    as_dict` returns exactly the historical flat shape.
    """

    flushes: int = 0
    rate_updates: int = 0
    retimed: int = 0
    activations: int = 0
    completions: int = 0
    stale_entries: int = 0
    active_at_flush: int = 0
    compactions: int = 0
    cancelled: int = 0
    stall_retries: int = 0
    bulk_merges: int = 0
    bulk_entries: int = 0
    handoff_tier_slots: int = 0
    handoff_tier_arrays: int = 0
    handoff_tier_dict: int = 0


@dataclass
class CalendarStats:
    """Work counters of one :class:`TransferCalendar` (benchmark instrumentation)."""

    #: rate refreshes pushed to the provider (≤ one per simulation step)
    flushes: int = 0
    #: rate entries the provider returned across all flushes — the per-step
    #: engine work the scale benchmark compares against the active-set size
    rate_updates: int = 0
    #: completion entries recomputed because a rate value actually changed
    retimed: int = 0
    #: transfers that entered the calendar
    activations: int = 0
    #: transfers that completed
    completions: int = 0
    #: superseded heap entries discarded (on surfacing or by compaction)
    stale_entries: int = 0
    #: running sum of the active-set size at each flush — baseline for rate_updates
    active_at_flush: int = 0
    #: in-place heap rebuilds triggered by a stale-entry majority
    compactions: int = 0
    #: transfers removed before completion (injector deactivations)
    cancelled: int = 0
    #: forced re-rates of zero-rated flights through the delta API
    stall_retries: int = 0
    #: bulk heapify-merges of batched re-timings
    bulk_merges: int = 0
    #: heap entries inserted through bulk merges (⊆ ``retimed``)
    bulk_entries: int = 0
    #: flushes (and reprices) handed to ``update_slots`` — every one; a
    #: strategy counter naming the handoff taken, not the work done
    handoff_tier_slots: int = 0
    #: always 0: kept so readers of the historical counter set still work
    handoff_tier_arrays: int = 0
    handoff_tier_dict: int = 0

    def freeze(self) -> CalendarStatsSnapshot:
        """Typed immutable snapshot of the current counter values.

        Built from this class's fields, so a counter missing from the
        snapshot class fails here instead of silently going unreported.
        """
        return CalendarStatsSnapshot(
            **{spec.name: getattr(self, spec.name) for spec in fields(self)}
        )

    def snapshot(self) -> Dict[str, int]:
        """Flat dict view (compatibility shim over :meth:`freeze`)."""
        return self.freeze().as_dict()


class _FlightArrays:
    """Structure-of-arrays flight store of :class:`TransferCalendar`.

    Per-flight state as dense slot-indexed numpy arrays (see the module
    docstring's flight-store section for the invariants).  ``transfer`` is
    a parallel Python list (the only per-flight object field); ``unrated``
    counts live flights whose rate has never been applied, so the
    missing-rate scan can be skipped entirely in the steady state.
    """

    __slots__ = ("slots", "transfer", "remaining", "rate", "last_update",
                 "epoch", "rated", "unrated")

    #: initial array capacity (doubles on growth)
    GROW_MIN = 16

    def __init__(self) -> None:
        self.slots = SlotMap()
        self.transfer: List[Optional[Transfer]] = []
        self.remaining = np.zeros(0, dtype=np.float64)
        self.rate = np.zeros(0, dtype=np.float64)
        self.last_update = np.zeros(0, dtype=np.float64)
        self.epoch = np.zeros(0, dtype=np.int64)
        self.rated = np.zeros(0, dtype=bool)
        self.unrated = 0

    def _grow(self, needed: int) -> None:
        cap = max(self.GROW_MIN, 2 * len(self.transfer))
        while cap < needed:
            cap *= 2
        pad = cap - len(self.transfer)
        self.transfer.extend([None] * pad)
        self.remaining = np.concatenate([self.remaining, np.zeros(pad)])
        self.rate = np.concatenate([self.rate, np.zeros(pad)])
        self.last_update = np.concatenate([self.last_update, np.zeros(pad)])
        self.epoch = np.concatenate([self.epoch, np.zeros(pad, dtype=np.int64)])
        self.rated = np.concatenate([self.rated, np.zeros(pad, dtype=bool)])

    def add(self, tid: Hashable, transfer: Transfer, remaining: float,
            now: float) -> int:
        slot = self.slots.acquire(tid)
        if slot >= len(self.transfer):
            self._grow(slot + 1)
        self.transfer[slot] = transfer
        self.remaining[slot] = remaining
        self.rate[slot] = 0.0
        self.last_update[slot] = now
        # no heap entry carries epoch 0 (every re-timing draws a fresh
        # calendar-wide epoch first), so a new tenant starts out matching none
        self.epoch[slot] = 0
        self.rated[slot] = False
        self.unrated += 1
        return slot

    def remove(self, tid: Hashable) -> int:
        slot = self.slots.release(tid)
        self.transfer[slot] = None
        if not self.rated[slot]:
            self.unrated -= 1
        return slot


class TransferCalendar:
    """Lazy min-heap of predicted transfer completions over a rate provider.

    The shared event-calendar core of both fluid loops — the standalone
    :class:`FluidTransferSimulator` and the execution engine
    (:mod:`repro.simulator.engine`) drive the same instance type, so the
    prediction and emulation paths share one integration/re-timing code
    path.  See the module docstring for the invariants.

    Parameters
    ----------
    rate_provider:
        The provider (:class:`RateProvider`): each flush hands its
        ``update_slots`` only the arrivals/departures since the previous
        flush.  A provider without ``update_slots`` or ``reset`` is
        rejected with a :class:`SimulationError`.
    missing_rate:
        What to do when the provider returns no rate for a live transfer:
        ``"error"`` raises (the fluid simulator's historical behaviour),
        ``"zero"`` treats it as a zero rate (the execution engine's).
    trace:
        Optional :class:`repro.trace.TraceSink`; when attached the calendar
        emits one ``calendar.*`` record per state change (see the module
        docstring).  ``None`` or a disabled sink costs one pointer test per
        site — the untraced paths are bit-exact.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; when attached every
        flush is timed into the ``calendar.flush_s`` phase timer (1-in-N
        sampled when the registry sets
        :attr:`~repro.obs.MetricsRegistry.timer_sample_every`).  Mirrors
        the trace contract: ``None`` costs one pointer test per flush.
    """

    EPSILON = 1e-12
    EPSILON_BYTES = 1e-6
    #: heaps smaller than this are never compacted (compaction is O(heap))
    COMPACT_MIN_HEAP = 64
    #: batched re-timings below this count use per-entry ``heappush``; at or
    #: above it (and when the batch is ≥ ¼ of the heap) a single
    #: extend+``heapify`` rebuild is cheaper — identical pop stream either way
    BULK_HEAPIFY_MIN = 8
    #: changed sets below this size take the per-flight loop (array dispatch
    #: overhead beats the win on tiny batches); never depends on tracing
    BATCH_MIN = 4
    #: ``calendar.stall_retry`` payloads name at most this many ids
    STALL_RETRY_TRACE_IDS = 8

    def __init__(
        self,
        rate_provider: RateProvider,
        missing_rate: str = "error",
        trace: Optional[TraceSink] = None,
        metrics=None,
    ) -> None:
        if missing_rate not in ("error", "zero"):
            raise SimulationError(f"unknown missing_rate policy {missing_rate!r}")
        for method in ("update_slots", "reset"):
            if not callable(getattr(rate_provider, method, None)):
                raise SimulationError(
                    f"rate provider {type(rate_provider).__name__} has no "
                    f"{method}() method; the calendar needs update_slots() "
                    "and reset()")
        self.provider = rate_provider
        self.missing_rate = missing_rate
        self._trace = active_sink(trace)
        self._flush_timer = metrics.timer("calendar.flush_s") if metrics is not None else None
        self.stats = CalendarStats()
        self._arr = _FlightArrays()
        self._heap: List[Tuple[float, int, Hashable, int]] = []
        self._seq = itertools.count()
        #: last epoch handed out; epochs are calendar-wide, so an entry left
        #: behind by a departed transfer can never match a later transfer
        #: that reuses its id
        self._epoch = 0
        self._pending_added: Dict[Hashable, Transfer] = {}
        self._pending_removed: List[Hashable] = []
        #: flights whose applied rate is <= 0 (insertion-ordered for diagnostics)
        self._stalled: Dict[Hashable, None] = {}
        #: post-provider rate multiplier (interference hook); ``None`` = off
        self._rate_scale: Optional[Callable[[Transfer], float]] = None

    # --------------------------------------------------------------- queries
    @property
    def active_count(self) -> int:
        return len(self._arr.slots)

    def remaining(self, tid: Hashable) -> float:
        """Remaining bytes as of the flight's last integration point."""
        return float(self._arr.remaining[self._arr.slots.slot_of[tid]])

    def is_active(self, tid: Hashable) -> bool:
        return tid in self._arr.slots

    def stalled_ids(self) -> Tuple[Hashable, ...]:
        """Ids of flights currently zero-rated (no calendar entry), in order."""
        return tuple(self._stalled)

    def next_time(self) -> Optional[float]:
        """Earliest valid predicted completion, or ``None``."""
        heap = self._heap
        slot_of = self._arr.slots.slot_of
        epoch_arr = self._arr.epoch
        while heap:
            time, _, tid, epoch = heap[0]
            slot = slot_of.get(tid)
            if slot is None or epoch_arr[slot] != epoch:
                heapq.heappop(heap)
                self.stats.stale_entries += 1
                continue
            return time
        return None

    # -------------------------------------------------------------- mutation
    def activate(self, transfer: Transfer, now: float) -> None:
        """A transfer starts progressing at ``now`` (joins the next flush)."""
        tid = transfer.transfer_id
        if tid in self._arr.slots:
            raise SimulationError(f"transfer {tid!r} is already active")
        self._arr.add(tid, transfer, float(transfer.size), now)
        self._pending_added[tid] = transfer
        self.stats.activations += 1
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.activate", tid, {
                "src": transfer.src, "dst": transfer.dst, "size": transfer.size,
            }))

    def cancel(self, tid: Hashable, now: float) -> Transfer:
        """Remove an in-flight transfer without completing it.

        The departure joins the next flush (unless the transfer was never
        flushed to the provider, in which case it simply vanishes).  Used by
        interference injectors to deactivate background flows; heap entries
        of the cancelled flight die lazily like any other stale entry — but
        compaction is checked here too, so a cancel-heavy workload (which
        creates stale entries without ever re-timing) keeps the heap bound.
        """
        arr = self._arr
        slot = arr.slots.slot_of.get(tid)
        if slot is None:
            raise SimulationError(f"cannot cancel unknown transfer {tid!r}")
        self._integrate_slot(slot, now)
        remaining = float(arr.remaining[slot])
        transfer = arr.transfer[slot]
        arr.remove(tid)
        if tid in self._pending_added:
            del self._pending_added[tid]  # the provider never saw it
        else:
            self._pending_removed.append(tid)
        self._stalled.pop(tid, None)
        self.stats.cancelled += 1
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.cancel", tid, {
                "remaining": remaining,
            }))
        self._maybe_compact(now)
        return transfer

    def set_rate_scale(self, scale: Optional[Callable[[Transfer], float]]) -> None:
        """Install (or clear) a post-provider rate multiplier.

        The scaled rate feeds the value-compare of the re-timing rule, so the
        installed function must be pure and may only change together with a
        :meth:`reprice` call — otherwise already-applied rates would keep the
        old scale.  ``None`` restores the unscaled (bit-exact) path.

        The scale multiplies the provider's raw rates in slot space, after
        the negative-rate check, on the same handoff as unscaled flushes.
        """
        self._rate_scale = scale

    # ---------------------------------------------------- per-flight updates
    def _integrate_slot(self, slot: int, now: float) -> None:
        arr = self._arr
        if arr.rated[slot]:
            rate = arr.rate[slot]
            if rate > 0.0:
                dt = now - arr.last_update[slot]
                if dt > 0.0:
                    arr.remaining[slot] = arr.remaining[slot] - rate * dt
        arr.last_update[slot] = now

    def _retime_slot(self, tid: Hashable, slot: int, now: float) -> None:
        # compaction is NOT checked here: every caller checks it once after
        # its whole batch of re-timings (end of _apply_changed, the pop_due
        # drift branch, cancel), so the per-flight and batched paths compact
        # at the same program points with the same heap contents
        arr = self._arr
        self._epoch += 1
        epoch = self._epoch
        arr.epoch[slot] = epoch
        if arr.rated[slot]:
            rate = arr.rate[slot]
            if rate > 0.0:
                # heap entries hold Python floats/ints (never numpy scalars:
                # they would leak into results and JSON trace payloads)
                completion = float(now + arr.remaining[slot] / rate)
                heapq.heappush(self._heap, (completion, next(self._seq), tid, epoch))
                self.stats.retimed += 1
                if self._trace is not None:
                    self._trace.emit(TraceRecord(now, "calendar.retime", tid, {
                        "rate": float(rate),
                        "remaining": float(arr.remaining[slot]),
                        "completion": completion,
                    }))

    def _apply_rate_slot(self, tid: Hashable, slot: int, rate: float,
                         now: float) -> None:
        # the stall bookkeeping (and its trace record) comes before the
        # value compare, so an unchanged zero rate still reads as stalled
        arr = self._arr
        if self._rate_scale is not None:
            rate = rate * self._rate_scale(arr.transfer[slot])
        if rate <= 0.0:
            if self._trace is not None and tid not in self._stalled:
                self._trace.emit(TraceRecord(now, "calendar.stall", tid,
                                             {"rate": float(rate)}))
            self._stalled[tid] = None
        else:
            self._stalled.pop(tid, None)
        if arr.rated[slot] and rate == arr.rate[slot]:
            return  # value unchanged: the calendar entry stays valid
        self._integrate_slot(slot, now)
        arr.rate[slot] = rate
        if not arr.rated[slot]:
            arr.rated[slot] = True
            arr.unrated -= 1
        self._retime_slot(tid, slot, now)

    def _maybe_compact(self, now: float, fresh: int = 0) -> None:
        # every flight owns at most one live entry, so heap > 2*flights means
        # the stale entries hold the majority: rebuild in place (amortized
        # O(1) per push — the heap must double through pushes to re-trigger).
        # ``fresh`` > 0 means _apply_batch just appended that many known-live
        # entries WITHOUT sifting (deferred bulk merge): whatever happens,
        # this call restores the heap invariant — either the compaction
        # rebuild heapifies anyway (skipping the fresh tail in its liveness
        # scan), or the no-compaction exit heapifies the merged heap.
        arr = self._arr
        heap = self._heap
        if (len(heap) < self.COMPACT_MIN_HEAP
                or len(heap) <= 2 * len(arr.slots)):
            if fresh:
                heapq.heapify(heap)
            return
        # vectorized epoch-liveness mask: gather each entry's slot (−1 when
        # the flight departed) and compare stored vs entry epochs in one
        # array op; the per-entry extraction runs entirely at C level
        # (map/itemgetter feeding fromiter, compress selecting the survivors
        # in heap order)
        scan = heap[:len(heap) - fresh] if fresh else heap
        n = len(scan)
        get = arr.slots.slot_of.get
        slots = np.fromiter(
            map(get, map(itemgetter(2), scan), itertools.repeat(-1)),
            dtype=np.intp, count=n)
        epochs = np.fromiter(map(itemgetter(3), scan),
                             dtype=np.int64, count=n)
        valid = slots >= 0
        alive = valid & (arr.epoch[np.where(valid, slots, 0)] == epochs)
        live = list(itertools.compress(scan, alive.tolist()))
        if fresh:
            live.extend(heap[len(heap) - fresh:])
        self.stats.stale_entries += len(heap) - len(live)
        heapq.heapify(live)
        dropped = len(heap) - len(live)
        self._heap = live
        self.stats.compactions += 1
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.compaction", None, {
                "dropped": dropped, "kept": len(live),
            }))

    def flush(self, now: float) -> None:
        """Push the pending flow delta to the provider and apply changed rates.

        The pending queues are cleared only once the provider query returned:
        a provider that raises (e.g. a :class:`SimulationError` on a
        duplicate id) leaves the calendar consistent and re-flushable.
        Zero-rated (stalled) flights are re-rated through a
        departure+arrival cycle on every flush — see the module docstring.
        """
        # hot path: one attribute read and a None test when unmetered; when
        # metered, two local perf_counter calls with no try/finally frame
        # (a provider error mid-flush loses one timer observation, nothing
        # else), optionally 1-in-N sampled through PhaseTimer.due()
        timer = self._flush_timer
        if timer is None or not timer.due():
            return self._flush(now)
        counter = perf_counter
        start = counter()
        self._flush(now)
        timer.observe(counter() - start)

    def _flush(self, now: float) -> None:
        added_count = len(self._pending_added)
        removed_count = len(self._pending_removed)
        if not added_count and not removed_count:
            if self._stalled:
                self._retry_stalled(now)
            return
        tids, slots, rates = self._handoff(
            list(self._pending_added.values()), list(self._pending_removed))
        self._pending_added.clear()
        self._pending_removed.clear()
        self._count_flush(len(tids))
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.flush", None, {
                "added": added_count, "removed": removed_count,
                "changed": len(tids), "active": self.active_count,
            }))
        self._apply_changed(tids, slots, rates, now)
        if self._stalled:
            self._retry_stalled(now)

    def _handoff(self, added: Sequence[Transfer], removed: Sequence[Hashable]):
        """Hand one flow delta, with each arrival's slot, to ``update_slots``.

        Returns the provider's slot-aligned changed set: a parallel id
        list, intp slot array and float64 rate array.
        """
        slot_of = self._arr.slots.slot_of
        return self.provider.update_slots(
            added, [slot_of[t.transfer_id] for t in added], removed)

    def _count_flush(self, reported: int) -> None:
        stats = self.stats
        stats.flushes += 1
        stats.handoff_tier_slots += 1
        stats.rate_updates += reported
        stats.active_at_flush += len(self._arr.slots)

    def _apply_changed(self, tids: List[Hashable], slots, rates,
                       now: float) -> None:
        """Apply a slot-aligned changed set.

        ``slots`` (intp) and ``rates`` (float64) are ndarrays aligned with
        ``tids``; the slots are authoritative, so no gather or unknown-id
        filter runs.  Tiny batches run the per-flight loop; the rest takes
        the numpy batch.  The choice never depends on tracing — the batch
        emits the same record stream as the loop — so traced and untraced
        runs do identical bookkeeping and report identical stats.
        """
        arr = self._arr
        fresh = 0
        if len(tids) < self.BATCH_MIN:
            for tid, slot, rate in zip(tids, slots.tolist(), rates):
                if rate < 0:
                    raise SimulationError(f"negative rate for transfer {tid!r}")
                self._apply_rate_slot(tid, slot, float(rate), now)
        else:
            fresh = self._apply_batch(tids, slots, rates, now)
        # absence from the changed set means "rate unchanged" (the
        # contract); a flight never rated at all is missing — never
        # acceptable under "error", a zero rate under "zero"
        missing = ([tid for tid, slot in arr.slots.slot_of.items()
                    if not arr.rated[slot]] if arr.unrated else [])
        if missing:
            if fresh:
                # restore the heap invariant before raising or re-rating
                # (the missing scan itself never touches the heap)
                heapq.heapify(self._heap)
                fresh = 0
            if self.missing_rate == "error":
                raise SimulationError(f"rate provider returned no rate for {missing!r}")
            slot_of = arr.slots.slot_of
            for tid in missing:
                self._apply_rate_slot(tid, slot_of[tid], 0.0, now)
        self._maybe_compact(now, fresh=fresh)

    def _apply_batch(self, tids: List[Hashable], slots, rates,
                     now: float) -> int:
        """One numpy dispatch over the whole changed set.

        Performs, for every flight whose rate value changed: integrate at
        the old rate, store the new rate, draw a fresh epoch, and predict
        the new completion — all elementwise, in the same per-flight
        operation order as :meth:`_apply_rate_slot` (so the stored float64
        state is bit-identical).  Fresh heap entries are heappushed
        individually or, above the bulk threshold, appended *unsifted* —
        the returned count tells the caller how many tail entries await the
        deferred heapify that ``_maybe_compact`` performs (returns 0 when
        the heap invariant already holds).  The pop stream is identical
        either way because entries carry unique ``(completion, seq)`` keys.
        When traced, ``calendar.stall`` / ``calendar.retime`` records are
        emitted per flight in changed order — the interleaving of the
        per-flight loop.  Unlike that loop, a negative rate is rejected
        before *any* of the batch is applied (conforming providers never
        return one).  An installed rate scale multiplies the raw rates
        after that check, elementwise — the loop's ``rate * scale(transfer)``.
        """
        arr = self._arr
        tids = tids if isinstance(tids, list) else list(tids)
        slots = np.asarray(slots, dtype=np.intp)
        rate_new = np.asarray(rates, dtype=np.float64)
        mn = rate_new.min()  # one reduce covers negativity + stall gates
        if mn < 0.0:
            tid = tids[int(np.argmax(rate_new < 0.0))]
            raise SimulationError(f"negative rate for transfer {tid!r}")
        scale = self._rate_scale
        if scale is not None:
            transfer = arr.transfer
            rate_new = rate_new * np.fromiter(
                (scale(transfer[slot]) for slot in slots.tolist()),
                dtype=np.float64, count=len(tids))
            mn = rate_new.min()  # scaled negatives stall, like the loop path
        # stall-set bookkeeping, in changed order (skipped entirely in the
        # common all-positive, nothing-stalled case — a single float
        # compare); when traced, capture which flights are *newly* stalled
        # — the per-flight loop emits a stall record exactly for those,
        # before its value compare
        trace = self._trace
        stall_new: Optional[List[int]] = None
        if self._stalled or mn <= 0.0:
            nonpos = rate_new <= 0.0
            stalled = self._stalled
            if trace is not None:
                stall_new = []
                for i, tid in enumerate(tids):
                    if nonpos[i]:
                        if tid not in stalled:
                            stall_new.append(i)
                        stalled[tid] = None
                    else:
                        stalled.pop(tid, None)
            else:
                for i, tid in enumerate(tids):
                    if nonpos[i]:
                        stalled[tid] = None
                    else:
                        stalled.pop(tid, None)
        old_rate = arr.rate[slots]
        if arr.unrated and mn <= 0.0:
            # a zero rate may land on an unrated flight whose stored rate is
            # still the initial 0.0 — the only case where "value unchanged"
            # and "never rated" can disagree, so take the masked form
            old_rated = arr.rated[slots]
            ci = np.nonzero(~(old_rated & (old_rate == rate_new)))[0]
        else:
            # unrated flights store rate 0.0, so with every new rate
            # positive (or nothing unrated) the plain value compare selects
            # the exact same changed set — no full-width rated gather
            old_rated = None
            ci = np.nonzero(old_rate != rate_new)[0]
        if not ci.size:
            if trace is not None and stall_new:
                for i in stall_new:
                    trace.emit(TraceRecord(now, "calendar.stall", tids[i],
                                           {"rate": float(rate_new[i])}))
            return 0
        cs = slots[ci]
        c_rate_old = old_rate[ci]
        c_rate_new = rate_new[ci]
        # integrate at the old rate up to now (only where the old rate was
        # progressing and time actually advanced — the masked elements keep
        # their remaining untouched, and no arithmetic runs on them, so
        # inf/0-rate flights raise no spurious fp warnings; unrated flights
        # store rate 0.0, so the rate test alone excludes them)
        rem = arr.remaining[cs]
        dt = now - arr.last_update[cs]
        integrate = (c_rate_old > 0.0) & (dt > 0.0)
        ni = np.count_nonzero(integrate)
        if ni == rem.size:
            # steady state: every changed flight was progressing — same
            # elementwise subtraction, no index indirection
            rem -= c_rate_old * dt
        elif ni:
            ii = np.nonzero(integrate)[0]
            rem[ii] = rem[ii] - c_rate_old[ii] * dt[ii]
        arr.remaining[cs] = rem
        arr.last_update[cs] = now
        arr.rate[cs] = c_rate_new
        if arr.unrated:
            # never-rated bookkeeping on the changed subset only (every
            # unrated flight of the batch is in ci: its stored 0.0 never
            # equals a positive new rate, and the zero-rate case took the
            # masked form above)
            c_rated_old = old_rated[ci] if old_rated is not None \
                else arr.rated[cs]
            arr.rated[cs] = True
            newly_rated = int(ci.size - np.count_nonzero(c_rated_old))
            if newly_rated:
                arr.unrated -= newly_rated
        epochs = np.arange(self._epoch + 1, self._epoch + 1 + ci.size,
                           dtype=np.int64)
        self._epoch += int(ci.size)
        arr.epoch[cs] = epochs
        positive = c_rate_new > 0.0
        if np.count_nonzero(positive) == positive.size:
            pi = None  # steady state: every changed rate is positive
            completions = (now + rem / c_rate_new).tolist()
            entry_epochs = epochs.tolist()
            batch_index = ci.tolist()
        else:
            pi = np.nonzero(positive)[0]
            completions = (now + rem[pi] / c_rate_new[pi]).tolist()
            entry_epochs = epochs[pi].tolist()
            batch_index = ci[pi].tolist()
        m = len(batch_index)
        if m > 1:
            entry_tids = itemgetter(*batch_index)(tids)
        else:
            entry_tids = [tids[batch_index[0]]] if m else []
        # C-level tuple assembly, consumed exactly once below (extend or the
        # push loop); islice consumes exactly the m sequence numbers the
        # per-flight loop's per-entry next() would
        entries = zip(completions, itertools.islice(self._seq, m),
                      entry_tids, entry_epochs)
        if trace is not None and (m or stall_new):
            # replay the per-flight loop's record interleaving: per flight
            # in changed order, a stall record (if newly stalled) then a
            # retime record (if the value changed to a positive rate)
            retime_j = {bi: j for j, bi in enumerate(batch_index)}
            retime_rates = (c_rate_new if pi is None else c_rate_new[pi]).tolist()
            retime_rems = (rem if pi is None else rem[pi]).tolist()
            stall_set = set(stall_new) if stall_new else ()
            for i, tid in enumerate(tids):
                if i in stall_set:
                    trace.emit(TraceRecord(now, "calendar.stall", tid,
                                           {"rate": float(rate_new[i])}))
                j = retime_j.get(i)
                if j is not None:
                    trace.emit(TraceRecord(now, "calendar.retime", tid, {
                        "rate": retime_rates[j],
                        "remaining": retime_rems[j],
                        "completion": completions[j],
                    }))
        if m:
            self.stats.retimed += m
            heap = self._heap
            if m >= self.BULK_HEAPIFY_MIN and 4 * m >= len(heap):
                # deferred bulk merge: append without sifting and let the
                # caller's _maybe_compact restore the invariant — one
                # heapify total instead of merge-heapify + compact-heapify
                heap.extend(entries)
                self.stats.bulk_merges += 1
                self.stats.bulk_entries += m
                return m
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        return 0

    def _retry_stalled(self, now: float) -> None:
        """Force zero-rated flights back through the delta API.

        A departure immediately followed by an arrival of the same transfer
        dirties its conflict component, so a conforming provider must
        re-report it — the escape hatch for flights an under-reporting
        provider left at rate zero (they have no calendar entry and would
        otherwise only resurface when an unrelated delta touched their
        component).  The cycle rides the flush handoff, so the provider
        re-registers each flight's slot handle.
        """
        arr = self._arr
        slot_of = arr.slots.slot_of
        retry = [tid for tid in self._stalled if tid in slot_of]
        if not retry:
            return
        transfer = arr.transfer
        tids, slots, rates = self._handoff(
            [transfer[slot_of[tid]] for tid in retry], list(retry))
        self.stats.stall_retries += len(retry)
        self.stats.rate_updates += len(tids)
        if self._trace is not None:
            # a persistent stall re-emits this record every flush: bound the
            # payload to a count plus the first few ids
            self._trace.emit(TraceRecord(now, "calendar.stall_retry", None, {
                "count": len(retry),
                "ids": [str(tid)
                        for tid in retry[:self.STALL_RETRY_TRACE_IDS]],
            }))
        self._apply_changed(tids, slots, rates, now)

    def reprice(self, now: float) -> None:
        """Force a full re-rate of every in-flight transfer.

        The delta contract cannot express "every rate may have changed"
        (e.g. after a link-degradation window toggles the rate scale), so
        this resets the provider's tracked set and re-adds the whole active
        set in one delta through the flush handoff.  Any pending delta is
        flushed first.
        """
        self.flush(now)
        if not self.active_count:
            return
        self.provider.reset()
        transfer = self._arr.transfer
        tids, slots, rates = self._handoff(
            [transfer[slot] for slot in self._arr.slots.slot_of.values()], [])
        self._count_flush(len(tids))
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.reprice", None, {
                "active": self.active_count, "changed": len(tids),
            }))
        self._apply_changed(tids, slots, rates, now)

    def pop_due(self, now: float) -> List[Transfer]:
        """Complete every transfer whose calendar entry is due at ``now``.

        Completed transfers leave the calendar and join the departure side
        of the next flush; the list preserves entry order (callers that need
        a different completion order sort it themselves).
        """
        # Python-float arithmetic on values read out of the arrays (exact
        # conversions both ways).  Every invariant quantity is hoisted out
        # of the loop (the stale-skip runs thousands of iterations per call
        # on churn-heavy workloads, where attribute lookups and call frames
        # dominate); _integrate_slot is inlined with the identical
        # numpy-scalar arithmetic
        arr = self._arr
        slot_of = arr.slots.slot_of
        heap = self._heap
        heappop = heapq.heappop
        epoch_arr = arr.epoch
        remaining_arr = arr.remaining
        rate_arr = arr.rate
        last_update_arr = arr.last_update
        rated_arr = arr.rated
        horizon = now + self.EPSILON
        eps_bytes = max(self.EPSILON, self.EPSILON_BYTES)
        clock_resolution = max(abs(now), 1.0) * 1e-12
        stale = 0
        done: List[Transfer] = []
        while heap:
            entry = heap[0]
            tid = entry[2]
            slot = slot_of.get(tid)
            if slot is None or epoch_arr[slot] != entry[3]:
                heappop(heap)
                stale += 1
                continue
            if entry[0] > horizon:
                break
            heappop(heap)
            if rated_arr[slot]:
                rate = rate_arr[slot]
                if rate > 0.0:
                    dt = now - last_update_arr[slot]
                    if dt > 0.0:
                        remaining_arr[slot] = remaining_arr[slot] - rate * dt
            last_update_arr[slot] = now
            remaining = float(remaining_arr[slot])
            rate = float(rate_arr[slot])
            negligible = (
                remaining <= eps_bytes
                or (rate > 0.0 and remaining / rate <= clock_resolution)
            )
            if not negligible:
                self._retime_slot(tid, slot, now)  # fp drift: try again later
                self._maybe_compact(now)
                heap = self._heap  # compaction rebuilds the heap in place
                continue
            transfer = arr.transfer[slot]
            arr.remove(tid)
            self._stalled.pop(tid, None)
            self._pending_removed.append(tid)
            done.append(transfer)
            self.stats.completions += 1
            if self._trace is not None:
                self._trace.emit(TraceRecord(now, "calendar.complete", tid, {}))
        if stale:
            self.stats.stale_entries += stale
        return done


class FluidTransferSimulator:
    """Event-calendar fluid simulation of a set of transfers.

    Parameters
    ----------
    rate_provider:
        Allocates instantaneous rates to the set of in-flight transfers.
    latency:
        Per-transfer startup latency in seconds, added before the first byte
        flows (one-way network latency plus protocol handshake).
    injectors:
        Interference injectors (:mod:`repro.simulator.interference`) whose
        events interleave with the transfer calendar: background flows
        contend with the foreground transfers in the provider but are
        excluded from the returned completion records, and the run ends when
        the last *foreground* transfer completes.  With an empty sequence
        the loop is bit-exact with the injector-free simulator.
    trace:
        Optional :class:`repro.trace.TraceSink`; the calendar emits its
        ``calendar.*`` records through it, the loop adds ``step`` boundaries
        and the run's :class:`~repro.simulator.interference.InjectionState`
        the ``inject.*`` events.  ``None`` (or a disabled sink) is the
        bit-exact untraced path.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  The calendar times its
        flush phase into it, the provider registers its stats surfaces
        (:meth:`~repro.simulator.providers.ModelRateProvider.
        register_metrics`) and the calendar counters join as the
        ``calendar`` source.  ``None`` is the bit-exact unmetered path.
    """

    #: bytes below which a transfer is considered finished (numerical guard)
    EPSILON_BYTES = TransferCalendar.EPSILON_BYTES

    def __init__(self, rate_provider: RateProvider, latency: float = 0.0,
                 injectors: Sequence = (),
                 trace: Optional[TraceSink] = None,
                 metrics=None) -> None:
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        self.rate_provider = rate_provider
        self.latency = latency
        self.injectors = tuple(injectors)
        self.trace = active_sink(trace)
        self.metrics = metrics
        #: calendar work counters of the most recent :meth:`run`
        self.last_calendar_stats: Optional[CalendarStatsSnapshot] = None

    # ------------------------------------------------------------------- run
    def run(self, transfers: Sequence[Transfer]) -> Dict[Hashable, TransferResult]:
        """Simulate all ``transfers`` and return their completion records."""
        ids = [t.transfer_id for t in transfers]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate transfer ids in fluid simulation")
        if not transfers:
            return {}

        trace = self.trace
        calendar = TransferCalendar(self.rate_provider, missing_rate="error",
                                    trace=trace, metrics=self.metrics)
        self.rate_provider.reset()
        if self.metrics is not None:
            self.metrics.register_source("calendar", calendar.stats.snapshot)
            register = getattr(self.rate_provider, "register_metrics", None)
            if callable(register):
                register(self.metrics)

        # local import: interference lives above this module (it imports
        # Transfer from here)
        from ..simulator.interference import InjectionState

        hosts = tuple(sorted({h for t in transfers for h in (t.src, t.dst)}))
        state = InjectionState(calendar, hosts, self.injectors, trace)
        inject_heap = state.first_events()
        heapq.heapify(inject_heap)

        # transfers waiting for their (latency-shifted) start time
        pending: List[Tuple[float, int, Transfer]] = []
        counter = itertools.count()
        for transfer in transfers:
            heapq.heappush(pending, (transfer.start_time + self.latency, next(counter), transfer))

        results: Dict[Hashable, TransferResult] = {}
        now = 0.0
        guard = 0
        steps = 0

        while pending or calendar.active_count > len(state.background):
            guard += 1
            injected = state.flows_started + state.fired
            if guard > 10 * (len(transfers) + injected) + 10:
                raise SimulationError("fluid simulation exceeded its event budget")

            # activate transfers whose start time has been reached; zero-byte
            # transfers finish immediately without entering the rate set
            while pending and pending[0][0] <= now + 1e-15:
                _, _, transfer = heapq.heappop(pending)
                if float(transfer.size) <= self.EPSILON_BYTES:
                    results[transfer.transfer_id] = TransferResult(
                        transfer.transfer_id, transfer.start_time, now
                    )
                else:
                    calendar.activate(transfer, now)

            # fire due injector events (may start background flows, toggle
            # rate scales, force reprices)
            while inject_heap and inject_heap[0][0] <= now + 1e-15:
                _, index = heapq.heappop(inject_heap)
                when = state.fire(index, now)
                if when is not None:
                    heapq.heappush(inject_heap, (max(when, now), index))

            if not calendar.active_count:
                targets = [t for t in (
                    pending[0][0] if pending else None,
                    inject_heap[0][0] if inject_heap else None,
                ) if t is not None]
                if not targets:
                    break
                now = max(now, min(targets))
                if trace is not None:
                    steps += 1
                    trace.emit(TraceRecord(now, "step", "fluid", {"step": steps}))
                continue

            calendar.flush(now)

            next_completion = calendar.next_time()
            next_start = pending[0][0] if pending else math.inf
            next_inject = inject_heap[0][0] if inject_heap else math.inf
            if next_completion is None and math.isinf(next_start) \
                    and math.isinf(next_inject):
                stalled = calendar.stalled_ids()
                detail = f"; zero-rated transfers: {list(stalled)!r}" if stalled else ""
                raise SimulationError(
                    "fluid simulation stalled: all active transfers have zero rate "
                    f"and no new transfer will start{detail}"
                )

            horizon = min(math.inf if next_completion is None else next_completion,
                          next_start, next_inject)
            now = max(now, horizon)
            if trace is not None:
                steps += 1
                trace.emit(TraceRecord(now, "step", "fluid", {"step": steps}))

            for transfer in calendar.pop_due(now):
                if transfer.transfer_id in state.background:
                    state.background.discard(transfer.transfer_id)
                    continue
                results[transfer.transfer_id] = TransferResult(
                    transfer.transfer_id, transfer.start_time, now
                )

        self.last_calendar_stats = calendar.stats.freeze()
        return results

    # ------------------------------------------------------------ conveniences
    def durations(self, transfers: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Duration (seconds) of every transfer, including the startup latency."""
        return {tid: result.duration for tid, result in self.run(transfers).items()}

    def makespan(self, transfers: Sequence[Transfer]) -> float:
        """Completion time of the last transfer."""
        results = self.run(transfers)
        return max((r.finish_time for r in results.values()), default=0.0)
