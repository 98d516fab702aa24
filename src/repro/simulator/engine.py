"""Execution engine.

The engine executes an application (one event stream per MPI task placed on
cluster nodes) above a fluid transfer layer whose instantaneous rates come
from a pluggable *rate provider* — either a contention model (prediction) or
the calibrated cluster emulator (measurement).  It implements the MPI timing
semantics the paper relies on:

* blocking sends measured at the source, "starting before the MPI send and
  ending when the MPI send method terminates";
* an eager protocol for small messages and a rendezvous protocol for large
  ones (a rendezvous send cannot transfer data before the matching receive is
  posted);
* ``MPI_ANY_SOURCE`` receives;
* global synchronisation barriers;
* compute events expressed either in seconds or in floating point operations.

The engine is an **event-calendar** fluid discrete-event simulation: compute
completions and transfer-readiness times live in a timeline heap, predicted
transfer completions live in the shared
:class:`~repro.network.fluid.TransferCalendar`, and every step advances the
clock to the earliest calendar entry.  Rate refreshes follow the delta
contract of :mod:`repro.network.fluid`: the engine hands the provider only
the flow arrivals and departures since the previous step, the provider
returns the rates of exactly the transfers it re-priced (with the default
:class:`~repro.simulator.providers.ModelRateProvider`, the membership of
the conflict components the delta dirtied), and only transfers whose rate
*value* changed have their remaining bytes integrated and their completion
re-timed.  Per-step work therefore scales with the state change, not with
the number of in-flight transfers.  The calendar rejects a provider without
``update_slots`` and ``reset``.

Message matching — pending sends, posted receives, parked eager arrivals
and unclaimed in-flight transfers — is indexed by ``(src, dst, tag)`` with
``MPI_ANY_SOURCE`` wildcard buckets, preserving the posted-order
tie-breaking of the historical linear scans.

Scheduling follows the same principle: READY tasks are advanced from a
rank-ordered ready queue in exactly the order of the historical all-ranks
sweep (see :meth:`ExecutionEngine._process_ready_tasks`), and live,
computing and barrier-waiting tasks are counted rather than rescanned, so
per-event scheduling work scales with the tasks that change state, not
with the number of ranks.

Interference injection: :attr:`EngineConfig.injectors` carries
:mod:`repro.simulator.interference` injectors whose events ride the same
timeline heap as computes and readiness transitions.  Injected background
flows join the calendar (and therefore the provider's delta path) like
foreground transfers — they contend for bandwidth in the model and in the
emulator — but are excluded from message matching, task completion and the
report; compute-rate and link-capacity scaling windows are applied through
the run's :class:`~repro.simulator.interference.InjectionState`, the
surface the fluid simulator shares.  With no injectors
configured every code path is bit-exact with the pre-injection engine
(property-tested in ``tests/property/test_interference_properties.py``).

Tracing: :attr:`EngineConfig.trace` attaches a :mod:`repro.trace` sink; the
engine emits ``step`` boundaries, ``task.state`` / ``task.event`` records and
``inject.*`` events, and hands the sink to its calendar for the
``calendar.*`` stream.  ``trace=None`` (the default) is bit-exact with the
untraced engine (``tests/property/test_trace_properties.py``).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..cluster.placement import Placement
from ..exceptions import DeadlockError, SimulationError, TraceError
from ..network.fluid import CalendarStatsSnapshot, Transfer, TransferCalendar
from ..network.technologies import NetworkTechnology, get_technology
from ..trace.records import SnapshotBase, TraceRecord
from ..trace.sinks import TraceSink, active_sink
from ..units import KiB
from .application import Application
from .events import ANY_SOURCE, BarrierEvent, ComputeEvent, Event, RecvEvent, SendEvent
from .interference import InjectionState
from .report import EventRecord, SimulationReport

__all__ = [
    "EngineConfig",
    "EngineLoopStats",
    "EngineStatsSnapshot",
    "ExecutionEngine",
]


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs of the execution engine."""

    #: messages up to this size use the eager protocol (bytes)
    eager_threshold: int = 64 * KiB
    #: fraction of peak FLOP/s actually achieved by compute events given in flops
    compute_efficiency: float = 0.80
    #: peak FLOP/s per core used when the placement has no cluster attached
    default_flops_per_core: float = 4.0e9
    #: hard cap on engine iterations per simulated event (safety net)
    iteration_factor: int = 50
    #: interference injectors (:mod:`repro.simulator.interference`) whose
    #: events ride the timeline heap; empty = bit-exact clean-fabric run
    injectors: Tuple = ()
    #: optional :class:`repro.trace.TraceSink` the engine (and its calendar)
    #: emits structured per-event records through; ``None`` = untraced,
    #: bit-exact with the pre-trace engine
    trace: Optional[TraceSink] = field(default=None, compare=False, repr=False)
    #: optional :class:`repro.obs.MetricsRegistry`; attaching one registers
    #: the engine/calendar/provider stats as live sources and times the hot
    #: phases (calendar flush, dirty pricing, water-fill).  ``None`` =
    #: unmetered, bit-exact (one pointer test per site, like ``trace``)
    metrics: Optional[object] = field(default=None, compare=False, repr=False)
    #: emit one ``metrics.sample`` trace record every this many steps (needs
    #: both ``metrics`` and ``trace`` attached); 0 disables sampling.  The
    #: samples carry wall-clock timer values, so a sampled trace is not
    #: byte-reproducible across runs — the simulated results still are
    metrics_sample_every: int = 256

    def __post_init__(self) -> None:
        if self.eager_threshold < 0:
            raise SimulationError("eager_threshold must be non-negative")
        if not (0 < self.compute_efficiency <= 1):
            raise SimulationError("compute_efficiency must be in (0, 1]")
        if self.default_flops_per_core <= 0:
            raise SimulationError("default_flops_per_core must be positive")
        if self.metrics_sample_every < 0:
            raise SimulationError("metrics_sample_every must be non-negative")
        object.__setattr__(self, "injectors", tuple(self.injectors))


@dataclass(frozen=True)
class EngineStatsSnapshot(SnapshotBase):
    """Immutable, typed view of one engine run's loop + calendar counters.

    Replaces the untyped ``last_engine_stats`` dict.  The embedded
    :class:`~repro.network.fluid.CalendarStatsSnapshot` is merged into the
    flat dict view (``snapshot["rate_updates"]`` and
    :meth:`~repro.trace.SnapshotBase.as_dict` keep the historical shape),
    so loop stats, calendar stats and trace summaries share one counter
    vocabulary.
    """

    iterations: int = 0
    steps: int = 0
    injected_events: int = 0
    background_flows: int = 0
    timeline_bulk_merges: int = 0
    timeline_bulk_drains: int = 0
    timeline_bulk_drained: int = 0
    calendar: CalendarStatsSnapshot = field(default_factory=CalendarStatsSnapshot)


@dataclass
class EngineLoopStats:
    """Work counters of one :meth:`ExecutionEngine.run` (see the benchmark)."""

    #: main-loop iterations (ready-task sweeps)
    iterations: int = 0
    #: horizon advances (simulation steps)
    steps: int = 0
    #: injector events fired (0 on a clean-fabric run)
    injected_events: int = 0
    #: background flows started by injectors
    background_flows: int = 0
    #: timeline entries merged with one bulk heapify instead of per-entry
    #: pushes (a per-step sweep's computes/readiness transitions coalesced)
    timeline_bulk_merges: int = 0
    #: due-event sweeps that switched from per-entry heappops to one
    #: partition + heapify of the remainder (large same-horizon batches)
    timeline_bulk_drains: int = 0
    #: timeline entries extracted through bulk drains (⊆ all drained)
    timeline_bulk_drained: int = 0
    #: calendar counters (rate_updates, retimed, stale_entries, ...) of the run
    calendar: Dict[str, int] = field(default_factory=dict)

    def freeze(self) -> EngineStatsSnapshot:
        """Typed immutable snapshot (the :attr:`Simulator.last_engine_stats` type).

        Built from this class's fields, like :meth:`CalendarStats.freeze
        <repro.network.fluid.CalendarStats.freeze>`.
        """
        values = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        values["calendar"] = CalendarStatsSnapshot(**self.calendar)
        return EngineStatsSnapshot(**values)

    def snapshot(self) -> Dict[str, int]:
        """Flat dict view (compatibility shim over :meth:`freeze`)."""
        return self.freeze().as_dict()


class _Status(Enum):
    READY = "ready"
    COMPUTING = "computing"
    SENDING = "sending"
    RECEIVING = "receiving"
    BARRIER = "barrier"
    DONE = "done"


@dataclass
class _TaskState:
    rank: int
    program: Iterator
    status: _Status = _Status.READY
    resume_value: object = None
    #: end time of the current compute event
    compute_until: float = 0.0
    #: record fields of the event currently being executed
    current_start: float = 0.0
    current_event: Optional[Event] = None
    event_index: int = 0
    finish_time: float = 0.0


@dataclass
class _SendRequest:
    rank: int
    dst: int
    tag: int
    size: int
    posted: float
    label: str = ""
    transfer_id: Optional[int] = None


@dataclass
class _RecvRequest:
    rank: int
    src: int
    tag: int
    posted: float
    label: str = ""


@dataclass
class _InFlight:
    transfer: Transfer
    ready_time: float
    send: _SendRequest
    recv: Optional[_RecvRequest] = None
    #: token of this flight in the unclaimed-transfer index while recv is None
    claim_token: Optional[int] = None


class _MatchQueue:
    """``(src, dst, tag)``-keyed message-matching buckets.

    Replaces the historical linear scans over ``pending_sends`` /
    ``pending_recvs`` / ``arrived`` lists.  Items are stored under their
    channel coordinates; ``src`` may be :data:`ANY_SOURCE` on the stored
    side (a wildcard receive) or on the query side (a receive matching any
    sender).  :meth:`pop_best` returns the match with the smallest order
    key — insertion order by default, so the FIFO posted-order tie-breaking
    of the scans it replaces is preserved exactly, including across the
    specific and wildcard buckets of one channel.
    """

    def __init__(self) -> None:
        #: (src, dst, tag) -> {token: (order, item)} for specific-source items
        self._specific: Dict[Tuple[int, int, int], Dict[int, Tuple[tuple, object]]] = {}
        #: (dst, tag) -> {token: (order, item)} for stored ANY_SOURCE items
        self._any_src: Dict[Tuple[int, int], Dict[int, Tuple[tuple, object]]] = {}
        #: (dst, tag) -> {token: (order, item)} mirror of every specific item,
        #: consulted by ANY_SOURCE queries
        self._mirror: Dict[Tuple[int, int], Dict[int, Tuple[tuple, object]]] = {}
        self._where: Dict[int, Tuple[int, int, int]] = {}
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._where)

    def add(self, src: int, dst: int, tag: int, item: object,
            order: Optional[float] = None) -> int:
        """Store ``item`` under its channel; returns a token for :meth:`discard`.

        ``order`` defaults to the insertion rank (the token), giving FIFO;
        an explicit order (e.g. posted time) sorts before it, with the token
        breaking ties — one key shape either way, so a queue mixing both
        styles still compares consistently.
        """
        token = next(self._seq)
        entry = ((token if order is None else order, token), item)
        self._where[token] = (src, dst, tag)
        if src == ANY_SOURCE:
            self._any_src.setdefault((dst, tag), {})[token] = entry
        else:
            self._specific.setdefault((src, dst, tag), {})[token] = entry
            self._mirror.setdefault((dst, tag), {})[token] = entry
        return token

    def discard(self, token: Optional[int]) -> Optional[object]:
        """Remove a stored item by token (no-op when already matched)."""
        if token is None:
            return None
        where = self._where.pop(token, None)
        if where is None:
            return None
        src, dst, tag = where
        if src == ANY_SOURCE:
            bucket = self._any_src[(dst, tag)]
            entry = bucket.pop(token)
            if not bucket:
                del self._any_src[(dst, tag)]
        else:
            bucket = self._specific[(src, dst, tag)]
            entry = bucket.pop(token)
            if not bucket:
                del self._specific[(src, dst, tag)]
            mirror = self._mirror[(dst, tag)]
            mirror.pop(token, None)
            if not mirror:
                del self._mirror[(dst, tag)]
        return entry[1]

    def pop_best(self, src: int, dst: int, tag: int) -> Optional[object]:
        """Pop the oldest stored item matching ``(src, dst, tag)``."""
        if src == ANY_SOURCE:
            buckets = (self._mirror.get((dst, tag)), self._any_src.get((dst, tag)))
        else:
            buckets = (self._specific.get((src, dst, tag)), self._any_src.get((dst, tag)))
        best_token = None
        best_order = None
        for bucket in buckets:
            if not bucket:
                continue
            token = min(bucket, key=lambda t: bucket[t][0])
            order = bucket[token][0]
            if best_order is None or order < best_order:
                best_token, best_order = token, order
        if best_token is None:
            return None
        return self.discard(best_token)


#: timeline entry kinds (computes before readiness on equal timestamps is
#: irrelevant — due entries are drained together and re-ordered explicitly)
_COMPUTE = 0
_READY = 1
_INJECT = 2


class ExecutionEngine:
    """Executes task programs over a fluid transfer layer."""

    EPSILON = 1e-12
    #: sweeps buffering at least this many timeline entries (and at least a
    #: quarter of the heap) merge with one heapify instead of per-entry pushes
    TIMELINE_BULK_MIN = 8

    def __init__(
        self,
        programs: Union[Application, Sequence[Iterator], Sequence[Iterable]],
        placement: Placement,
        rate_provider,
        technology: NetworkTechnology | str,
        config: EngineConfig | None = None,
        application_name: str = "",
        model_name: str = "",
    ) -> None:
        if isinstance(technology, str):
            technology = get_technology(technology)
        self.technology = technology
        self.rate_provider = rate_provider
        self.config = config or EngineConfig()
        self.placement = placement

        if isinstance(programs, Application):
            application_name = application_name or programs.name
            iterators: List[Iterator] = [iter(list(trace.events)) for trace in programs]
            self._num_events_hint = sum(len(trace) for trace in programs)
        else:
            iterators = [iter(p) for p in programs]
            self._num_events_hint = 100 * max(1, len(iterators))
        if len(iterators) != placement.num_tasks:
            raise SimulationError(
                f"{len(iterators)} task programs but the placement has "
                f"{placement.num_tasks} tasks"
            )
        self.num_tasks = len(iterators)
        self.tasks = [_TaskState(rank=r, program=it) for r, it in enumerate(iterators)]

        self.application_name = application_name
        self.model_name = model_name

        # runtime state
        self.now = 0.0
        self._transfer_counter = itertools.count()
        self.in_flight: Dict[int, _InFlight] = {}
        #: the run's injectors, background flows and scales (set by run())
        self._injection: Optional[InjectionState] = None
        self._sends = _MatchQueue()      # rendezvous sends waiting for a recv
        self._recvs = _MatchQueue()      # posted recvs waiting for a send
        self._arrived = _MatchQueue()    # eager messages waiting for a recv
        self._unclaimed = _MatchQueue()  # in-flight transfers without a recv
        self.barrier_waiting: Dict[int, float] = {}  # rank -> time it reached the barrier
        self.records: List[EventRecord] = []
        # event calendar: computes + transfer readiness in the timeline heap,
        # predicted transfer completions in the shared TransferCalendar
        self._timeline: List[Tuple[float, int, int, int]] = []
        # entries buffered during a ready-task sweep, merged into the heap in
        # one pass at the next horizon computation (see _merge_timeline)
        self._timeline_pending: List[Tuple[float, int, int, int]] = []
        self._timeline_seq = itertools.count()
        self._calendar: Optional[TransferCalendar] = None
        self._trace = active_sink(self.config.trace)
        self._metrics = self.config.metrics
        #: repro.obs phase timer around the due-event drain sweep; one
        #: pointer test per sweep when unmetered, PhaseTimer.due()-sampled
        #: when metered (same contract as the calendar's flush timer)
        self._drain_timer = (self._metrics.timer("timeline.drain_s")
                             if self._metrics is not None else None)
        #: same contract around the ready-queue drain (_process_ready_tasks)
        self._advance_timer = (self._metrics.timer("engine.advance_s")
                               if self._metrics is not None else None)
        # sampling needs both a sink (to emit through) and a registry (to
        # snapshot); the untraced/unmetered paths keep a single falsy test
        self._sample_every = (
            self.config.metrics_sample_every
            if self._trace is not None and self._metrics is not None else 0
        )
        self.stats = EngineLoopStats()
        # rank-ordered ready queue (see _process_ready_tasks): a heap of the
        # ranks still due in the pass in progress, all above the cursor, and
        # the ranks queued for the next pass
        self._ready_now: List[int] = []
        self._ready_next: List[int] = []
        #: rank the pass in progress advanced last; num_tasks between sweeps
        self._cursor = self.num_tasks
        #: tasks not DONE and tasks COMPUTING: counters instead of task scans
        self._live = self.num_tasks
        self._computing = 0
        for task in self.tasks:
            self._mark_ready(task)

    # -------------------------------------------------------------- utilities
    def _flops_per_core(self) -> float:
        cluster = self.placement.cluster
        if cluster is not None:
            return cluster.node.flops_per_core
        return self.config.default_flops_per_core

    def _compute_duration(self, event: ComputeEvent) -> float:
        if event.duration is not None:
            return float(event.duration)
        assert event.flops is not None
        return float(event.flops) / (self._flops_per_core() * self.config.compute_efficiency)

    def _base_transfer_time(self, size: int, intra_node: bool) -> float:
        if intra_node:
            return size / self.technology.memory_bandwidth
        return self.technology.latency + size / self.technology.single_stream_bandwidth

    def _node_of(self, rank: int) -> int:
        return self.placement.node(rank)

    # -------------------------------------------------------- program control
    def _advance_program(self, task: _TaskState) -> Optional[Event]:
        """Pull the next event of a task program, passing back resume values."""
        try:
            if task.resume_value is not None and hasattr(task.program, "send"):
                event = task.program.send(task.resume_value)
            else:
                event = next(task.program)
        except StopIteration:
            return None
        finally:
            task.resume_value = None
        return event

    def _mark_ready(self, task: _TaskState) -> None:
        """Make a task READY and queue its rank for the sweep order."""
        task.status = _Status.READY
        if task.rank > self._cursor:
            heapq.heappush(self._ready_now, task.rank)
        else:
            self._ready_next.append(task.rank)

    def _finish_task(self, task: _TaskState) -> None:
        task.status = _Status.DONE
        self._live -= 1
        task.finish_time = self.now
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "task.state", task.rank,
                                         {"status": "done"}))

    # ------------------------------------------------------------ event start
    def _start_event(self, task: _TaskState, event: Event) -> None:
        task.current_event = event
        task.current_start = self.now
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "task.state", task.rank, {
                "status": type(event).__name__.replace("Event", "").lower(),
                "label": getattr(event, "label", ""),
            }))
        if isinstance(event, ComputeEvent):
            duration = self._compute_duration(event)
            injection = self._injection
            if injection.compute_scales:
                # slowdown windows scale the compute *rate* of events that
                # start while the window is open (see NodeSlowdownInjector)
                duration = duration / injection.compute_factor(self._node_of(task.rank))
            task.status = _Status.COMPUTING
            self._computing += 1
            task.compute_until = self.now + duration
            self._timeline_pending.append(
                (task.compute_until, next(self._timeline_seq), _COMPUTE, task.rank)
            )
        elif isinstance(event, SendEvent):
            if event.dst == task.rank:
                raise TraceError(f"rank {task.rank} sends to itself")
            if event.dst >= self.num_tasks:
                raise TraceError(f"rank {task.rank} sends to unknown rank {event.dst}")
            task.status = _Status.SENDING
            self._post_send(task, event)
        elif isinstance(event, RecvEvent):
            if event.src == task.rank:
                raise TraceError(f"rank {task.rank} receives from itself")
            task.status = _Status.RECEIVING
            self._post_recv(task, event)
        elif isinstance(event, BarrierEvent):
            task.status = _Status.BARRIER
            self.barrier_waiting[task.rank] = self.now
            self._maybe_release_barrier()
        else:  # pragma: no cover - defensive
            raise TraceError(f"unknown event type {type(event).__name__}")

    # ------------------------------------------------------------- messaging
    def _start_transfer(self, send: _SendRequest, recv: Optional[_RecvRequest]) -> None:
        src_node = self._node_of(send.rank)
        dst_node = self._node_of(send.dst)
        size = send.size + self.technology.mpi_envelope
        tid = next(self._transfer_counter)
        send.transfer_id = tid
        transfer = Transfer(transfer_id=tid, src=src_node, dst=dst_node,
                            size=size, start_time=self.now)
        latency = 0.0 if src_node == dst_node else self.technology.latency
        flight = _InFlight(
            transfer=transfer,
            ready_time=self.now + latency,
            send=send,
            recv=recv,
        )
        self.in_flight[tid] = flight
        if recv is None:
            flight.claim_token = self._unclaimed.add(
                send.rank, send.dst, send.tag, flight, order=send.posted
            )
        if flight.ready_time <= self.now + self.EPSILON:
            self._calendar.activate(transfer, self.now)
        else:
            self._timeline_pending.append(
                (flight.ready_time, next(self._timeline_seq), _READY, tid)
            )

    def _post_send(self, task: _TaskState, event: SendEvent) -> None:
        request = _SendRequest(
            rank=task.rank, dst=event.dst, tag=event.tag,
            size=event.size, posted=self.now, label=event.label,
        )
        recv = self._recvs.pop_best(task.rank, event.dst, event.tag)
        eager = event.size <= self.config.eager_threshold
        if eager or recv is not None:
            # eager: data leaves immediately whether or not the recv is posted
            self._start_transfer(request, recv)
        else:
            self._sends.add(task.rank, event.dst, event.tag, request)

    def _post_recv(self, task: _TaskState, event: RecvEvent) -> None:
        request = _RecvRequest(
            rank=task.rank,
            src=event.src,
            tag=event.tag,
            posted=self.now,
            label=event.label,
        )
        # 1. a matching eager message already arrived (earliest arrival first)
        send = self._arrived.pop_best(event.src, task.rank, event.tag)
        if send is not None:
            self._complete_recv(task, request, send, completion=self.now)
            return
        # 2. a matching transfer is already in flight without an attached recv
        #    (earliest posted first)
        flight = self._unclaimed.pop_best(event.src, task.rank, event.tag)
        if flight is not None:
            flight.recv = request
            flight.claim_token = None
            return
        # 3. a matching rendezvous send is waiting: start the transfer now
        send = self._sends.pop_best(event.src, task.rank, event.tag)
        if send is not None:
            self._start_transfer(send, request)
            return
        # 4. nothing yet: wait
        self._recvs.add(event.src, task.rank, event.tag, request)

    # ----------------------------------------------------------- completions
    def _record(self, rank: int, kind: str, start: float, end: float, size: int = 0,
                peer: Optional[int] = None, label: str = "",
                penalty: Optional[float] = None) -> None:
        task = self.tasks[rank]
        self.records.append(EventRecord(
            rank=rank, index=task.event_index, kind=kind, start=start, end=end,
            size=size, peer=peer, label=label, penalty=penalty,
        ))
        if self._trace is not None:
            self._trace.emit(TraceRecord(end, "task.event", rank, {
                "kind": kind, "start": start, "end": end, "size": size,
                "peer": peer, "label": label, "penalty": penalty,
                "index": task.event_index,
            }))
        task.event_index += 1

    def _complete_send(self, send: _SendRequest, completion: float) -> None:
        task = self.tasks[send.rank]
        intra = self._node_of(send.rank) == self._node_of(send.dst)
        base = self._base_transfer_time(send.size + self.technology.mpi_envelope, intra)
        duration = completion - send.posted
        penalty = duration / base if base > 0 else 1.0
        self._record(send.rank, "send", send.posted, completion, size=send.size,
                     peer=send.dst, label=send.label, penalty=max(penalty, 0.0))
        self._mark_ready(task)
        task.resume_value = {"kind": "send", "dst": send.dst, "duration": duration}

    def _complete_recv(self, task: _TaskState, recv: _RecvRequest, send: _SendRequest,
                       completion: float) -> None:
        self._record(recv.rank, "recv", recv.posted, completion, size=send.size,
                     peer=send.rank, label=recv.label)
        self._mark_ready(task)
        task.resume_value = {"kind": "recv", "source": send.rank, "size": send.size,
                             "duration": completion - recv.posted}

    def _complete_transfer(self, tid: int) -> None:
        flight = self.in_flight.pop(tid)
        self._complete_send(flight.send, self.now)
        if flight.recv is not None:
            receiver = self.tasks[flight.recv.rank]
            self._complete_recv(receiver, flight.recv, flight.send, self.now)
        else:
            self._unclaimed.discard(flight.claim_token)
            self._arrived.add(flight.send.rank, flight.send.dst, flight.send.tag,
                              flight.send)

    def _maybe_release_barrier(self) -> None:
        """Release the barrier once every live task waits in it (rank order)."""
        waiting = self.barrier_waiting
        if not waiting or len(waiting) != self._live:
            return
        for rank in sorted(waiting):
            task = self.tasks[rank]
            start = waiting.pop(rank)
            label = ""
            if isinstance(task.current_event, BarrierEvent):
                label = task.current_event.label
            self._record(rank, "barrier", start, self.now, label=label)
            self._mark_ready(task)
            task.resume_value = {"kind": "barrier"}

    # ------------------------------------------------------------------- run
    def _process_ready_tasks(self) -> None:
        """Advance every READY task until all are blocked.

        Sweep-order contract — the order of the historical all-ranks sweep,
        which ``tests/oracles/sweep_engine.py`` keeps as a test oracle and
        ``tests/property/test_ready_queue.py`` checks bit-exact against:

        * tasks advance in passes, each pass in ascending rank order;
        * a rank made READY while the pass in progress is at rank ``c``
          (the cursor) joins that pass when it is above ``c``, otherwise it
          waits for the next pass;
        * a rank made READY between sweeps waits for the next sweep's first
          pass; passes repeat until one leaves nothing for the next.

        :meth:`_mark_ready` files each rank accordingly — into the current
        pass's heap or the next pass's list, heapified when that pass starts
        — so a sweep costs O(ready · log ready), not O(ranks) per pass.
        """
        tasks = self.tasks
        pop = heapq.heappop
        while self._ready_next:
            current = self._ready_now = self._ready_next
            self._ready_next = []
            heapq.heapify(current)
            while current:
                rank = self._cursor = pop(current)
                task = tasks[rank]
                event = self._advance_program(task)
                if event is None:
                    self._finish_task(task)
                    self._maybe_release_barrier()
                else:
                    self._start_event(task, event)
            self._cursor = self.num_tasks

    def _merge_timeline(self) -> None:
        """Fold the sweep's buffered entries into the timeline heap.

        ``_start_event`` / ``_start_transfer`` buffer their pushes during a
        ready-task sweep; merging them here replaces one ``heappush`` per
        started event with either per-entry pushes (small sweeps) or a
        single list-extend + ``heapify`` rebuild (bulk sweeps, e.g. every
        rank starting a compute at a barrier exit).  Entries carry unique
        ``(time, seq)`` keys, so the pop stream — and therefore the
        simulation — is identical either way.
        """
        pending = self._timeline_pending
        if not pending:
            return
        timeline = self._timeline
        if (len(pending) >= self.TIMELINE_BULK_MIN
                and 4 * len(pending) >= len(timeline)):
            timeline.extend(pending)
            heapq.heapify(timeline)
            self.stats.timeline_bulk_merges += 1
        else:
            push = heapq.heappush
            for entry in pending:
                push(timeline, entry)
        pending.clear()

    def _next_horizon(self) -> float:
        """Earliest calendar entry (timeline or predicted completion)."""
        self._merge_timeline()
        if self.config.injectors and not self.in_flight:
            # only injector runs need this extra check: _INJECT/background
            # entries keep the timeline non-empty, yet with no transfer in
            # flight and nobody computing they can never unblock a task.
            # (Injector-free runs reach the empty-`times` branch below
            # instead, so their hot loop pays nothing here.)
            if self._live and not self._computing:
                blocked = [(task.rank, task.status.value) for task in self.tasks
                           if task.status is not _Status.DONE]
                raise DeadlockError(
                    f"no task can make progress at t={self.now:.6f}s; "
                    f"blocked tasks: {blocked}",
                    blocked_tasks=[rank for rank, _ in blocked],
                )
        times: List[float] = []
        if self._timeline:
            times.append(self._timeline[0][0])
        completion = self._calendar.next_time()
        if completion is not None:
            times.append(completion)
        if not times:
            stalled = self._calendar.stalled_ids()
            if stalled:
                # distinguishes a zero-rate starvation (a provider that never
                # re-reported these transfers) from a true MPI deadlock
                raise SimulationError(
                    f"simulation stalled at t={self.now:.6f}s: transfers "
                    f"{list(stalled)!r} have zero rate and no pending event "
                    f"can re-rate them"
                )
            blocked = [(task.rank, task.status.value) for task in self.tasks
                       if task.status is not _Status.DONE]
            raise DeadlockError(
                f"no task can make progress at t={self.now:.6f}s; "
                f"blocked tasks: {blocked}",
                blocked_tasks=[rank for rank, _ in blocked],
            )
        return min(times)

    def _complete_due_events(self) -> None:
        # hot path: one attribute read and a None test when unmetered; when
        # metered, two local perf_counter calls, optionally 1-in-N sampled
        # through PhaseTimer.due() (same shape as TransferCalendar.flush)
        timer = self._drain_timer
        if timer is None or not timer.due():
            return self._complete_due_events_impl()
        counter = perf_counter
        start = counter()
        self._complete_due_events_impl()
        timer.observe(counter() - start)

    def _complete_due_events_impl(self) -> None:
        """Fire every calendar entry due at the current time.

        Ordering mirrors the historical loop: compute completions first (in
        rank order), then foreground transfer completions (in transfer
        order), then injector events; newly ready transfers join the rate
        set for the *next* step's flush.  Background-flow completions only
        update the injection bookkeeping — their departure reaches the
        provider through the calendar's pending delta like any other.

        Large same-horizon batches (a barrier releasing every rank, a bulk
        readiness wave) are drained with one partition pass plus a heapify
        of the remainder instead of per-entry ``heappop`` sifts, mirroring
        the :attr:`TIMELINE_BULK_MIN` merge strategy: entries are popped
        one at a time until the drained count reaches the bulk threshold
        *and* a partition scan is amortized by the pops already done, then
        the remaining due entries are extracted in one sweep.  ``(time,
        seq)`` heap keys are unique, so sorting the swept-out batch yields
        exactly the historical pop order — the classification below is
        bit-exact either way.
        """
        compute_ranks: List[int] = []
        ready_tids: List[int] = []
        inject_indices: List[int] = []
        horizon = self.now + self.EPSILON
        timeline = self._timeline
        drained = 0
        while timeline and timeline[0][0] <= horizon:
            if (drained >= self.TIMELINE_BULK_MIN
                    and 4 * drained >= len(timeline)):
                due: List[Tuple[float, int, int, int]] = []
                keep: List[Tuple[float, int, int, int]] = []
                for entry in timeline:
                    (due if entry[0] <= horizon else keep).append(entry)
                due.sort()
                heapq.heapify(keep)
                self._timeline = timeline = keep
                for _, _, kind, payload in due:
                    if kind == _COMPUTE:
                        compute_ranks.append(payload)
                    elif kind == _READY:
                        ready_tids.append(payload)
                    else:
                        inject_indices.append(payload)
                self.stats.timeline_bulk_drains += 1
                self.stats.timeline_bulk_drained += len(due)
                break
            _, _, kind, payload = heapq.heappop(timeline)
            drained += 1
            if kind == _COMPUTE:
                compute_ranks.append(payload)
            elif kind == _READY:
                ready_tids.append(payload)
            else:
                inject_indices.append(payload)
        finished = self._calendar.pop_due(self.now)

        for rank in sorted(compute_ranks):
            task = self.tasks[rank]
            if task.status is not _Status.COMPUTING:  # pragma: no cover - defensive
                continue
            event = task.current_event
            label = event.label if isinstance(event, ComputeEvent) else ""
            self._record(rank, "compute", task.current_start, self.now, label=label)
            self._computing -= 1
            self._mark_ready(task)
            task.resume_value = {"kind": "compute"}

        background = self._injection.background
        foreground: List[Transfer] = []
        for transfer in finished:
            if transfer.transfer_id in background:
                background.discard(transfer.transfer_id)
            else:
                foreground.append(transfer)
        for transfer in sorted(foreground, key=lambda t: t.transfer_id):
            self._complete_transfer(transfer.transfer_id)

        for index in inject_indices:
            when = self._injection.fire(index, self.now)
            if when is not None:
                heapq.heappush(
                    self._timeline,
                    (max(when, self.now), next(self._timeline_seq), _INJECT, index),
                )

        for tid in ready_tids:
            self._calendar.activate(self.in_flight[tid].transfer, self.now)

    def _budget_diagnostics(self, max_iterations: int) -> str:
        counts = Counter(task.status.value for task in self.tasks)
        by_status = ", ".join(f"{status}={count}" for status, count in sorted(counts.items()))
        stalled = self._calendar.stalled_ids() if self._calendar else ()
        stall_note = f"; zero-rated transfers: {list(stalled)!r}" if stalled else ""
        background = self._injection.background
        background_note = f"; background flows: {len(background)}" if background else ""
        return (
            f"execution engine exceeded its iteration budget "
            f"({max_iterations} iterations) at t={self.now:.6f}s; "
            f"tasks by status: {{{by_status}}}; "
            f"in-flight transfers: {len(self.in_flight)} "
            f"({self._calendar.active_count if self._calendar else 0} progressing); "
            f"waiting sends/recvs/arrived: "
            f"{len(self._sends)}/{len(self._recvs)}/{len(self._arrived)}"
            f"{stall_note}{background_note}"
        )

    def run(self) -> SimulationReport:
        """Execute the application to completion and return the report."""
        self._calendar = TransferCalendar(
            self.rate_provider,
            missing_rate="zero",
            trace=self._trace,
            metrics=self._metrics,
        )
        self.rate_provider.reset()
        cluster = self.placement.cluster
        if cluster is not None:
            hosts: Tuple[int, ...] = tuple(range(cluster.num_nodes))
        else:
            hosts = tuple(sorted({self._node_of(rank) for rank in range(self.num_tasks)}))
        injection = self._injection = InjectionState(
            self._calendar, hosts, self.config.injectors, self._trace)
        if self._metrics is not None:
            metrics = self._metrics
            stats = self.stats
            metrics.register_source("engine", lambda: {
                "iterations": stats.iterations,
                "steps": stats.steps,
                "injected_events": injection.fired,
                "background_flows": injection.flows_started,
            })
            metrics.register_source("calendar", self._calendar.stats.snapshot)
            register = getattr(self.rate_provider, "register_metrics", None)
            if callable(register):
                register(metrics)
        for when, index in injection.first_events():
            heapq.heappush(self._timeline, (when, next(self._timeline_seq), _INJECT, index))
        # events scheduled at t=0 (e.g. windows opening at the origin) take
        # effect before the first ready-task sweep, so computes and sends
        # starting at t=0 already see the installed scales
        while self._timeline and self._timeline[0][0] <= self.EPSILON:
            _, _, _, index = heapq.heappop(self._timeline)
            when = injection.fire(index, self.now)
            if when is not None:
                # clamp follow-ups just past the origin so this pre-loop
                # terminates; they fire on the first regular step
                heapq.heappush(
                    self._timeline,
                    (max(when, 2 * self.EPSILON),
                     next(self._timeline_seq), _INJECT, index),
                )
        max_iterations = self.config.iteration_factor * (self._num_events_hint + self.num_tasks) + 100
        iterations = 0

        while True:
            iterations += 1
            self.stats.iterations = iterations
            # injector events consume iterations too: grow the budget with
            # the injected work so loaded runs keep the same safety margin
            allowed = max_iterations + 20 * injection.fired
            if iterations > allowed:
                raise SimulationError(self._budget_diagnostics(allowed))

            # same unmetered/sampled timer shape as _complete_due_events
            timer = self._advance_timer
            if timer is None or not timer.due():
                self._process_ready_tasks()
            else:
                start = perf_counter()
                self._process_ready_tasks()
                timer.observe(perf_counter() - start)

            if not self._live:
                break

            # push the flow delta of this step (new sends, completed
            # transfers, readiness transitions) to the rate provider; only
            # re-priced transfers whose rate changed get re-timed
            self._calendar.flush(self.now)

            self.now = max(self._next_horizon(), self.now)
            self.stats.steps += 1
            if self._trace is not None:
                self._trace.emit(TraceRecord(self.now, "step", "engine",
                                             {"step": self.stats.steps}))
                if (self._metrics is not None and self._sample_every
                        and self.stats.steps % self._sample_every == 0):
                    self._trace.emit(self._metrics.sample_record(self.now))
            self._complete_due_events()

        self.stats.injected_events = injection.fired
        self.stats.background_flows = injection.flows_started
        self.stats.calendar = self._calendar.stats.snapshot()
        report = SimulationReport(
            application_name=self.application_name,
            model_name=self.model_name,
            placement_policy=self.placement.policy,
            num_tasks=self.num_tasks,
            records=self.records,
            finish_time_per_task={task.rank: task.finish_time for task in self.tasks},
        )
        return report
