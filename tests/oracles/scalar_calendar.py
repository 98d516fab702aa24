"""Test oracle: the scalar per-flight calendar the structure-of-arrays store replaced.

:class:`ScalarTransferCalendar` keeps one ``_Flight`` object per in-flight
transfer in an insertion-ordered dict and applies every changed rate in a
Python loop: integrate the remaining bytes at the old rate, store the new
rate, draw a fresh epoch and push a new ``(completion, seq, id, epoch)``
heap entry.  It speaks only the dict view ``update`` of the delta
contract; a dict-only or rates-only test double reaches it through
:class:`~oracles.slot_adapter.SlotAdapter`, like the production calendar.

It has the public surface, the work counters and the trace stream of
:class:`~repro.network.fluid.TransferCalendar`, so :func:`scalar_calendar`
can swap it into the execution engine and the fluid simulator.  The parity
suites then assert that the production calendar agrees with it on records,
finish times, traces and every counter except the strategy counters
(``bulk_*`` and ``handoff_tier_*``), which name how the production calendar
did the work.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from time import perf_counter
from unittest import mock

from repro.exceptions import SimulationError
from repro.network.fluid import CalendarStats, TransferCalendar
from repro.trace.records import TraceRecord
from repro.trace.sinks import active_sink


class _Flight:
    __slots__ = ("transfer", "remaining", "rate", "rated", "last_update", "epoch")

    def __init__(self, transfer, now):
        self.transfer = transfer
        self.remaining = float(transfer.size)
        self.rate = 0.0
        self.rated = False
        self.last_update = now
        self.epoch = 0  # no heap entry carries epoch 0


class ScalarTransferCalendar:
    """Reference calendar: one Python object per flight, one loop per flush."""

    EPSILON = TransferCalendar.EPSILON
    EPSILON_BYTES = TransferCalendar.EPSILON_BYTES
    COMPACT_MIN_HEAP = TransferCalendar.COMPACT_MIN_HEAP
    STALL_RETRY_TRACE_IDS = TransferCalendar.STALL_RETRY_TRACE_IDS

    def __init__(self, rate_provider, missing_rate="error", trace=None,
                 metrics=None):
        if missing_rate not in ("error", "zero"):
            raise SimulationError(f"unknown missing_rate policy {missing_rate!r}")
        self.provider = rate_provider
        self.missing_rate = missing_rate
        self._trace = active_sink(trace)
        self._flush_timer = metrics.timer("calendar.flush_s") if metrics is not None else None
        self.stats = CalendarStats()
        self._flights = {}
        self._heap = []
        self._seq = itertools.count()
        self._epochs = itertools.count(1)  # calendar-wide, like production
        self._pending_added = {}
        self._pending_removed = []
        self._stalled = {}
        self._rate_scale = None

    # --------------------------------------------------------------- queries
    @property
    def active_count(self):
        return len(self._flights)

    def remaining(self, tid):
        return self._flights[tid].remaining

    def is_active(self, tid):
        return tid in self._flights

    def stalled_ids(self):
        return tuple(self._stalled)

    def next_time(self):
        while self._heap:
            time, _, tid, epoch = self._heap[0]
            flight = self._flights.get(tid)
            if flight is None or flight.epoch != epoch:
                heapq.heappop(self._heap)
                self.stats.stale_entries += 1
                continue
            return time
        return None

    # -------------------------------------------------------------- mutation
    def activate(self, transfer, now):
        tid = transfer.transfer_id
        if tid in self._flights:
            raise SimulationError(f"transfer {tid!r} is already active")
        self._flights[tid] = _Flight(transfer, now)
        self._pending_added[tid] = transfer
        self.stats.activations += 1
        self._emit(now, "calendar.activate", tid, {
            "src": transfer.src, "dst": transfer.dst, "size": transfer.size,
        })

    def cancel(self, tid, now):
        flight = self._flights.pop(tid, None)
        if flight is None:
            raise SimulationError(f"cannot cancel unknown transfer {tid!r}")
        self._integrate(flight, now)
        if tid in self._pending_added:
            del self._pending_added[tid]
        else:
            self._pending_removed.append(tid)
        self._stalled.pop(tid, None)
        self.stats.cancelled += 1
        self._emit(now, "calendar.cancel", tid, {"remaining": flight.remaining})
        self._maybe_compact(now)
        return flight.transfer

    def set_rate_scale(self, scale):
        self._rate_scale = scale

    def flush(self, now):
        timer = self._flush_timer
        if timer is None or not timer.due():
            return self._flush(now)
        start = perf_counter()
        self._flush(now)
        timer.observe(perf_counter() - start)

    def _flush(self, now):
        added_count = len(self._pending_added)
        removed_count = len(self._pending_removed)
        if not added_count and not removed_count:
            if self._stalled:
                self._retry_stalled(now)
            return
        changed = self.provider.update(list(self._pending_added.values()),
                                       list(self._pending_removed))
        self._pending_added.clear()
        self._pending_removed.clear()
        self._count_query(changed)
        self._emit(now, "calendar.flush", None, {
            "added": added_count, "removed": removed_count,
            "changed": len(changed), "active": len(self._flights),
        })
        self._apply_changed(changed, now)
        if self._stalled:
            self._retry_stalled(now)

    def _retry_stalled(self, now):
        retry = [tid for tid in self._stalled if tid in self._flights]
        if not retry:
            return
        changed = self.provider.update(
            [self._flights[tid].transfer for tid in retry], list(retry))
        self.stats.stall_retries += len(retry)
        self.stats.rate_updates += len(changed)
        self._emit(now, "calendar.stall_retry", None, {
            "count": len(retry),
            "ids": [str(tid) for tid in retry[:self.STALL_RETRY_TRACE_IDS]],
        })
        self._apply_changed(changed, now)

    def reprice(self, now):
        self.flush(now)
        if not self._flights:
            return
        self.provider.reset()
        changed = self.provider.update(self._transfers(), [])
        self._count_query(changed)
        self._emit(now, "calendar.reprice", None, {
            "active": len(self._flights), "changed": len(changed),
        })
        self._apply_changed(changed, now)

    def pop_due(self, now):
        done = []
        while self._heap:
            time, _, tid, epoch = self._heap[0]
            flight = self._flights.get(tid)
            if flight is None or flight.epoch != epoch:
                heapq.heappop(self._heap)
                self.stats.stale_entries += 1
                continue
            if time > now + self.EPSILON:
                break
            heapq.heappop(self._heap)
            self._integrate(flight, now)
            clock_resolution = max(abs(now), 1.0) * 1e-12
            negligible = (
                flight.remaining <= max(self.EPSILON, self.EPSILON_BYTES)
                or (flight.rate > 0.0
                    and flight.remaining / flight.rate <= clock_resolution)
            )
            if not negligible:
                self._retime(tid, flight, now)  # fp drift: try again later
                self._maybe_compact(now)
                continue
            del self._flights[tid]
            self._stalled.pop(tid, None)
            self._pending_removed.append(tid)
            done.append(flight.transfer)
            self.stats.completions += 1
            self._emit(now, "calendar.complete", tid, {})
        return done

    # -------------------------------------------------------------- helpers
    def _transfers(self):
        return [flight.transfer for flight in self._flights.values()]

    def _emit(self, now, kind, tid, payload):
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, kind, tid, payload))

    def _count_query(self, changed):
        self.stats.flushes += 1
        self.stats.handoff_tier_dict += 1
        self.stats.rate_updates += len(changed)
        self.stats.active_at_flush += len(self._flights)

    def _apply_changed(self, changed, now):
        for tid, rate in changed.items():
            flight = self._flights.get(tid)
            if flight is None:
                continue  # a provider may echo ids the caller never activated
            if rate < 0:
                raise SimulationError(f"negative rate for transfer {tid!r}")
            self._apply_rate(tid, flight, rate, now)
        # absence means "unchanged"; a never-rated flight is missing
        missing = [tid for tid, f in self._flights.items() if not f.rated]
        if missing:
            if self.missing_rate == "error":
                raise SimulationError(f"rate provider returned no rate for {missing!r}")
            for tid in missing:
                self._apply_rate(tid, self._flights[tid], 0.0, now)
        self._maybe_compact(now)

    def _apply_rate(self, tid, flight, rate, now):
        if self._rate_scale is not None:
            rate = rate * self._rate_scale(flight.transfer)
        if rate <= 0.0:
            if tid not in self._stalled:
                self._emit(now, "calendar.stall", tid, {"rate": rate})
            self._stalled[tid] = None
        else:
            self._stalled.pop(tid, None)
        if flight.rated and rate == flight.rate:
            return  # value unchanged: the calendar entry stays valid
        self._integrate(flight, now)
        flight.rate = rate
        flight.rated = True
        self._retime(tid, flight, now)

    def _integrate(self, flight, now):
        if flight.rated and flight.rate > 0.0:
            dt = now - flight.last_update
            if dt > 0.0:
                flight.remaining -= flight.rate * dt
        flight.last_update = now

    def _retime(self, tid, flight, now):
        flight.epoch = next(self._epochs)
        if flight.rated and flight.rate > 0.0:
            completion = now + flight.remaining / flight.rate
            heapq.heappush(self._heap, (completion, next(self._seq), tid, flight.epoch))
            self.stats.retimed += 1
            self._emit(now, "calendar.retime", tid, {
                "rate": flight.rate, "remaining": flight.remaining,
                "completion": completion,
            })

    def _maybe_compact(self, now):
        heap = self._heap
        if len(heap) < self.COMPACT_MIN_HEAP or len(heap) <= 2 * len(self._flights):
            return
        live = [entry for entry in heap
                if (flight := self._flights.get(entry[2])) is not None
                and flight.epoch == entry[3]]
        self.stats.stale_entries += len(heap) - len(live)
        heapq.heapify(live)
        self._heap = live
        self.stats.compactions += 1
        self._emit(now, "calendar.compaction", None, {
            "dropped": len(heap) - len(live), "kept": len(live),
        })


@contextmanager
def scalar_calendar():
    """Run the engine and the fluid simulator on :class:`ScalarTransferCalendar`."""
    with mock.patch("repro.simulator.engine.TransferCalendar", ScalarTransferCalendar), \
            mock.patch("repro.network.fluid.TransferCalendar", ScalarTransferCalendar):
        yield
