"""Unit tests for the structure-of-arrays calendar bookkeeping.

Regression coverage for compaction on cancel-heavy workloads (which create
stale heap entries without ever re-timing), the degenerate batch shapes of
the structure-of-arrays rate application — zero-rate→nonzero transitions,
infinite rates, single-flight batches below the heapify threshold,
cancel-then-reprice, and transfer-id reuse (slot/epoch recycling) — plus
the 1-in-N sampled flush phase timer.

The application-level bit-exactness sweep (random MPI workloads, both
provider families, traced and untraced) lives in
``tests/property/test_vectorized_calendar.py``; these tests pin the narrow
corners a random workload rarely hits.
"""

from __future__ import annotations

import math

import pytest
from oracles.scalar_calendar import ScalarTransferCalendar
from oracles.slot_adapter import SlotAdapter

from repro._numpy import np
from repro.exceptions import ReproError
from repro.network.fluid import SlotMap, Transfer, TransferCalendar
from repro.obs import MetricsRegistry
from repro.obs.registry import PhaseTimer
from repro.trace import MemoryTraceSink, assert_traces_equal

BOTH_PATHS = pytest.mark.parametrize(
    "calendar_cls", [TransferCalendar, ScalarTransferCalendar],
    ids=["array", "scalar"])

#: heap-strategy counters that legitimately differ scalar-vs-array
STRATEGY_COUNTERS = ("bulk_merges", "bulk_entries", "handoff_tier_slots",
                     "handoff_tier_dict")


class ScriptedDelta:
    """Delta provider returning scripted rates; constant once exhausted.

    ``script`` maps update-call number (1-based) to the rate every touched
    transfer gets on that call; later calls fall back to ``default``.
    """

    def __init__(self, script=None, default=100.0):
        self.script = dict(script or {})
        self.default = default
        self.calls = 0
        self.tracked = set()

    def _rate(self):
        return self.script.get(self.calls, self.default)

    def update(self, added, removed):
        self.calls += 1
        for tid in removed:
            self.tracked.discard(tid)
        rate = self._rate()
        changed = {}
        for transfer in added:
            self.tracked.add(transfer.transfer_id)
            changed[transfer.transfer_id] = rate
        return changed

    def reset(self):
        self.tracked = set()


def comparable_stats(calendar):
    flat = calendar.stats.snapshot()
    for key in STRATEGY_COUNTERS:
        flat.pop(key, None)
    return flat


class TestCancelCompaction:
    """Satellite (a): ``cancel()`` must also check heap compaction."""

    @BOTH_PATHS
    def test_cancel_heavy_workload_bounds_the_heap(self, calendar_cls):
        """Mass cancellation compacts the heap even though nothing re-times.

        Before the fix, compaction was only reachable through ``_retime``;
        a cancel-heavy workload (interference injectors tearing down
        background flows) creates stale entries without a single re-timing,
        so the heap grew unboundedly stale.
        """
        provider = ScriptedDelta()
        calendar = calendar_cls(SlotAdapter(provider))
        num_flights = 200
        for i in range(num_flights):
            calendar.activate(Transfer(i, 0, 1, 1e9), now=0.0)
        calendar.flush(0.0)
        assert len(calendar._heap) == num_flights
        # constant rates: the only heap churn from here on is cancellation
        retimed_before = calendar.stats.retimed
        for i in range(150):
            calendar.cancel(i, 1.0)
        assert calendar.stats.retimed == retimed_before
        bound = max(TransferCalendar.COMPACT_MIN_HEAP,
                    2 * calendar.active_count + 1)
        assert len(calendar._heap) <= bound
        assert calendar.stats.compactions > 0
        # the survivors still complete, in activation order (equal rates)
        done = calendar.pop_due(1e9)
        assert [t.transfer_id for t in done] == list(range(150, num_flights))

    @BOTH_PATHS
    def test_small_cancel_runs_never_compact(self, calendar_cls):
        calendar = calendar_cls(SlotAdapter(ScriptedDelta()))
        for i in range(8):
            calendar.activate(Transfer(i, 0, 1, 1e9), now=0.0)
        calendar.flush(0.0)
        for i in range(6):
            calendar.cancel(i, 1.0)
        assert calendar.stats.compactions == 0


class TestDegenerateBatches:
    """Satellite (d): batch shapes the random property sweep rarely hits."""

    def test_zero_rate_batch_then_nonzero(self):
        """A whole batch stalling at rate zero recovers on the next flush.

        Exercises the batch path's nonpos bookkeeping (every flight newly
        stalled) and the stall-retry cycle re-rating the same batch.
        """
        outcomes = []
        for calendar_cls in (TransferCalendar, ScalarTransferCalendar):
            # call 1 (the flush) zero-rates everything; call 2 (the
            # stall retry inside the same flush) still refuses; call 3
            # (next flush's retry) re-rates at the default
            provider = ScriptedDelta(script={1: 0.0, 2: 0.0})
            calendar = calendar_cls(SlotAdapter(provider))
            for i in range(6):
                calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
            calendar.flush(0.0)
            assert calendar.stalled_ids() == tuple(range(6))
            assert calendar.next_time() is None
            calendar.flush(1.0)
            assert calendar.stalled_ids() == ()
            assert calendar.next_time() == pytest.approx(11.0)
            done = calendar.pop_due(11.0)
            outcomes.append(([t.transfer_id for t in done],
                             comparable_stats(calendar)))
        assert outcomes[0] == outcomes[1]

    def test_infinite_rate_batch_completes_immediately(self):
        """rate=inf predicts completion *now* without fp warnings."""
        with np.errstate(invalid="raise", over="raise"):
            outcomes = []
            for calendar_cls in (TransferCalendar, ScalarTransferCalendar):
                provider = ScriptedDelta(default=math.inf)
                calendar = calendar_cls(SlotAdapter(provider))
                for i in range(8):
                    calendar.activate(Transfer(i, 0, 1, 1e12), now=0.0)
                calendar.flush(0.0)
                assert calendar.next_time() == pytest.approx(0.0)
                done = calendar.pop_due(0.0)
                outcomes.append(([t.transfer_id for t in done],
                                 comparable_stats(calendar)))
            assert outcomes[0][0] == list(range(8))
            assert outcomes[0] == outcomes[1]

    def test_mixed_zero_and_infinite_rates(self):
        """One batch mixing stalls, instant finishers and finite rates."""
        rates = {0: 0.0, 1: math.inf, 2: 100.0, 3: math.inf, 4: 0.0,
                 5: 200.0}

        class MixedDelta:
            def update(self, added, removed):
                return {t.transfer_id: rates[t.transfer_id] for t in added}

            def reset(self):
                pass

        outcomes = []
        for calendar_cls in (TransferCalendar, ScalarTransferCalendar):
            calendar = calendar_cls(SlotAdapter(MixedDelta()))
            for i in rates:
                calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
            calendar.flush(0.0)
            assert calendar.stalled_ids() == (0, 4)
            done = calendar.pop_due(0.0)
            assert [t.transfer_id for t in done] == [1, 3]
            later = calendar.pop_due(10.0)
            outcomes.append(([t.transfer_id for t in later],
                             comparable_stats(calendar)))
        # flight 5 (1000/200 = 5s) surfaces before flight 2 (1000/100 = 10s)
        assert outcomes[0][0] == [5, 2]
        assert outcomes[0] == outcomes[1]

    def test_single_flight_below_batch_threshold(self):
        """A one-flight changed set takes the loop path — no bulk merges."""
        assert 1 < TransferCalendar.BATCH_MIN
        provider = ScriptedDelta()
        calendar = TransferCalendar(SlotAdapter(provider))
        calendar.activate(Transfer("solo", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        assert calendar.stats.bulk_merges == 0
        assert calendar.stats.bulk_entries == 0
        assert calendar.stats.retimed == 1
        assert calendar.next_time() == pytest.approx(10.0)
        assert [t.transfer_id for t in calendar.pop_due(10.0)] == ["solo"]

    def test_large_batch_bulk_merges(self):
        """A big changed set into a small heap takes the heapify merge."""
        provider = ScriptedDelta()
        calendar = TransferCalendar(SlotAdapter(provider))
        n = max(TransferCalendar.BULK_HEAPIFY_MIN,
                TransferCalendar.BATCH_MIN) + 4
        for i in range(n):
            calendar.activate(Transfer(i, 0, 1, 1000.0 * (i + 1)), now=0.0)
        calendar.flush(0.0)
        assert calendar.stats.bulk_merges == 1
        assert calendar.stats.bulk_entries == n
        done = calendar.pop_due(1e9)
        assert [t.transfer_id for t in done] == list(range(n))

    @BOTH_PATHS
    def test_cancel_then_reprice(self, calendar_cls):
        """Repricing after a cancel re-times exactly the survivors."""
        provider = ScriptedDelta()
        calendar = calendar_cls(SlotAdapter(provider))
        for i in range(6):
            calendar.activate(Transfer(i, 0, 1, 6000.0), now=0.0)
        calendar.flush(0.0)
        calendar.cancel(2, 10.0)
        calendar.cancel(4, 10.0)
        # the next provider answer halves the rate: every survivor re-times
        provider.default = 50.0
        calendar.reprice(10.0)
        # 6000 bytes, 1000 done by t=10 at rate 100, 5000 left at rate 50
        expected = 10.0 + 5000.0 / 50.0
        assert calendar.next_time() == pytest.approx(expected)
        done = calendar.pop_due(expected + 1.0)
        assert [t.transfer_id for t in done] == [0, 1, 3, 5]
        assert calendar.active_count == 0

    def test_tid_reuse_recycles_the_slot(self):
        """Cancel + re-activate of the same id reuses the freed slot and
        resets its epoch; the old tenant's heap entries die as stale."""
        provider = ScriptedDelta()
        calendar = TransferCalendar(SlotAdapter(provider))
        for i in range(5):
            calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        capacity = calendar._arr.slots.capacity
        old_slot = calendar._arr.slots.slot_of[3]
        calendar.cancel(3, 1.0)
        calendar.activate(Transfer(3, 2, 3, 9000.0), now=1.0)
        assert calendar._arr.slots.slot_of[3] == old_slot
        assert calendar._arr.slots.capacity == capacity
        assert int(calendar._arr.epoch[old_slot]) == 0
        calendar.flush(1.0)
        # the replacement completes on its own schedule; the stale entry of
        # the first tenant (due at t=10) never surfaces as a completion
        assert [t.transfer_id for t in calendar.pop_due(10.0)] == [0, 1, 2, 4]
        done = calendar.pop_due(1e9)
        assert [t.transfer_id for t in done] == [3]
        assert done[0].size == 9000.0
        assert calendar.stats.completions == 5

    @BOTH_PATHS
    def test_tid_reuse_agrees_across_paths(self, calendar_cls):
        provider = ScriptedDelta()
        calendar = calendar_cls(SlotAdapter(provider))
        for i in range(5):
            calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        calendar.cancel(3, 1.0)
        calendar.activate(Transfer(3, 2, 3, 9000.0), now=1.0)
        calendar.flush(1.0)
        first = calendar.pop_due(10.0)
        second = calendar.pop_due(1e9)
        assert [t.transfer_id for t in first] == [0, 1, 2, 4]
        assert [t.transfer_id for t in second] == [3]


class TestSlotMap:
    def test_lifo_reuse_and_capacity(self):
        slots = SlotMap()
        assert [slots.acquire(k) for k in "abc"] == [0, 1, 2]
        assert slots.capacity == 3
        slots.release("b")
        slots.release("a")
        # LIFO: the most recently freed slot is handed out first
        assert slots.acquire("d") == 0
        assert slots.acquire("e") == 1
        assert slots.capacity == 3
        assert list(slots.slot_of) == ["c", "d", "e"]  # acquisition order
        assert len(slots) == 3 and "c" in slots and "a" not in slots

    def test_release_of_an_unheld_key_raises(self):
        slots = SlotMap()
        slots.acquire("a")
        with pytest.raises(KeyError):
            slots.release("ghost")


class TestFlushTimerSampling:
    """Satellite (b): the flush phase timer can be 1-in-N sampled."""

    def test_due_pattern(self):
        timer = PhaseTimer("t", sample_every=3)
        assert [timer.due() for _ in range(7)] == [
            False, False, True, False, False, True, False]
        always = PhaseTimer("u")
        assert [always.due() for _ in range(3)] == [True, True, True]

    def test_invalid_factor_rejected(self):
        with pytest.raises(ReproError):
            PhaseTimer("t", sample_every=0)
        with pytest.raises(ReproError):
            MetricsRegistry(timer_sample_every=0)

    def test_snapshot_exposes_the_factor(self):
        timer = PhaseTimer("flush_s", sample_every=4)
        timer.observe(0.5)
        snap = timer.snapshot()
        assert snap["flush_s.sample_every"] == 4
        assert snap["flush_s.count"] == 1
        # factor 1 keeps the historical snapshot shape
        assert "t.sample_every" not in PhaseTimer("t").snapshot()

    @BOTH_PATHS
    def test_sampled_calendar_flush_timer(self, calendar_cls):
        registry = MetricsRegistry(timer_sample_every=4)
        calendar = calendar_cls(SlotAdapter(ScriptedDelta()), metrics=registry)
        calendar.activate(Transfer("a", 0, 1, 1e9), now=0.0)
        for step in range(12):
            calendar.flush(float(step))
        timer = registry.timer("calendar.flush_s")
        assert timer.count == 3  # 12 flush calls, every 4th observed
        snap = registry.snapshot()
        assert snap["calendar.flush_s.sample_every"] == 4

    def test_unsampled_timer_observes_every_flush(self):
        registry = MetricsRegistry()
        calendar = TransferCalendar(SlotAdapter(ScriptedDelta()), metrics=registry)
        calendar.activate(Transfer("a", 0, 1, 1e9), now=0.0)
        for step in range(5):
            calendar.flush(float(step))
        assert registry.timer("calendar.flush_s").count == 5


class TieredDelta:
    """One deterministic rate machine behind both delta handoffs.

    Dense contract: every call returns a rate for the whole tracked set, of
    which one hash group (``tid % GROUPS``) is re-priced per call.  This
    class speaks only ``update`` (served through ``SlotAdapter``);
    :class:`SlotTierDelta` adds the native ``update_slots`` — with
    identical float64 values in identical (tracked) order.
    """

    GROUPS = 4

    def __init__(self):
        self.calls = 0
        self.tracked = []
        self.pos = {}
        self.slot_handles = {}
        self.version = [0] * self.GROUPS

    def _rate(self, tid):
        return 100.0 * (1 + tid % 3) + 10.0 * (self.version[tid % self.GROUPS] % 5)

    def _apply(self, added, removed, added_slots=None):
        self.calls += 1
        for tid in removed:
            i = self.pos.pop(tid)
            last = len(self.tracked) - 1
            if i != last:
                self.tracked[i] = self.tracked[last]
                self.pos[self.tracked[i]] = i
            self.tracked.pop()
            self.slot_handles.pop(tid, None)
        for j, transfer in enumerate(added):
            tid = transfer.transfer_id
            self.pos[tid] = len(self.tracked)
            self.tracked.append(tid)
            if added_slots is not None:
                self.slot_handles[tid] = added_slots[j]
        self.version[self.calls % self.GROUPS] += 1
        return [self._rate(tid) for tid in self.tracked]

    def update(self, added, removed):
        rates = self._apply(added, removed)
        return dict(zip(self.tracked, rates))

    def reset(self):
        self.tracked = []
        self.pos = {}
        self.slot_handles = {}


class SlotTierDelta(TieredDelta):
    def update(self, added, removed):
        tids, _, rates = self.update_slots(added, [-1] * len(added), removed)
        return dict(zip(tids, rates.tolist()))

    def update_slots(self, added, added_slots, removed):
        rates = self._apply(added, removed, added_slots)
        slots = np.fromiter((self.slot_handles[t] for t in self.tracked),
                            dtype=np.intp, count=len(self.tracked))
        return list(self.tracked), slots, np.asarray(rates, dtype=np.float64)


def run_churn(provider, calendar_cls=TransferCalendar, num_flights=24, rounds=12):
    """Churn loop with mid-run completions, cancels and slot reuse.

    Even-id originals are huge (they outlive every round and serve as the
    deterministic cancel targets); odd-id originals and the per-round
    arrivals are small, so they complete mid-run — freeing slots that
    later arrivals reuse while the provider's mirror table keeps up.
    """
    calendar = calendar_cls(provider)
    for i in range(num_flights):
        size = 1e7 if i % 2 == 0 else 3000.0 * (1 + i % 5)
        calendar.activate(Transfer(i, 0, 1, size), now=0.0)
    calendar.flush(0.0)
    done = []
    for r in range(rounds):
        now = 10.0 * (r + 1)
        calendar.cancel(2 * r, now)  # even ids never complete mid-run
        calendar.activate(Transfer(num_flights + r, 0, 1,
                                   2500.0 * (1 + r % 3)), now=now)
        calendar.flush(now)
        done.extend(t.transfer_id for t in calendar.pop_due(now))
    done.extend(t.transfer_id for t in calendar.pop_due(1e9))
    return done, comparable_stats(calendar)


class TestSlotHandleHandoff:
    """A native ``update_slots`` agrees bit-for-bit with the test adapter."""

    def test_slot_and_dict_handoffs_agree_under_churn(self):
        """Same churn workload, both handoffs: identical completions/stats.

        The loop completes flights mid-run (freeing slots that later
        arrivals reuse), cancels others and re-prices a rotating group —
        the slot table the provider mirrors must track all of it.
        """
        scalar = run_churn(TieredDelta(), ScalarTransferCalendar)
        adapted = run_churn(SlotAdapter(TieredDelta()))
        slots = run_churn(SlotTierDelta())
        assert slots == scalar
        assert adapted == scalar

    def test_small_batches_take_the_slot_loop(self):
        """Below ``BATCH_MIN`` the slot handoff runs the per-flight loop."""
        provider = SlotTierDelta()
        calendar = TransferCalendar(provider)
        calendar.activate(Transfer(0, 0, 1, 1000.0), now=0.0)
        calendar.activate(Transfer(1, 0, 1, 2000.0), now=0.0)
        calendar.flush(0.0)
        assert calendar.stats.retimed == 2
        done = calendar.pop_due(1e9)
        # flight 1 prices at 210 B/s (2000 B -> 9.52 s), flight 0 at
        # 100 B/s (1000 B -> 10 s): 1 completes first
        assert [t.transfer_id for t in done] == [1, 0]

    def test_negative_rate_raises_before_any_application(self):
        provider = SlotTierDelta()
        provider._rate = lambda tid: -1.0
        calendar = TransferCalendar(provider)
        for i in range(6):
            calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
        with pytest.raises(ReproError, match="negative rate"):
            calendar.flush(0.0)

    def test_rate_scale_window_stays_on_the_slot_tier(self):
        """Installing, repricing under and clearing a rate scale never
        leaves the slot tier, and the scaled run matches the scalar
        oracle's completions and counters."""
        def run(calendar_cls):
            calendar = calendar_cls(SlotTierDelta())
            for i in range(6):
                calendar.activate(Transfer(i, 0, 1, 1e7), now=0.0)
            calendar.flush(0.0)
            calendar.set_rate_scale(lambda transfer: 0.5)
            calendar.reprice(1.0)
            calendar.activate(Transfer(6, 0, 1, 1e7), now=1.0)
            calendar.flush(1.0)
            calendar.set_rate_scale(None)
            calendar.reprice(2.0)
            calendar.activate(Transfer(7, 0, 1, 1e7), now=2.0)
            calendar.flush(2.0)
            done = [t.transfer_id for t in calendar.pop_due(1e9)]
            return done, calendar.stats.snapshot()

        done, stats = run(TransferCalendar)
        assert sorted(done) == list(range(8))
        assert stats["handoff_tier_slots"] == stats["flushes"] == 5
        assert stats["handoff_tier_dict"] == 0
        scalar_done, scalar_stats = run(ScalarTransferCalendar)
        assert done == scalar_done
        for key in STRATEGY_COUNTERS:
            stats.pop(key)
            scalar_stats.pop(key)
        assert stats == scalar_stats

    def test_zero_scale_stalls_a_slot_batch(self):
        """A scale of 0.0 on part of a batched slot flush stalls exactly
        those flights (no heap entry), traced like the scalar oracle."""
        def run(calendar_cls):
            sink = MemoryTraceSink()
            calendar = calendar_cls(SlotTierDelta(), trace=sink)
            calendar.set_rate_scale(
                lambda transfer: 0.0 if transfer.transfer_id % 3 == 0 else 0.5)
            for i in range(2 * TransferCalendar.BATCH_MIN):
                calendar.activate(Transfer(i, 0, 1, 1e4), now=0.0)
            calendar.flush(0.0)
            stalled = calendar.stalled_ids()
            calendar.set_rate_scale(None)
            calendar.reprice(1.0)
            done = [t.transfer_id for t in calendar.pop_due(1e9)]
            return stalled, done, sink.log()

        stalled, done, log = run(TransferCalendar)
        assert stalled == (0, 3, 6)
        assert sorted(done) == list(range(2 * TransferCalendar.BATCH_MIN))
        scalar_stalled, scalar_done, scalar_log = run(ScalarTransferCalendar)
        assert (stalled, done) == (scalar_stalled, scalar_done)
        assert_traces_equal(log, scalar_log, label_a="slots",
                            label_b="scalar")
