"""Regression tests for the TransferCalendar bugfixes.

Covers the three historical defects fixed together with the interference
subsystem: the unbounded lazy-deletion heap (no compaction), the lost
pending delta when a provider raises mid-flush, and the silent starvation
of zero-rated flights in delta mode — plus the dead heap entry a reused
transfer id brought back to life, on the production calendar and on the
scalar oracle alike.
"""

from __future__ import annotations

import pytest
from oracles.scalar_calendar import ScalarTransferCalendar
from oracles.slot_adapter import SlotAdapter

from repro.core import GigabitEthernetModel
from repro.exceptions import SimulationError
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer, TransferCalendar
from repro.network.technologies import get_technology
from repro.simulator.providers import ModelRateProvider


class SteppedRateProvider:
    """Full-set provider whose rates change on every query (forces re-timing).

    The calendar re-queries it (through :class:`SlotAdapter`) on every
    flush that carries a delta and on every reprice, so :func:`churn`
    drives the re-rates through reprices.
    """

    def __init__(self):
        self.calls = 0

    def rates(self, active):
        self.calls += 1
        return {t.transfer_id: 100.0 + self.calls for t in active}


class DeltaEcho:
    """Minimal conforming delta provider: constant rate, reports the delta."""

    def __init__(self, rate=100.0):
        self.rate = rate
        self.active = set()
        self.updates = []

    def update(self, added, removed):
        self.updates.append(([t.transfer_id for t in added], list(removed)))
        for tid in removed:
            self.active.discard(tid)
        changed = {}
        for transfer in added:
            self.active.add(transfer.transfer_id)
            changed[transfer.transfer_id] = self.rate
        return changed

    def reset(self):
        self.active = set()


def churn(calendar, rounds, step):
    """Re-rate every flight ``rounds`` times: the first flush, then reprices."""
    calendar.flush(0.0)
    for round_no in range(1, rounds):
        calendar.reprice(float(round_no) * step)


class TestHeapCompaction:
    def test_long_churn_run_bounds_the_heap(self):
        """Frequent rate changes must not grow the heap without bound."""
        calendar = TransferCalendar(SlotAdapter(SteppedRateProvider()))
        num_flights = 40
        for i in range(num_flights):
            calendar.activate(Transfer(i, 0, 1, 1e9), now=0.0)
        # every round re-rates every flight (the provider's rates creep), so
        # without compaction the heap would hold ~rounds * flights entries
        rounds = 200
        churn(calendar, rounds, 1e-3)
        bound = max(TransferCalendar.COMPACT_MIN_HEAP, 2 * calendar.active_count + 1)
        assert len(calendar._heap) <= bound
        assert calendar.stats.compactions > 0
        # compacted entries count as discarded stale entries: of the
        # rounds*flights pushes, all but the live ones died as stale
        assert calendar.stats.retimed == rounds * num_flights
        assert calendar.stats.stale_entries >= calendar.stats.retimed - len(calendar._heap)

    def test_small_heaps_are_never_compacted(self):
        calendar = TransferCalendar(SlotAdapter(SteppedRateProvider()))
        calendar.activate(Transfer("a", 0, 1, 1e9), now=0.0)
        churn(calendar, 20, 1e-3)
        assert calendar.stats.compactions == 0

    def test_compaction_preserves_completion_order(self):
        calendar = TransferCalendar(SlotAdapter(SteppedRateProvider()))
        sizes = {i: 1000.0 * (i + 1) for i in range(50)}
        for i, size in sizes.items():
            calendar.activate(Transfer(i, 0, 1, size), now=0.0)
        churn(calendar, 100, 1e-6)
        assert calendar.stats.compactions > 0
        done = calendar.pop_due(1e9)
        # same rate for everyone: completion must come back ordered by size
        assert [t.transfer_id for t in done] == sorted(sizes, key=sizes.get)


class RaisingProvider:
    """Delta provider that raises on its first N update calls."""

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = 0
        self.applied = []

    def update(self, added, removed):
        self.calls += 1
        if self.calls <= self.failures:
            raise SimulationError("provider exploded mid-flush")
        self.applied.append(([t.transfer_id for t in added], list(removed)))
        return {t.transfer_id: 100.0 for t in added}


class TestFlushAtomicity:
    def test_raising_delta_provider_keeps_the_pending_delta(self):
        provider = RaisingProvider(failures=1)
        calendar = TransferCalendar(SlotAdapter(provider))
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        with pytest.raises(SimulationError):
            calendar.flush(0.0)
        # the delta was not lost: the retry hands the provider the same delta
        calendar.flush(0.0)
        assert provider.applied == [(["a"], [])]
        assert calendar.next_time() == pytest.approx(10.0)

    def test_raising_full_provider_keeps_the_pending_delta(self):
        class FullRaising:
            def __init__(self):
                self.calls = 0

            def rates(self, active):
                self.calls += 1
                if self.calls == 1:
                    raise SimulationError("boom")
                return {t.transfer_id: 100.0 for t in active}

        calendar = TransferCalendar(SlotAdapter(FullRaising()))
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        with pytest.raises(SimulationError):
            calendar.flush(0.0)
        assert "a" in calendar._pending_added  # still queued
        calendar.flush(0.0)
        assert calendar.next_time() == pytest.approx(10.0)

    @pytest.mark.parametrize("provider_factory", [
        lambda: ModelRateProvider(GigabitEthernetModel(), "ethernet"),
        lambda: EmulatorRateProvider(get_technology("ethernet"), num_hosts=4),
    ], ids=["model", "emulator"])
    def test_shipped_providers_validate_before_mutating(self, provider_factory):
        """A rejected delta leaves the provider retryable (nothing half-applied)."""
        provider = provider_factory()
        provider.update([Transfer("a", 0, 1, 1000.0)], [])
        before = dict(provider.rates([Transfer("a", 0, 1, 1000.0)]))
        with pytest.raises(SimulationError):
            # removal of "a" is valid, the duplicate add is not: the provider
            # must reject the delta without untracking "a"
            provider.update([Transfer("b", 2, 3, 1000.0),
                             Transfer("b", 2, 3, 1000.0)], ["a"])
        retry = provider.update([Transfer("b", 2, 3, 1000.0)], ["a"])
        assert set(retry) == {"b"}
        assert provider.rates([Transfer("b", 2, 3, 1000.0)])
        assert before  # sanity: the first allocation existed

    def test_departures_survive_a_raising_provider(self):
        calendar = TransferCalendar(SlotAdapter(DeltaEcho()))
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        assert calendar.pop_due(10.0)  # "a" completes, departure queued
        raising = RaisingProvider(failures=1)
        calendar.provider = SlotAdapter(raising)
        calendar.activate(Transfer("b", 0, 1, 1000.0), now=10.0)
        with pytest.raises(SimulationError):
            calendar.flush(10.0)
        calendar.flush(10.0)
        assert raising.applied == [(["b"], ["a"])]


class UnderReportingProvider:
    """Delta provider that 'forgets' to report a chosen transfer's rate.

    Models the bug scenario: the calendar zero-rates the unreported flight
    (missing_rate="zero") and, before the fix, nothing would ever re-rate it
    unless an unrelated delta dirtied its component.  The provider answers
    the retry cycle only once ``allow`` is set, so the test can observe both
    the immediate retry and the next-flush recovery.
    """

    def __init__(self, silent_tid):
        self.silent_tid = silent_tid
        self.allow = False

    def update(self, added, removed):
        changed = {}
        for transfer in added:
            if transfer.transfer_id == self.silent_tid and not self.allow:
                continue
            rate = 50.0 if transfer.transfer_id == self.silent_tid else 100.0
            changed[transfer.transfer_id] = rate
        return changed

    def reset(self):
        pass


class TestZeroRateStall:
    def test_stalled_flight_is_rerated_on_later_flushes(self):
        provider = UnderReportingProvider(silent_tid="slow")
        calendar = TransferCalendar(SlotAdapter(provider), missing_rate="zero")
        calendar.activate(Transfer("slow", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        # the flush retried the zero-rated flight once already (remove+add
        # cycle); the provider still refused, so it stays tracked as stalled
        assert calendar.stalled_ids() == ("slow",)
        assert calendar.stats.stall_retries == 1
        assert calendar.next_time() is None
        # once the provider can answer, the very next flush re-rates it —
        # even though no arrival or departure is pending
        provider.allow = True
        calendar.flush(1.0)
        assert calendar.stalled_ids() == ()
        assert calendar.stats.stall_retries == 2
        assert calendar.next_time() == pytest.approx(1.0 + 1000.0 / 50.0)

    def test_engine_stall_diagnostic_names_the_transfer(self):
        """With no event able to re-rate the flight, fail fast and name it."""
        from repro.cluster import custom_cluster
        from repro.simulator import Application, Simulator
        from repro.units import MB

        class AlwaysSilent:
            def update(self, added, removed):
                return {}

            def reset(self):
                pass

        cluster = custom_cluster(num_nodes=2, cores_per_node=1,
                                 technology="ethernet")
        app = Application(num_tasks=2)
        app.add_send(0, 1, 1 * MB, tag=1)
        app.add_recv(1, 0, 1 * MB, tag=1)
        sim = Simulator(cluster, SlotAdapter(AlwaysSilent()))
        with pytest.raises(SimulationError) as excinfo:
            sim.run(app, placement="RRN")
        message = str(excinfo.value)
        assert "zero rate" in message
        assert "stalled" in message


class TestCancel:
    def test_cancel_before_flush_never_reaches_the_provider(self):
        provider = DeltaEcho()
        calendar = TransferCalendar(SlotAdapter(provider))
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        calendar.cancel("a", 0.0)
        calendar.flush(0.0)
        assert provider.updates == []  # nothing pending: no update issued
        assert calendar.active_count == 0
        assert calendar.stats.cancelled == 1

    def test_cancel_after_flush_is_a_departure(self):
        provider = DeltaEcho()
        calendar = TransferCalendar(SlotAdapter(provider))
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        calendar.cancel("a", 1.0)
        calendar.activate(Transfer("b", 0, 1, 1000.0), now=1.0)
        calendar.flush(1.0)
        assert provider.updates[-1] == (["b"], ["a"])
        assert calendar.next_time() == pytest.approx(11.0)
        assert calendar.pop_due(11.0)[0].transfer_id == "b"

    def test_cancel_unknown_transfer_fails(self):
        calendar = TransferCalendar(SlotAdapter(DeltaEcho()))
        with pytest.raises(SimulationError):
            calendar.cancel("ghost", 0.0)


class TestReusedTransferId:
    @pytest.mark.parametrize("calendar_cls", [TransferCalendar, ScalarTransferCalendar],
                             ids=["array", "scalar"])
    def test_reused_id_does_not_revive_the_dead_entry(self, calendar_cls):
        """A cancelled transfer's heap entry stays dead when its id returns.

        Epochs used to restart at 0 on every activation, so the first
        tenant's entry (epoch 1, due at t=1) matched the second tenant's
        first re-timing: ``next_time()`` reported 1.0 and ``pop_due(1.0)``
        re-timed the new transfer for nothing.
        """
        calendar = calendar_cls(SlotAdapter(DeltaEcho(rate=100.0)))
        calendar.activate(Transfer("x", 0, 1, 100.0), now=0.0)
        calendar.flush(0.0)
        calendar.cancel("x", 0.5)
        calendar.flush(0.5)
        calendar.activate(Transfer("x", 0, 1, 1000.0), now=0.5)
        calendar.flush(0.5)
        assert calendar.next_time() == pytest.approx(10.5)
        assert calendar.stats.stale_entries == 1
        assert calendar.pop_due(1.0) == []
        assert calendar.stats.retimed == 2
        done = calendar.pop_due(10.5)
        assert [(t.transfer_id, t.size) for t in done] == [("x", 1000.0)]
