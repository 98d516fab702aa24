"""Delta-handoff equivalence for the *real* rate providers.

Both :class:`~repro.simulator.providers.ModelRateProvider` (analytical
contention model over the incremental penalty engine) and
:class:`~repro.network.allocator.EmulatorRateProvider` (warm-started
water-filling allocator) speak both entry points of the delta contract —

* ``update(added, removed) -> dict``            (dict view for direct
  callers)
* ``update_slots(added, added_slots, removed)`` (the calendar's handoff)

— and which one prices a run must never change simulated results:
identical per-rank event streams, finish times, traces and stats (modulo
the strategy counters).  The "dict" tier hides ``update_slots`` behind
:class:`DictOnly` and serves the dict view through the test adapter
(:class:`~oracles.slot_adapter.SlotAdapter`).  Traced runs and rate-scale
windows stay on the slot tier.

Degenerate cases ride along: slot reuse after cancels, transfer-id reuse
(a reused slot starts at epoch 0, which no heap entry carries), and zero-rate
stalls whose retry cycle must re-register slot handles.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
from oracles.rates_only import full_query
from oracles.scalar_calendar import ScalarTransferCalendar, scalar_calendar
from oracles.slot_adapter import SlotAdapter

from repro._numpy import np
from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer, TransferCalendar
from repro.network.topology import CrossbarTopology
from repro.simulator import (
    ANY_SOURCE,
    Application,
    BackgroundTrafficInjector,
    EngineConfig,
    LinkDegradationInjector,
    Simulator,
)
from repro.simulator.providers import ModelRateProvider
from repro.trace import MemoryTraceSink, assert_traces_equal
from repro.units import KiB, MB

common_settings = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: strategy counters: which handoff served a flush (and whether heap
#: entries bulk-merged) names the *strategy*, not the work — everything
#: else in the stats must be identical across handoffs
STRATEGY_COUNTERS = ("bulk_merges", "bulk_entries", "handoff_tier_slots",
                     "handoff_tier_dict")

TIERS = ("slots", "dict")


# ------------------------------------------------------------ tier forcing
class DictOnly:
    """Expose only the dict entry point of a slot-capable provider.

    Behind :class:`SlotAdapter` every flush then goes through the dict view
    and the adapter's slot alignment while the inner provider prices
    identically.
    """

    def __init__(self, inner):
        self.inner = inner

    def update(self, added, removed):
        return self.inner.update(added, removed)

    def reset(self):
        self.inner.reset()


def force_tier(tier, provider):
    return SlotAdapter(DictOnly(provider)) if tier == "dict" else provider


def make_provider(kind, cluster):
    if kind == "model":
        return ModelRateProvider(GigabitEthernetModel(), "ethernet")
    topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                technology=cluster.technology)
    return EmulatorRateProvider(cluster.technology, topology)


def strip_strategy(stats_dict):
    for key in STRATEGY_COUNTERS:
        stats_dict.pop(key, None)
    return stats_dict


# --------------------------------------------------------- engine workloads
round_strategy = st.fixed_dictionaries({
    "pairs": st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans(),
                  st.booleans()),
        min_size=1, max_size=3,
    ),
    "computes": st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 40)), max_size=3
    ),
    "barrier": st.booleans(),
})
workload_strategy = st.fixed_dictionaries({
    "num_tasks": st.integers(2, 6),
    "rounds": st.lists(round_strategy, min_size=1, max_size=3),
    "policy": st.sampled_from(["RRN", "RRP", "random"]),
    "seed": st.integers(0, 3),
    "provider": st.sampled_from(["model", "emulator"]),
    "loaded": st.booleans(),
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="provider-tiers-prop")
    for round_no, round_spec in enumerate(spec["rounds"]):
        tag = round_no + 1
        busy = set()
        for rank, ticks in round_spec["computes"]:
            app.add_compute(rank % num_tasks, duration=ticks * 0.0125)
        for a, b, large, wildcard in round_spec["pairs"]:
            src, dst = a % num_tasks, b % num_tasks
            if src == dst:
                dst = (dst + 1) % num_tasks
            if src in busy or dst in busy:
                continue
            busy.update((src, dst))
            size = 2 * MB if large else 4 * KiB
            app.add_send(src, dst, size, tag=tag)
            app.add_recv(dst, ANY_SOURCE if wildcard else src, size, tag=tag)
        if round_spec["barrier"]:
            app.add_barrier()
    return app


def run_engine(spec, app, cluster, tier, scalar=False, delta=True, trace=None,
               degradation=None):
    """One engine run; ``scalar=True`` runs on the scalar oracle calendar
    and ``delta=False`` hides the provider's delta API.  ``degradation``
    adds a ``LinkDegradationInjector(factor=0.5)`` built from
    ``(start, until, hosts)``."""
    injectors = ()
    if spec["loaded"]:
        injectors = (BackgroundTrafficInjector(
            rate=200.0, size=1 * MB, seed=spec["seed"], max_flows=6),)
    if degradation is not None:
        start, until, hosts = degradation
        injectors += (LinkDegradationInjector(factor=0.5, start=start,
                                              until=until, hosts=hosts),)
    provider = make_provider(spec["provider"], cluster)
    sim = Simulator(
        cluster,
        force_tier(tier, provider) if delta else full_query(provider),
        config=EngineConfig(injectors=injectors),
        trace=trace,
    )
    placement = make_placement(spec["policy"], cluster, app.num_tasks,
                               seed=spec["seed"])
    with scalar_calendar() if scalar else nullcontext():
        report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task, sim.last_engine_stats


def comparable(outcome):
    records, finish, stats = outcome
    return records, finish, strip_strategy(stats.as_dict())


class TestEngineTierEquivalence:
    @common_settings
    @given(spec=workload_strategy)
    def test_every_tier_matches_the_scalar_dict_run(self, spec):
        """Slot and dict handoffs both reproduce the scalar run —
        per-rank records, finish times and work counters — for both real
        providers, clean and under background-traffic load."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        scalar = run_engine(spec, app, cluster, "slots", scalar=True)
        for tier in TIERS:
            outcome = run_engine(spec, app, cluster, tier)
            assert comparable(outcome) == comparable(scalar), tier
            if tier == "slots":
                # every flush is handed to update_slots; the dict
                # counter stays 0
                stats = outcome[2].as_dict()
                assert stats["handoff_tier_dict"] == 0
                if stats["flushes"]:
                    assert stats["handoff_tier_slots"] > 0
        # full re-query agrees on the simulated results (rate_updates
        # legitimately differ: every rate comes back on every flush)
        full = run_engine(spec, app, cluster, "slots", delta=False)
        assert full[:2] == scalar[:2]

    @common_settings
    @given(spec=workload_strategy)
    def test_traced_runs_stay_on_the_slot_tier_and_agree(self, spec):
        """A trace sink leaves the slot-capable provider on the slot tier,
        and its trace is record-for-record the trace of a dict-only scalar
        run."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        scalar_sink = MemoryTraceSink()
        scalar = run_engine(spec, app, cluster, "dict", scalar=True,
                            trace=scalar_sink)
        slot_sink = MemoryTraceSink()
        slots = run_engine(spec, app, cluster, "slots", trace=slot_sink)
        assert slots[:2] == scalar[:2]
        stats = slots[2].as_dict()
        assert stats["handoff_tier_dict"] == 0
        assert stats["handoff_tier_slots"] == stats["flushes"]
        assert_traces_equal(slot_sink.log(), scalar_sink.log(),
                            label_a="slot-capable", label_b="dict-only")


degradation_strategy = st.tuples(
    st.sampled_from([0.0, 0.004, 0.02]),
    st.sampled_from([0.01, 0.1, None]),
    st.sampled_from([None, (0, 1)]),
).map(lambda t: (t[0], None if t[1] is None else t[0] + t[1], t[2]))


class TestScaledSlotBatches:
    @common_settings
    @given(spec=workload_strategy, degradation=degradation_strategy)
    def test_degraded_loaded_runs_match_the_scalar_oracle(self, spec,
                                                          degradation):
        """Background traffic plus a link-degradation window: the slot
        tier applies the rate scale in slot space and reproduces the scalar
        oracle's records, finish times, trace and work counters."""
        spec = dict(spec, loaded=True)
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        scalar_sink = MemoryTraceSink()
        scalar = run_engine(spec, app, cluster, "slots", scalar=True,
                            trace=scalar_sink, degradation=degradation)
        slot_sink = MemoryTraceSink()
        slots = run_engine(spec, app, cluster, "slots", trace=slot_sink,
                           degradation=degradation)
        assert comparable(slots) == comparable(scalar)
        assert slots[2].as_dict()["handoff_tier_dict"] == 0
        assert_traces_equal(slot_sink.log(), scalar_sink.log(),
                            label_a="slots", label_b="scalar")


# ------------------------------------------------- calendar-level degenerates
def churn_cluster():
    return custom_cluster(num_nodes=4, cores_per_node=1,
                          technology="ethernet")


def tier_calendar(kind, tier, calendar_cls=TransferCalendar, wrap=None):
    provider = make_provider(kind, churn_cluster())
    if wrap is not None:
        provider = wrap(provider)
    return calendar_cls(force_tier(tier, provider))


def tier_matrix(kind, run, wrap=None):
    """Run ``run(calendar)`` on both handoffs of the production calendar
    + the scalar oracle calendar and assert the outcomes identical."""
    scalar = run(tier_calendar(kind, "dict", ScalarTransferCalendar, wrap=wrap))
    for tier in TIERS:
        outcome = run(tier_calendar(kind, tier, wrap=wrap))
        assert outcome == scalar, (kind, tier)
    return scalar


def comparable_calendar(calendar):
    return strip_strategy(calendar.stats.freeze().as_dict())


PROVIDER_KINDS = ("model", "emulator")


class TestCalendarTierDegenerates:
    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    def test_slot_reuse_after_cancel(self, kind):
        """Churn with mid-run completions and cancels: freed slots are
        LIFO-reused by later arrivals while the provider's slot mirror (and
        the allocator's incidence buckets) keep up."""
        def run(calendar):
            num_flights, rounds = 18, 9
            for i in range(num_flights):
                size = 1e11 if i % 2 == 0 else 1e6 * (1 + i % 5)
                calendar.activate(Transfer(i, i % 3, 3, size), now=0.0)
            calendar.flush(0.0)
            done = []
            for r in range(rounds):
                now = 10.0 * (r + 1)
                calendar.cancel(2 * r, now)  # even ids never complete
                calendar.activate(
                    Transfer(num_flights + r, r % 3, 3, 1e6 * (1 + r % 3)),
                    now=now)
                calendar.flush(now)
                done.extend(t.transfer_id for t in calendar.pop_due(now))
            for i in range(rounds, num_flights // 2):
                calendar.cancel(2 * i, 100.0)
            calendar.flush(100.0)
            done.extend(t.transfer_id for t in calendar.pop_due(1e7))
            return done, comparable_calendar(calendar)

        done, _ = tier_matrix(kind, run)
        assert done  # the small flights really did complete mid-run

    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    def test_transfer_id_reuse_resets_the_slot_epoch(self, kind):
        """Re-activating a completed transfer id restarts its epoch at
        zero in a (possibly reused) slot; stale heap entries of the first
        incarnation must not fire for the second on any tier."""
        def run(calendar):
            for i in range(6):
                calendar.activate(Transfer(i, i % 3, 3, 2e6 * (1 + i % 2)),
                                  now=0.0)
            calendar.flush(0.0)
            # rate churn before completion: bump epochs so stale entries
            # exist in the heap when the ids come back
            calendar.cancel(5, 0.001)
            calendar.flush(0.001)
            done = [t.transfer_id for t in calendar.pop_due(1e5)]
            # same ids, second incarnation (slot store hands back the
            # freed slots, epochs restart at zero)
            for i in range(6):
                calendar.activate(Transfer(i, i % 3, 3, 1e6 * (1 + i % 3)),
                                  now=1e5)
            calendar.flush(1e5)
            done.extend(t.transfer_id for t in calendar.pop_due(1e9))
            return done, comparable_calendar(calendar)

        tier_matrix(kind, run)


class StallFirstFlush:
    """Zero every rate of the first delta.

    The inner provider tracks the flow set normally; only the first
    returned pricing is forced to zero, so every flight stalls and the
    calendar's retry cycle (departure + re-arrival of the whole stalled
    set) must run — through the slot handoff when the provider speaks it,
    where it has to re-register each flight's slot handle.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def update(self, added, removed):
        tids, _, rates = self.update_slots(added, [-1] * len(added), removed)
        return dict(zip(tids, rates.tolist()))

    def update_slots(self, added, added_slots, removed):
        tids, slots, rates = self.inner.update_slots(added, added_slots,
                                                     removed)
        self.calls += 1
        if self.calls == 1:
            rates = np.zeros_like(rates)
        return tids, slots, rates

    def reset(self):
        self.inner.reset()


class TestZeroRateStallRetry:
    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    def test_stall_retry_rides_the_slot_path(self, kind):
        """A first flush pricing everything at zero stalls the whole set;
        the retry on the next flush re-prices through the same tier the
        run speaks — and on the slot tier the re-add re-seeds every
        handle, so later slot flushes still find the mirror intact."""
        def run(calendar):
            for i in range(6):
                calendar.activate(Transfer(i, i % 3, 3, 1e6 * (1 + i)),
                                  now=0.0)
            # call 1 zeroes everything; the same flush then retries the
            # stalled set (call 2, real rates) through its handoff tier
            calendar.flush(0.0)
            assert calendar.stats.stall_retries == 6
            assert calendar.next_time() is not None
            # a later arrival exercises the post-retry handoff
            calendar.activate(Transfer(99, 0, 3, 5e5), now=1.0)
            calendar.flush(1.0)
            done = [t.transfer_id for t in calendar.pop_due(1e9)]
            return done, comparable_calendar(calendar)

        tier_matrix(kind, run, wrap=StallFirstFlush)


class TestRateScaleStaysOnSlots:
    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    def test_scale_window_stays_on_the_slot_tier(self, kind):
        """Installing, repricing under and clearing a rate scale keeps
        every flush on the slot tier, and the scaled run matches the
        dict-adapter and scalar oracle runs."""
        def run(calendar):
            for i in range(6):
                calendar.activate(Transfer(i, i % 3, 3, 1e10), now=0.0)
            calendar.flush(0.0)
            calendar.set_rate_scale(lambda transfer: 0.5)
            calendar.reprice(1.0)
            calendar.activate(Transfer(6, 0, 3, 1e10), now=1.0)
            calendar.flush(1.0)
            calendar.set_rate_scale(None)
            calendar.reprice(2.0)
            calendar.activate(Transfer(7, 1, 3, 1e10), now=2.0)
            calendar.flush(2.0)
            assert calendar.active_count == 8
            done = [t.transfer_id for t in calendar.pop_due(1e9)]
            return done, comparable_calendar(calendar)

        tier_matrix(kind, run)
        calendar = tier_calendar(kind, "slots")
        run(calendar)
        assert calendar.stats.handoff_tier_slots == calendar.stats.flushes == 5
        assert calendar.stats.handoff_tier_dict == 0
