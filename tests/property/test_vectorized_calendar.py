"""Application-level bit-exactness of the structure-of-arrays calendar.

The production :class:`~repro.network.fluid.TransferCalendar` batches rate
application, integration and re-timing through numpy and bulk-merges heap
entries; this suite closes the acceptance loop: simulating a random MPI
application with it must produce **identical** per-rank event streams,
finish times, calendar stats and — record for record — identical traces as
the scalar oracle calendar (:mod:`oracles.scalar_calendar`), with the
provider answering natively and re-queried in full behind
:func:`~oracles.rates_only.full_query`, for the contention-model and
emulator provider families, on a clean fabric and under background-traffic
load.
"""

from __future__ import annotations

from contextlib import nullcontext

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
from oracles.rates_only import full_query
from oracles.scalar_calendar import scalar_calendar

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.topology import CrossbarTopology
from repro.simulator import (
    ANY_SOURCE,
    Application,
    BackgroundTrafficInjector,
    EngineConfig,
    Simulator,
)
from repro.simulator.providers import ModelRateProvider
from repro.trace import MemoryTraceSink, assert_traces_equal
from repro.units import KiB, MB

common_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

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
    "rounds": st.lists(round_strategy, min_size=1, max_size=4),
    "policy": st.sampled_from(["RRN", "RRP", "random"]),
    "seed": st.integers(0, 3),
    "provider": st.sampled_from(["model", "emulator"]),
    "loaded": st.booleans(),
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="vectorized-calendar-prop")
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


def make_provider(kind, cluster):
    if kind == "model":
        return ModelRateProvider(GigabitEthernetModel(), "ethernet")
    topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                technology=cluster.technology)
    return EmulatorRateProvider(cluster.technology, topology)


def run_engine(spec, app, cluster, delta, scalar, trace=None):
    """One engine run; ``delta=False`` hides the provider's delta API and
    ``scalar=True`` runs on the scalar oracle calendar."""
    injectors = ()
    if spec["loaded"]:
        injectors = (BackgroundTrafficInjector(
            rate=200.0, size=1 * MB, seed=spec["seed"], max_flows=6),)
    provider = make_provider(spec["provider"], cluster)
    sim = Simulator(
        cluster,
        provider if delta else full_query(provider),
        config=EngineConfig(injectors=injectors),
        trace=trace,
    )
    placement = make_placement(spec["policy"], cluster, app.num_tasks,
                               seed=spec["seed"])
    with scalar_calendar() if scalar else nullcontext():
        report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task, sim.last_engine_stats


#: strategy counters: the scalar oracle never bulk-merges and speaks only
#: the dict contract, while the production calendar takes a provider's
#: native slot handoff, so these legitimately differ between the calendars
#: — every *work* counter (flushes, retimed, completions, compactions,
#: stale entries, ...) must not
STRATEGY_COUNTERS = ("bulk_merges", "bulk_entries", "handoff_tier_slots",
                     "handoff_tier_dict")


def comparable(outcome):
    records, finish, stats = outcome
    flat = stats.as_dict()
    for key in STRATEGY_COUNTERS:
        flat.pop(key, None)
    return records, finish, flat


class TestVectorizedCalendarBitExact:
    @common_settings
    @given(spec=workload_strategy)
    def test_results_and_stats_identical(self, spec):
        """Array and scalar calendars agree on records, finish times and
        stats, fed by deltas and by full re-queries."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        outcomes = []
        for delta in (True, False):
            for scalar in (False, True):
                outcomes.append(
                    run_engine(spec, app, cluster, delta, scalar)
                )
        # scalar vs array within each loop mode (stats included: the array
        # bookkeeping does the same number of flushes/retimes/completions);
        # across loop modes only the simulated results must agree
        assert comparable(outcomes[0]) == comparable(outcomes[1])
        assert comparable(outcomes[2]) == comparable(outcomes[3])
        assert outcomes[0][:2] == outcomes[2][:2]

    @common_settings
    @given(spec=workload_strategy)
    def test_traces_identical_record_for_record(self, spec):
        """The array calendar's trace — stall/retime interleaving included —
        is record-for-record the scalar calendar's trace."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        scalar_sink = MemoryTraceSink()
        scalar = run_engine(spec, app, cluster, True, True, trace=scalar_sink)
        array_sink = MemoryTraceSink()
        arrays = run_engine(spec, app, cluster, True, False, trace=array_sink)
        assert arrays[:2] == scalar[:2]
        assert_traces_equal(array_sink.log(), scalar_sink.log(),
                            label_a="array", label_b="scalar")

    @common_settings
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40)),
            min_size=1, max_size=12,
        ),
        provider=st.sampled_from(["model", "emulator"]),
    )
    def test_fluid_simulator_vectorized_scalar_identical(self, entries, provider):
        """The standalone fluid loop: results and calendar stats agree."""
        transfers = [
            Transfer(i, src, dst, 100_000.0 * ticks, start_time=0.001 * i)
            for i, (src, dst, ticks) in enumerate(entries)
        ]
        cluster = custom_cluster(num_nodes=4, cores_per_node=1,
                                 technology="ethernet")
        scalar_sim = FluidTransferSimulator(make_provider(provider, cluster))
        with scalar_calendar():
            scalar = scalar_sim.run(transfers)
        array_sim = FluidTransferSimulator(make_provider(provider, cluster))
        arrays = array_sim.run(transfers)
        assert arrays == scalar
        scalar_stats = scalar_sim.last_calendar_stats.as_dict()
        array_stats = array_sim.last_calendar_stats.as_dict()
        for key in STRATEGY_COUNTERS:
            scalar_stats.pop(key, None)
            array_stats.pop(key, None)
        assert array_stats == scalar_stats
