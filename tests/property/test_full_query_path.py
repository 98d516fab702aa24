"""Property tests: full re-queries through the test adapter agree with deltas.

A rates-only provider reaches the calendar through
:class:`~oracles.slot_adapter.SlotAdapter`, which re-queries the whole
active set on every delta, stall retry and reprice and hands back every
rate; the calendar re-times only the rates whose value changed.  These
tests price both shipped providers that way
(:func:`~oracles.rates_only.full_query`), through the execution engine and
through the standalone fluid simulator.

Against the delta-fed run of the same provider, records, finish times and
every calendar counter must agree except ``rate_updates``, which counts the
rates handed back: the whole active set per flush instead of the re-priced
transfers.  The full-query runs also match the scalar oracle calendar
(:mod:`oracles.scalar_calendar`) on the same workload, on every counter
except the strategy counters.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
from oracles.rates_only import full_query
from oracles.scalar_calendar import scalar_calendar
from test_calendar_engine import build_application, workload_strategy

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.topology import CrossbarTopology
from repro.simulator import Simulator
from repro.simulator.providers import ModelRateProvider

common_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

STRATEGY_COUNTERS = ("handoff_tier_slots", "handoff_tier_dict",
                     "bulk_merges", "bulk_entries")


def make_provider(kind, cluster):
    if kind == "model":
        return ModelRateProvider(GigabitEthernetModel(), "ethernet")
    topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                technology=cluster.technology)
    return EmulatorRateProvider(cluster.technology, topology)


def without(stats, keys):
    flat = stats.as_dict()
    for key in keys:
        flat.pop(key)
    return flat


def run_engine(spec, app, cluster, provider):
    sim = Simulator(cluster, provider)
    placement = make_placement(spec["policy"], cluster, app.num_tasks,
                               seed=spec["seed"])
    report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task, sim.last_engine_stats


def run_fluid(transfers, provider):
    sim = FluidTransferSimulator(provider)
    return sim.run(transfers), sim.last_calendar_stats


class TestFullQueryPath:
    @common_settings
    @given(spec=workload_strategy, kind=st.sampled_from(["model", "emulator"]))
    def test_engine_full_query_matches_delta(self, spec, kind):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        delta = run_engine(spec, app, cluster, make_provider(kind, cluster))
        full = run_engine(spec, app, cluster,
                          full_query(make_provider(kind, cluster)))
        assert full[:2] == delta[:2]
        assert without(full[2], ("rate_updates",)) == \
            without(delta[2], ("rate_updates",))
        assert full[2]["handoff_tier_slots"] == full[2]["flushes"]
        with scalar_calendar():
            oracle = run_engine(spec, app, cluster,
                                full_query(make_provider(kind, cluster)))
        assert oracle[:2] == full[:2]
        assert without(oracle[2], STRATEGY_COUNTERS) == \
            without(full[2], STRATEGY_COUNTERS)

    @common_settings
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40)),
            min_size=1, max_size=12,
        ),
        kind=st.sampled_from(["model", "emulator"]),
    )
    def test_fluid_full_query_matches_delta(self, entries, kind):
        transfers = [
            Transfer(i, src, dst, 100_000.0 * ticks, start_time=0.001 * i)
            for i, (src, dst, ticks) in enumerate(entries)
        ]
        cluster = custom_cluster(num_nodes=4, cores_per_node=1,
                                 technology="ethernet")
        delta = run_fluid(transfers, make_provider(kind, cluster))
        full = run_fluid(transfers, full_query(make_provider(kind, cluster)))
        assert full[0] == delta[0]
        assert without(full[1], ("rate_updates",)) == \
            without(delta[1], ("rate_updates",))
        with scalar_calendar():
            oracle = run_fluid(transfers, full_query(make_provider(kind, cluster)))
        assert oracle[0] == full[0]
        assert without(oracle[1], STRATEGY_COUNTERS) == \
            without(full[1], STRATEGY_COUNTERS)
