"""Property-based tests: the event-calendar engine is bit-exact.

The execution engine advances in-flight transfers through a lazy calendar
of predicted completions, re-timing only the transfers whose rate value
changed — fed either by the provider's own ``update_slots`` or, for a
provider that only has ``rates()`` (a shipped provider behind
:func:`~oracles.rates_only.full_query`), by re-querying the full active set
on every delta.  The two must produce **identical** ``EventRecord``
streams and finish times for any application, placement and technology,
under every provider (incremental model, the full-recompute model oracle,
calibrated emulator) — the delta path is an optimisation, never an
approximation.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.pricing import FullRecomputeProvider
from oracles.rates_only import full_query
from oracles.slot_adapter import SlotAdapter

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel, MyrinetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.topology import CrossbarTopology
from repro.simulator import ANY_SOURCE, Application, Simulator
from repro.simulator.providers import ModelRateProvider
from repro.units import KiB, MB

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# one round = an anti-deadlock matching: every task is endpoint of at most
# one message, so all sends of a round can only pair with recvs of the same
# round (tags disambiguate rounds for wildcard receives, and an eager
# message from a future round can never satisfy an earlier wildcard)
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
    "rounds": st.lists(round_strategy, min_size=1, max_size=5),
    "policy": st.sampled_from(["RRN", "RRP", "random"]),
    "seed": st.integers(0, 3),
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="calendar-prop")
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


def run_engine(app, cluster, provider, policy, seed, delta: bool):
    sim = Simulator(cluster, provider if delta else full_query(provider))
    placement = make_placement(policy, cluster, app.num_tasks, seed=seed)
    report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task


class TestCalendarEngineBitExact:
    @common_settings
    @given(spec=workload_strategy)
    def test_delta_and_full_requery_identical_model_provider(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        outcomes = {}
        for delta in (True, False):
            provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
            outcomes[delta] = run_engine(
                app, cluster, provider, spec["policy"], spec["seed"], delta
            )
        assert outcomes[True] == outcomes[False]

    @common_settings
    @given(spec=workload_strategy)
    def test_incremental_and_full_recompute_providers_identical(self, spec):
        """Across providers *and* across loop modes: all four agree."""
        cluster = custom_cluster(num_nodes=4, cores_per_node=2, technology="myrinet")
        app = build_application(spec)
        outcomes = []
        for delta in (True, False):
            for factory in (ModelRateProvider, FullRecomputeProvider):
                provider = factory(MyrinetModel(), "myrinet")
                if delta and factory is FullRecomputeProvider:
                    provider = SlotAdapter(provider)  # speaks only update()
                outcomes.append(run_engine(
                    app, cluster, provider, spec["policy"], spec["seed"], delta
                ))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    @common_settings
    @given(spec=workload_strategy)
    def test_delta_and_full_requery_identical_emulator_provider(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        outcomes = {}
        for delta in (True, False):
            topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                        technology=cluster.technology)
            provider = EmulatorRateProvider(cluster.technology, topology)
            outcomes[delta] = run_engine(
                app, cluster, provider, spec["policy"], spec["seed"], delta
            )
        assert outcomes[True] == outcomes[False]


class TestRatesOnlyProviderCompatibility:
    def test_engine_runs_on_a_rates_only_provider(self):
        """A rates-only provider runs behind the test adapter, which
        re-queries the full set on every delta."""

        class FairSplit:
            def rates(self, active):
                return {t.transfer_id: 1e8 / len(active) for t in active}

        cluster = custom_cluster(num_nodes=4, cores_per_node=1, technology="ethernet")
        app = Application(num_tasks=2)
        app.add_send(0, 1, 1 * MB)
        app.add_recv(1, 0, 1 * MB)
        sim = Simulator(cluster, SlotAdapter(FairSplit()))
        report = sim.run(app, placement="RRN")
        expected = cluster.technology.latency + (
            1 * MB + cluster.technology.mpi_envelope
        ) / 1e8
        assert report.total_time == pytest.approx(expected, rel=1e-6)
