"""Application-level bit-exactness of the vectorized pricing core.

The unit-level suites pin ``penalties_batch`` and the array water-filling;
this one closes the acceptance loop end to end: simulating a random MPI
application with the production providers must produce **identical**
per-rank event streams and finish times as the scalar oracle providers
(:mod:`oracles.pricing`, :mod:`oracles.allocator`) — for the
contention-model side and the calibrated emulator side, fed by deltas and
by full re-queries (:func:`~oracles.rates_only.full_query`), on a clean
crossbar and on an oversubscribed fat tree whose fabric links bind.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
from oracles.allocator import ScalarEmulatorProvider
from oracles.pricing import ScalarPricingProvider
from oracles.rates_only import full_query

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel, MyrinetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.topology import CrossbarTopology, FatTreeTopology
from repro.simulator import ANY_SOURCE, Application, Simulator
from repro.simulator.providers import ModelRateProvider
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
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="vectorized-prop")
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


class TestVectorizedEngineBitExact:
    @common_settings
    @given(spec=workload_strategy)
    def test_model_provider_vectorized_scalar_identical(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        outcomes = []
        for delta in (True, False):
            for factory in (ModelRateProvider, ScalarPricingProvider):
                provider = factory(GigabitEthernetModel(), "ethernet")
                outcomes.append(run_engine(
                    app, cluster, provider, spec["policy"], spec["seed"], delta
                ))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    @common_settings
    @given(spec=workload_strategy)
    def test_myrinet_model_provider_vectorized_scalar_identical(self, spec):
        cluster = custom_cluster(num_nodes=4, cores_per_node=2, technology="myrinet")
        app = build_application(spec)
        outcomes = []
        for factory in (ModelRateProvider, ScalarPricingProvider):
            provider = factory(MyrinetModel(), "myrinet")
            outcomes.append(run_engine(
                app, cluster, provider, spec["policy"], spec["seed"], True
            ))
        assert outcomes[0] == outcomes[1]

    @common_settings
    @given(spec=workload_strategy)
    def test_emulator_provider_vectorized_scalar_identical(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        outcomes = []
        for delta in (True, False):
            for factory in (EmulatorRateProvider, ScalarEmulatorProvider):
                topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                            technology=cluster.technology)
                provider = factory(cluster.technology, topology)
                outcomes.append(run_engine(
                    app, cluster, provider, spec["policy"], spec["seed"], delta
                ))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    @common_settings
    @given(spec=workload_strategy)
    def test_emulator_on_loaded_fabric_vectorized_scalar_identical(self, spec):
        """Oversubscribed fat tree: shared uplinks bind, exercising the
        fabric-resource columns of the incidence arrays."""
        cluster = custom_cluster(num_nodes=6, cores_per_node=1, technology="myrinet")
        app = build_application(spec)
        outcomes = []
        for factory in (EmulatorRateProvider, ScalarEmulatorProvider):
            topology = FatTreeTopology(
                num_hosts=cluster.num_nodes, technology=cluster.technology,
                hosts_per_edge=3, uplinks_per_edge=1,
            )
            provider = factory(cluster.technology, topology)
            outcomes.append(run_engine(
                app, cluster, provider, spec["policy"], spec["seed"], True
            ))
        assert outcomes[0] == outcomes[1]
