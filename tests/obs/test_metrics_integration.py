"""Property-based tests: metering never perturbs the simulation.

The registry's acceptance bar mirrors the trace pipeline's: attaching a
:class:`~repro.obs.MetricsRegistry` — with or without periodic
``metrics.sample`` emission into a trace — must produce **bit-for-bit** the
results of an unmetered run, over random applications, placements and both
provider families.  Metrics are observability, never physics.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel
from repro.exceptions import ReproError
from repro.network.allocator import EmulatorRateProvider
from repro.network.topology import CrossbarTopology
from repro.obs import MetricsRegistry
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
    "rounds": st.lists(round_strategy, min_size=1, max_size=3),
    "policy": st.sampled_from(["RRN", "RRP", "random"]),
    "seed": st.integers(0, 3),
    "provider": st.sampled_from(["model", "emulator"]),
    "loaded": st.booleans(),
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="metrics-prop")
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


def run_engine(spec, app, cluster, trace=None, metrics=None, sample_every=256):
    injectors = ()
    if spec["loaded"]:
        injectors = (BackgroundTrafficInjector(
            rate=200.0, size=1 * MB, seed=spec["seed"], max_flows=6),)
    config = EngineConfig(injectors=injectors, metrics=metrics,
                          metrics_sample_every=sample_every)
    sim = Simulator(cluster, make_provider(spec["provider"], cluster),
                    config=config, trace=trace)
    placement = make_placement(spec["policy"], cluster, app.num_tasks,
                               seed=spec["seed"])
    report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task, sim.last_engine_stats


class TestMetricsBitExact:
    @common_settings
    @given(spec=workload_strategy)
    def test_metering_is_bit_exact_in_the_engine(self, spec):
        """A run with a registry attached (no trace) equals an unmetered run
        — for the model and the emulator provider, clean and loaded."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        plain = run_engine(spec, app, cluster)
        registry = MetricsRegistry()
        metered = run_engine(spec, app, cluster, metrics=registry)
        assert metered == plain
        # the registry actually observed the run it did not perturb
        snap = registry.snapshot()
        assert snap["engine.steps"] == plain[2]["steps"]
        assert snap["calendar.flush_s.count"] > 0
        if spec["provider"] == "model":
            assert any(key.startswith("pricing.") for key in snap)
        else:
            assert any(key.startswith("emulator.") for key in snap)
            assert "waterfill.solve_s.count" in snap

    @common_settings
    @given(spec=workload_strategy)
    def test_samples_ride_the_trace_and_filter_away(self, spec):
        """A metered+traced run's records, minus the ``metrics.sample``
        stream, are exactly an unmetered traced run's records."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        unmetered = MemoryTraceSink()
        run_engine(spec, app, cluster, trace=unmetered)
        metered = MemoryTraceSink()
        run_engine(spec, app, cluster, trace=metered,
                   metrics=MetricsRegistry(), sample_every=1)
        samples = [r for r in metered.records if r.kind == "metrics.sample"]
        assert samples  # every engine step sampled
        assert all(r.data.get("engine.steps", 0) >= 1 for r in samples)
        simulation = [r for r in metered.records if r.kind != "metrics.sample"]
        assert_traces_equal(simulation, unmetered.records,
                            label_a="metered", label_b="unmetered")


class TestDrainTimer:
    """Both engine drains — the batched due events and the ready queue —
    have their own phase timers."""

    SPEC = {"num_tasks": 4, "provider": "model", "loaded": False,
            "policy": "RRN", "seed": 0,
            "rounds": [{"pairs": [(0, 1, True, False), (2, 3, True, False)],
                        "computes": [(0, 8), (1, 8), (2, 8), (3, 8)],
                        "barrier": True}] * 3}

    def cluster(self):
        return custom_cluster(num_nodes=4, cores_per_node=1,
                              technology="ethernet")

    def test_due_event_drain_is_timed_and_bit_exact(self):
        """``timeline.drain_s`` observes the drain sweep without perturbing
        the run (the unmetered engine carries ``None``, not a dead timer)."""
        cluster = self.cluster()
        app = build_application(self.SPEC)
        plain = run_engine(self.SPEC, app, cluster)
        registry = MetricsRegistry()
        metered = run_engine(self.SPEC, app, cluster, metrics=registry)
        assert metered == plain
        snap = registry.snapshot()
        assert snap["timeline.drain_s.count"] > 0
        assert snap["timeline.drain_s.total"] >= 0.0

    def test_drain_timer_honours_sample_every(self):
        """A 1-in-N registry times every Nth sweep — still bit-exact."""
        cluster = self.cluster()
        app = build_application(self.SPEC)
        plain = run_engine(self.SPEC, app, cluster)
        dense = MetricsRegistry()
        sparse = MetricsRegistry(timer_sample_every=7)
        assert run_engine(self.SPEC, app, cluster, metrics=dense) == plain
        assert run_engine(self.SPEC, app, cluster, metrics=sparse) == plain
        dense_count = dense.snapshot()["timeline.drain_s.count"]
        sparse_count = sparse.snapshot()["timeline.drain_s.count"]
        assert 0 < sparse_count < dense_count

    def test_ready_queue_drain_is_timed_and_bit_exact(self):
        """``engine.advance_s`` times every main-loop drain of the ready
        queue without perturbing the run, and honours ``sample_every``."""
        cluster = self.cluster()
        app = build_application(self.SPEC)
        plain = run_engine(self.SPEC, app, cluster)
        dense = MetricsRegistry()
        sparse = MetricsRegistry(timer_sample_every=7)
        assert run_engine(self.SPEC, app, cluster, metrics=dense) == plain
        assert run_engine(self.SPEC, app, cluster, metrics=sparse) == plain
        iterations = plain[2]["iterations"]
        assert dense.snapshot()["engine.advance_s.count"] == iterations > 0
        assert dense.snapshot()["engine.advance_s.total"] >= 0.0
        assert sparse.snapshot()["engine.advance_s.count"] == iterations // 7 > 0


class TestMetricsConfig:
    def test_negative_sample_interval_is_rejected(self):
        with pytest.raises(ReproError):
            EngineConfig(metrics_sample_every=-1)

    def test_registry_without_trace_never_samples(self):
        spec = {"num_tasks": 2, "provider": "model", "loaded": False,
                "policy": "RRN", "seed": 0,
                "rounds": [{"pairs": [(0, 1, True, False)], "computes": [],
                            "barrier": True}]}
        cluster = custom_cluster(num_nodes=2, cores_per_node=1,
                                 technology="ethernet")
        app = build_application(spec)
        registry = MetricsRegistry()
        run_engine(spec, app, cluster, metrics=registry, sample_every=1)
        # no sink: nothing to emit into, but the registry still aggregates
        assert registry.snapshot()["engine.steps"] > 0
