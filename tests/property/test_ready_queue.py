"""Property tests: the engine's ready queue keeps the all-ranks sweep order.

:meth:`ExecutionEngine._process_ready_tasks` advances READY tasks from a
rank-ordered ready queue instead of rescanning every rank per pass.  Its
contract is the historical sweep's order exactly, so the production engine
and :class:`SweepEngine` (the sweep, kept as a test oracle) must produce
identical records, finish times, loop counters and JSONL traces — over the
random workloads of ``test_calendar_engine.py`` for the model and the
emulator provider, and over fixed cases that stress the order: barrier
releases triggered by a finishing rank, an eager receive completing at the
sweep position, barriers across many ranks, and a deadlock diagnostic.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from oracles.sweep_engine import SweepEngine
from test_calendar_engine import build_application, common_settings, workload_strategy

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel
from repro.exceptions import DeadlockError
from repro.network.allocator import EmulatorRateProvider
from repro.network.topology import CrossbarTopology
from repro.simulator import (
    ANY_SOURCE,
    Application,
    BackgroundTrafficInjector,
    EngineConfig,
    NodeSlowdownInjector,
)
from repro.simulator.engine import ExecutionEngine
from repro.simulator.events import BarrierEvent
from repro.simulator.providers import ModelRateProvider
from repro.trace import JsonlTraceSink, assert_traces_equal, read_trace_log
from repro.units import KiB, MB

PROVIDERS = ("model", "emulator")


def make_provider(kind, cluster):
    if kind == "model":
        return ModelRateProvider(GigabitEthernetModel(), "ethernet")
    topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                technology=cluster.technology)
    return EmulatorRateProvider(cluster.technology, topology)


def run_traced(engine_cls, app, cluster, provider, policy="RRN", seed=0,
               injectors=()):
    """Run one engine with a JSONL trace; returns (outcome, trace log).

    ``outcome`` is ``(records, finish times, loop stats)``, or the
    ``DeadlockError``'s ``(message, blocked_tasks)`` when the run deadlocks.
    """
    placement = make_placement(policy, cluster, app.num_tasks, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        sink = JsonlTraceSink(path)
        engine = engine_cls(
            programs=app, placement=placement,
            rate_provider=make_provider(provider, cluster),
            technology=cluster.technology,
            config=EngineConfig(trace=sink, injectors=injectors),
            application_name=app.name,
        )
        try:
            report = engine.run()
            outcome = (report.records, report.finish_time_per_task,
                       engine.stats.freeze())
        except DeadlockError as exc:
            outcome = (str(exc), exc.blocked_tasks)
        finally:
            sink.close()
        return outcome, read_trace_log(path)


def assert_same_order(app, cluster, provider, **kwargs):
    """The ready queue and the sweep oracle agree; returns the outcome."""
    expected, expected_trace = run_traced(SweepEngine, app, cluster, provider, **kwargs)
    actual, actual_trace = run_traced(ExecutionEngine, app, cluster, provider, **kwargs)
    assert_traces_equal(expected_trace, actual_trace,
                        label_a="sweep", label_b="ready-queue")
    assert actual == expected
    return actual


class TestRandomWorkloads:
    @common_settings
    @given(spec=workload_strategy)
    def test_model_provider(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        assert_same_order(build_application(spec), cluster, "model",
                          policy=spec["policy"], seed=spec["seed"])

    @common_settings
    @given(spec=workload_strategy)
    def test_emulator_provider(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        assert_same_order(build_application(spec), cluster, "emulator",
                          policy=spec["policy"], seed=spec["seed"])


def finisher_releases_barrier() -> Application:
    """Rank 2 finishes last while every other rank waits at a barrier.

    Its ``_finish_task`` releases the barrier mid-pass: ranks 3 and 4 (above
    the cursor) resume in that pass and ranks 0 and 1 in the next, so rank
    1's wildcard receives match the senders in the order 3, 4, 0.  Rank 5
    finishes early, before anyone reaches the barrier.
    """
    app = Application(num_tasks=6, name="finisher-release")
    for rank in (0, 1, 3, 4):
        app.add_compute(rank, duration=0.01 * (5 - rank))
        app.add_event(rank, BarrierEvent(label="first"))
    app.add_compute(2, duration=0.2)
    app.add_compute(5, duration=0.001)
    for rank in (3, 4, 0):
        app.add_send(rank, 1, 4 * KiB, tag=1)
        app.add_recv(1, ANY_SOURCE, 4 * KiB, tag=1)
    for rank in (0, 1, 3, 4):
        app.add_event(rank, BarrierEvent(label="second"))
    app.add_compute(0, duration=0.01)
    return app


def eager_recv_at_cursor() -> Application:
    """Rank 1's receive finds its eager message already arrived.

    The receive completes inside the sweep at rank 1's own position, so
    rank 1 resumes in the next pass — after rank 2, which was woken by the
    same compute horizon and sends in this pass.
    """
    app = Application(num_tasks=4, name="eager-at-cursor")
    app.add_send(0, 1, 4 * KiB, tag=1)
    app.add_compute(1, duration=0.05)
    app.add_recv(1, 0, 4 * KiB, tag=1)
    app.add_send(1, 3, 4 * KiB, tag=2)
    app.add_compute(2, duration=0.05)
    app.add_send(2, 3, 4 * KiB, tag=2)
    app.add_recv(3, ANY_SOURCE, 4 * KiB, tag=2)
    app.add_recv(3, ANY_SOURCE, 4 * KiB, tag=2)
    return app


def many_rank_barriers(num_tasks: int = 96, rounds: int = 3) -> Application:
    """Ring exchanges between barriers across many ranks, uneven endings."""
    app = Application(num_tasks=num_tasks, name="many-rank-barriers")
    for round_no in range(rounds):
        tag = round_no + 1
        for rank in range(num_tasks):
            app.add_compute(rank, duration=0.001 * ((7 * rank + round_no) % 5 + 1))
        for rank in range(num_tasks):
            nxt, prv = (rank + 1) % num_tasks, (rank - 1) % num_tasks
            size = 1 * MB if rank % 4 == 0 else 8 * KiB
            prv_size = 1 * MB if prv % 4 == 0 else 8 * KiB
            src = ANY_SOURCE if rank % 5 == 0 else prv
            if rank % 2 == 0:
                app.add_send(rank, nxt, size, tag=tag)
                app.add_recv(rank, src, prv_size, tag=tag)
            else:
                app.add_recv(rank, src, prv_size, tag=tag)
                app.add_send(rank, nxt, size, tag=tag)
        app.add_barrier(label=f"round{tag}")
    # a third of the ranks finish early; the rest meet at one more barrier
    for rank in range(num_tasks):
        if rank % 3:
            app.add_compute(rank, duration=0.0005 * (rank % 7 + 1))
            app.add_event(rank, BarrierEvent(label="tail"))
    return app


class TestDegenerateOrders:
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_barrier_released_by_a_finishing_rank(self, provider):
        cluster = custom_cluster(num_nodes=6, cores_per_node=1, technology="ethernet")
        records, _, _ = assert_same_order(finisher_releases_barrier(), cluster, provider)
        peers = [r.peer for r in records if r.rank == 1 and r.kind == "recv"]
        assert peers == [3, 4, 0]

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_eager_recv_completing_at_the_sweep_position(self, provider):
        cluster = custom_cluster(num_nodes=4, cores_per_node=1, technology="ethernet")
        records, _, _ = assert_same_order(eager_recv_at_cursor(), cluster, provider)
        peers = [r.peer for r in records if r.rank == 3 and r.kind == "recv"]
        assert peers == [2, 1]

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_barriers_across_many_ranks(self, provider):
        cluster = custom_cluster(num_nodes=24, cores_per_node=4, technology="ethernet")
        records, finish, _ = assert_same_order(many_rank_barriers(), cluster, provider)
        assert sum(r.kind == "barrier" for r in records) == 3 * 96 + 64
        assert len(finish) == 96

    def test_loaded_run(self):
        """Injector runs consult the computing-task counter every horizon."""
        cluster = custom_cluster(num_nodes=24, cores_per_node=4, technology="ethernet")
        injectors = (
            BackgroundTrafficInjector(rate=400.0, size=1 * MB, seed=3, max_flows=12),
            NodeSlowdownInjector(factor=0.5, start=0.002, until=0.006),
        )
        assert_same_order(many_rank_barriers(num_tasks=64, rounds=2), cluster,
                          "model", injectors=injectors)

    def test_injector_deadlock_diagnostic_is_unchanged(self):
        """Ranks 0 and 1 deadlock once rank 2's compute finishes."""
        app = Application(num_tasks=3, name="deadlock")
        app.add_recv(0, 1, 1 * MB, tag=9)
        app.add_send(0, 1, 1 * MB, tag=9)
        app.add_recv(1, 0, 1 * MB, tag=9)
        app.add_send(1, 0, 1 * MB, tag=9)
        app.add_compute(2, duration=0.02)
        cluster = custom_cluster(num_nodes=3, cores_per_node=1, technology="ethernet")
        injectors = (BackgroundTrafficInjector(rate=1000.0, size=1 * MB, seed=0),)
        message, blocked = assert_same_order(app, cluster, "model", injectors=injectors)
        assert blocked == [0, 1]
        assert "blocked tasks: [(0, 'receiving'), (1, 'receiving')]" in message
