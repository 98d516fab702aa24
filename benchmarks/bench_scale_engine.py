"""Scale benchmark — incremental contention engine vs full recomputation,
delta-driven event calendar vs per-step full re-query, and tracing overhead.

A 64-node synthetic iterative workload (per-group fan-ins plus an
inter-group leader ring, the communication skeleton of LINPACK-style
iterations) is run through the fluid transfer simulator twice: once with the
historical rebuild-everything provider (the test oracle
``tests/oracles/pricing.py``) and once with the incremental
:class:`ModelRateProvider` (component-scoped re-pricing + memoized
snapshots).  The
two must produce identical completion times; the benchmark reports the
model-evaluation counts and wall-clock times, asserts the ≥3× evaluation
reduction the refactor promises, and appends the numbers to
``BENCH_scale_engine.json`` at the repository root so the perf trajectory
accumulates across PRs.

The **engine-events** section measures the execution loop itself: with the
delta rate contract the calendar re-prices/re-times only the transfers of
the conflict components each arrival/departure dirties, while the
full-requery loop (the same provider behind ``full_query`` from
``tests/oracles/rates_only.py``) touches every active transfer on every
delta.  Per-event
engine work (rate entries applied per flush) must drop ≥5× on the
64-host / 384-transfer scenario, with identical completion records.

The **tracing-overhead** section runs the same 64-host / 384-transfer
scenario untraced, with a :class:`~repro.trace.NullTraceSink` (must be
free: it normalises to the untraced path) and with a live
:class:`~repro.trace.JsonlTraceSink`, asserting bit-identical results and
recording the relative wall-clock overhead of the JSONL sink — the
reproduction's analogue of the paper's ~0.7 % MPE instrumentation cost
(§VI.D), tracked in ``BENCH_scale_engine.json`` so it stays visible in the
perf trajectory.

The **metrics-overhead** section attaches a
:class:`~repro.obs.MetricsRegistry` to the same scenario — phase timers on
the calendar flush plus lazily-read stats sources — asserting bit-identical
results and recording the metering cost next to the tracing cost, with an
extra 1-in-8 sampled-timer row (``MetricsRegistry(timer_sample_every=8)``).

The **calendar-bookkeeping** section isolates what PR 8 vectorizes: a
churn workload (every flush re-rates the whole active set through a
zero-cost provider) driven through the scalar calendar oracle
(``tests/oracles/scalar_calendar.py``) and the structure-of-arrays
:class:`~repro.network.fluid.TransferCalendar`, recording us/event,
retimes/event and heap ops/event per path.  The 256-host rung runs
everywhere with a conservative 2× regression assert (budget-gated like the
ladder via ``REPRO_LADDER_BUDGET_S``); the 1024-host rung — the tentpole's
≥3× acceptance — climbs with ``REPRO_LADDER_MAX_HOSTS``.

The **scale-ladder** sections climb the same synthetic skeleton and a
LINPACK prediction to 256, 1024 and 4096 hosts (plus a small campaign
variant), recording one trajectory record per rung — the repository's
first ≥1k-host benchmark records.  The 256-host rung runs everywhere; the
heavier rungs are opt-in via ``REPRO_LADDER_MAX_HOSTS`` (CI runs the small
rung on every push with a wall-clock budget from
``REPRO_LADDER_BUDGET_S``).  A LINPACK scaling gate, opt-in the same way
(``REPRO_LADDER_MAX_HOSTS`` ≥ 1024), runs the 256- and 1024-rank rungs
back to back and bounds their wall-clock ratio at 5×, so the engine's
scheduling cost must grow with the work, not with ranks².  The
**vectorized-core** section measures the numpy pricing paths of this PR directly: array water-filling vs the scalar
freeze loop at 4096 flows, and batched component pricing vs the per-
component loop — both asserted bit-exact, with the speedups recorded.

All wall-clock comparisons here are best-of-N (the work counters are
deterministic, the timings are not; N repeats stop a loaded runner from
inverting a comparison).
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import pytest
from oracles.pricing import FullRecomputeProvider
from oracles.rates_only import full_query
from oracles.scalar_calendar import ScalarTransferCalendar
from oracles.slot_adapter import SlotAdapter

from repro.core import GigabitEthernetModel
from repro.network.fluid import FluidTransferSimulator, Transfer, TransferCalendar
from repro.simulator.providers import ModelRateProvider

NUM_HOSTS = 64
GROUP_SIZE = 8
ITERATIONS = 6
REPEATS = 3
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scale_engine.json"

#: rungs above this host count are skipped (CI budget); raise via env to
#: climb the full ladder, e.g. REPRO_LADDER_MAX_HOSTS=4096
LADDER_MAX_HOSTS = int(os.environ.get("REPRO_LADDER_MAX_HOSTS", "256"))
#: optional wall-clock budget per ladder rung, in seconds (0 = record only)
LADDER_BUDGET_S = float(os.environ.get("REPRO_LADDER_BUDGET_S", "0") or 0.0)


def synthetic_workload(num_hosts: int = NUM_HOSTS, group_size: int = GROUP_SIZE,
                       iterations: int = ITERATIONS):
    """Deterministic iterative transfer set on ``num_hosts`` nodes.

    Every iteration: the members of each group send to their leader
    (fan-in contention at the leader NIC) and each leader forwards to the
    next group's leader.  Start times and sizes are staggered so arrivals
    and departures interleave — every event dirties only the touched
    group's conflict component.
    """
    assert num_hosts % group_size == 0
    num_groups = num_hosts // group_size
    transfers = []
    tid = 0
    period = 1.0
    for iteration in range(iterations):
        base = iteration * period
        for group in range(num_groups):
            leader = group * group_size
            for member in range(1, group_size):
                host = leader + member
                transfers.append(Transfer(
                    transfer_id=tid, src=host, dst=leader,
                    size=200_000.0 + 10_000.0 * member,
                    start_time=base + 0.003 * member + 0.0007 * group,
                ))
                tid += 1
            next_leader = ((group + 1) % num_groups) * group_size
            transfers.append(Transfer(
                transfer_id=tid, src=leader, dst=next_leader,
                size=400_000.0, start_time=base + 0.001 * group,
            ))
            tid += 1
    return transfers


def run_mode(incremental: bool, repeats: int = REPEATS):
    """Best-of-``repeats`` run of the scale workload under one provider mode.

    The work counters are deterministic (asserted below), so they come from
    the last repeat; only the wall clock is minimised over the repeats.
    """
    workload = synthetic_workload()
    best = float("inf")
    results = stats = None
    for _ in range(repeats):
        if incremental:
            provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
            simulator = FluidTransferSimulator(provider)
        else:
            # the oracle speaks only update(): serve it through the adapter
            provider = FullRecomputeProvider(GigabitEthernetModel(), "ethernet")
            simulator = FluidTransferSimulator(SlotAdapter(provider))
        started = time.perf_counter()
        results = simulator.run(workload)
        best = min(best, time.perf_counter() - started)
        snapshot = provider.stats.snapshot()
        assert stats is None or stats == snapshot  # counters are deterministic
        stats = snapshot
    return results, best, stats


def test_incremental_engine_scales(emit):
    full_results, full_time, full_stats = run_mode(incremental=False)
    inc_results, inc_time, inc_stats = run_mode(incremental=True)

    # optimisation, not approximation: identical completion records
    assert inc_results == full_results

    eval_ratio = full_stats["comm_evaluations"] / max(1, inc_stats["comm_evaluations"])
    speedup = full_time / inc_time if inc_time > 0 else float("inf")

    lines = [
        f"synthetic workload: {NUM_HOSTS} hosts, {ITERATIONS} iterations, "
        f"{len(synthetic_workload())} transfers",
        "",
        f"{'mode':<14s}{'comm evals':>12s}{'cache hits':>12s}{'wall clock':>14s}",
        (f"{'full':<14s}{full_stats['comm_evaluations']:>12d}"
         f"{full_stats['cache_hits']:>12d}{full_time:>12.3f} s"),
        (f"{'incremental':<14s}{inc_stats['comm_evaluations']:>12d}"
         f"{inc_stats['cache_hits']:>12d}{inc_time:>12.3f} s"),
        "",
        f"model-evaluation reduction: {eval_ratio:.1f}x   wall-clock speedup: {speedup:.2f}x",
    ]
    record = {
        "benchmark": "bench_scale_engine",
        "num_hosts": NUM_HOSTS,
        "iterations": ITERATIONS,
        "transfers": len(synthetic_workload()),
        "repeats": REPEATS,
        "vectorized": True,
        "full": {"wall_clock_s": round(full_time, 4), **full_stats},
        "incremental": {"wall_clock_s": round(inc_time, 4), **inc_stats},
        "eval_ratio": round(eval_ratio, 2),
        "wall_clock_speedup": round(speedup, 2),
    }
    emit("scale_engine", "\n".join(lines), record=record, bench_json=BENCH_JSON)

    # acceptance: >=3x fewer model evaluations.  The wall-clock win is
    # recorded (CHANGES.md / BENCH_scale_engine.json) but deliberately not
    # asserted: on a ~0.1 s workload a loaded CI runner can invert the
    # timings without any code regression, while the evaluation count is
    # deterministic.
    assert eval_ratio >= 3.0, record


def run_calendar_mode(delta: bool, repeats: int = REPEATS):
    workload = synthetic_workload()
    best = float("inf")
    results = stats = None
    for _ in range(repeats):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(
            provider if delta else full_query(provider))
        started = time.perf_counter()
        results = simulator.run(workload)
        best = min(best, time.perf_counter() - started)
        snapshot = simulator.last_calendar_stats
        assert stats is None or stats == snapshot  # counters are deterministic
        stats = snapshot
    return results, best, stats


def test_engine_event_calendar_scales(emit):
    """Engine-events section: per-event work follows dirtied components."""
    full_results, full_time, full_stats = run_calendar_mode(delta=False)
    delta_results, delta_time, delta_stats = run_calendar_mode(delta=True)

    # optimisation, not approximation: identical completion records
    assert delta_results == full_results

    per_event_full = full_stats["rate_updates"] / max(1, full_stats["flushes"])
    per_event_delta = delta_stats["rate_updates"] / max(1, delta_stats["flushes"])
    work_ratio = per_event_full / max(1e-9, per_event_delta)
    retime_ratio = full_stats["retimed"] / max(1, delta_stats["retimed"])
    speedup = full_time / delta_time if delta_time > 0 else float("inf")

    lines = [
        f"engine events: {NUM_HOSTS} hosts, {len(synthetic_workload())} transfers",
        "",
        (f"{'mode':<14s}{'flushes':>9s}{'rate updates':>14s}{'re-timed':>10s}"
         f"{'per-event':>11s}{'wall clock':>13s}"),
        (f"{'full-requery':<14s}{full_stats['flushes']:>9d}"
         f"{full_stats['rate_updates']:>14d}{full_stats['retimed']:>10d}"
         f"{per_event_full:>11.1f}{full_time:>11.3f} s"),
        (f"{'delta':<14s}{delta_stats['flushes']:>9d}"
         f"{delta_stats['rate_updates']:>14d}{delta_stats['retimed']:>10d}"
         f"{per_event_delta:>11.1f}{delta_time:>11.3f} s"),
        "",
        (f"per-event work reduction: {work_ratio:.1f}x   "
         f"re-timing reduction: {retime_ratio:.1f}x   "
         f"wall-clock speedup: {speedup:.2f}x"),
    ]
    record = {
        "benchmark": "bench_scale_engine/engine_events",
        "num_hosts": NUM_HOSTS,
        "transfers": len(synthetic_workload()),
        "repeats": REPEATS,
        "full_requery": {"wall_clock_s": round(full_time, 4), **full_stats},
        "delta": {"wall_clock_s": round(delta_time, 4), **delta_stats},
        "per_event_work_ratio": round(work_ratio, 2),
        "retime_ratio": round(retime_ratio, 2),
        "wall_clock_speedup": round(speedup, 2),
    }
    emit("engine_events", "\n".join(lines), record=record, bench_json=BENCH_JSON)

    # acceptance: per-event engine work scales with dirtied components, not
    # the active-set size.  Wall-clock is recorded but (as above) not
    # asserted — the evaluation counters are deterministic, CI timing isn't.
    assert work_ratio >= 5.0, record


def run_traced(trace_path=None, null_sink=False, repeats=5):
    """Best-of-``repeats`` run of the scale workload under one sink mode.

    Returns the in-run wall clock (the instrumentation perturbation — what
    the paper's 0.7 % measures) and the close/write-out time separately:
    the JSONL sink buffers MPE-style during the run and serialises at
    close, exactly like MPE dumps its log at finalize.
    """
    from repro.trace import JsonlTraceSink, NullTraceSink

    workload = synthetic_workload()
    best = float("inf")
    close_time = 0.0
    results = None
    emitted = 0
    for _ in range(repeats):
        if trace_path is not None:
            sink = JsonlTraceSink(trace_path)
        elif null_sink:
            sink = NullTraceSink()
        else:
            sink = None
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(provider, trace=sink)
        started = time.perf_counter()
        results = simulator.run(workload)
        elapsed = time.perf_counter() - started
        if sink is not None:
            close_started = time.perf_counter()
            sink.close()
            if elapsed < best:
                close_time = time.perf_counter() - close_started
            emitted = getattr(sink, "emitted", 0)
        best = min(best, elapsed)
    return results, best, close_time, emitted


def test_tracing_overhead(emit, tmp_path):
    """Tracing-overhead section: null sink free, JSONL sink ~1 us/record.

    On this worst-case micro-scenario (7.5 records per transfer over a
    fully-memoized ~18 ms base run) that per-record cost shows up as
    roughly 10-25 % wall-clock; the tracked quantities are the recorded
    percentage and `jsonl_us_per_record`.
    """
    base_results, base_time, _, _ = run_traced()
    null_results, null_time, _, _ = run_traced(null_sink=True)
    trace_path = tmp_path / "scale-engine.jsonl"
    jsonl_results, jsonl_time, close_time, emitted = run_traced(
        trace_path=trace_path)

    # observability, not physics: identical completion records in all modes
    assert null_results == base_results
    assert jsonl_results == base_results
    assert emitted > len(synthetic_workload())  # the trace saw the run

    null_overhead = null_time / base_time - 1.0
    jsonl_overhead = jsonl_time / base_time - 1.0
    per_record_us = max(0.0, jsonl_time - base_time) / max(1, emitted) * 1e6
    trace_bytes = trace_path.stat().st_size

    lines = [
        f"tracing overhead: {NUM_HOSTS} hosts, {len(synthetic_workload())} "
        f"transfers, {emitted} trace records ({trace_bytes} bytes)",
        "",
        f"{'sink':<12s}{'in-run':>12s}{'overhead':>10s}{'write-out':>12s}",
        f"{'none':<12s}{base_time:>10.4f} s{'-':>10s}{'-':>12s}",
        f"{'null':<12s}{null_time:>10.4f} s{null_overhead:>9.1%}{'-':>12s}",
        (f"{'jsonl':<12s}{jsonl_time:>10.4f} s{jsonl_overhead:>9.1%}"
         f"{close_time:>10.4f} s"),
        "",
        f"in-run emission cost: {per_record_us:.2f} us/record "
        f"({emitted / max(1, len(synthetic_workload())):.1f} records/transfer "
        "on this worst-case micro-scenario)",
        "in-run overhead is the instrumentation perturbation (the paper's "
        "~0.7% MPE figure, §VI.D);",
        "write-out is the buffered JSONL serialisation at close, off the "
        "simulated clock like MPE's finalize dump.",
    ]
    record = {
        "benchmark": "bench_scale_engine/tracing_overhead",
        "num_hosts": NUM_HOSTS,
        "transfers": len(synthetic_workload()),
        "trace_records": emitted,
        "trace_bytes": trace_bytes,
        "untraced_s": round(base_time, 4),
        "null_sink_s": round(null_time, 4),
        "jsonl_sink_s": round(jsonl_time, 4),
        "jsonl_close_s": round(close_time, 4),
        "null_overhead_pct": round(100 * null_overhead, 2),
        "jsonl_overhead_pct": round(100 * jsonl_overhead, 2),
        "jsonl_us_per_record": round(per_record_us, 3),
    }
    emit("tracing_overhead", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)

    # acceptance: the JSONL sink's in-run perturbation stays around the
    # ~10% mark on this scenario.  The scenario is a deliberately brutal
    # denominator — ~7.5 records per transfer over a provider PRs 1-4
    # memoized down to ~20 ms of total work, so every microsecond of
    # record construction (the tracked `jsonl_us_per_record`, ~1 us) is
    # ~15 records/ms of visible overhead; real application runs (computes,
    # matching, un-memoized pricing) amortize the same cost well below the
    # paper's 0.7 % analogy.  The assert is a generous regression bound
    # (35%) following this file's convention of recording wall-clock but
    # asserting only what a loaded CI runner cannot invert.
    assert jsonl_overhead <= 0.35, record


# ------------------------------------------------------------- scale ladder
LADDER_RUNGS = [256, 1024, 4096]
LADDER_ITERATIONS = 2


def _ladder_skip(num_hosts: int) -> None:
    if num_hosts > LADDER_MAX_HOSTS:
        pytest.skip(
            f"ladder rung {num_hosts} > REPRO_LADDER_MAX_HOSTS="
            f"{LADDER_MAX_HOSTS} (set the env var to climb the full ladder)"
        )


def _ladder_budget(elapsed: float, record: dict) -> None:
    if LADDER_BUDGET_S > 0:
        assert elapsed <= LADDER_BUDGET_S, record


@pytest.mark.parametrize("num_hosts", LADDER_RUNGS,
                         ids=lambda n: f"ladder_{n}")
def test_scale_ladder_synthetic(emit, num_hosts):
    """Synthetic fan-in/ring skeleton at 256/1024/4096 hosts."""
    _ladder_skip(num_hosts)
    workload = synthetic_workload(num_hosts=num_hosts, group_size=GROUP_SIZE,
                                  iterations=LADDER_ITERATIONS)
    best = float("inf")
    results = stats = None
    for _ in range(REPEATS):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(provider)
        started = time.perf_counter()
        results = simulator.run(workload)
        best = min(best, time.perf_counter() - started)
        stats = provider.stats.snapshot()
    assert len(results) == len(workload)  # every transfer completed

    per_transfer_us = best / len(workload) * 1e6
    lines = [
        f"scale ladder (synthetic): {num_hosts} hosts, "
        f"{LADDER_ITERATIONS} iterations, {len(workload)} transfers",
        "",
        f"wall clock (best of {REPEATS}): {best:.3f} s "
        f"({per_transfer_us:.1f} us/transfer)",
        f"comm evaluations: {stats['comm_evaluations']}   "
        f"cache hits: {stats['cache_hits']}",
    ]
    record = {
        "benchmark": "bench_scale_engine/scale_ladder",
        "workload": "synthetic",
        "num_hosts": num_hosts,
        "iterations": LADDER_ITERATIONS,
        "transfers": len(workload),
        "repeats": REPEATS,
        "vectorized": True,
        "wall_clock_s": round(best, 4),
        "us_per_transfer": round(per_transfer_us, 2),
        **stats,
    }
    emit(f"scale_ladder_{num_hosts}", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    _ladder_budget(best, record)


#: wall-clock(1024 ranks) / wall-clock(256 ranks) bound of the LINPACK
#: ladder: 4× the ranks bring 4× the events, so scheduling cost that grows
#: with activity (not with ranks²) stays near 4×
LINPACK_SCALING_MAX = 5.0
LINPACK_SCALING_REPEATS = 2


def _where() -> dict:
    """Where a ladder record was measured."""
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version()}


def run_linpack_rung(num_ranks: int):
    """One LINPACK prediction at ``num_ranks`` ranks on as many GigE hosts.

    Returns ``(wall clock s, report, provider)``.
    """
    from repro.cluster import custom_cluster
    from repro.simulator import Simulator
    from repro.workloads.linpack import generate_linpack

    problem_size = 32 * num_ranks
    app = generate_linpack(problem_size=problem_size, block_size=problem_size // 16,
                           num_tasks=num_ranks)
    cluster = custom_cluster(num_nodes=num_ranks, cores_per_node=1,
                             technology="ethernet")
    provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
    simulator = Simulator(cluster, provider)
    started = time.perf_counter()
    report = simulator.run(app, placement="RRN")
    elapsed = time.perf_counter() - started
    assert report.total_time > 0
    return elapsed, report, provider


@pytest.mark.parametrize("num_ranks", LADDER_RUNGS,
                         ids=lambda n: f"ladder_linpack_{n}")
def test_scale_ladder_linpack(emit, num_ranks):
    """LINPACK prediction rung: a real application skeleton at ≥1k ranks."""
    _ladder_skip(num_ranks)
    elapsed, report, provider = run_linpack_rung(num_ranks)
    problem_size = 32 * num_ranks
    lines = [
        f"scale ladder (LINPACK): {num_ranks} ranks on {num_ranks} hosts, "
        f"N={problem_size}, NB={problem_size // 16}",
        "",
        f"wall clock: {elapsed:.3f} s   predicted makespan: "
        f"{report.total_time:.3f} s",
        f"comm evaluations: {provider.stats.comm_evaluations}   "
        f"cache hits: {provider.stats.cache_hits}",
    ]
    record = {
        "benchmark": "bench_scale_engine/scale_ladder",
        "workload": "linpack",
        "num_hosts": num_ranks,
        "problem_size": problem_size,
        "vectorized": True,
        "wall_clock_s": round(elapsed, 4),
        "predicted_makespan_s": round(report.total_time, 4),
        **provider.stats.snapshot(),
        "where": _where(),
    }
    emit(f"scale_ladder_linpack_{num_ranks}", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    _ladder_budget(elapsed, record)


def test_linpack_ladder_scaling(emit):
    """LINPACK 256 → 1024 ranks: the wall clock grows at most 5×.

    The engine's scheduling cost follows the ready tasks, not the cluster
    size, so 4× the ranks (and events) must not cost ranks² more.  Best of
    :data:`LINPACK_SCALING_REPEATS` runs per rung.
    """
    _ladder_skip(1024)
    walls = {}
    makespans = {}
    for num_ranks in (256, 1024):
        runs = [run_linpack_rung(num_ranks) for _ in range(LINPACK_SCALING_REPEATS)]
        walls[num_ranks] = min(elapsed for elapsed, _, _ in runs)
        makespans[num_ranks] = runs[0][1].total_time
    ratio = walls[1024] / walls[256]
    lines = [
        f"LINPACK ladder scaling, best of {LINPACK_SCALING_REPEATS}:",
        "",
        f"256 ranks: {walls[256]:.3f} s   1024 ranks: {walls[1024]:.3f} s   "
        f"ratio: {ratio:.2f}x (bound {LINPACK_SCALING_MAX:.1f}x)",
    ]
    record = {
        "benchmark": "bench_scale_engine/linpack_scaling",
        "workload": "linpack",
        "repeats": LINPACK_SCALING_REPEATS,
        "wall_clock_256_s": round(walls[256], 4),
        "wall_clock_1024_s": round(walls[1024], 4),
        "predicted_makespan_256_s": round(makespans[256], 4),
        "predicted_makespan_1024_s": round(makespans[1024], 4),
        "ratio": round(ratio, 3),
        "bound": LINPACK_SCALING_MAX,
        "where": _where(),
    }
    emit("linpack_ladder_scaling", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    assert ratio <= LINPACK_SCALING_MAX, record


def test_scale_ladder_campaign(emit):
    """Campaign rung: a small parameter sweep at the 256-host rung."""
    _ladder_skip(256)
    from repro.campaign import CampaignRunner, CampaignSpec

    spec = CampaignSpec.from_dict({
        "name": "ladder-campaign",
        "workloads": [
            {"kind": "synthetic", "name": "random-tree", "params": {"size": "4M"}},
            {"kind": "collective", "name": "broadcast", "params": {"size": "1M"}},
        ],
        "networks": ["ethernet"],
        "models": ["auto"],
        "host_counts": [256],
        "placements": ["RRP"],
        "seeds": [0],
    })
    runner = CampaignRunner(spec, max_workers=1)
    started = time.perf_counter()
    store = runner.run()
    elapsed = time.perf_counter() - started
    assert len(store) >= 2

    lines = [
        f"scale ladder (campaign): {len(store)} scenarios at 256 hosts",
        "",
        f"wall clock: {elapsed:.3f} s",
    ]
    record = {
        "benchmark": "bench_scale_engine/scale_ladder",
        "workload": "campaign",
        "num_hosts": 256,
        "scenarios": len(store),
        "vectorized": True,
        "wall_clock_s": round(elapsed, 4),
    }
    emit("scale_ladder_campaign", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    _ladder_budget(elapsed, record)


# ---------------------------------------------------------- vectorized core
def test_vectorized_water_filling_microbench(emit):
    """Array vs scalar water-filling on a 4096-flow / 1024-host instance."""
    import random

    from repro.network.sharing import FlowSpec, weighted_max_min_allocation

    num_hosts, num_flows = 1024, 4096
    rng = random.Random(0)
    flows = []
    for index in range(num_flows):
        src = rng.randrange(num_hosts)
        dst = rng.randrange(num_hosts)
        while dst == src:
            dst = rng.randrange(num_hosts)
        flows.append(FlowSpec(f"f{index}", (("tx", src), ("rx", dst)),
                              cap=9.6e7))
    capacities = {}
    for host in range(num_hosts):
        capacities[("tx", host)] = 1.19e8
        capacities[("rx", host)] = 1.19e8

    timings = {}
    rates = {}
    for vectorized in (False, True):
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            rates[vectorized] = weighted_max_min_allocation(
                flows, capacities, vectorized=vectorized)
            best = min(best, time.perf_counter() - started)
        timings[vectorized] = best
    # bit-exactness is the contract, not a tolerance
    assert rates[True] == rates[False]
    speedup = timings[False] / timings[True] if timings[True] > 0 else float("inf")

    lines = [
        f"vectorized water-filling: {num_flows} flows over "
        f"{2 * num_hosts} resources ({num_hosts} hosts)",
        "",
        f"{'path':<12s}{'wall clock':>14s}",
        f"{'scalar':<12s}{timings[False]:>12.3f} s",
        f"{'array':<12s}{timings[True]:>12.3f} s",
        "",
        f"speedup: {speedup:.1f}x   (rates bit-identical)",
    ]
    record = {
        "benchmark": "bench_scale_engine/vectorized_water_filling",
        "flows": num_flows,
        "num_hosts": num_hosts,
        "repeats": REPEATS,
        "scalar_s": round(timings[False], 4),
        "array_s": round(timings[True], 4),
        "speedup": round(speedup, 2),
    }
    emit("vectorized_water_filling", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    # generous regression bound: the array path must stay clearly ahead at
    # this size (observed ~14x; a loaded runner cannot invert an order of
    # magnitude)
    assert speedup >= 3.0, record


def test_vectorized_batch_pricing_microbench(emit):
    """Batched component pricing vs the per-component scalar loop."""
    from repro.core.graph import Communication, CommunicationGraph, ConflictRule

    model = GigabitEthernetModel()
    graph = CommunicationGraph(name="batch-bench")
    name = 0
    num_components = 1024
    for component in range(num_components):
        sink = 4 * component
        for member in range(1, 4):
            graph.add(Communication(name=f"c{name}", src=sink + member,
                                    dst=sink, size=1_000_000))
            name += 1
    selections = [list(names) for names
                  in graph.conflict_components(ConflictRule.ENDPOINT)]
    assert len(selections) == num_components

    timings = {}
    scalar = batched = None
    for mode in ("scalar", "batch"):
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            if mode == "scalar":
                scalar = [model.component_penalties(graph, names)
                          for names in selections]
            else:
                batched = model.penalties_batch(graph, selections)
            best = min(best, time.perf_counter() - started)
        timings[mode] = best
    assert batched == scalar
    speedup = (timings["scalar"] / timings["batch"]
               if timings["batch"] > 0 else float("inf"))

    lines = [
        f"vectorized batch pricing: {num_components} conflict components, "
        f"{len(graph)} communications, gigabit-ethernet model",
        "",
        f"{'path':<12s}{'wall clock':>14s}",
        f"{'scalar':<12s}{timings['scalar']:>12.4f} s",
        f"{'batch':<12s}{timings['batch']:>12.4f} s",
        "",
        f"speedup: {speedup:.1f}x   (penalties bit-identical)",
    ]
    record = {
        "benchmark": "bench_scale_engine/vectorized_batch_pricing",
        "components": num_components,
        "communications": len(graph),
        "repeats": REPEATS,
        "scalar_s": round(timings["scalar"], 4),
        "batch_s": round(timings["batch"], 4),
        "speedup": round(speedup, 2),
    }
    emit("vectorized_batch_pricing", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)


# ----------------------------------------------------- calendar bookkeeping
class ChurnProvider:
    """Cheap deterministic delta provider with bottleneck-local re-pricing.

    Models the rate-update profile an incremental allocator produces: every
    flush returns a rate for the *whole* tracked set (the dense delta
    contract the shipped providers follow), but only the flights sharing
    the perturbed bottleneck — one of ``GROUPS`` hash groups per call,
    plus any new arrivals — come back with a *changed* value.  The
    calendar must discover that subset itself: the scalar path compares
    flight by flight in Python, the vectorized path in one array compare —
    exactly the asymmetry PR 8's tentpole targets.  Pricing cost is near
    zero next to the calendar's own work (swap-remove churn, one
    vectorized rate-table recompute), so the bench isolates bookkeeping:
    value compare, integrate-at-old-rate, re-time, heap maintenance and
    compaction.  Implements both sides of the delta contract:
    ``update_slots`` returns the slot-aligned ``(tids, slots,
    float64-rates)`` the vectorized calendar takes, and ``update`` (the
    scalar pipeline) is a dict view over it — identical values, identical
    order.
    """

    #: one group is re-priced per call; 16 keeps the changed fraction at a
    #: bottleneck-local ~6% (coprime rate cycle below: repeat visits to the
    #: same group always produce a *different* value)
    GROUPS = 16

    def __init__(self):
        from repro._numpy import np

        self.calls = 0
        self.tracked = []                       # position-indexed tids
        self.pos = {}                           # tid -> position
        self.base = np.zeros(16, dtype=np.float64)    # static per-tid term
        self.mod16 = np.zeros(16, dtype=np.int64)     # tid % GROUPS
        self.slots = np.zeros(16, dtype=np.intp)      # calendar slot handles
        self.version = np.zeros(self.GROUPS, dtype=np.int64)

    def _apply(self, added, removed, added_slots):
        from repro._numpy import np

        self.calls += 1
        tracked, pos = self.tracked, self.pos
        base, mod16, slots = self.base, self.mod16, self.slots
        for tid in removed:
            i = pos.pop(tid)
            last = len(tracked) - 1
            if i != last:
                last_tid = tracked[last]
                tracked[i] = last_tid
                pos[last_tid] = i
                base[i] = base[last]
                mod16[i] = mod16[last]
                slots[i] = slots[last]
            tracked.pop()
        for j, transfer in enumerate(added):
            tid = transfer.transfer_id
            n = len(tracked)
            if n == len(base):
                self.base = base = np.concatenate([base, np.zeros(n)])
                self.mod16 = mod16 = np.concatenate(
                    [mod16, np.zeros(n, dtype=np.int64)])
                self.slots = slots = np.concatenate(
                    [slots, np.zeros(n, dtype=np.intp)])
            pos[tid] = n
            tracked.append(tid)
            base[n] = 1e6 * (1.0 + 0.03 * (tid % 13))
            mod16[n] = tid % self.GROUPS
            slots[n] = added_slots[j]
        # one bottleneck group re-prices per call; the rate table comes out
        # of one vectorized add over the cached static term — flights of
        # untouched groups land on the exact same float64 value, so only
        # the perturbed group (and new arrivals) reads as changed.  7 is
        # coprime with GROUPS: repeat visits never collide.
        self.version[self.calls % self.GROUPS] += 1
        n = len(tracked)
        return base[:n] + 1e4 * (self.version[mod16[:n]] % 7)

    def update(self, added, removed):
        # materialize the dict the scalar contract requires, in tracked
        # order (same order as the slot handoff, so entry sequence
        # numbers — and therefore pop order — match between the paths)
        tids, _, rates = self.update_slots(added, [-1] * len(added), removed)
        return dict(zip(tids, rates.tolist()))

    def update_slots(self, added, added_slots, removed):
        # slot-handle handoff: rates come back already slot-aligned
        rates = self._apply(added, removed, added_slots)
        return list(self.tracked), self.slots[:len(self.tracked)], rates

    def reset(self):
        from repro._numpy import np

        self.tracked = []
        self.pos = {}
        self.base = np.zeros(16, dtype=np.float64)
        self.mod16 = np.zeros(16, dtype=np.int64)
        self.slots = np.zeros(16, dtype=np.intp)
        self.version = np.zeros(self.GROUPS, dtype=np.int64)


CAL_BOOKKEEPING_ROUNDS = 50
#: best-of count for the bookkeeping section: the timed region is short
#: (milliseconds), so a couple of extra repeats buy a stable minimum
CAL_REPEATS = 5
#: heap-strategy counters — legitimately differ between the two paths
CAL_STRATEGY_COUNTERS = ("bulk_merges", "bulk_entries", "handoff_tier_slots",
                         "handoff_tier_dict")


def run_calendar_bookkeeping(num_flights: int, vectorized: bool,
                             repeats: int = CAL_REPEATS):
    """Best-of-``repeats`` churn run of one calendar path.

    ``num_flights`` concurrent transfers; every one of the
    ``CAL_BOOKKEEPING_ROUNDS`` rounds cancels the oldest flight, starts a
    replacement and flushes.  Each delta returns a rate for the *whole*
    tracked set (the dense contract), of which one bottleneck group
    (~``1/ChurnProvider.GROUPS``) plus the new arrival come back
    value-changed — the calendar must compare the full set and re-time
    exactly the changed subset every event.
    """
    assert num_flights >= CAL_BOOKKEEPING_ROUNDS
    best = float("inf")
    stats = done = None
    for _ in range(repeats):
        provider = ChurnProvider()
        calendar_cls = TransferCalendar if vectorized else ScalarTransferCalendar
        calendar = calendar_cls(provider)
        for i in range(num_flights):
            calendar.activate(
                Transfer(i, i % 64, (i + 1) % 64, 1e12), now=0.0)
        calendar.flush(0.0)  # initial bulk rating, outside the timed churn
        started = time.perf_counter()
        for round_no in range(CAL_BOOKKEEPING_ROUNDS):
            now = 0.001 * (round_no + 1)
            calendar.cancel(round_no, now)
            calendar.activate(
                Transfer(num_flights + round_no, round_no % 64,
                         (round_no + 1) % 64, 1e12), now=now)
            calendar.flush(now)
            calendar.pop_due(now)
        best = min(best, time.perf_counter() - started)
        done = [t.transfer_id for t in calendar.pop_due(1e9)]
        snapshot = calendar.stats.snapshot()
        assert stats is None or stats == snapshot  # counters are deterministic
        stats = snapshot
    return done, best, stats


@pytest.mark.parametrize("num_hosts", [256, 1024],
                         ids=lambda n: f"bookkeeping_{n}")
def test_calendar_bookkeeping(emit, num_hosts):
    """Calendar-bookkeeping section: SoA flight state vs the scalar path.

    One flight per host; every flush re-prices the whole set and re-times
    the bottleneck-local changed subset.  The vectorized calendar must
    produce identical completions and identical work counters (minus the
    heap-insertion strategy counters, which only it increments) at a
    fraction of the bookkeeping time per event.  The 256-host rung runs
    everywhere under the ``REPRO_LADDER_BUDGET_S`` budget convention; the
    1024-host rung — the tentpole's ≥3× acceptance — is opt-in via
    ``REPRO_LADDER_MAX_HOSTS`` like the other heavy rungs.
    """
    _ladder_skip(num_hosts)
    scalar_done, scalar_time, scalar_stats = run_calendar_bookkeeping(
        num_hosts, vectorized=False)
    array_done, array_time, array_stats = run_calendar_bookkeeping(
        num_hosts, vectorized=True)

    # optimisation, not approximation: identical completions and identical
    # bookkeeping decisions
    assert array_done == scalar_done
    comparable = {k: v for k, v in scalar_stats.items()
                  if k not in CAL_STRATEGY_COUNTERS}
    assert {k: v for k, v in array_stats.items()
            if k not in CAL_STRATEGY_COUNTERS} == comparable

    flushes = max(1, array_stats["flushes"])
    retimed = max(1, array_stats["retimed"])
    heap_pops = array_stats["stale_entries"] + array_stats["completions"]
    speedup = scalar_time / array_time if array_time > 0 else float("inf")
    slot_fraction = array_stats["handoff_tier_slots"] / flushes
    # CI guard: the native slot handoff must carry every flush of the
    # steady state
    assert slot_fraction >= 0.9, array_stats

    lines = [
        f"calendar bookkeeping: {num_hosts} flights, "
        f"{CAL_BOOKKEEPING_ROUNDS} churn rounds "
        f"(dense re-pricing, ~1/{ChurnProvider.GROUPS} value-changed)",
        "",
        f"{'path':<12s}{'wall clock':>13s}{'us/event':>11s}{'us/retime':>11s}",
        (f"{'scalar':<12s}{scalar_time:>11.4f} s"
         f"{scalar_time / flushes * 1e6:>11.1f}"
         f"{scalar_time / retimed * 1e6:>11.2f}"),
        (f"{'array':<12s}{array_time:>11.4f} s"
         f"{array_time / flushes * 1e6:>11.1f}"
         f"{array_time / retimed * 1e6:>11.2f}"),
        "",
        (f"retimes/event: {retimed / flushes:.1f}   "
         f"heap pushes/event: {retimed / flushes:.1f}   "
         f"heap pops/event: {heap_pops / flushes:.1f}   "
         f"bulk merges: {array_stats['bulk_merges']}   "
         f"slot-tier flushes: {slot_fraction:.0%}"),
        f"bookkeeping speedup: {speedup:.1f}x   (completions and work "
        "counters identical)",
    ]
    record = {
        "benchmark": "bench_scale_engine/calendar_bookkeeping",
        "num_hosts": num_hosts,
        "flights": num_hosts,
        "rounds": CAL_BOOKKEEPING_ROUNDS,
        "reprice_groups": ChurnProvider.GROUPS,
        "repeats": CAL_REPEATS,
        "scalar_s": round(scalar_time, 4),
        "array_s": round(array_time, 4),
        "scalar_us_per_event": round(scalar_time / flushes * 1e6, 2),
        "array_us_per_event": round(array_time / flushes * 1e6, 2),
        "retimes_per_event": round(retimed / flushes, 2),
        "heap_pops_per_event": round(heap_pops / flushes, 2),
        "bulk_merges": array_stats["bulk_merges"],
        "bulk_entries": array_stats["bulk_entries"],
        "compactions": array_stats["compactions"],
        "handoff_tier_slots": array_stats["handoff_tier_slots"],
        "handoff_tier_arrays": array_stats["handoff_tier_arrays"],
        "handoff_tier_dict": array_stats["handoff_tier_dict"],
        "slot_tier_fraction": round(slot_fraction, 4),
        "speedup": round(speedup, 2),
    }
    emit(f"calendar_bookkeeping_{num_hosts}", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    _ladder_budget(scalar_time + array_time, record)

    # acceptance: ≥3× lower bookkeeping time per event at the 1k rung (the
    # tentpole target, opt-in like the other heavy rungs); the always-on
    # 256 rung — where fixed numpy dispatch overhead eats most of the win
    # (typically ~1.6×) — keeps a conservative regression bound a loaded
    # CI runner cannot invert
    assert speedup >= (3.0 if num_hosts >= 1024 else 1.25), record


# ------------------------------------------------------------ timeline drain
def test_timeline_drain_microbench(emit):
    """Batched due-event drain on barrier-synchronous compute waves.

    Every round, all ranks finish an identical compute at the same horizon
    and hit a barrier — the worst case for the historical per-entry
    ``heappop`` loop (one sift per rank per round) and the best case for the
    partition+heapify bulk sweep.  The section records how much of the
    timeline traffic the bulk path absorbed (pops/event, bulk-drain ratio)
    alongside the wall clock.
    """
    from repro.cluster import custom_cluster
    from repro.simulator import Application, Simulator

    num_ranks, rounds = 256, 12
    app = Application(num_tasks=num_ranks, name="drain-bench")
    for _ in range(rounds):
        for rank in range(num_ranks):
            app.add_compute(rank, duration=0.01)
        app.add_barrier()
    cluster = custom_cluster(num_nodes=num_ranks, cores_per_node=1,
                             technology="ethernet")

    best = float("inf")
    stats = None
    for _ in range(REPEATS):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = Simulator(cluster, provider)
        started = time.perf_counter()
        report = simulator.run(app, placement="RRN")
        best = min(best, time.perf_counter() - started)
        assert report.total_time > 0
        snapshot = simulator.last_engine_stats.as_dict()
        assert stats is None or stats == snapshot  # counters are deterministic
        stats = snapshot

    total_events = num_ranks * rounds  # every compute surfaces exactly once
    drained_bulk = stats["timeline_bulk_drained"]
    single_pops = total_events - drained_bulk
    bulk_ratio = drained_bulk / total_events
    pops_per_event = single_pops / total_events

    lines = [
        f"timeline drain: {num_ranks} ranks x {rounds} barrier-synchronous "
        f"compute rounds ({total_events} timeline events)",
        "",
        f"wall clock (best of {REPEATS}): {best:.3f} s",
        (f"bulk drains: {stats['timeline_bulk_drains']}   "
         f"entries via bulk sweep: {drained_bulk} "
         f"({bulk_ratio:.0%})   per-entry heappops/event: "
         f"{pops_per_event:.2f}"),
    ]
    record = {
        "benchmark": "bench_scale_engine/timeline_drain",
        "num_ranks": num_ranks,
        "rounds": rounds,
        "timeline_events": total_events,
        "repeats": REPEATS,
        "wall_clock_s": round(best, 4),
        "timeline_bulk_drains": stats["timeline_bulk_drains"],
        "timeline_bulk_drained": drained_bulk,
        "bulk_drain_ratio": round(bulk_ratio, 4),
        "pops_per_event": round(pops_per_event, 2),
        "us_per_event": round(best / total_events * 1e6, 2),
    }
    emit("timeline_drain", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    # the same-horizon waves must actually take the bulk path: every round's
    # compute batch beyond the pop threshold lands in one sweep
    assert stats["timeline_bulk_drains"] >= rounds, record
    assert bulk_ratio >= 0.5, record


# --------------------------------------------------------- metrics overhead
def run_metered(metered: bool, repeats: int = 5, sample_every: int = 1):
    """Best-of-``repeats`` run of the scale workload with/without a registry.

    A fresh :class:`~repro.obs.MetricsRegistry` per repeat (timer moments
    are per-run); the snapshot comes from the last repeat — its counter
    values are deterministic, only the timer durations jitter.
    """
    from repro.obs import MetricsRegistry

    workload = synthetic_workload()
    best = float("inf")
    results = snapshot = None
    for _ in range(repeats):
        metrics = (MetricsRegistry(timer_sample_every=sample_every)
                   if metered else None)
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(provider, metrics=metrics)
        started = time.perf_counter()
        results = simulator.run(workload)
        best = min(best, time.perf_counter() - started)
        if metrics is not None:
            snapshot = metrics.snapshot()
    return results, best, snapshot


def test_metrics_overhead(emit):
    """Metrics-overhead section: the unified registry on the hot loop.

    With a registry attached the calendar pays two ``perf_counter`` calls
    per flush (the ``calendar.flush_s`` phase timer) and the provider's
    stats surfaces are registered as lazy sources (zero per-event cost).
    The results must stay bit-identical; the recorded quantity is the
    relative wall-clock overhead of metering the same worst-case
    micro-scenario the tracing-overhead section uses.
    """
    base_results, base_time, _ = run_metered(metered=False)
    metered_results, metered_time, snapshot = run_metered(metered=True)
    sampled_results, sampled_time, sampled_snap = run_metered(
        metered=True, sample_every=8)

    # observability, not physics: identical completion records
    assert metered_results == base_results
    assert sampled_results == base_results
    # the registry actually observed the run it did not perturb
    assert snapshot["calendar.flushes"] > 0
    assert snapshot["calendar.flush_s.count"] > 0
    # the sampled timer observed exactly every 8th flush() call
    assert sampled_snap["calendar.flush_s.sample_every"] == 8
    assert (sampled_snap["calendar.flush_s.count"]
            == int(snapshot["calendar.flush_s.count"]) // 8)

    overhead = metered_time / base_time - 1.0
    sampled_overhead = sampled_time / base_time - 1.0
    flushes = int(snapshot["calendar.flush_s.count"])
    per_flush_us = max(0.0, metered_time - base_time) / max(1, flushes) * 1e6

    lines = [
        f"metrics overhead: {NUM_HOSTS} hosts, {len(synthetic_workload())} "
        f"transfers, {flushes} timed flushes",
        "",
        f"{'registry':<14s}{'in-run':>12s}{'overhead':>10s}",
        f"{'none':<14s}{base_time:>10.4f} s{'-':>10s}",
        f"{'attached':<14s}{metered_time:>10.4f} s{overhead:>9.1%}",
        f"{'sampled 1/8':<14s}{sampled_time:>10.4f} s{sampled_overhead:>9.1%}",
        "",
        f"timer cost: {per_flush_us:.2f} us/flush "
        f"(flush time recorded: {snapshot['calendar.flush_s.total']:.4f} s); "
        f"1-in-8 sampling timed {int(sampled_snap['calendar.flush_s.count'])} "
        "flushes",
    ]
    record = {
        "benchmark": "bench_scale_engine/metrics_overhead",
        "num_hosts": NUM_HOSTS,
        "transfers": len(synthetic_workload()),
        "timed_flushes": flushes,
        "unmetered_s": round(base_time, 4),
        "metered_s": round(metered_time, 4),
        "sampled_s": round(sampled_time, 4),
        "timer_sample_every": 8,
        "sampled_timed_flushes": int(sampled_snap["calendar.flush_s.count"]),
        "metrics_overhead_pct": round(100 * overhead, 2),
        "sampled_overhead_pct": round(100 * sampled_overhead, 2),
        "us_per_flush": round(per_flush_us, 3),
        "flush_s_total": round(snapshot["calendar.flush_s.total"], 5),
    }
    emit("metrics_overhead", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)

    # acceptance: following this file's convention, bit-exactness and the
    # deterministic counters are asserted; the wall-clock overhead is
    # recorded with a generous regression bound a loaded runner cannot
    # invert (two perf_counter calls per flush measure well under 5 %).
    assert overhead <= 0.35, record
