"""The benchmark's three workloads, their output digests and counters.

Every workload is a batch job driven through the program's public entry
points, split into ``setup`` (everything before the timed call) and ``run``
(the timed call).  ``outcome`` then digests the simulated outputs and reads
the layers' work counters; it is never timed.

* ``hpl`` — the §VI.D LINPACK skeleton at 128 ranks on Gigabit Ethernet,
  priced by the Ethernet contention model.  The engine's ready-task
  scheduling dominates; pricing is almost all cache hits.
* ``sweep`` — a cold-cache campaign of synthetic graph scenarios on the
  three networks: the paper's contention models and the campaign's cache
  writes, with no execution engine at all.
* ``loaded`` — a 16-host alltoall on the calibrated emulator with
  background traffic and link degradation, written to a JSONL trace:
  water-fill in the allocator, interference and trace emission.

A workload's job is a list of *parts*, each one call of the program's entry
point on its own input: ``hpl`` is one simulation, ``sweep`` twenty
campaigns, ``loaded`` ten simulations.  Each part is set up and timed on its
own, so that a call is short enough to run mostly at one core speed and
can be scaled by the speed probe timed around it (see README.md on noise);
a part takes between about 0.03 and 0.5 s on a 2-core machine.

The seed picks one of :data:`VARIANTS` input variants (``seed % VARIANTS``)
so that the expected digest of every possible input is stored in
``expected.json``.  ``hpl`` has no random input.
"""

from __future__ import annotations

import hashlib
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.spec import InterferenceSpec, ScenarioSpec, WorkloadSpec
from repro.cluster import custom_cluster
from repro.core import GigabitEthernetModel
from repro.simulator import Simulator
from repro.simulator.engine import EngineConfig
from repro.simulator.providers import ModelRateProvider
from repro.trace import JsonlTraceSink
from repro.units import MB
from repro.workloads import generate_linpack

VARIANTS = 64
#: campaigns per sweep job and distinct graph seeds per campaign; variant
#: ``v`` prices seeds ``40 v ... 40 v + 39``, two to a campaign
SWEEP_PARTS = 20
SWEEP_SEEDS = 2
#: simulations per loaded job; part ``k`` of variant ``v`` seeds its
#: background traffic with ``10 v + k``
LOADED_PARTS = 10


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def heldout_seed(seed: int) -> int:
    """The second seed every run also checks: the opposite half of the table."""
    return int(seed) + VARIANTS // 2


@dataclass
class Outcome:
    """What one run produced: its digest, its work and its layer counters."""

    digest: str
    #: simulated work units (report records, background flows or priced
    #: communications), the numerator of ``events_per_s``
    events: int
    counters: Dict[str, float] = field(default_factory=dict)
    #: calendar handoff-tier counters, compared between traced and untraced
    tiers: tuple = ()


def combine(outcomes: List[Outcome]) -> Outcome:
    """One job's outcome from its parts': digest of digests, summed work.

    A one-part job keeps its part's digest unchanged.
    """
    if len(outcomes) == 1:
        return outcomes[0]
    h = hashlib.sha256()
    counters: Dict[str, float] = {}
    for outcome in outcomes:
        _update(h, outcome.digest)
        for key, value in outcome.counters.items():
            counters[key] = counters.get(key, 0) + value
    tiers = tuple(sum(column) for column in zip(*(o.tiers for o in outcomes)))
    return Outcome(h.hexdigest(), sum(o.events for o in outcomes), counters, tiers)


@dataclass
class Prepared:
    """Objects built by ``setup`` and consumed by ``run``."""

    simulator: Any = None
    application: Any = None
    runner: Any = None
    sink: Any = None
    tmpdir: Any = None

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
        if self.tmpdir is not None:
            self.tmpdir.cleanup()
            self.tmpdir = None


def _update(h, text: str) -> None:
    h.update(text.encode("utf-8"))
    h.update(b"\n")


def report_digest(report) -> str:
    """SHA-256 over per-task finish times, every report record and makespan.

    Records are sorted by rank and per-rank index, so a change that only
    reorders how the engine appends them keeps the digest.
    """
    h = hashlib.sha256()
    for rank in sorted(report.finish_time_per_task):
        _update(h, f"finish {rank} {report.finish_time_per_task[rank]!r}")
    for r in sorted(report.records, key=lambda r: (r.rank, r.index, r.kind, r.start)):
        _update(h, f"record {r.rank} {r.index} {r.kind} {r.start!r} {r.end!r} "
                   f"{r.size} {r.peer} {r.label} {r.penalty!r}")
    _update(h, f"makespan {report.total_time!r}")
    return h.hexdigest()


def store_digest(store) -> str:
    """SHA-256 over every scenario's metrics, penalties and times."""
    h = hashlib.sha256()
    for result in sorted(store, key=lambda r: r.scenario_id):
        _update(h, f"scenario {result.scenario_id}")
        for section in (result.metrics, result.penalties, result.times):
            for key in sorted(section):
                _update(h, f"{key} {section[key]!r}")
    return h.hexdigest()


def _engine_counters(stats) -> Dict[str, float]:
    return {
        "steps": stats["steps"],
        "flushes": stats["flushes"],
        "rate_updates": stats["rate_updates"],
        "retimed": stats["retimed"],
        "handoff_tier_slots": stats["handoff_tier_slots"],
        "injected_events": stats["injected_events"],
        "background_flows": stats["background_flows"],
    }


def _tiers(stats) -> tuple:
    return (stats["handoff_tier_slots"], stats["handoff_tier_arrays"],
            stats["handoff_tier_dict"])


class Hpl:
    """LINPACK skeleton, one rank per node on GigE, RRN placement."""

    name = "hpl"

    def __init__(self, seed: int = 0, ranks: int = 128) -> None:
        self.variant: Optional[int] = None
        self.parts = [int(ranks)]

    def setup(self, part: int, recorder=None) -> Prepared:
        ranks = self.parts[part]
        # generate_linpack is a module function: a traced run times it here
        with recorder.span("workloads") if recorder is not None else nullcontext():
            app = generate_linpack(problem_size=32 * ranks, block_size=2 * ranks,
                                   num_tasks=ranks)
        cluster = custom_cluster(num_nodes=ranks, cores_per_node=1,
                                 technology="ethernet")
        model = GigabitEthernetModel()
        provider = ModelRateProvider(model, cluster.technology)
        simulator = Simulator(cluster, provider, technology=cluster.technology,
                              mode="predictive", model_name=model.name)
        return Prepared(simulator=simulator, application=app)

    def run(self, prep: Prepared):
        return prep.simulator.run(prep.application, placement="RRN")

    def outcome(self, prep: Prepared, report) -> Outcome:
        stats = prep.simulator.last_engine_stats
        pricing = prep.simulator.rate_provider.stats
        counters = _engine_counters(stats)
        counters.update(
            pricing_cache_hits=pricing.cache_hits,
            pricing_cache_misses=pricing.cache_misses,
            pricing_comm_evaluations=pricing.comm_evaluations,
            component_evaluations=pricing.component_evaluations,
        )
        return Outcome(report_digest(report), len(report.records), counters,
                       _tiers(stats))


class Sweep:
    """Cold-cache campaign of synthetic graph scenarios, run serially."""

    name = "sweep"

    def __init__(self, seed: int = 0, parts: int = SWEEP_PARTS, seeds: int = SWEEP_SEEDS,
                 host_counts=(8, 10, 12)) -> None:
        self.variant: Optional[int] = variant_of(seed)
        first = self.variant * parts * seeds
        self.parts = [self._spec(first + part * seeds, int(seeds), host_counts)
                      for part in range(int(parts))]

    def _spec(self, first: int, seeds: int, host_counts) -> dict:
        return {
            "name": f"perfbench-sweep-v{self.variant}",
            "workloads": [
                {"kind": "synthetic", "name": "random",
                 "params": {"num_communications": 22}},
                {"kind": "synthetic", "name": "random-tree"},
                {"kind": "synthetic", "name": "bipartite-fan",
                 "params": {"num_senders": 5, "num_receivers": 5}},
                {"kind": "synthetic", "name": "hotspot"},
            ],
            "networks": ["ethernet", "myrinet", "infiniband"],
            "host_counts": list(host_counts),
            "seeds": list(range(first, first + seeds)),
        }

    def setup(self, part: int, recorder=None) -> Prepared:
        spec = CampaignSpec.from_dict(self.parts[part])
        return Prepared(runner=CampaignRunner(spec, max_workers=1))

    def run(self, prep: Prepared):
        return prep.runner.run()

    def outcome(self, prep: Prepared, store) -> Outcome:
        stats = prep.runner.stats
        counters = {
            "campaign_cache_hits": stats.cache_hits,
            "campaign_cache_misses": stats.cache_misses,
            "component_evaluations": stats.component_evaluations,
        }
        priced = sum(len(result.penalties) for result in store)
        return Outcome(store_digest(store), priced, counters, (0, 0, 0))


class Loaded:
    """``repro simulate --mode emulated --trace`` on a loaded fabric, in code."""

    name = "loaded"

    def __init__(self, seed: int = 0, *, workdir: Path, hosts: int = 16,
                 parts: int = LOADED_PARTS) -> None:
        self.variant: Optional[int] = variant_of(seed)
        self.hosts = int(hosts)
        self.workdir = Path(workdir)
        self.parts = [{
            "name": "loaded",
            # a fixed flow count keeps the parts' cost close; the seed still
            # moves every arrival time, size and endpoint pair
            "background": {"rate": 100, "size": 4 * MB, "size_jitter": 0.5,
                           "max_flows": 64, "seed": self.variant * parts + part},
            "link_degradation": {"factor": 0.5, "start": 0.05, "until": 0.5},
        } for part in range(int(parts))]

    def setup(self, part: int, recorder=None) -> Prepared:
        workload = WorkloadSpec(kind="collective", name="alltoall",
                                params=(("num_tasks", self.hosts), ("size", 1 * MB)))
        scenario = ScenarioSpec(
            scenario_id="perfbench-loaded", workload=workload, network="ethernet",
            model="auto", num_hosts=self.hosts, placement="RRN", seed=0,
            interference=InterferenceSpec.from_dict(self.parts[part]),
        )
        application = scenario.build_application()
        injectors = scenario.build_injectors()
        self.workdir.mkdir(parents=True, exist_ok=True)
        tmpdir = tempfile.TemporaryDirectory(prefix="loaded-", dir=self.workdir)
        sink = JsonlTraceSink(Path(tmpdir.name) / "loaded.jsonl")
        cluster = custom_cluster(num_nodes=self.hosts, cores_per_node=2,
                                 technology="ethernet")
        simulator = Simulator.emulated(
            cluster, config=EngineConfig(injectors=injectors, trace=sink))
        return Prepared(simulator=simulator, application=application, sink=sink,
                        tmpdir=tmpdir)

    def run(self, prep: Prepared):
        try:
            return prep.simulator.run(prep.application, placement="RRN", seed=0)
        finally:
            prep.sink.close()

    def outcome(self, prep: Prepared, report) -> Outcome:
        stats = prep.simulator.last_engine_stats
        emulator = prep.simulator.rate_provider
        counters = _engine_counters(stats)
        counters.update(
            allocator_cache_hits=emulator.cache_hits,
            allocator_cache_misses=emulator.cache_misses,
            warm_starts=emulator.warm_starts,
            trace_records=prep.sink.emitted,
        )
        events = len(report.records) + stats["background_flows"]
        return Outcome(report_digest(report), events, counters, _tiers(stats))


WORKLOADS = {"hpl": Hpl, "sweep": Sweep, "loaded": Loaded}
