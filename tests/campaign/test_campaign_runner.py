"""Runner tests: parallel-vs-serial bit-exactness over random campaigns."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignResultStore,
    resolve_model,
)
from repro.core import GigabitEthernetModel, MyrinetModel, PenaltyCache
from repro.core.incremental import IncrementalPenaltyEngine, cached_penalties
from repro.exceptions import WorkloadError
from repro.workloads import random_graph_scheme


def random_campaign(seed: int) -> CampaignSpec:
    """A random-ish campaign over both workload families and several axes."""
    return CampaignSpec.from_dict({
        "name": f"random-{seed}",
        "workloads": [
            {"kind": "synthetic", "name": "random-tree"},
            {"kind": "synthetic", "name": "random",
             "params": {"num_communications": 12}},
            {"kind": "scheme", "name": "fig5"},
            {"kind": "collective", "name": "ring-allgather",
             "params": {"size": "1M", "num_tasks": 6}},
        ],
        "networks": ["ethernet", "myrinet"],
        "host_counts": [6, 9],
        "placements": ["RRP", "random"],
        "seeds": [seed, seed + 1],
    })


def dumps(store: CampaignResultStore):
    return [result.to_dict() for result in store.results]


class TestBitExactness:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_thread_parallel_matches_serial(self, seed):
        spec = random_campaign(seed)
        serial = CampaignRunner(spec, max_workers=1).run()
        threaded = CampaignRunner(spec, max_workers=4, backend="thread").run()
        assert dumps(serial) == dumps(threaded)  # == on floats: bit-exact

    def test_process_parallel_matches_serial(self):
        spec = random_campaign(3)
        serial = CampaignRunner(spec, max_workers=1).run()
        processes = CampaignRunner(spec, max_workers=2, backend="process").run()
        assert dumps(serial) == dumps(processes)

    def test_shared_cache_does_not_change_results(self):
        spec = random_campaign(11)
        isolated = CampaignRunner(spec, cache=PenaltyCache(max_entries=0)).run()
        shared = CampaignRunner(spec, cache=PenaltyCache()).run()
        assert dumps(isolated) == dumps(shared)

    def test_matches_direct_model_pricing(self):
        """Campaign penalties equal straight ``model.penalties`` on the graph."""
        spec = random_campaign(5)
        store = CampaignRunner(spec, max_workers=4).run()
        for scenario in spec.scenarios():
            if scenario.is_application:
                continue
            model = resolve_model(scenario.model, scenario.network)
            expected = model.penalties(scenario.build_graph())
            assert store.by_id(scenario.scenario_id).penalties == expected


class TestRunnerBehaviour:
    def test_results_keep_scenario_order(self):
        spec = random_campaign(2)
        store = CampaignRunner(spec, max_workers=4).run()
        assert [r.scenario_id for r in store.results] == \
            [s.scenario_id for s in spec.scenarios()]

    def test_cache_sharing_reduces_evaluations(self):
        spec = random_campaign(9)
        cold = CampaignRunner(spec, cache=PenaltyCache(max_entries=0)).run()
        warmable = CampaignRunner(spec, cache=PenaltyCache()).run()
        assert warmable.stats["comm_evaluations"] < cold.stats["comm_evaluations"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(WorkloadError):
            CampaignRunner(random_campaign(0), backend="quantum")

    def test_tiny_lru_keeps_results_exact_and_stats_sane(self):
        """Eviction pressure may cost re-evaluations, never wrong results."""
        spec = random_campaign(11)
        serial = CampaignRunner(spec, cache=PenaltyCache(max_entries=2)).run()
        parallel = CampaignRunner(spec, cache=PenaltyCache(max_entries=2),
                                  max_workers=4).run()
        assert dumps(serial) == dumps(parallel)
        assert all(v >= 0 for v in parallel.stats.values()), parallel.stats

    def test_store_exports(self, tmp_path):
        spec = random_campaign(1)
        store = CampaignRunner(spec).run()
        json_path = tmp_path / "results.json"
        csv_path = tmp_path / "results.csv"
        store.to_json(json_path)
        store.to_csv(csv_path)
        reloaded = CampaignResultStore.from_json(json_path)
        assert dumps(reloaded) == dumps(store)
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("scenario_id,kind,workload,network,model")
        assert len(csv_path.read_text(encoding="utf-8").splitlines()) == len(store) + 1

    def test_truncated_results_file_raises_workload_error(self, tmp_path):
        store = CampaignRunner(random_campaign(1)).run()
        path = tmp_path / "results.json"
        store.to_json(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        with pytest.raises(WorkloadError, match="results.json"):
            CampaignResultStore.from_json(path)

    def test_results_file_without_campaign_raises_workload_error(self, tmp_path):
        data = CampaignRunner(random_campaign(1)).run().to_dict()
        del data["campaign"]
        path = tmp_path / "results.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(WorkloadError, match="results.json.*'campaign'"):
            CampaignResultStore.from_json(path)

    def test_summary_table_lists_every_scenario(self):
        spec = random_campaign(4)
        store = CampaignRunner(spec).run()
        table = store.summary_table()
        for result in store.results:
            assert result.scenario_id in table


class TestEngineFanOut:
    """The engine/pricing ``map_fn`` fan-out is bit-exact with serial."""

    def test_cached_penalties_parallel_matches_model(self):
        graph = random_graph_scheme(14, 18, seed=2)
        model = MyrinetModel()
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = cached_penalties(model, graph, cache=PenaltyCache(),
                                        map_fn=pool.map)
        assert parallel == model.penalties(graph)

    def test_engine_map_fn_matches_serial_updates(self):
        model = GigabitEthernetModel()
        graphs = [random_graph_scheme(10, 12, seed=s) for s in range(4)]
        serial_engine = IncrementalPenaltyEngine(model)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel_engine = IncrementalPenaltyEngine(model, map_fn=pool.map)
            for graph in graphs:
                assert parallel_engine.update(graph.communications) == \
                    serial_engine.update(graph.communications)

    def test_engine_recovers_after_pool_failure(self):
        """A dying pool must not lose the dirty components."""
        calls = {"failed": False}

        def flaky_map(fn, jobs):
            if not calls["failed"]:
                calls["failed"] = True
                raise RuntimeError("pool died")
            return [fn(job) for job in list(jobs)]

        model = GigabitEthernetModel()
        graph = random_graph_scheme(10, 12, seed=1)
        engine = IncrementalPenaltyEngine(model, map_fn=flaky_map)
        for comm in graph.communications:
            engine.add(comm)
        with pytest.raises(RuntimeError):
            engine.penalties()
        assert engine.penalties() == model.penalties(graph)
