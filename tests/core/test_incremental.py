"""Tests for the incremental contention engine (repro.core.incremental)."""

from __future__ import annotations

import pytest

from repro.core import (
    ContentionModel,
    FairShareModel,
    GigabitEthernetModel,
    IncrementalPenaltyEngine,
    InfinibandModel,
    MyrinetModel,
    PenaltyCache,
)
from repro.core.graph import Communication, CommunicationGraph, ConflictRule
from repro.exceptions import GraphError


def comm(name, src, dst, size=1000):
    return Communication(name, src, dst, size=size)


class TestComponentPenaltiesEntryPoint:
    def test_component_scoped_evaluation_matches_full(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (5, 6), (7, 6)])
        model = GigabitEthernetModel()
        full = model.penalties(graph)
        for component in graph.conflict_components(model.component_rule):
            scoped = model.component_penalties(graph, component)
            assert scoped == {n: full[n] for n in component}

    def test_fallback_when_no_locality_promise(self):
        class OpaqueModel(ContentionModel):
            name = "opaque"

            def penalties(self, graph):
                return {c.name: float(len(graph)) for c in graph}

        graph = CommunicationGraph.from_edges([(0, 1), (5, 6)])
        model = OpaqueModel()
        assert model.component_rule is None
        # whole-graph evaluation restricted to the requested names
        assert model.component_penalties(graph, ["a"]) == {"a": 2.0}

    def test_shipped_models_declare_locality(self):
        assert GigabitEthernetModel().component_rule == ConflictRule.ENDPOINT
        assert MyrinetModel().component_rule == ConflictRule.ENDPOINT
        assert MyrinetModel(conflict_rule=ConflictRule.ANY_NODE).component_rule == ConflictRule.ANY_NODE
        assert InfinibandModel().component_rule == ConflictRule.ANY_NODE
        assert FairShareModel().component_rule == ConflictRule.ENDPOINT


class TestIncrementalPenaltyEngine:
    def test_arrival_prices_only_the_new_component(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(comm("a", 0, 1))
        engine.add(comm("b", 5, 6))
        engine.penalties()
        evaluated_before = engine.stats.comm_evaluations
        # a third, disjoint flow must not re-price the existing components
        engine.add(comm("c", 8, 9))
        engine.penalties()
        assert engine.stats.comm_evaluations - evaluated_before <= 1

    def test_penalties_match_full_recompute(self):
        model = GigabitEthernetModel()
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        comms = [comm("a", 0, 1), comm("b", 0, 2), comm("c", 2, 1), comm("d", 5, 6)]
        for c in comms:
            engine.add(c)
        assert engine.penalties() == model.penalties(CommunicationGraph(comms))

    def test_departure_splits_component(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        # b bridges a and c: a(0->1), b(0->2)... use shared endpoints
        engine.add(comm("a", 0, 1))
        engine.add(comm("b", 0, 2))
        engine.add(comm("c", 3, 2))
        assert engine.components == [("a", "b", "c")]
        engine.remove("b")
        assert engine.components == [("a",), ("c",)]
        assert engine.penalties() == {"a": 1.0, "c": 1.0}

    def test_arrival_merges_components(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        engine.add(comm("a", 0, 1))
        engine.add(comm("b", 2, 3))
        assert engine.components == [("a",), ("b",)]
        engine.add(comm("c", 0, 3))
        assert engine.components == [("a", "b", "c")]

    def test_intra_node_flows_never_enter_components(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(comm("local", 4, 4))
        engine.add(comm("remote", 4, 5))
        assert engine.components == [("remote",)]
        pens = engine.penalties()
        assert pens["local"] == 1.0
        engine.remove("local")
        assert engine.penalties() == {"remote": 1.0}

    def test_cache_hit_skips_model_evaluation(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(comm("a", 0, 1))
        engine.add(comm("b", 0, 2))
        first = engine.penalties()
        engine.remove("a")
        engine.remove("b")
        engine.penalties()
        misses_before = engine.stats.cache_misses
        # the same situation on different hosts with different names
        engine.add(comm("x", 7, 8))
        engine.add(comm("y", 7, 9))
        second = engine.penalties()
        assert engine.stats.cache_misses == misses_before
        assert engine.stats.cache_hits >= 1
        assert sorted(second.values()) == sorted(first.values())

    def test_shared_cache_across_engines(self):
        cache = PenaltyCache()
        first = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        first.add(comm("a", 0, 1))
        first.add(comm("b", 0, 2))
        first.penalties()
        second = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        second.add(comm("p", 3, 4))
        second.add(comm("q", 3, 5))
        second.penalties()
        assert second.stats.cache_hits == 1
        assert second.stats.comm_evaluations == 0

    def test_update_diffs_the_active_set(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        engine.update([comm("a", 0, 1), comm("b", 0, 2)])
        assert set(engine.graph.names) == {"a", "b"}
        pens = engine.update([comm("b", 0, 2), comm("c", 5, 6)])
        assert set(pens) == {"b", "c"}
        assert set(engine.graph.names) == {"b", "c"}

    def test_update_replaces_renamed_endpoints(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        engine.update([comm("a", 0, 1)])
        pens = engine.update([comm("a", 2, 3)])
        assert engine.graph["a"].endpoints == (2, 3)
        assert pens == {"a": 1.0}

    def test_reset_keeps_cache(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(comm("a", 0, 1))
        engine.add(comm("b", 0, 2))
        engine.penalties()
        engine.reset()
        assert len(engine.graph) == 0
        engine.add(comm("x", 5, 6))
        engine.add(comm("y", 5, 7))
        engine.penalties()
        assert engine.stats.cache_hits >= 1

    def test_myrinet_incremental_matches_analysis(self):
        model = MyrinetModel()
        engine = IncrementalPenaltyEngine(MyrinetModel())
        comms = [comm("a", 0, 1), comm("b", 0, 2), comm("c", 3, 1), comm("d", 3, 2)]
        for c in comms:
            engine.add(c)
        assert engine.penalties() == model.penalties(CommunicationGraph(comms))
        engine.remove("c")
        remaining = [c for c in comms if c.name != "c"]
        assert engine.penalties() == model.penalties(CommunicationGraph(remaining))

    def test_stats_snapshot_keys(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        engine.add(comm("a", 0, 1))
        engine.penalties()
        snap = engine.stats.snapshot()
        assert snap["events"] == 1
        assert set(snap) == {
            "events", "component_evaluations", "comm_evaluations",
            "cache_hits", "cache_misses",
        }


class TestPenaltyCache:
    def test_lru_eviction(self):
        cache = PenaltyCache(max_entries=2)
        cache.store("k1", {"a": (0, 1)}, {"a": 1.0})
        cache.store("k2", {"a": (0, 1)}, {"a": 2.0})
        cache.get("k1")  # refresh k1
        cache.store("k3", {"a": (0, 1)}, {"a": 3.0})
        assert cache.get("k2") is None
        assert cache.get("k1") is not None
        assert len(cache) == 2

    def test_asymmetric_component_not_cached(self):
        cache = PenaltyCache()
        # two same-endpoint communications with different penalties: unsound
        cache.store(
            "k",
            {"a": (0, 1), "b": (0, 1)},
            {"a": 1.0, "b": 2.0},
        )
        assert cache.get("k") is None

    def test_zero_capacity_disables(self):
        cache = PenaltyCache(max_entries=0)
        cache.store("k", {"a": (0, 1)}, {"a": 1.0})
        assert cache.get("k") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(GraphError):
            PenaltyCache(max_entries=-1)


class TestCacheModelNamespacing:
    def test_shared_cache_never_leaks_between_models(self):
        """Regression: a cache shared across providers wrapping different
        models must not serve one model's penalties to the other."""
        cache = PenaltyCache()
        ethernet = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        infiniband = IncrementalPenaltyEngine(InfinibandModel(), cache=cache)
        comms = [comm("a", 0, 1), comm("b", 0, 2)]
        for c in comms:
            ethernet.add(c)
            infiniband.add(c)
        expected = InfinibandModel().penalties(CommunicationGraph(comms))
        ethernet.penalties()
        assert infiniband.penalties() == expected
        assert infiniband.stats.cache_hits == 0

    def test_shared_cache_never_leaks_between_parameterizations(self):
        from repro.core import EthernetParameters
        cache = PenaltyCache()
        paper = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        custom_model = GigabitEthernetModel(EthernetParameters(beta=0.5))
        custom = IncrementalPenaltyEngine(
            GigabitEthernetModel(EthernetParameters(beta=0.5)), cache=cache)
        comms = [comm("a", 0, 1), comm("b", 0, 2)]
        for c in comms:
            paper.add(c)
            custom.add(c)
        paper.penalties()
        assert custom.penalties() == custom_model.penalties(CommunicationGraph(comms))

    def test_same_model_still_shares(self):
        cache = PenaltyCache()
        first = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        second = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        first.add(comm("a", 0, 1))
        first.add(comm("b", 0, 2))
        first.penalties()
        second.add(comm("x", 5, 6))
        second.add(comm("y", 5, 7))
        second.penalties()
        assert second.stats.cache_hits == 1


class TestMyrinetDecomposeContract:
    def test_no_decompose_means_no_locality_promise(self):
        assert MyrinetModel(decompose=False).component_rule is None
        assert MyrinetModel(decompose=True).component_rule == ConflictRule.ENDPOINT

    def test_component_cap_error_identical_between_modes(self):
        """Regression: with decompose=False the incremental engine must hit
        the same max_component_size cap as a full recomputation instead of
        silently decomposing the graph."""
        from repro.exceptions import ModelError

        comms = [comm(f"t{i}", 2 * i, 2 * i + 1) for i in range(5)]
        full_model = MyrinetModel(decompose=False, max_component_size=3)
        with pytest.raises(ModelError):
            full_model.penalties(CommunicationGraph(comms))
        engine = IncrementalPenaltyEngine(MyrinetModel(decompose=False, max_component_size=3))
        for c in comms:
            engine.add(c)
        with pytest.raises(ModelError):
            engine.penalties()


class TestCacheTelemetry:
    def test_hit_miss_and_eviction_counters(self):
        cache = PenaltyCache(max_entries=2)
        assert cache.get("a") is None            # miss
        cache.put("a", {(0, 1): 1.5})
        assert cache.get("a") == {(0, 1): 1.5}   # hit
        assert cache.get("a") is not None        # hit again
        cache.put("b", {(0, 1): 2.0})
        cache.put("c", {(0, 1): 3.0})            # evicts "a" (2 earned hits)
        summary = cache.stats()
        assert summary["lookups"] == 3
        assert summary["hits"] == 2
        assert summary["misses"] == 1
        assert summary["hit_rate"] == pytest.approx(2 / 3)
        assert summary["evictions"] == 1
        assert summary["evicted_entry_hits"] == 2
        assert summary["entries"] == 2
        assert summary["entries_never_hit"] == 2  # "b" and "c" never hit

    def test_entry_hits_follow_lru_order(self):
        cache = PenaltyCache()
        cache.put("a", {(0, 1): 1.0})
        cache.put("b", {(0, 1): 2.0})
        cache.get("a")                            # refreshes "a" to MRU
        assert cache.entry_hits() == [("b", 0), ("a", 1)]
        assert cache.stats()["max_entry_hits"] == 1
        assert cache.stats()["live_entry_hits"] == 1

    def test_clear_resets_entry_hits(self):
        cache = PenaltyCache()
        cache.put("a", {(0, 1): 1.0})
        cache.get("a")
        cache.clear()
        assert cache.entry_hits() == []
        # traffic totals survive a clear (they describe the cache's lifetime)
        assert cache.stats()["hits"] == 1


def refreshed(engine):
    """``refresh_handles()`` as a handle → penalty mapping."""
    handles, penalties = engine.refresh_handles()
    return dict(zip(handles, penalties.tolist()))


class TestRefreshDeltaInterface:
    def test_refresh_returns_only_repriced_communications(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(comm("a", 0, 1), "a")
        engine.add(comm("b", 0, 2), "b")
        engine.add(comm("c", 5, 6), "c")
        first = refreshed(engine)
        assert set(first) == {"a", "b", "c"}
        # a new flow conflicting only with c's component re-prices just it
        engine.add(comm("d", 5, 7), "d")
        second = refreshed(engine)
        assert set(second) == {"c", "d"}
        assert engine.penalties()["a"] == first["a"]

    def test_refresh_reports_intra_node_arrivals(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(comm("intra", 3, 3), "intra")
        assert refreshed(engine) == {"intra": 1.0}
        assert refreshed(engine) == {}

    def test_refresh_reports_departure_fallout(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(comm("a", 0, 1), "a")
        engine.add(comm("b", 0, 2), "b")
        refreshed(engine)
        engine.remove("a")
        fallout = refreshed(engine)
        assert set(fallout) == {"b"}          # b's component was re-priced
        assert fallout["b"] == 1.0            # and is now conflict-free
