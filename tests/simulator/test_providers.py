"""Tests for the model-side rate provider (incremental path, size rounding)."""

from __future__ import annotations

from oracles.pricing import FullRecomputeProvider
from oracles.slot_adapter import SlotAdapter

from repro.core import FairShareModel, GigabitEthernetModel, PenaltyCache
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.technologies import get_technology
from repro.simulator.providers import ModelRateProvider


def transfers(*edges, size=1000.0):
    return [Transfer(transfer_id=i, src=s, dst=d, size=size)
            for i, (s, d) in enumerate(edges)]


class TestFractionalSizeRounding:
    def test_fractional_remaining_bytes_round_up(self):
        """Regression: int(transfer.size) used to truncate 0.4 B to a size-0
        communication mid-simulation."""
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        provider.update([Transfer(transfer_id=0, src=0, dst=1, size=0.4)], [])
        graph = provider._engine.graph
        assert graph["0"].size == 1

    def test_fractional_sizes_ceil_not_floor(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        provider.update([Transfer(transfer_id=0, src=0, dst=1, size=1048576.5)], [])
        graph = provider._engine.graph
        assert graph["0"].size == 1048577

    def test_integral_sizes_unchanged(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        provider.update([Transfer(transfer_id=0, src=0, dst=1, size=2048.0)], [])
        graph = provider._engine.graph
        assert graph["0"].size == 2048

    def test_sub_byte_transfer_still_gets_a_rate(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        rates = provider.rates([Transfer(transfer_id=0, src=0, dst=1, size=0.25)])
        assert rates[0] > 0


class TestIncrementalProvider:
    def test_rates_match_full_recompute(self):
        incremental = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        full = FullRecomputeProvider(GigabitEthernetModel(), "ethernet")
        active = transfers((0, 1), (0, 2), (3, 2), (5, 6))
        assert incremental.rates(active) == full.rates(active)
        # departure of transfer 1, arrival of a new flow
        active = [t for t in active if t.transfer_id != 1]
        active.append(Transfer(transfer_id=9, src=7, dst=6, size=500.0))
        assert incremental.rates(active) == full.rates(active)

    def test_incremental_stats_count_less_work(self):
        incremental = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        full = FullRecomputeProvider(GigabitEthernetModel(), "ethernet")
        base = transfers((0, 1), (2, 3), (4, 5), (6, 7))
        for provider in (incremental, full):
            provider.rates(base)
            for extra in range(8):
                provider.rates(base + [Transfer(transfer_id=100 + extra, src=8, dst=9, size=10.0)])
        assert incremental.stats.comm_evaluations < full.stats.comm_evaluations

    def test_intra_node_transfers_use_memory_path(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        technology = get_technology("ethernet")
        rates = provider.rates([Transfer(transfer_id=0, src=2, dst=2, size=100.0)])
        assert rates[0] == technology.memory_bandwidth

    def test_shared_cache_across_providers(self):
        cache = PenaltyCache()
        first = ModelRateProvider(GigabitEthernetModel(), "ethernet", cache=cache)
        first.rates(transfers((0, 1), (0, 2)))
        second = ModelRateProvider(GigabitEthernetModel(), "ethernet", cache=cache)
        second.rates(transfers((5, 6), (5, 7)))
        assert second.stats.cache_hits == 1
        assert second.stats.comm_evaluations == 0

    def test_empty_active_set(self):
        provider = ModelRateProvider(FairShareModel(), "ethernet")
        assert provider.rates([]) == {}
        assert provider.instantaneous_penalties([]) == {}

    def test_provider_reusable_across_fluid_runs(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(provider)
        batch = transfers((0, 1), (0, 2), (3, 2), size=4000.0)
        first = simulator.durations(batch)
        second = simulator.durations(batch)
        assert first == second

    def test_fluid_results_identical_between_modes(self):
        batch = transfers((0, 1), (0, 2), (1, 2), (3, 4), size=32000.0)
        staggered = [
            Transfer(transfer_id=t.transfer_id, src=t.src, dst=t.dst,
                     size=t.size, start_time=0.001 * t.transfer_id)
            for t in batch
        ]
        results = {}
        for mode, provider in (
            (True, ModelRateProvider(GigabitEthernetModel(), "ethernet")),
            (False, SlotAdapter(FullRecomputeProvider(GigabitEthernetModel(),
                                                      "ethernet"))),
        ):
            results[mode] = FluidTransferSimulator(provider).run(staggered)
        assert results[True] == results[False]
