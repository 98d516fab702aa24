"""Property-based tests of the rate-provider delta contract.

``update(added, removed)`` must be a pure optimisation over the full-set
``rates()`` call: after *any* sequence of deltas, the rates accumulated
from the ``update`` returns (apply changed entries, drop removed ids) must
equal — bit for bit — what a cold provider reports for the final active
set, and at every intermediate step the shim ``rates()`` of the same
provider must agree with the accumulated state.  Both shipped providers
(contention model and calibrated emulator) are covered.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.pricing import FullRecomputeProvider

from repro.core import GigabitEthernetModel, InfinibandModel, MyrinetModel
from repro.exceptions import SimulationError
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer
from repro.network.technologies import get_technology
from repro.simulator.providers import ModelRateProvider

MODEL_FACTORIES = [GigabitEthernetModel, MyrinetModel, InfinibandModel]

# arrivals on (src, dst) in a small host universe (conflicts are common),
# departures of the k-th oldest live transfer; intra-node pairs allowed
step_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("del"), st.integers(0, 30), st.integers(0, 0)),
)
sequence_strategy = st.lists(step_strategy, min_size=1, max_size=30)

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def deltas(steps, max_live=8):
    """Turn a step sequence into (added, removed, live-after) triples."""
    live = {}
    counter = 0
    out = []
    for kind, x, y in steps:
        if kind == "add" and len(live) < max_live:
            transfer = Transfer(transfer_id=counter, src=x, dst=y, size=1000.0)
            live[counter] = transfer
            counter += 1
            out.append(([transfer], [], dict(live)))
        elif kind == "del" and live:
            tid = list(live)[x % len(live)]
            del live[tid]
            out.append(([], [tid], dict(live)))
    return out


def check_provider_sequence(provider, cold_factory, steps):
    accumulated = {}
    for added, removed, live in deltas(steps):
        changed = provider.update(added, removed)
        for tid in removed:
            accumulated.pop(tid, None)
        accumulated.update(changed)
        assert set(accumulated) == set(live)
        # a cold provider pricing the final set from scratch must agree
        cold = cold_factory().rates(list(live.values()))
        assert accumulated == cold


class TestModelProviderDeltaContract:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES, ids=lambda f: f().name)
    @common_settings
    @given(steps=sequence_strategy)
    def test_update_accumulates_to_cold_rates(self, factory, steps):
        provider = ModelRateProvider(factory(), "ethernet")
        check_provider_sequence(
            provider, lambda: ModelRateProvider(factory(), "ethernet"), steps
        )

    @common_settings
    @given(steps=sequence_strategy)
    def test_full_recompute_mode_honours_the_contract_too(self, steps):
        """The full-recompute oracle the parity suites compare against
        must itself honour the delta contract."""
        provider = FullRecomputeProvider(GigabitEthernetModel(), "ethernet")
        check_provider_sequence(
            provider,
            lambda: FullRecomputeProvider(GigabitEthernetModel(), "ethernet"),
            steps,
        )

    @common_settings
    @given(steps=sequence_strategy)
    def test_shim_rates_agree_with_update_stream(self, steps):
        delta_provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        shim_provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        accumulated = {}
        for added, removed, live in deltas(steps):
            changed = delta_provider.update(added, removed)
            for tid in removed:
                accumulated.pop(tid, None)
            accumulated.update(changed)
            assert shim_provider.rates(list(live.values())) == accumulated


class TestEmulatorProviderDeltaContract:
    @common_settings
    @given(steps=sequence_strategy)
    def test_update_accumulates_to_cold_rates(self, steps):
        """Without warm starts the delta stream is bit-exact with cold solves."""
        technology = get_technology("ethernet")
        provider = EmulatorRateProvider(technology, num_hosts=6, warm_start=False)
        check_provider_sequence(
            provider,
            lambda: EmulatorRateProvider(technology, num_hosts=6, warm_start=False),
            steps,
        )

    @common_settings
    @given(steps=sequence_strategy)
    def test_warm_started_updates_match_cold_rates_numerically(self, steps):
        """The warm-started production path covers the same transfers and is
        exact up to floating-point summation order (the component re-solve
        documented in repro.network.allocator)."""
        technology = get_technology("ethernet")
        provider = EmulatorRateProvider(technology, num_hosts=6)
        accumulated = {}
        for added, removed, live in deltas(steps):
            changed = provider.update(added, removed)
            for tid in removed:
                accumulated.pop(tid, None)
            accumulated.update(changed)
            assert set(accumulated) == set(live)
            cold = EmulatorRateProvider(technology, num_hosts=6).rates(
                list(live.values())
            )
            assert accumulated == pytest.approx(cold, rel=1e-9)

    @common_settings
    @given(steps=sequence_strategy)
    def test_unreported_transfers_kept_their_rate(self, steps):
        """The heart of the calendar's laziness: a transfer absent from an
        update() return must have exactly its previous rate."""
        technology = get_technology("myrinet")
        provider = EmulatorRateProvider(technology, num_hosts=6, warm_start=False)
        previous = {}
        for added, removed, live in deltas(steps):
            changed = provider.update(added, removed)
            fresh = EmulatorRateProvider(
                technology, num_hosts=6, warm_start=False
            ).rates(list(live.values()))
            for tid, rate in fresh.items():
                if tid not in changed:
                    assert previous[tid] == rate
            previous = fresh


class TestDeltaErrors:
    def test_removing_unknown_transfer_fails(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        with pytest.raises(Exception):
            provider.update([], [42])

    def test_double_add_fails(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        t = Transfer(transfer_id=0, src=0, dst=1, size=10.0)
        provider.update([t], [])
        with pytest.raises(Exception):
            provider.update([t], [])

    def test_reset_clears_tracking_but_not_the_memo(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        transfers = [Transfer(transfer_id=i, src=0, dst=i + 1, size=10.0)
                     for i in range(2)]
        provider.update(transfers, [])
        provider.reset()
        assert provider.rates(transfers)  # re-adding after reset works
        assert provider.stats.cache_hits >= 1  # memoized situation survived

SHIPPED_PROVIDERS = {
    "model": lambda: ModelRateProvider(GigabitEthernetModel(), "ethernet"),
    "emulator": lambda: EmulatorRateProvider(get_technology("ethernet"),
                                             num_hosts=4),
}


@pytest.mark.parametrize("make", SHIPPED_PROVIDERS.values(),
                         ids=SHIPPED_PROVIDERS.keys())
class TestDeltaValidation:
    """Both providers validate a delta id by id, before any mutation."""

    def test_remove_and_readd_in_one_delta_is_accepted(self, make):
        # the calendar's stall-retry cycle: departure + arrival of one id
        provider = make()
        t = Transfer(transfer_id="a", src=0, dst=1, size=10.0)
        provider.update([t], [])
        assert set(provider.update([t], ["a"])) == {"a"}

    def test_adding_an_active_id_is_rejected(self, make):
        provider = make()
        t = Transfer(transfer_id="a", src=0, dst=1, size=10.0)
        provider.update([t], [])
        with pytest.raises(SimulationError,
                           match="'a' added to the rate set twice"):
            provider.update([t], [])

    def test_removing_an_id_twice_is_rejected(self, make):
        provider = make()
        provider.update([Transfer(transfer_id="a", src=0, dst=1, size=10.0)], [])
        with pytest.raises(SimulationError,
                           match="unknown transfer 'a' removed"):
            provider.update([], ["a", "a"])
        assert provider.update([], ["a"]) == {}  # nothing half-applied

    def test_adding_an_id_twice_in_one_delta_is_rejected(self, make):
        provider = make()
        t = Transfer(transfer_id="a", src=0, dst=1, size=10.0)
        with pytest.raises(SimulationError,
                           match="'a' added to the rate set twice"):
            provider.update([t, t], [])
        assert set(provider.update([t], [])) == {"a"}
