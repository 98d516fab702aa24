"""Property tests: array water-filling is bit-exact with the scalar loop.

:func:`repro.network.sharing.weighted_max_min_allocation` has two
implementations behind one toggle — the historical dict-walking freeze loop
(``vectorized=False``) and the incidence-array path (``vectorized=True``).
Their contract is strict bit-exactness on arbitrary inputs (see the module
docstring of :mod:`repro.network.sharing` for why the float operation order
matches), which these tests assert over random flow/capacity instances and,
one level up, over random delta sequences through the calibrated
:class:`~repro.network.allocator.EmulatorRateProvider` against its scalar
``FlowSpec`` oracle (:mod:`oracles.allocator`) — on a clean crossbar and on
an oversubscribed fat tree whose fabric links actually bind, with warm
starts on and off.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.allocator import ScalarEmulatorProvider

from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer
from repro.network.sharing import FlowSpec, weighted_max_min_allocation
from repro.network.technologies import get_technology
from repro.network.topology import FatTreeTopology

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

capacity_strategy = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
)
flow_strategy = st.tuples(
    st.lists(st.integers(0, 9), min_size=0, max_size=4),  # resource ids (dups ok)
    st.one_of(st.just(float("inf")),
              st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)),  # cap
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),  # weight
)
instance_strategy = st.fixed_dictionaries({
    "capacities": st.lists(capacity_strategy, min_size=0, max_size=10),
    "flows": st.lists(flow_strategy, min_size=1, max_size=24),
})


def build_instance(spec):
    capacities = {f"r{i}": c for i, c in enumerate(spec["capacities"])}
    flows = []
    for index, (resources, cap, weight) in enumerate(spec["flows"]):
        names = tuple(
            f"r{r % len(capacities)}" for r in resources
        ) if capacities else ()
        flows.append(FlowSpec(f"f{index}", names, cap=cap, weight=weight))
    return flows, capacities


class TestWaterFillingBitExact:
    @common_settings
    @given(spec=instance_strategy)
    def test_array_and_scalar_paths_identical(self, spec):
        flows, capacities = build_instance(spec)
        scalar = weighted_max_min_allocation(flows, capacities, vectorized=False)
        array = weighted_max_min_allocation(flows, capacities, vectorized=True)
        assert scalar == array
        assert all(type(r) is float for r in array.values())

    @common_settings
    @given(spec=instance_strategy)
    def test_auto_dispatch_matches_both(self, spec):
        flows, capacities = build_instance(spec)
        auto = weighted_max_min_allocation(flows, capacities)
        assert auto == weighted_max_min_allocation(flows, capacities, vectorized=False)


# --------- emulator level: vectorized allocator over delta sequences -------
step_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 11), st.integers(0, 11)),
    st.tuples(st.just("del"), st.integers(0, 30), st.integers(0, 0)),
)
sequence_strategy = st.lists(step_strategy, min_size=1, max_size=30)


def deltas(steps, max_live=10):
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


def make_provider(technology, loaded_fabric, warm_start, factory):
    topology = None
    if loaded_fabric:
        # 4:1 oversubscription on 12 hosts: the shared uplinks genuinely bind
        topology = FatTreeTopology(
            num_hosts=12, technology=technology,
            hosts_per_edge=4, uplinks_per_edge=1,
        )
    return factory(
        technology, topology=topology, num_hosts=12, warm_start=warm_start,
    )


class TestVectorizedEmulatorBitExact:
    @pytest.mark.parametrize("technology", ["ethernet", "myrinet", "infiniband"])
    @pytest.mark.parametrize("loaded_fabric", [False, True],
                             ids=["crossbar", "oversubscribed-fat-tree"])
    @pytest.mark.parametrize("warm_start", [False, True],
                             ids=["cold", "warm-start"])
    @common_settings
    @given(steps=sequence_strategy)
    def test_vectorized_and_scalar_update_streams_identical(
        self, technology, loaded_fabric, warm_start, steps
    ):
        tech = get_technology(technology)
        vec = make_provider(tech, loaded_fabric, warm_start, EmulatorRateProvider)
        ref = make_provider(tech, loaded_fabric, warm_start, ScalarEmulatorProvider)
        for added, removed, _live in deltas(steps):
            changed_vec = vec.update(added, removed)
            changed_ref = ref.update(added, removed)
            assert changed_vec == changed_ref
            assert all(type(r) is float for r in changed_vec.values())
