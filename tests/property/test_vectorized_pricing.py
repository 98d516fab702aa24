"""Property tests: numpy batch pricing is bit-exact with the scalar models.

``ContentionModel.penalties_batch`` prices several component selections in
one numpy dispatch; the incremental engine routes every cache-miss set of a
calendar flush through it.  The contract is strict
bit-exactness: for any communication graph, pricing the conflict components
through the batch path must return exactly (``==`` on floats, not approx)
what the scalar ``component_penalties`` loop and the whole-graph
``penalties`` call produce, for every shipped model and baseline.  The
engine-level test closes the loop: the production ``ModelRateProvider`` and
the per-component scalar oracle (:mod:`oracles.pricing`) must emit
identical rate streams over arbitrary delta sequences.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.pricing import ScalarPricingProvider

from repro.core import GigabitEthernetModel, InfinibandModel, MyrinetModel
from repro.core.baselines import (
    FairShareModel,
    KimLeeModel,
    LogGPContentionAdapter,
    LogGPCostModel,
    NoContentionModel,
)
from repro.core.graph import Communication, CommunicationGraph, ConflictRule
from repro.network.fluid import Transfer
from repro.simulator.providers import ModelRateProvider

MODEL_FACTORIES = [
    GigabitEthernetModel,
    MyrinetModel,
    InfinibandModel,
    NoContentionModel,
    FairShareModel,
    KimLeeModel,
    lambda: LogGPContentionAdapter(LogGPCostModel(L=5e-6, o=1e-6, g=2e-6, G=1e-8)),
]
MODEL_IDS = [
    "ethernet", "myrinet", "infiniband", "no-contention", "fair-share",
    "kim-lee", "loggp",
]

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# small host universe so endpoint conflicts are common; intra-node pairs
# (src == dst) are produced regularly
graph_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 10**7)),
    min_size=0, max_size=24,
)


def build_graph(triples) -> CommunicationGraph:
    graph = CommunicationGraph(name="batch-prop")
    for index, (src, dst, size) in enumerate(triples):
        graph.add(Communication(name=f"c{index}", src=src, dst=dst, size=size))
    return graph


class TestBatchPricingBitExact:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES, ids=MODEL_IDS)
    @common_settings
    @given(triples=graph_strategy)
    def test_batch_equals_scalar_components_and_full_graph(self, factory, triples):
        model = factory()
        graph = build_graph(triples)
        rule = model.component_rule or ConflictRule.ENDPOINT
        # conflict components plus the intra-node communications (which never
        # conflict) — together they cover the whole graph, like the engine's
        # dirty sets do
        selections = [list(names) for names in graph.conflict_components(rule)]
        intra = [comm.name for comm in graph if comm.is_intra_node]
        if intra:
            selections.append(intra)

        batched = model.penalties_batch(graph, selections)
        scalar = [model.component_penalties(graph, names) for names in selections]
        assert batched == scalar

        merged = {}
        for result in batched:
            merged.update(result)
        assert merged == model.penalties(graph)
        # the trace layer JSON-serialises penalties: no numpy scalars allowed
        assert all(type(v) is float for v in merged.values())

    @common_settings
    @given(triples=graph_strategy, keep=st.integers(0, 1))
    def test_batch_of_a_component_subset(self, triples, keep):
        """Selections need not cover the graph — any sub-collection of
        conflict components prices exactly like the scalar loop."""
        model = GigabitEthernetModel()
        graph = build_graph(triples)
        components = graph.conflict_components(ConflictRule.ENDPOINT)
        subset = [list(names) for names in components[keep::2]]
        batched = model.penalties_batch(graph, subset)
        for names, result in zip(subset, batched):
            assert result == model.component_penalties(graph, names)


# --- engine level: batched and scalar providers over delta sequences -------
step_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("del"), st.integers(0, 30), st.integers(0, 0)),
)
sequence_strategy = st.lists(step_strategy, min_size=1, max_size=30)


def deltas(steps, max_live=8):
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


class TestVectorizedProviderBitExact:
    @pytest.mark.parametrize(
        "factory", [GigabitEthernetModel, MyrinetModel, InfinibandModel],
        ids=["ethernet", "myrinet", "infiniband"],
    )
    @common_settings
    @given(steps=sequence_strategy)
    def test_vectorized_and_scalar_update_streams_identical(self, factory, steps):
        vec = ModelRateProvider(factory(), "ethernet")
        ref = ScalarPricingProvider(factory(), "ethernet")
        for added, removed, _live in deltas(steps):
            changed_vec = vec.update(added, removed)
            changed_ref = ref.update(added, removed)
            assert changed_vec == changed_ref
            assert all(type(r) is float for r in changed_vec.values())
