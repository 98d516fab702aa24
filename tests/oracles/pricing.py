"""Test oracles for the pricing layer.

* :class:`ScalarPricingEngine` is the incremental penalty engine with the
  batched dispatch taken out: every dirty conflict component is looked up
  in the cache and, on a miss, priced on its own through
  :meth:`~repro.core.penalty.ContentionModel.component_penalties`.
  :class:`ScalarPricingProvider` is a
  :class:`~repro.simulator.providers.ModelRateProvider` running on it.
* :class:`FullRecomputeProvider` is the rate provider from before the
  incremental engine: every delta rebuilds the in-flight communication
  graph and re-prices every active transfer through
  :meth:`~repro.core.penalty.ContentionModel.penalties`, and reports all of
  them as changed.  It speaks only the dict view ``update``; the calendar
  reaches it through :class:`~oracles.slot_adapter.SlotAdapter`.

The production provider must agree with both, rate for rate
(``tests/property/test_incremental_properties.py``,
``tests/property/test_vectorized_pricing.py``).
"""

from __future__ import annotations

import math

from repro.core.graph import Communication, CommunicationGraph
from repro.core.incremental import EngineStats, IncrementalPenaltyEngine
from repro.exceptions import SimulationError
from repro.network.technologies import get_technology
from repro.simulator.providers import ModelRateProvider


class ScalarPricingEngine(IncrementalPenaltyEngine):
    """Reference engine: one ``component_penalties`` call per cache miss."""

    def _price_dirty_impl(self):
        for comp_id in sorted(self._dirty):
            names = sorted(self._members[comp_id])
            key = endpoint_ranks = None
            if self.cache is not None:
                component_key, endpoint_ranks = self.graph.canonical_component(names)
                key = (self._model_key, component_key)
                cached = self.cache.get(key)
                if cached is not None:
                    self.stats.cache_hits += 1
                    for name in names:
                        self._penalties[name] = cached[endpoint_ranks[name]]
                    continue
                self.stats.cache_misses += 1
            evaluated = self.model.component_penalties(self.graph, names)
            self.stats.component_evaluations += 1
            self.stats.comm_evaluations += len(names)
            if key is not None:
                self.cache.store(key, endpoint_ranks, evaluated)
            for name in names:
                self._penalties[name] = evaluated[name]
        self._dirty.clear()


class ScalarPricingProvider(ModelRateProvider):
    """:class:`ModelRateProvider` pricing through :class:`ScalarPricingEngine`."""

    def __init__(self, model, technology, cache=None):
        super().__init__(model, technology)
        self._engine = ScalarPricingEngine(model, cache=cache)


class FullRecomputeProvider:
    """Reference provider: whole-graph re-evaluation on every delta."""

    def __init__(self, model, technology):
        if isinstance(technology, str):
            technology = get_technology(technology)
        self.model = model
        self.technology = technology
        #: only the communication-evaluation counters move
        self.stats = EngineStats()
        self._active = {}
        self._rates = {}
        self._penalties = {}

    def reset(self):
        self._active = {}
        self._rates = {}
        self._penalties = {}

    def update(self, added, removed):
        active = dict(self._active)
        for tid in removed:
            if tid not in active:
                raise SimulationError(f"unknown transfer {tid!r} removed from rate set")
            del active[tid]
        for transfer in added:
            if transfer.transfer_id in active:
                raise SimulationError(
                    f"transfer {transfer.transfer_id!r} added to the rate set twice")
            active[transfer.transfer_id] = transfer
        self._active = active
        graph = CommunicationGraph(name="in-flight")
        for tid, transfer in active.items():
            # sizes round up, like the production provider's communications
            graph.add(Communication(name=str(tid), src=transfer.src,
                                    dst=transfer.dst,
                                    size=int(math.ceil(transfer.size))))
        self._penalties = dict(self.model.penalties(graph)) if active else {}
        if active:
            self.stats.events += 1
            self.stats.component_evaluations += 1
            self.stats.comm_evaluations += len(active)
        self._rates = {tid: self._rate_of(transfer, self._penalties[str(tid)])
                       for tid, transfer in active.items()}
        return dict(self._rates)

    def rates(self, active):
        self._sync(active)
        return {t.transfer_id: self._rates[t.transfer_id] for t in active}

    def instantaneous_penalties(self, active):
        self._sync(active)
        return {t.transfer_id: self._penalties[str(t.transfer_id)] for t in active}

    def _sync(self, active):
        wanted = {t.transfer_id: t for t in active}
        if len(wanted) != len(active):
            raise SimulationError("duplicate transfer ids in the active set")

        def signature(transfers):
            return {tid: (t.src, t.dst, t.size) for tid, t in transfers.items()}

        if signature(wanted) != signature(self._active):
            self.update(list(wanted.values()), list(self._active))

    def _rate_of(self, transfer, penalty):
        if transfer.is_intra_node:
            return self.technology.memory_bandwidth / max(1.0, penalty)
        return self.technology.single_stream_bandwidth / max(1.0, penalty)
