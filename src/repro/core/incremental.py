"""Incremental contention engine.

The fluid simulators re-price the set of in-flight communications on *every*
flow arrival and departure.  Rebuilding a :class:`CommunicationGraph` and
re-evaluating the full contention model each time makes large scenarios
O(events × flows) in model evaluations, even though a single event only
changes the penalties of one conflict component.  This module provides the
machinery that makes re-pricing proportional to what actually changed:

* :class:`IncrementalPenaltyEngine` maintains a live communication graph
  through the :meth:`~repro.core.graph.CommunicationGraph.add` /
  :meth:`~repro.core.graph.CommunicationGraph.remove` delta API, tracks the
  partition of inter-node communications into conflict components under the
  model's :attr:`~repro.core.penalty.ContentionModel.component_rule`, and
  re-evaluates **only the dirty components** (the merged component on an
  arrival, the split remnants on a departure) through
  :meth:`~repro.core.penalty.ContentionModel.component_penalties`;
* :class:`PenaltyCache` memoizes component evaluations keyed by the
  canonical component snapshot
  (:meth:`~repro.core.graph.CommunicationGraph.structural_key`), so the
  repeated contention situations of iterative workloads (LINPACK panels,
  collectives) are cache hits that cost no model evaluation at all;
* :class:`EngineStats` counts events, component/communication evaluations
  and cache traffic, which is how ``benchmarks/bench_scale_engine.py``
  demonstrates the speedup.

Exactness: for a model that is component-local under its declared rule,
evaluating a component's subgraph performs the *same* arithmetic on the
*same* values as evaluating the whole graph, and a cache hit replays the
result of an isomorphic component — the penalties are bit-identical to a
full recomputation (property-tested in
``tests/property/test_incremental_properties.py``).

Batched pricing: the engine gathers every dirty component that missed the
cache and prices the whole set in one
:meth:`~repro.core.penalty.ContentionModel.penalties_batch` call — the
analytic models compute the λ/γ degree counts and penalties of all
selections as numpy array operations instead of a Python loop per
communication.  The batch path replicates the scalar arithmetic operation
for operation (int degree counts convert to float64 exactly, and the
association order of every product matches the scalar expressions), so the
penalties are **bit-identical** to pricing each component through
:meth:`~repro.core.penalty.ContentionModel.component_penalties`;
``tests/property/test_vectorized_pricing.py`` cross-checks the engine
against that per-component loop (kept as the test oracle
``tests/oracles/pricing.py``) over random delta sequences.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from time import perf_counter
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .._numpy import np
from ..exceptions import GraphError
from .graph import Communication, CommunicationGraph
from .penalty import ContentionModel, LinearCostModel, PenaltyPrediction

__all__ = [
    "EngineStats",
    "PenaltyCache",
    "IncrementalPenaltyEngine",
    "cached_penalties",
    "cached_predict",
]


@dataclass
class EngineStats:
    """Counters describing how much work the incremental engine performed."""

    #: flow arrivals + departures applied to the live graph
    events: int = 0
    #: calls into the model (one per dirty component that missed the cache)
    component_evaluations: int = 0
    #: per-communication model evaluations actually performed (the unit the
    #: benchmark compares against the O(events × flows) full-recompute path)
    comm_evaluations: int = 0
    #: dirty components re-priced from a memoized isomorphic snapshot
    cache_hits: int = 0
    cache_misses: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "events": self.events,
            "component_evaluations": self.component_evaluations,
            "comm_evaluations": self.comm_evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


class PenaltyCache:
    """LRU memo of component penalty evaluations.

    Keys pair the model identity (:meth:`ContentionModel.memo_key`, so a
    cache shared across engines never leaks penalties between different
    models or parameterizations) with a canonical component snapshot
    (:meth:`CommunicationGraph.canonical_component`); values map the canonical
    ``(src_rank, dst_rank)`` endpoint pair of each communication to its
    penalty.  Communications of a component that share both endpoints are
    automorphic, hence share a penalty, so the endpoint pair identifies the
    penalty unambiguously; :meth:`store` verifies this and refuses to cache a
    component for which a model violates it.

    The cache is thread-safe: the campaign runner shares one instance across
    a pool of scenario workers, and the simulator providers of those workers
    hit it concurrently.

    Telemetry: every entry carries a hit count, and the cache totals its
    lookups, hits, misses and evictions.  :meth:`stats` summarises them so a
    campaign can size ``max_entries`` from observed traffic — a large
    ``evictions`` count with many ``evicted_entry_hits`` means the LRU bound
    is discarding situations that were still earning hits, while a large
    ``entries_never_hit`` share means the cache is over-provisioned.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 0:
            raise GraphError(f"max_entries must be non-negative, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Dict[Tuple[int, int], float]]" = OrderedDict()
        self._lock = threading.RLock()
        self._entry_hits: Dict[Hashable, int] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: hits that had been earned by entries the LRU bound later discarded
        self.evicted_entry_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Dict[Tuple[int, int], float]]:
        with self._lock:
            self.lookups += 1
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entry_hits[key] = self._entry_hits.get(key, 0) + 1
                self._entries.move_to_end(key)
            else:
                self.misses += 1
            return entry

    def store(
        self,
        key: Hashable,
        endpoint_ranks: Dict[str, Tuple[int, int]],
        penalties: Dict[str, float],
    ) -> None:
        """Memoize one component evaluation; silently skip unsound entries."""
        if self.max_entries == 0:
            return
        mapping: Dict[Tuple[int, int], float] = {}
        for name, pair in endpoint_ranks.items():
            penalty = penalties[name]
            if pair in mapping and mapping[pair] != penalty:
                return  # model broke endpoint symmetry: not memoizable
            mapping[pair] = penalty
        self.put(key, mapping)

    def put(self, key: Hashable, mapping: Dict[Tuple[int, int], float]) -> None:
        """Insert an already-validated ``(src_rank, dst_rank) -> penalty`` entry.

        Used by the persistence layer and by the campaign runner to merge
        entries computed by worker processes; :meth:`store` remains the
        validating path for fresh model evaluations.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = mapping
            self._entries.move_to_end(key)
            self._entry_hits.setdefault(key, 0)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self.evictions += 1
                self.evicted_entry_hits += self._entry_hits.pop(evicted, 0)

    def items(self) -> List[Tuple[Hashable, Dict[Tuple[int, int], float]]]:
        """Snapshot of every entry in LRU order (oldest first)."""
        with self._lock:
            return [(key, dict(mapping)) for key, mapping in self._entries.items()]

    def entry_hits(self) -> List[Tuple[Hashable, int]]:
        """Per-entry hit counts in LRU order (oldest first)."""
        with self._lock:
            return [(key, self._entry_hits.get(key, 0)) for key in self._entries]

    def stats(self) -> Dict[str, float]:
        """Summary of cache traffic and the per-entry hit distribution."""
        with self._lock:
            counts = [self._entry_hits.get(key, 0) for key in self._entries]
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / self.lookups if self.lookups else 0.0,
                "evictions": self.evictions,
                "evicted_entry_hits": self.evicted_entry_hits,
                "live_entry_hits": sum(counts),
                "entries_never_hit": sum(1 for c in counts if c == 0),
                "max_entry_hits": max(counts, default=0),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._entry_hits.clear()


class IncrementalPenaltyEngine:
    """Maintain model penalties of a changing set of communications.

    Parameters
    ----------
    model:
        The contention model to evaluate.  Its
        :attr:`~repro.core.penalty.ContentionModel.component_rule` decides
        the component partition; ``None`` degrades gracefully to whole-graph
        re-evaluation on every change (still benefiting from the memo cache
        when the model declares ``structural_penalties``).
    cache:
        Shared :class:`PenaltyCache`; pass the same instance to several
        engines to share memoized situations across simulations.  ``None``
        creates a private cache when the model is structural, and disables
        memoization otherwise.
    map_fn:
        Optional ``map``-compatible callable (e.g. the ``map`` method of a
        :class:`concurrent.futures.Executor`).  When set, the cache-miss
        component evaluations of one :meth:`penalties` call are fanned out
        through it — dirty conflict components are independent by
        construction, so the results are identical to serial evaluation.
        Two isomorphic components dirtied in the same batch are then both
        evaluated (serially the second is a cache hit), so the work counters
        may differ from the serial ones even though the penalties are
        bit-exact.  Without ``map_fn``, the cache-miss components of one
        refresh are priced in a single
        :meth:`~repro.core.penalty.ContentionModel.penalties_batch` call.
    """

    def __init__(
        self,
        model: ContentionModel,
        cache: Optional[PenaltyCache] = None,
        name: str = "in-flight",
        map_fn: Optional[Callable] = None,
    ) -> None:
        self.model = model
        self.map_fn = map_fn
        self.rule = model.component_rule
        if cache is None and model.structural_penalties:
            cache = PenaltyCache()
        self.cache = cache if model.structural_penalties else None
        # a cache may be shared between engines wrapping *different* models
        # (or differently parameterized ones): namespace every entry
        self._model_key = model.memo_key()
        self.graph = CommunicationGraph(name=name)
        self.stats = EngineStats()
        self._comp_of: Dict[str, int] = {}
        self._members: Dict[int, Set[str]] = {}
        self._by_resource: Dict[Hashable, Set[str]] = {}
        self._dirty: Set[int] = set()
        self._penalties: Dict[str, float] = {}
        self._comp_ids = itertools.count()
        #: intra-node arrivals since the last refresh (priced 1.0 on add, but
        #: still "re-priced" as far as the delta contract is concerned)
        self._fresh_intra: Set[str] = set()
        #: opaque caller handles stored at add() time, returned alongside the
        #: re-priced set by refresh_handles() — the slot-tier rate providers
        #: stash (tid, slot, is_intra) here so no per-flush hash gather is
        #: needed to translate names back into calendar slots
        self._handles: Dict[str, object] = {}
        #: repro.obs phase timer around dirty-component pricing; installed by
        #: set_metrics(), one pointer test per refresh when absent
        self._pricing_timer = None

    def set_metrics(self, registry) -> None:
        """Install the ``pricing.dirty_s`` phase timer from a metrics registry.

        Observability hook of the :mod:`repro.obs` layer: every dirty-set
        evaluation (whatever dispatch path it takes — batched or parallel)
        is timed.  Pass ``None`` to uninstall.
        """
        self._pricing_timer = (registry.timer("pricing.dirty_s")
                               if registry is not None else None)

    # ---------------------------------------------------------------- helpers
    def _resources(self, comm: Communication) -> Tuple[Hashable, ...]:
        if self.rule is None:
            # no locality promise: every inter-node communication shares one
            # global resource, i.e. the whole graph is a single component
            return (("all",),)
        return CommunicationGraph.conflict_resources(comm, self.rule)

    def _new_component(self, members: Set[str]) -> int:
        comp_id = next(self._comp_ids)
        self._members[comp_id] = members
        for member in members:
            self._comp_of[member] = comp_id
        self._dirty.add(comp_id)
        return comp_id

    def _drop_component(self, comp_id: int) -> Set[str]:
        self._dirty.discard(comp_id)
        return self._members.pop(comp_id)

    # ------------------------------------------------------------------ delta
    def add(self, comm: Communication, handle: object = None) -> None:
        """Apply one flow arrival.

        ``handle`` is an opaque caller token stored under ``comm.name`` and
        handed back by :meth:`refresh_handles` whenever the flow is
        re-priced (slot-tier providers pass ``(tid, slot, is_intra)``).
        """
        self.graph.add(comm)
        self.stats.events += 1
        if handle is not None:
            self._handles[comm.name] = handle
        if comm.is_intra_node:
            # per the ContentionModel.penalties contract, intra-node
            # communications are always penalty 1.0 (they never use the NIC)
            self._penalties[comm.name] = 1.0
            self._fresh_intra.add(comm.name)
            return
        merged: Set[str] = {comm.name}
        touched: Set[int] = set()
        for resource in self._resources(comm):
            occupants = self._by_resource.setdefault(resource, set())
            touched.update(self._comp_of[n] for n in occupants)
            occupants.add(comm.name)
        for comp_id in touched:
            merged |= self._drop_component(comp_id)
        self._new_component(merged)

    def remove(self, name: str) -> None:
        """Apply one flow departure."""
        comm = self.graph.remove(name)
        self.stats.events += 1
        self._penalties.pop(name, None)
        self._handles.pop(name, None)
        if comm.is_intra_node:
            self._fresh_intra.discard(name)
            return
        for resource in self._resources(comm):
            occupants = self._by_resource[resource]
            occupants.discard(name)
            if not occupants:
                del self._by_resource[resource]
        comp_id = self._comp_of.pop(name)
        remnants = self._drop_component(comp_id)
        remnants.discard(name)
        if not remnants:
            return
        # the departed flow may have been the only bridge: re-partition the
        # remnants locally (never the rest of the graph)
        unvisited = set(remnants)
        while unvisited:
            seed_name = unvisited.pop()
            component = {seed_name}
            frontier = [seed_name]
            while frontier:
                current = self.graph[frontier.pop()]
                for resource in self._resources(current):
                    for neighbour in self._by_resource.get(resource, ()):
                        if neighbour in unvisited:
                            unvisited.discard(neighbour)
                            component.add(neighbour)
                            frontier.append(neighbour)
            self._new_component(component)

    def update(self, comms: Iterable[Communication]) -> Dict[str, float]:
        """Diff the live graph against ``comms`` and return fresh penalties.

        Convenience for callers holding the *current* set rather than a
        stream of deltas (the rate-provider protocol hands the full active
        list to every call).  A communication whose name is already tracked
        but whose endpoints or size changed is treated as departure +
        arrival.
        """
        wanted = {c.name: c for c in comms}
        for name in [n for n in self.graph.names if n not in wanted]:
            self.remove(name)
        for name, comm in wanted.items():
            if name in self.graph:
                existing = self.graph[name]
                if existing.endpoints == comm.endpoints and existing.size == comm.size:
                    continue
                self.remove(name)
            self.add(comm)
        return self.penalties()

    # -------------------------------------------------------------- interface
    def penalties(self) -> Dict[str, float]:
        """Current penalty of every tracked communication (≥ 1).

        Re-evaluates only the components dirtied since the last call.
        """
        self._price_dirty()
        self._fresh_intra.clear()
        return dict(self._penalties)

    def refresh_handles(self) -> Tuple[List[object], "np.ndarray"]:
        """Price the dirty components; return **only** the re-priced ones.

        The delta counterpart of :meth:`penalties`: the result covers
        exactly the communications whose penalty may have changed since the
        previous refresh — the members of every component dirtied by
        :meth:`add`/:meth:`remove` (arrivals, departures, and the
        neighbours they merged with or split from), plus intra-node arrivals
        (always re-priced to 1.0).  Communications of untouched components
        keep their stored penalty and are *not* returned, which is what lets
        a rate provider report "what changed" to the execution engine's
        event calendar without touching the rest of the active set.

        Returns ``(handles, penalties)``: the opaque handles registered at
        :meth:`add` time (slot-tier rate providers encode tid, slot and
        intra flag there, so no name→tid→slot hash gathers happen per
        flush) and a parallel float64 penalty array.  Every member of the
        re-priced set must have been added with a handle.
        """
        repriced: Set[str] = set(self._fresh_intra)
        for comp_id in self._dirty:
            repriced.update(self._members[comp_id])
        self._price_dirty()
        self._fresh_intra.clear()
        # sorted, not set order: the order sets the calendar's retime and
        # heap tie-break order, which must not depend on PYTHONHASHSEED
        names = sorted(repriced)
        handles_of = self._handles
        handles = [handles_of[name] for name in names]
        penalties = self._penalties
        values = np.fromiter((penalties[name] for name in names),
                             dtype=np.float64, count=len(names))
        return handles, values

    def _price_dirty(self) -> None:
        """Evaluate every dirty component (through the cache) and clear the set."""
        timer = self._pricing_timer
        if timer is None:
            return self._price_dirty_impl()
        start = perf_counter()
        try:
            return self._price_dirty_impl()
        finally:
            timer.observe(perf_counter() - start)

    def _price_dirty_impl(self) -> None:
        if self.map_fn is not None and self.rule is not None:
            self._price_dirty_parallel()
        else:
            self._price_dirty_batched()

    def _price_dirty_batched(self) -> None:
        """Price every cache miss of the dirty set in one batch call.

        Two isomorphic components dirtied in the same refresh are both
        evaluated (one at a time, the second would be a cache hit), so the
        work counters may differ from a per-component loop even though the
        penalties are bit-exact.
        """
        pending: List[Tuple[List[str], Optional[Hashable], Optional[Dict[str, Tuple[int, int]]]]] = []
        for comp_id in sorted(self._dirty):
            names = sorted(self._members[comp_id])
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
                pending.append((names, key, endpoint_ranks))
            else:
                pending.append((names, None, None))
        if pending:
            evaluations = self.model.penalties_batch(
                self.graph, [names for names, _, _ in pending]
            )
            for (names, key, endpoint_ranks), evaluated in zip(pending, evaluations):
                self.stats.component_evaluations += 1
                self.stats.comm_evaluations += len(names)
                if key is not None and self.cache is not None:
                    self.cache.store(key, endpoint_ranks, evaluated)
                for name in names:
                    self._penalties[name] = evaluated[name]
        self._dirty.clear()

    def _price_dirty_parallel(self) -> None:
        """Batch variant of :meth:`_price_dirty` that fans misses out via ``map_fn``."""
        hits: List[Tuple[List[str], Dict[Tuple[int, int], float], Dict[str, Tuple[int, int]]]] = []
        pending: List[Tuple[List[str], Optional[Hashable], Optional[Dict[str, Tuple[int, int]]]]] = []
        for comp_id in sorted(self._dirty):
            names = sorted(self._members[comp_id])
            if self.cache is not None:
                component_key, endpoint_ranks = self.graph.canonical_component(names)
                key = (self._model_key, component_key)
                cached = self.cache.get(key)
                if cached is not None:
                    hits.append((names, cached, endpoint_ranks))
                    continue
                pending.append((names, key, endpoint_ranks))
            else:
                pending.append((names, None, None))
        if len(pending) > 1:
            jobs = [
                (self.model, self.graph.subgraph(names), tuple(names))
                for names, _, _ in pending
            ]
            evaluations = list(self.map_fn(_evaluate_component, jobs))
        else:  # nothing to parallelize: skip the pool round-trip
            evaluations = self.model.penalties_batch(
                self.graph, [names for names, _, _ in pending]
            )
        # commit phase — no engine state (stats, cache, dirty set) was touched
        # above, so a pool failure leaves a clean retry
        for names, cached, endpoint_ranks in hits:
            self.stats.cache_hits += 1
            for name in names:
                self._penalties[name] = cached[endpoint_ranks[name]]
        for (names, key, endpoint_ranks), evaluated in zip(pending, evaluations):
            self.stats.component_evaluations += 1
            self.stats.comm_evaluations += len(names)
            if key is not None and self.cache is not None:
                self.stats.cache_misses += 1
                self.cache.store(key, endpoint_ranks, evaluated)
            for name in names:
                self._penalties[name] = evaluated[name]
        self._dirty.clear()

    # ------------------------------------------------------------------ misc
    @property
    def components(self) -> List[Tuple[str, ...]]:
        """Current component partition (sorted tuples, for inspection/tests)."""
        return sorted(tuple(sorted(m)) for m in self._members.values())

    def reset(self) -> None:
        """Forget every tracked communication (the memo cache survives)."""
        self.graph = CommunicationGraph(name=self.graph.name)
        self._comp_of.clear()
        self._members.clear()
        self._by_resource.clear()
        self._dirty.clear()
        self._penalties.clear()
        self._fresh_intra.clear()
        self._handles.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IncrementalPenaltyEngine model={self.model.name!r} "
            f"comms={len(self.graph)} components={len(self._members)}>"
        )


def _evaluate_component(job: Tuple) -> Dict[str, float]:
    """Evaluate one conflict component (module-level so process pools can pickle it).

    ``job`` is ``(model, component_subgraph, names)``; for a component-local
    model, pricing the component's subgraph through the model's batch path
    is exactly equivalent to pricing it inside the full graph.
    """
    model, graph, names = job
    return model.penalties_batch(graph, [list(names)])[0]


def cached_penalties(
    model: ContentionModel,
    graph: CommunicationGraph,
    cache: Optional[PenaltyCache] = None,
    map_fn: Optional[Callable] = None,
    stats: Optional[EngineStats] = None,
) -> Dict[str, float]:
    """Penalties of a static graph through the component/cache machinery.

    One-shot counterpart of :class:`IncrementalPenaltyEngine` for callers
    holding a fixed :class:`CommunicationGraph` (experiment sweeps, campaign
    scenarios): the graph is partitioned into conflict components under the
    model's rule, isomorphic components are served from ``cache``, and the
    cache misses are evaluated — all in one
    :meth:`~repro.core.penalty.ContentionModel.penalties_batch` dispatch,
    or in parallel through ``map_fn`` when given.  Bit-exact with ``model.penalties(graph)`` for every
    shipped model (component locality, snapshot replay and the batch array
    path are all exact).
    """
    if stats is None:
        stats = EngineStats()
    stats.events += 1
    result: Dict[str, float] = {}
    inter_names: List[str] = []
    for comm in graph:
        if comm.is_intra_node:
            result[comm.name] = 1.0
        else:
            inter_names.append(comm.name)
    if not inter_names:
        return result
    rule = model.component_rule
    if rule is None:
        components = [tuple(sorted(inter_names))]
    else:
        components = graph.conflict_components(rule)
    use_cache = cache is not None and model.structural_penalties
    model_key = model.memo_key() if use_cache else None
    pending: List[Tuple[Tuple[str, ...], Optional[Hashable], Optional[Dict[str, Tuple[int, int]]]]] = []
    for names in components:
        if use_cache:
            component_key, endpoint_ranks = graph.canonical_component(names)
            key = (model_key, component_key)
            cached = cache.get(key)
            if cached is not None:
                stats.cache_hits += 1
                for name in names:
                    result[name] = cached[endpoint_ranks[name]]
                continue
            stats.cache_misses += 1
            pending.append((names, key, endpoint_ranks))
        else:
            pending.append((names, None, None))
    if pending:
        if map_fn is not None and rule is not None and len(pending) > 1:
            jobs = [
                (model, graph.subgraph(names), tuple(names))
                for names, _, _ in pending
            ]
            evaluations = list(map_fn(_evaluate_component, jobs))
        else:
            evaluations = model.penalties_batch(
                graph, [list(names) for names, _, _ in pending]
            )
        for (names, key, endpoint_ranks), evaluated in zip(pending, evaluations):
            stats.component_evaluations += 1
            stats.comm_evaluations += len(names)
            if key is not None and cache is not None:
                cache.store(key, endpoint_ranks, evaluated)
            for name in names:
                result[name] = evaluated[name]
    # graph insertion order, so aggregates summed over the dict do not depend
    # on the hit/miss pattern (floating-point addition is order-sensitive)
    return {comm.name: result[comm.name] for comm in graph}


def cached_predict(
    model: ContentionModel,
    graph: CommunicationGraph,
    cost_model: Optional[LinearCostModel] = None,
    cache: Optional[PenaltyCache] = None,
    map_fn: Optional[Callable] = None,
    stats: Optional[EngineStats] = None,
) -> PenaltyPrediction:
    """Cache-aware counterpart of :meth:`ContentionModel.predict`.

    Identical penalties and times; the per-communication ``details``
    diagnostics are skipped (they bypass the component cache and none of the
    sweep consumers read them).
    """
    pens = cached_penalties(model, graph, cache=cache, map_fn=map_fn, stats=stats)
    times: Dict[str, float] = {}
    if cost_model is not None:
        for comm in graph:
            times[comm.name] = pens[comm.name] * cost_model.time(comm.size)
    return PenaltyPrediction(
        model_name=model.name,
        graph_name=graph.name,
        penalties=pens,
        times=times,
    )
