"""Technology-aware rate allocation — the heart of the cluster emulator.

Given the set of transfers currently in flight, the allocator distributes
instantaneous bandwidth the way the emulated interconnect would:

* every inter-node transfer consumes the TX port of its source NIC, the RX
  port of its destination NIC and the fat-tree links in between;
* every intra-node transfer consumes the memory bus of its host;
* a single transfer cannot exceed the protocol's single-stream bandwidth
  (``single_stream_efficiency × link_bandwidth``);
* income/outgo interference degrades, per the calibrated
  :class:`~repro.network.technologies.SharingBehaviour`:

  - the individual cap of a transfer whose destination node is also
    transmitting (``duplex_flow_slowdown``),
  - the TX capacity of a node receiving at least ``reverse_threshold``
    transfers (``tx_capacity_loss``),
  - the RX capacity of a node receiving at least ``reverse_threshold``
    transfers while transmitting (``rx_capacity_loss``);

* the remaining capacity is shared max-min fair
  (:func:`repro.network.sharing.max_min_allocation`).

With the shipped calibration the allocator reproduces the penalty ladder the
paper measured on its three clusters (Figure 2) to within a few percent; see
``benchmarks/bench_fig2_penalty_ladder.py`` and ``EXPERIMENTS.md``.

Like the model-side provider, the allocator memoizes its max-min solutions
in a :class:`~repro.core.incremental.PenaltyCache` (the same LRU-with-
symmetry-check mechanism the contention models use, namespaced by technology
and topology so a cache may be shared across providers): the rate vector
only depends on the multiset of ``(src, dst)`` endpoint pairs of the active
transfers (sizes and transfer ids never enter the allocation, and
same-endpoint flows receive equal rates in the unique max-min solution), so
repeated sharing situations — ubiquitous in iterative workloads — are
dictionary lookups instead of solver runs.

The provider is **delta-scaled**: the endpoint-pair multiset that keys the
memo is maintained incrementally (a sorted pair list updated by bisection
per arrival/departure, instead of re-sorting the active set on every query),
per-transfer rates are kept in an incrementally-updated map, and the changed
set an ``update_slots`` call hands the calendar is derived by value-diffing
the allocation *per endpoint pair* against the previous one — so a memoized
flush costs O(delta + distinct pairs) instead of O(active × log active).
``update(added, removed)`` is a dict view over the same walk.  The full-set
``rates(active)`` call, which the §IV.B penalty measurement
(:meth:`EmulatorRateProvider.instantaneous_penalties`) uses, diffs the
requested set against the tracked one and applies the delta.

On a cache miss the water-filling is additionally *warm-started*: when
exactly one flow arrived or departed since the previous allocation, only the
coupling component of the changed flow (flows transitively sharing an
endpoint host or a fabric link with it) is re-solved and every other flow
keeps its previous rate.  Max-min allocations decompose exactly over
coupling components — the income/outgo capacity degradations and duplex caps
only couple flows through shared hosts — so the warm-started rates equal a
full re-solve up to floating-point summation order.
"""

from __future__ import annotations

import bisect
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from .._numpy import np
from ..core.incremental import PenaltyCache
from ..exceptions import SimulationError
from .fluid import SlotMap, Transfer, validate_delta
from .sharing import water_fill_arrays
from .technologies import NetworkTechnology
from .topology import CrossbarTopology, Topology

__all__ = ["EmulatorRateProvider"]


class EmulatorRateProvider:
    """Rate provider implementing the calibrated sharing behaviour of a technology.

    Parameters
    ----------
    technology, topology, num_hosts:
        The emulated interconnect and its wiring (crossbar by default).
    cache_size:
        Number of memoized sharing situations in the private cache
        (0 disables memoization).  Ignored when ``cache`` is given — a
        shared cache arrives with its own capacity.  Call
        :meth:`invalidate_cache` after mutating the topology or the
        technology in place.
    cache:
        Optional shared :class:`~repro.core.incremental.PenaltyCache`;
        entries are namespaced by technology and topology, so providers of
        one sweep can pool their memoized allocations.  Takes precedence
        over ``cache_size``.
    warm_start:
        Re-solve only the changed flow's coupling component when exactly one
        flow arrived/departed (see the module docstring); pass ``False`` to
        force a full water-filling on every miss.

    Cache-miss situations are priced through the array water-filling of
    :func:`repro.network.sharing.water_fill_arrays` over incidence arrays
    built incrementally from the tracked endpoint multiset (per-transfer
    resource tuples and per-host directional counts are maintained by
    ``_track``/``_untrack``, and the capacity vector covers only the
    resources the active flows reference instead of the O(num_hosts) full
    topology dictionary).  The historical per-solve
    :class:`~repro.network.sharing.FlowSpec` construction is kept as a test
    oracle (``tests/oracles/allocator.py``); the two are bit-exact — see
    ``tests/property/test_vectorized_sharing.py``.
    """

    def __init__(self, technology: NetworkTechnology, topology: Topology | None = None,
                 num_hosts: int = 64, cache_size: int = 4096,
                 cache: Optional[PenaltyCache] = None,
                 warm_start: bool = True) -> None:
        self.technology = technology
        self.topology = topology or CrossbarTopology(num_hosts=num_hosts, technology=technology)
        if self.topology.technology is not technology:
            # keep the two consistent; the topology carries link capacities
            self.topology.technology = technology
        self.cache_size = int(cache_size)
        self._owns_cache = cache is None
        self._rate_cache = cache if cache is not None else PenaltyCache(
            max_entries=max(0, self.cache_size)
        )
        # the epoch scopes this provider's entries; bumping it on
        # invalidation retires them without touching a shared cache
        self._epoch = 0
        self._rebuild_namespace()
        self.cache_hits = 0
        self.cache_misses = 0
        self.warm_start = bool(warm_start)
        self.warm_starts = 0
        #: tracked active set, for the delta contract (:meth:`update`)
        self._active: Dict[Hashable, Transfer] = {}
        #: incremental incidence state for the array solver: per transfer the
        #: resource key tuple plus the keys' integer slots, a dense slot map
        #: over every referenced resource (slots are persistent — resources
        #: of departed transfers keep theirs for reuse), the per-slot base
        #: capacity array, and per-host directional counts over the whole
        #: tracked set.  Integer slots give the solver's per-call resource
        #: index int keys instead of tuple keys (cheaper hashing per entry).
        self._resources_of_tid: Dict[
            Hashable, Tuple[Tuple[Hashable, ...], Tuple[int, ...]]
        ] = {}
        self._res_slots = SlotMap()
        self._res_caps = np.zeros(0, dtype=np.float64)
        self._counts: Dict[int, Dict[str, int]] = {}
        #: incremental endpoint multiset: pair per transfer, transfers per
        #: pair, and the sorted pair list that keys the memo (bisect-updated)
        self._pair_of_tid: Dict[Hashable, Tuple[int, int]] = {}
        self._tids_of_pair: Dict[Tuple[int, int], Dict[Hashable, None]] = {}
        self._sorted_pairs: List[Tuple[int, int]] = []
        #: incrementally maintained per-transfer rates and the per-pair
        #: allocation they came from (the value-diff baseline); ``None``
        #: baseline = report every pair on the next allocation
        self._rates_by_tid: Dict[Hashable, float] = {}
        self._last_by_pair: Optional[Dict[Tuple[int, int], float]] = None
        #: True once an allocation exists (warm starts need a predecessor)
        self._primed = False
        #: repro.obs phase timer around the water-fill solve; installed by
        #: register_metrics(), one pointer test per solve when absent
        self._solve_timer = None

    def register_metrics(self, registry, name: str = "emulator") -> None:
        """Join a :class:`repro.obs.MetricsRegistry`.

        Registers the allocation cache / warm-start counters as a live
        source under ``name`` and installs the ``waterfill.solve_s`` phase
        timer around every allocation solve.  Pass ``None`` to uninstall
        the timer (the source stays until re-registered or unregistered).
        """
        if registry is None:
            self._solve_timer = None
            return
        registry.register_source(name, lambda: {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "warm_starts": self.warm_starts,
            "active": len(self._active),
        })
        self._solve_timer = registry.timer("waterfill.solve_s")

    def _rebuild_namespace(self) -> None:
        self._namespace = (
            "emulator-rates", self._epoch, self.technology, self.topology.memo_key()
        )

    def invalidate_cache(self) -> None:
        """Drop memoized allocations (required after in-place reconfiguration).

        A private cache is cleared outright; on a shared cache only this
        provider's entries are retired (by bumping the namespace epoch), so
        other providers pooling the cache keep their valid entries.  The
        warm-start state and the stored rates are dropped either way, so the
        next query re-solves and re-reports everything.
        """
        self._epoch += 1
        self._rebuild_namespace()
        if self._owns_cache:
            self._rate_cache.clear()
        self._rates_by_tid = {}
        self._last_by_pair = None
        self._primed = False
        # the cached routes and capacities mirror the (possibly mutated)
        # topology/technology: rebuild them for the tracked transfers
        self._res_slots.clear()
        self._res_caps = np.zeros(0, dtype=np.float64)
        for tid, transfer in self._active.items():
            resources = self._resources_for(transfer)
            self._resources_of_tid[tid] = (
                resources, tuple(self._resource_slot(r) for r in resources)
            )

    # ---------------------------------------------------------------- helpers
    def _resource_slot(self, resource: Hashable) -> int:
        """Persistent integer slot of a capacity resource (allocated on first
        reference; the base-capacity array grows by doubling alongside)."""
        slots = self._res_slots
        slot = slots.get(resource)
        if slot is None:
            slot = slots.acquire(resource)
            caps = self._res_caps
            if slot >= len(caps):
                grown = np.zeros(max(16, 2 * len(caps), slot + 1),
                                 dtype=np.float64)
                grown[: len(caps)] = caps
                self._res_caps = caps = grown
            caps[slot] = self.topology.resource_capacity(resource)
        return slot

    def _resources_for(self, transfer: Transfer) -> Tuple[Hashable, ...]:
        """Capacity constraints the transfer consumes (cached per transfer)."""
        if transfer.is_intra_node:
            return (self.topology.memory_resource(transfer.src),)
        tx_key, _ = self.topology.nic_resources(transfer.src)
        _, rx_key = self.topology.nic_resources(transfer.dst)
        return (tx_key, rx_key) + tuple(
            self.topology.fabric_route(transfer.src, transfer.dst)
        )

    # -------------------------------------------------------------- interface
    def _situation_key(self) -> Hashable:
        """Memo key of the tracked situation — O(active) tuple copy of the
        incrementally maintained sorted pair list (no re-sort)."""
        return (self._namespace, tuple(self._sorted_pairs))

    def _solve(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        timer = self._solve_timer
        if timer is None:
            return self._solve_arrays(active)
        start = perf_counter()
        try:
            return self._solve_arrays(active)
        finally:
            timer.observe(perf_counter() - start)

    def _solve_arrays(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Array water-filling over the incrementally maintained incidence state.

        ``active`` may be the full tracked set or one coupling component (the
        warm-start path): the full-set directional counts agree with the
        component-restricted ones on every host a component flow touches —
        any transfer touching such a host belongs to the component — so the
        duplex caps and capacity degradations below are exactly those of a
        solve over the component alone, and unreferenced resources never
        influence the water level.
        """
        sharing = self.technology.sharing
        single = self.technology.single_stream_bandwidth
        counts = self._counts
        base_caps = self._res_caps
        tids: List[Hashable] = []
        caps: List[float] = []
        ent_flow: List[int] = []
        ent_res: List[int] = []
        res_index: Dict[int, int] = {}
        res_caps: List[float] = []
        for position, transfer in enumerate(active):
            tid = transfer.transfer_id
            tids.append(tid)
            if transfer.is_intra_node:
                cap = self.technology.memory_bandwidth
            else:
                cap = single
                dst_counts = counts.get(transfer.dst)
                if dst_counts is not None and dst_counts["tx"] >= 1:
                    cap *= 1.0 - sharing.duplex_flow_slowdown
            if cap <= 0:
                raise SimulationError(f"flow {tid!r} has non-positive cap {cap}")
            caps.append(cap)
            for slot in self._resources_of_tid[tid][1]:
                index = res_index.get(slot)
                if index is None:
                    index = res_index[slot] = len(res_caps)
                    res_caps.append(float(base_caps[slot]))
                ent_flow.append(position)
                ent_res.append(index)
        # income/outgo degradations on the referenced NIC ports
        slot_of = self._res_slots
        for host, c in counts.items():
            if c["rx"] >= sharing.reverse_threshold and c["tx"] >= 1:
                tx_key, rx_key = self.topology.nic_resources(host)
                slot = slot_of.get(tx_key)
                index = res_index.get(slot) if slot is not None else None
                if index is not None:
                    res_caps[index] *= 1.0 - sharing.tx_capacity_loss
                slot = slot_of.get(rx_key)
                index = res_index.get(slot) if slot is not None else None
                if index is not None:
                    res_caps[index] *= 1.0 - sharing.rx_capacity_loss
        num_flows = len(tids)
        rates = water_fill_arrays(
            np.ones(num_flows, dtype=np.float64),
            np.asarray(caps, dtype=np.float64),
            np.asarray(ent_flow, dtype=np.int64),
            np.asarray(ent_res, dtype=np.int64),
            np.asarray(res_caps, dtype=np.float64),
            max_iterations=num_flows + len(res_caps) + 1,
        )
        return dict(zip(tids, rates.tolist()))

    # ------------------------------------------------------------ warm start
    def _coupling_keys(self, src: int, dst: int) -> Tuple[Hashable, ...]:
        """Opaque keys through which a flow couples with other flows.

        Two flows interact (directly or through the income/outgo capacity
        degradations) only when they share one of these keys, so connected
        components of key co-occupancy partition the max-min allocation.
        """
        if src == dst:
            return (("mem", src),)
        keys: List[Hashable] = [("host", src), ("host", dst)]
        keys.extend(("link", r) for r in self.topology.fabric_route(src, dst))
        return tuple(keys)

    def _coupled_component(
        self, active: Sequence[Transfer], changed_pair: Tuple[int, int]
    ) -> Set[Hashable]:
        """Ids of the active flows transitively coupled with ``changed_pair``."""
        by_key: Dict[Hashable, List[Transfer]] = {}
        for transfer in active:
            for key in self._coupling_keys(transfer.src, transfer.dst):
                by_key.setdefault(key, []).append(transfer)
        component: Set[Hashable] = set()
        seen_keys: Set[Hashable] = set()
        frontier: List[Hashable] = list(self._coupling_keys(*changed_pair))
        while frontier:
            key = frontier.pop()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            for transfer in by_key.get(key, ()):
                if transfer.transfer_id not in component:
                    component.add(transfer.transfer_id)
                    frontier.extend(self._coupling_keys(transfer.src, transfer.dst))
        return component

    def _solve_incremental(
        self,
        active: Sequence[Transfer],
        changed_pairs: Sequence[Tuple[int, int]],
    ) -> Dict[Hashable, float]:
        """Full solve, or a component-scoped re-solve after a one-flow delta."""
        if not self.warm_start or not self._primed or len(changed_pairs) != 1:
            return self._solve(active)
        rates: Dict[Hashable, float] = {}
        component = self._coupled_component(active, changed_pairs[0])
        for transfer in active:
            tid = transfer.transfer_id
            if tid in component:
                continue
            rate = self._rates_by_tid.get(tid)
            if rate is None:  # bookkeeping gap: fall back to the exact path
                return self._solve(active)
            rates[tid] = rate
        scoped = [t for t in active if t.transfer_id in component]
        if scoped:
            rates.update(self._solve(scoped))
        self.warm_starts += 1
        return rates

    # --------------------------------------------------------------- deltas
    def reset(self) -> None:
        """Forget the tracked active set and warm-start state (memo survives)."""
        self._active = {}
        self._pair_of_tid = {}
        self._tids_of_pair = {}
        self._sorted_pairs = []
        self._rates_by_tid = {}
        self._last_by_pair = None
        self._primed = False
        self._resources_of_tid = {}
        self._counts = {}

    def _track(self, transfer: Transfer, slot: int) -> Tuple[int, int]:
        tid = transfer.transfer_id
        pair = (transfer.src, transfer.dst)
        self._active[tid] = transfer
        self._pair_of_tid[tid] = pair
        # the bucket value is the transfer's calendar flight slot (-1 when
        # it arrived through the dict view, which drops the slots)
        self._tids_of_pair.setdefault(pair, {})[tid] = slot
        bisect.insort(self._sorted_pairs, pair)
        resources = self._resources_for(transfer)
        self._resources_of_tid[tid] = (
            resources, tuple(self._resource_slot(r) for r in resources)
        )
        if not transfer.is_intra_node:
            counts = self._counts.setdefault(transfer.src, {"tx": 0, "rx": 0})
            counts["tx"] += 1
            counts = self._counts.setdefault(transfer.dst, {"tx": 0, "rx": 0})
            counts["rx"] += 1
        return pair

    def _untrack(self, tid: Hashable) -> Tuple[int, int]:
        transfer = self._active.pop(tid)
        pair = self._pair_of_tid.pop(tid)
        bucket = self._tids_of_pair[pair]
        del bucket[tid]
        if not bucket:
            del self._tids_of_pair[pair]
        del self._sorted_pairs[bisect.bisect_left(self._sorted_pairs, pair)]
        self._rates_by_tid.pop(tid, None)
        del self._resources_of_tid[tid]
        if not transfer.is_intra_node:
            counts = self._counts[transfer.src]
            counts["tx"] -= 1
            if counts["tx"] == 0 and counts["rx"] == 0:
                del self._counts[transfer.src]
            counts = self._counts[transfer.dst]
            counts["rx"] -= 1
            if counts["tx"] == 0 and counts["rx"] == 0:
                del self._counts[transfer.dst]
        return pair

    def update(
        self, added: Sequence[Transfer], removed: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Apply a flow delta; return the rates of the re-priced transfers.

        The emulator prices whole sharing situations (its memo key is the
        endpoint multiset, maintained incrementally), and same-endpoint
        flows share one rate in the max-min solution — so the changed set is
        found by value-diffing the new allocation against the previous one
        *per endpoint pair*: every added transfer plus every incumbent whose
        pair's rate changed is returned.  A memoized situation therefore
        costs O(delta + distinct pairs), with no per-transfer rebuild.
        Transfers absent from the mapping kept their rate exactly, which is
        what the event calendar relies on to leave their completion entries
        untouched.

        The whole delta is validated (membership and hosts) before any state
        changes, so a rejected call leaves the tracked set untouched and the
        caller can retry.  This is a dict view over :meth:`update_slots`
        (arrivals carry the handle ``-1``): one pricing walk serves both.
        """
        tids, _, rates = self.update_slots(added, [-1] * len(added), removed)
        return dict(zip(tids, rates.tolist()))

    def update_slots(
        self, added: Sequence[Transfer], added_slots: Sequence[int],
        removed: Sequence[Hashable]
    ):
        """:meth:`update` with slot handles: ``(tids, slots, rates)``.

        The caller's flight slots ride the endpoint-pair buckets (stored as
        the bucket values at :meth:`_track` time), so the warm-started
        water-fill's changed-value diff comes back slot-aligned — the
        calendar applies it by direct array indexing with zero per-flush
        hash gathers.
        """
        validate_delta(self._active, added, removed)
        for transfer in added:
            self.topology.check_host(transfer.src)
            self.topology.check_host(transfer.dst)
        changed_pairs: List[Tuple[int, int]] = []
        for tid in removed:
            changed_pairs.append(self._untrack(tid))
        added_tids: List[Hashable] = []
        for transfer, slot in zip(added, added_slots):
            changed_pairs.append(self._track(transfer, slot))
            added_tids.append(transfer.transfer_id)
        if not self._active:
            self._last_by_pair = {}
            self._primed = True
            return [], np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        return self._allocate_slots(changed_pairs, added_tids)

    def _price_situation(
        self, changed_pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[Optional[Dict[Tuple[int, int], float]],
               Optional[Dict[Hashable, float]]]:
        """Memoized per-pair allocation of the tracked situation.

        Returns ``(by_pair, None)`` normally; ``(None, rates)`` when the
        solver broke same-endpoint symmetry (rare) — the caller must then
        value-diff per transfer, and the solution is not memoized.
        """
        key = self._situation_key()
        by_pair = self._rate_cache.get(key)
        if by_pair is not None:
            self.cache_hits += 1
            return by_pair, None
        self.cache_misses += 1
        active = list(self._active.values())
        rates = self._solve_incremental(active, changed_pairs)
        by_pair = {}
        for transfer in active:
            pair = self._pair_of_tid[transfer.transfer_id]
            rate = rates[transfer.transfer_id]
            if pair in by_pair and by_pair[pair] != rate:
                return None, rates  # solver broke same-endpoint symmetry
            by_pair[pair] = rate
        self._rate_cache.put(key, by_pair)
        return by_pair, None

    def _allocate_slots(
        self,
        changed_pairs: Sequence[Tuple[int, int]],
        added_tids: Sequence[Hashable],
    ):
        """Price the tracked situation; report the changed rates slot-aligned.

        Returns parallel ``(tids, slots, rates)``: every transfer of a pair
        whose rate changed, then every added transfer not already reported.
        Each transfer's flight slot is read out of the endpoint buckets
        while walking — no per-tid hash gather happens afterwards.
        """
        tids: List[Hashable] = []
        slot_list: List[int] = []
        rate_list: List[float] = []
        by_pair, raw = self._price_situation(changed_pairs)
        if by_pair is None:
            # rare fallback: per-transfer diff, slots read from the buckets
            tids_of_pair = self._tids_of_pair
            pair_of_tid = self._pair_of_tid
            for tid, rate in raw.items():
                if self._rates_by_tid.get(tid) != rate:
                    tids.append(tid)
                    slot_list.append(tids_of_pair[pair_of_tid[tid]][tid])
                    rate_list.append(rate)
                    self._rates_by_tid[tid] = rate
            emitted = set(tids)
            for tid in added_tids:
                if tid not in emitted:
                    tids.append(tid)
                    slot_list.append(tids_of_pair[pair_of_tid[tid]][tid])
                    rate_list.append(raw[tid])
            self._last_by_pair = None
            self._primed = True
            return (tids, np.asarray(slot_list, dtype=np.intp),
                    np.asarray(rate_list, dtype=np.float64))

        # pairs whose rate differs from the value-diff baseline; the set's
        # iteration order (a function of its elements and insertion history)
        # fixes the changed-set order the calendar's seq assignment follows
        previous = self._last_by_pair
        if previous is None:
            changed_pair_set = set(by_pair)
        else:
            changed_pair_set = {
                pair for pair, rate in by_pair.items()
                if previous.get(pair) != rate
            }
        for pair in changed_pair_set:
            rate = by_pair[pair]
            for tid, slot in self._tids_of_pair.get(pair, {}).items():
                tids.append(tid)
                slot_list.append(slot)
                rate_list.append(rate)
                self._rates_by_tid[tid] = rate
        for tid in added_tids:
            # an added tid is in the emitted set iff its pair's bucket was
            # walked above (every bucket member of a changed pair is emitted)
            pair = self._pair_of_tid[tid]
            if pair not in changed_pair_set:
                rate = by_pair[pair]
                tids.append(tid)
                slot_list.append(self._tids_of_pair[pair][tid])
                rate_list.append(rate)
                self._rates_by_tid[tid] = rate
        self._last_by_pair = by_pair
        self._primed = True
        return (tids, np.asarray(slot_list, dtype=np.intp),
                np.asarray(rate_list, dtype=np.float64))

    def rates(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Instantaneous rate of every active transfer, in bytes per second.

        Compatibility shim over :meth:`update`: the requested set is diffed
        against the tracked one, the delta applied, and the stored rate of
        every requested transfer returned.
        """
        wanted: Dict[Hashable, Transfer] = {}
        for transfer in active:
            if transfer.transfer_id in wanted:
                raise SimulationError("duplicate transfer ids in the active set")
            wanted[transfer.transfer_id] = transfer
        removed: List[Hashable] = [tid for tid in self._active if tid not in wanted]
        added: List[Transfer] = []
        for tid, transfer in wanted.items():
            known = self._active.get(tid)
            if known is None:
                added.append(transfer)
            elif (known.src, known.dst) != (transfer.src, transfer.dst):
                # transfer id re-used with new endpoints: departure + arrival
                removed.append(tid)
                added.append(transfer)
        if added or removed:
            self.update(added, removed)
        elif active and any(
            t.transfer_id not in self._rates_by_tid for t in active
        ):
            # stored rates were dropped (invalidate_cache): full re-query
            self._allocate_slots(list(self._tids_of_pair), [])
        elif active:
            # no delta: the stored rates are current; a memoized situation
            # still counts as a hit (parity with the historical full query)
            if self._rate_cache.get(self._situation_key()) is not None:
                self.cache_hits += 1
        return {t.transfer_id: self._rates_by_tid[t.transfer_id] for t in active}

    # ------------------------------------------------------------- penalties
    def instantaneous_penalties(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Penalty of every active transfer under the current sharing situation.

        The penalty is the ratio between the single-stream bandwidth and the
        allocated rate — exactly the paper's ``P_i = T_i / T_ref`` when every
        transfer of the scheme starts together and runs to completion.
        """
        rates = self.rates(active)
        single = self.technology.single_stream_bandwidth
        memory = self.technology.memory_bandwidth
        penalties: Dict[Hashable, float] = {}
        for transfer in active:
            rate = rates[transfer.transfer_id]
            if rate <= 0:
                raise SimulationError(
                    f"transfer {transfer.transfer_id!r} was allocated a zero rate"
                )
            reference = memory if transfer.is_intra_node else single
            penalties[transfer.transfer_id] = max(1.0, reference / rate)
        return penalties
