"""Rate providers for the execution engine.

The execution engine (:mod:`repro.simulator.engine`) advances in-flight
transfers using instantaneous rates supplied by a *rate provider*.  Two
providers exist:

* :class:`ModelRateProvider` — the **predicted** side: it maintains the
  node-level communication graph of the transfers currently in flight,
  queries a contention model (§V) for their penalties and converts each
  penalty into a rate (``single_stream_bandwidth / penalty``).  Intra-node
  transfers use the memory path.
* :class:`~repro.network.allocator.EmulatorRateProvider` — the **measured**
  side (calibrated fluid emulator), re-exported here for symmetry.

Both implement the calendar's provider interface of
:mod:`repro.network.fluid`: ``update_slots(added, added_slots, removed)``
applies a flow delta and returns, slot-aligned, the rates of exactly the
transfers that were re-priced, so the event-calendar loops only re-time
what actually changed; ``reset()`` drops the tracked set.  For direct
callers, ``update(added, removed)`` is a dict view over the same pricing
walk, and the full-set ``rates(active)`` call (which
``instantaneous_penalties`` uses) diffs the requested set against the
tracked one, applies the delta, and returns the stored rate of every
requested transfer.

The model side is *incremental*: deltas dirty only the conflict components
they touch, and repeated contention situations are served from a memoized
snapshot cache (:mod:`repro.core.incremental`).  The historical
rebuild-everything provider survives as a test oracle
(``tests/oracles/pricing.py``); the two are bit-exact, which
``tests/property/test_incremental_properties.py`` asserts over random
arrival/departure sequences, and the delta API is bit-exact with cold
full-set evaluation, which ``tests/property/test_delta_contract.py``
asserts.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Sequence

from .._numpy import np
from ..core.graph import Communication
from ..core.incremental import EngineStats, IncrementalPenaltyEngine, PenaltyCache
from ..core.penalty import ContentionModel
from ..exceptions import SimulationError
from ..network.allocator import EmulatorRateProvider
from ..network.fluid import Transfer, validate_delta
from ..network.technologies import NetworkTechnology, get_technology

__all__ = ["ModelRateProvider", "EmulatorRateProvider"]


class ModelRateProvider:
    """Turn a contention model into an instantaneous rate allocator.

    Parameters
    ----------
    model:
        The contention model pricing the in-flight communication graph.
    technology:
        Network technology (or its name) supplying the single-stream and
        memory-path bandwidths.
    cache:
        Optional shared :class:`~repro.core.incremental.PenaltyCache`; lets
        several providers (e.g. one per simulated run, or every scenario of
        a :class:`~repro.campaign.runner.CampaignRunner`) reuse each other's
        memoized contention situations.
    map_fn:
        Optional ``map``-compatible callable handed to the incremental
        engine; cache-miss component evaluations of one delta are fanned
        out through it (bit-exact with serial evaluation).  Without it the
        cache misses of one delta are priced in one
        :meth:`~repro.core.penalty.ContentionModel.penalties_batch` call.
    """

    def __init__(
        self,
        model: ContentionModel,
        technology: NetworkTechnology | str,
        cache: PenaltyCache | None = None,
        map_fn=None,
    ) -> None:
        if isinstance(technology, str):
            technology = get_technology(technology)
        self.model = model
        self.technology = technology
        self._engine = IncrementalPenaltyEngine(model, cache=cache, map_fn=map_fn)
        # delta-contract state: the tracked active set and its current rates
        self._active: Dict[Hashable, Transfer] = {}
        self._rates: Dict[Hashable, float] = {}

    @property
    def stats(self) -> EngineStats:
        """Work counters (model evaluations, cache traffic) of this provider."""
        return self._engine.stats

    def register_metrics(self, registry, name: str = "pricing") -> None:
        """Join a :class:`repro.obs.MetricsRegistry`.

        Registers the engine work counters as a live source under ``name``
        and installs the ``pricing.dirty_s`` phase timer around
        dirty-component evaluation.  Pass ``None`` to uninstall the timer.
        """
        if registry is None:
            self._engine.set_metrics(None)
            return
        registry.register_source(name, lambda: self.stats.snapshot())
        self._engine.set_metrics(registry)
        if self._engine.cache is not None:
            registry.register_source("penalty_cache", self._engine.cache.stats)

    @staticmethod
    def _comm_size(transfer: Transfer) -> int:
        # round *up*: a sub-byte fractional remainder must not truncate to a
        # size-0 communication mid-simulation
        return int(math.ceil(transfer.size))

    def _communication(self, transfer: Transfer) -> Communication:
        return Communication(
            name=str(transfer.transfer_id),
            src=transfer.src,
            dst=transfer.dst,
            size=self._comm_size(transfer),
        )

    # ---------------------------------------------------------------- deltas
    def reset(self) -> None:
        """Forget the tracked active set (memoized situations survive)."""
        self._engine.reset()
        self._active.clear()
        self._rates.clear()

    def update(
        self, added: Sequence[Transfer], removed: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Apply a flow delta; return the rates of the re-priced transfers.

        The returned mapping covers exactly the membership of the conflict
        components the delta dirtied (plus intra-node arrivals).  It is a
        dict view over :meth:`update_slots` (arrivals carry the handle
        ``-1``), so both entry points share one pricing walk.

        The whole delta is validated before any state changes, so a rejected
        call leaves the tracked set untouched and the caller (e.g. a
        :class:`~repro.network.fluid.TransferCalendar` holding its pending
        queues) can retry.
        """
        tids, _, rates = self.update_slots(added, [-1] * len(added), removed)
        return dict(zip(tids, rates.tolist()))

    def update_slots(
        self, added: Sequence[Transfer], added_slots: Sequence[int],
        removed: Sequence[Hashable]
    ):
        """:meth:`update` with slot handles: ``(tids, slots, rates)``.

        The calendar's handoff: the caller passes each arrival's flight
        slot alongside the transfer, the ``(tid, slot, is_intra)`` handles
        ride the incremental engine's component bookkeeping, and the
        re-priced set comes back as parallel (tid, slot, rate) sequences —
        the calendar applies them by direct array indexing with zero
        per-flush hash gathers.
        """
        validate_delta(self._active, added, removed)
        for tid in removed:
            self._active.pop(tid)
            self._rates.pop(tid, None)
            self._engine.remove(str(tid))
        for transfer, slot in zip(added, added_slots):
            tid = transfer.transfer_id
            self._active[tid] = transfer
            self._engine.add(self._communication(transfer),
                             (tid, slot, transfer.is_intra_node))
        handles, penalties = self._engine.refresh_handles()
        if not handles:
            return [], np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        count = len(handles)
        tids = [handle[0] for handle in handles]
        slots = np.fromiter((handle[1] for handle in handles),
                            dtype=np.intp, count=count)
        intra = np.fromiter((handle[2] for handle in handles),
                            dtype=bool, count=count)
        # elementwise max + one division: the IEEE-754 operations of
        # ``bandwidth / max(1.0, penalty)`` per transfer
        penalties = np.maximum(1.0, penalties)
        bandwidth = np.where(intra, self.technology.memory_bandwidth,
                             self.technology.single_stream_bandwidth)
        rates = bandwidth / penalties
        self._rates.update(zip(tids, rates.tolist()))
        return tids, slots, rates

    def _sync(self, active: Sequence[Transfer]) -> None:
        """Diff ``active`` against the tracked set and apply the delta."""
        wanted = {t.transfer_id: t for t in active}
        if len(wanted) != len(active):
            raise SimulationError("duplicate transfer ids in the active set")
        removed: List[Hashable] = [tid for tid in self._active if tid not in wanted]
        added: List[Transfer] = []
        for tid, transfer in wanted.items():
            known = self._active.get(tid)
            if known is None:
                added.append(transfer)
            elif (known.src, known.dst, known.size) != (
                transfer.src, transfer.dst, transfer.size
            ):
                # transfer id re-used with new endpoints/size: departure + arrival
                removed.append(tid)
                added.append(transfer)
        if added or removed:
            self.update(added, removed)

    # -------------------------------------------------------------- interface
    def rates(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Rate (bytes/s) of every active transfer according to the model.

        Compatibility shim over :meth:`update`: the full set is diffed
        against the tracked one, the delta applied, and the stored rates of
        the whole set returned.
        """
        self._sync(active)
        return {t.transfer_id: self._rates[t.transfer_id] for t in active}

    def instantaneous_penalties(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Model penalties of the in-flight transfers (diagnostic helper)."""
        if not active:
            return {}
        self._sync(active)
        penalties = self._engine.penalties()
        return {t.transfer_id: penalties[str(t.transfer_id)] for t in active}
