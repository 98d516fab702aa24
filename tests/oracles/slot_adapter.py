"""Test helper: serve a dict-only or rates-only test double through ``update_slots``.

:class:`~repro.network.fluid.TransferCalendar` calls only ``update_slots``
and ``reset``.  :class:`SlotAdapter` wraps a test double that answers
through ``update(added, removed)`` (a dict of re-priced rates) or only
through ``rates(active)`` (a full-set query) and gives it those two methods:

* it keeps tid → slot from each arrival's ``added_slots`` and slot-aligns
  the inner answer, dropping ids it was never handed;
* an ``update``-only inner provider gets the delta as is and validates it
  itself;
* a ``rates``-only inner provider gets the whole active set, kept here in
  activation order, on every call, and every rate is returned, so
  ``rate_updates`` counts the full set per flush.  A map that omits a live
  id raises, and a raising query leaves the tracked set untouched.

``update`` is the dict view over ``update_slots``, so the scalar oracle
calendar (:mod:`oracles.scalar_calendar`), which speaks only ``update``,
runs on the same wrapper.
"""

from __future__ import annotations

from repro._numpy import np
from repro.exceptions import SimulationError
from repro.network.fluid import validate_delta


class SlotAdapter:
    """Give ``inner`` (with ``update`` or only ``rates``) ``update_slots``/``reset``."""

    def __init__(self, inner):
        self.inner = inner
        self._slot_of = {}
        #: tracked transfers in activation order (rates-only inner provider)
        self._active = {}
        self._full_query = not callable(getattr(inner, "update", None))

    def update(self, added, removed):
        tids, _, rates = self.update_slots(added, [-1] * len(added), removed)
        return dict(zip(tids, rates.tolist()))

    def update_slots(self, added, added_slots, removed):
        if self._full_query:
            changed = self._query(added, removed)
        else:
            changed = self.inner.update(added, removed)
        slot_of = self._slot_of
        for tid in removed:
            slot_of.pop(tid, None)
        for transfer, slot in zip(added, added_slots):
            slot_of[transfer.transfer_id] = slot
        tids = [tid for tid in changed if tid in slot_of]
        return (tids, np.array([slot_of[tid] for tid in tids], dtype=np.intp),
                np.array([changed[tid] for tid in tids], dtype=np.float64))

    def _query(self, added, removed):
        validate_delta(self._active, added, removed)
        active = dict(self._active)
        for tid in removed:
            del active[tid]
        for transfer in added:
            active[transfer.transfer_id] = transfer
        rates = self.inner.rates(list(active.values())) if active else {}
        missing = [tid for tid in active if tid not in rates]
        if missing:
            raise SimulationError(f"rate provider returned no rate for {missing!r}")
        self._active = active
        return {tid: rates[tid] for tid in active}

    def reset(self):
        self._slot_of.clear()
        self._active = {}
        reset = getattr(self.inner, "reset", None)
        if callable(reset):
            reset()
