"""Test helper: price a provider through full-set ``rates()`` queries only.

:class:`RatesOnly` hides a provider's delta API: it forwards only the
full-set ``rates()`` call (plus ``reset()``, so a wrapped provider is reset
between runs like an unwrapped one).  The calendar accepts only
``update_slots``/``reset`` providers, so :func:`full_query` puts the
wrapper behind :class:`~oracles.slot_adapter.SlotAdapter`: every flush
that carries a delta, every stall retry and every reprice re-queries the
whole active set and hands back every rate.
"""

from __future__ import annotations

from oracles.slot_adapter import SlotAdapter


class RatesOnly:
    """Expose only ``rates()`` and ``reset()`` of ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    def rates(self, active):
        return self.inner.rates(active)

    def reset(self):
        self.inner.reset()


def full_query(provider):
    """``provider`` priced by full re-queries, in the calendar's interface."""
    return SlotAdapter(RatesOnly(provider))
