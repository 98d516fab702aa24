"""Test helper: hide a provider's delta API so the calendar takes the full query.

The calendar uses the delta contract whenever the provider has an
``update`` method.  :class:`RatesOnly` forwards only the full-set
``rates()`` call (plus ``reset()``, so a wrapped provider is reset between
runs like an unwrapped one), which drives the calendar's full-query path:
every flush re-queries the whole active set and finds the changed rates by
value-diff.
"""

from __future__ import annotations


class RatesOnly:
    """Expose only ``rates()`` and ``reset()`` of ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    def rates(self, active):
        return self.inner.rates(active)

    def reset(self):
        self.inner.reset()
