"""Clean twin: slot providers whose update() and rates() are views, or absent."""


class SlotProvider:
    def update(self, added, removed):
        # the dict view reaches update_slots() transitively, through _slots()
        tids, _, rates = self._slots(added, removed)
        return dict(zip(tids, rates))

    def _slots(self, added, removed):
        return self.update_slots(added, [-1] * len(added), removed)

    def update_slots(self, added, added_slots, removed):
        return (), (), ()

    def rates(self, active):
        # the shim reaches update() transitively, through _sync()
        return self._sync(active)

    def _sync(self, active):
        return dict(self.update(list(active), []))

    def reset(self):
        pass


class InheritedView(SlotProvider):
    """Overriding update_slots is fine: the inherited update() reaches it."""

    def update_slots(self, added, added_slots, removed):
        return (), (), ()


class SlotsOnly:
    """update_slots + reset is the calendar's whole interface: no update needed."""

    def update_slots(self, added, added_slots, removed):
        return (), (), ()

    def reset(self):
        pass
