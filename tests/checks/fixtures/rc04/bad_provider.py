"""Seeded RC04 violations: four contract-shape breakages."""


class TwoPricingWalks:
    def update(self, added, removed):
        return {}

    def update_slots(self, added, added_slots, removed):
        return (), (), ()


class DriftingRates:
    def update(self, added, removed):
        return {}

    def rates(self, active):
        return {t.transfer_id: 1.0 for t in active}


class ChattyReset:
    def update(self, added, removed):
        return {}

    def reset(self, hard):
        pass


class SlotsWithoutReset:
    def update_slots(self, added, added_slots, removed):
        return (), (), ()
