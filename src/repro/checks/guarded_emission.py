"""RC03 — hot-path observability calls are dominated by ``is not None``.

The trace/metrics contract of PRs 5/7: with tracing and metrics disabled,
the simulation hot paths pay exactly one pointer test per potential
emission — so every ``.emit(...)``, ``.sample_record(...)`` and phase-timer
use (``.timer(...)``, ``.observe(...)``, ``.due(...)``) in the hot modules
must sit under an explicit ``is not None`` guard on the handle it
dereferences.  The rule also keeps anyone from "simplifying" a guard into
truthiness (``if trace:``) or dropping it during a refactor — the
bit-exactness suites only catch that when the unguarded path happens to
crash.

Hot modules are matched by basename (``fluid.py``, ``engine.py``,
``interference.py``, ``incremental.py``, ``sharing.py``, ``allocator.py`` by
default) so the rule follows the files through refactors and applies to
fixture twins.
"""

from __future__ import annotations

import ast
from typing import Optional

from .base import Checker, CheckContext, ParsedModule, dotted_name
from .guards import GuardIndex

__all__ = ["GuardedEmissionChecker"]

#: attribute calls whose receiver must be guarded: the trace-sink writes and
#: the PhaseTimer / registry surface of repro.obs
_GUARDED_METHODS = frozenset({"emit", "sample_record", "timer", "observe", "due"})


class GuardedEmissionChecker(Checker):
    code = "RC03"
    name = "guarded-emission"
    description = ("in hot-path modules every .emit/.sample_record/PhaseTimer "
                   "use must be dominated by an 'is not None' test on the "
                   "same name (the disabled path stays one pointer test)")

    def visit_module(self, ctx: CheckContext, module: ParsedModule) -> None:
        if module.basename not in ctx.hot_modules:
            return
        index: Optional[GuardIndex] = None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _GUARDED_METHODS):
                continue
            label = f".{func.attr}()"
            recv_name = dotted_name(func.value)
            if recv_name is None:
                # a computed receiver (call/subscript chain) cannot be
                # pointer-guarded at all: always a finding
                ctx.report(module, node.lineno, self.code,
                           f"{label} on a computed receiver cannot satisfy "
                           "the one-pointer-test contract; bind it to a "
                           "name and guard that name with 'is not None'")
                continue
            if self._receiver_exempt(recv_name):
                continue
            if index is None:
                index = GuardIndex(module.tree)
            if not index.is_guarded(node, recv_name):
                ctx.report(module, node.lineno, self.code,
                           f"{label} on {recv_name!r} is not dominated by an "
                           f"'{recv_name} is not None' test; hot-path "
                           "emissions must keep the disabled path to one "
                           "pointer test")

    @staticmethod
    def _receiver_exempt(recv_name: str) -> bool:
        """Receivers that are never None by construction.

        ``self.stats``-style always-present counter objects don't have an
        ``emit``; nothing to exempt today, but the hook keeps the policy in
        one place.
        """
        return False
