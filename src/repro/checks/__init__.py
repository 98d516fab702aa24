"""``repro.checks`` — the repo-specific invariant linter (``repro check``).

Eight PRs of conventions, enforced mechanically:

========  ============================  ==========================================
code      name                          invariant
========  ============================  ==========================================
``RC01``  trace-kind-registry           literal ``TraceRecord`` kinds ∈
                                        ``KNOWN_KINDS``; every registered kind
                                        documented in ``docs/trace-format.md``
``RC02``  numpy-guard                   ``import numpy`` only in
                                        ``repro/_numpy.py``; everyone else uses
                                        ``from repro._numpy import np``
``RC03``  guarded-emission              hot-path ``.emit`` / ``.sample_record`` /
                                        PhaseTimer use dominated by an
                                        ``is not None`` test on the same name
``RC04``  delta-contract                ``update()`` routes through
                                        ``update_slots()``, which needs
                                        ``reset``; ``rates()`` routes
                                        through ``update()``; ``reset()``
                                        is zero-arg
``RC05``  vectorized-parity-manifest    every ``vectorized`` toggle mapped to its
                                        property-test file in the parity manifest
``RC06``  bench-emit-discipline         benchmarks write results only through the
                                        shared ``emit`` fixture
========  ============================  ==========================================

See ``docs/static-analysis.md`` for the rules, the suppression syntax
(``# repro-check: ignore[CODE]``) and how to add a checker.
"""

from .base import Checker, CheckContext, Finding, ParsedModule, Suppressions
from .cli import main
from .fixes import fix_paths, rewrite_numpy_imports
from .runner import ALL_CHECKERS, collect_files, format_findings, run_check

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "CheckContext",
    "Finding",
    "ParsedModule",
    "Suppressions",
    "collect_files",
    "fix_paths",
    "format_findings",
    "main",
    "rewrite_numpy_imports",
    "run_check",
]
