"""Regenerate ``perfbench/expected.json``, the expected output digests.

Usage (from the repository root)::

    python3 perfbench/make_expected.py

Runs ``hpl`` once and ``sweep`` and ``loaded`` on every input variant, and
writes their digests.  Regenerating the table changes what the benchmark
accepts as correct output: do it only for a change that alters simulated
results on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import results, workloads  # noqa: E402
from perfbench.run import EXPECTED, make_workload  # noqa: E402


def digest_of(name: str, seed: int) -> str:
    workload = make_workload(name, seed)
    outcomes = []
    for part in range(len(workload.parts)):
        prep = workload.setup(part)
        try:
            outcomes.append(workload.outcome(prep, workload.run(prep)))
        finally:
            prep.close()
    return workloads.combine(outcomes).digest


def main() -> int:
    table = {"hpl": {"all": digest_of("hpl", 0)}}
    for name in ("sweep", "loaded"):
        table[name] = {}
        for variant in range(workloads.VARIANTS):
            table[name][str(variant)] = digest_of(name, variant)
            print(f"{name} variant {variant}: {table[name][str(variant)]}", flush=True)
    results.write_json_atomic(EXPECTED, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
