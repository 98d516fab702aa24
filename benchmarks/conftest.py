"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Because the
absolute numbers come from the calibrated emulator rather than the original
clusters, each benchmark prints a paper-style text table (and writes it under
``benchmarks/results/``) so the shape can be compared against the published
values side by side.

Benchmarks that track a cross-PR perf trajectory pass their result ``record``
(and the trajectory file) to :func:`emit` as well: the text report and the
JSON record are then written from the **same in-memory object** — the
``record:`` footer of every ``results/*.txt`` is the exact JSON appended to
the trajectory file, so the two can never drift apart.

Benchmarks that time a production path against its reference
implementation import the latter from the test oracles
(``tests/oracles/``), so ``tests`` is put on ``sys.path`` here.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


class BenchRecordError(ValueError):
    """A perf trajectory file exists but is not a JSON list of records."""


def append_bench_record(bench_json: Path, record: dict) -> None:
    """Append one result record to a cross-PR perf trajectory file.

    A file that is not valid JSON, or not a list, raises
    :class:`BenchRecordError` and is left as it is: the trajectory is never
    reset.  The new history goes to a temp file in the same directory,
    which ``os.replace`` then swaps in, so a failed write leaves the old
    file intact.
    """
    history = []
    if bench_json.exists():
        try:
            history = json.loads(bench_json.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise BenchRecordError(
                f"{bench_json} is not valid JSON ({exc}); not overwriting "
                f"the trajectory"
            ) from exc
        if not isinstance(history, list):
            raise BenchRecordError(
                f"{bench_json} holds a JSON {type(history).__name__}, not a "
                f"list of records; not overwriting the trajectory"
            )
    history.append(record)
    tmp = bench_json.with_name(f".{bench_json.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, bench_json)
    finally:
        tmp.unlink(missing_ok=True)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Print a report block and persist it to benchmarks/results/<name>.txt.

    When ``record`` is given, its JSON is appended to the text report as a
    ``record:`` footer; when ``bench_json`` is given too, the same object is
    appended to that trajectory file.
    """

    def _emit(name: str, text: str, record: dict | None = None,
              bench_json: Path | None = None) -> None:
        if record is not None:
            text = text + "\n\nrecord: " + json.dumps(record, sort_keys=True)
        banner = "=" * 78
        print(f"\n{banner}\n{name}\n{banner}\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        if record is not None and bench_json is not None:
            append_bench_record(bench_json, record)

    return _emit
