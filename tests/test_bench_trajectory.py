"""Tests of the benchmark harness's perf trajectory writer.

``append_bench_record`` (``benchmarks/conftest.py``) appends one record to
a ``BENCH_*.json`` history.  A corrupt or mistyped file must raise instead
of being reset to an empty history, and the write must be atomic.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_appends_to_a_new_and_an_existing_trajectory(harness, tmp_path):
    path = tmp_path / "BENCH.json"
    harness.append_bench_record(path, {"run": 1})
    harness.append_bench_record(path, {"run": 2})
    assert json.loads(path.read_text(encoding="utf-8")) == [{"run": 1}, {"run": 2}]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH.json"]


@pytest.mark.parametrize("content", ['[{"run": 1}', "", '{"run": 1}', "42"],
                         ids=["truncated", "empty", "object", "number"])
def test_corrupt_trajectory_raises_and_is_kept(harness, tmp_path, content):
    path = tmp_path / "BENCH.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(harness.BenchRecordError, match="not overwriting"):
        harness.append_bench_record(path, {"run": 2})
    assert path.read_text(encoding="utf-8") == content


def test_failed_write_leaves_the_old_trajectory(harness, tmp_path, monkeypatch):
    """The history is swapped in by ``os.replace``; if that fails, the old
    file is untouched and no temp file is left behind."""
    path = tmp_path / "BENCH.json"
    harness.append_bench_record(path, {"run": 1})
    before = path.read_text(encoding="utf-8")
    replaced = []

    def failing_replace(src, dst):
        replaced.append((Path(src).parent, Path(dst)))
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        harness.append_bench_record(path, {"run": 2})
    assert replaced == [(tmp_path, path)]
    assert path.read_text(encoding="utf-8") == before
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH.json"]
