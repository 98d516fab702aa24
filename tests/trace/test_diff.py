"""Trace diff: first-divergence localization, property-tested."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.trace import (
    JsonlTraceSink,
    TraceRecord,
    assert_traces_equal,
    diff_trace_files,
    format_trace_diff,
    trace_diff,
)

KINDS = ["calendar.activate", "calendar.complete", "calendar.flush",
         "task.event", "step", "inject.apply"]

record_strategy = st.builds(
    TraceRecord,
    time=st.floats(0.0, 100.0, allow_nan=False),
    kind=st.sampled_from(KINDS),
    subject=st.one_of(st.none(), st.integers(0, 9), st.text("ab", max_size=3)),
    data=st.dictionaries(st.sampled_from(["rate", "size", "step", "label"]),
                         st.integers(0, 1000), max_size=3),
)
trace_strategy = st.lists(record_strategy, min_size=1, max_size=30)


def perturb(record: TraceRecord, how: str) -> TraceRecord:
    """A record guaranteed to differ from ``record`` in one field."""
    if how == "time":
        return TraceRecord(record.time + 1.0, record.kind, record.subject,
                           dict(record.data))
    if how == "kind":
        kind = "calendar.cancel" if record.kind != "calendar.cancel" \
            else "calendar.retime"
        return TraceRecord(record.time, kind, record.subject,
                           dict(record.data))
    if how == "subject":
        return TraceRecord(record.time, record.kind, "perturbed",
                           dict(record.data))
    data = dict(record.data)
    data["rate"] = data.get("rate", 0) + 1
    return TraceRecord(record.time, record.kind, record.subject, data)


FIELD_OF = {"time": "t", "kind": "kind", "subject": "subject",
            "data": "data.rate"}


class TestDiffProperty:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=trace_strategy, data=st.data())
    def test_single_record_perturbation_is_located_exactly(self, trace, data):
        """The ISSUE's acceptance property: two traces differing only at
        record k diff to index k, and the report names record k."""
        k = data.draw(st.integers(0, len(trace) - 1))
        how = data.draw(st.sampled_from(["time", "kind", "subject", "data"]))
        other = list(trace)
        other[k] = perturb(trace[k], how)
        diff = trace_diff(trace, other)
        assert diff.index == k
        assert diff.reason == "record"
        assert not diff.identical
        assert diff.line == k + 2
        assert FIELD_OF[how] in diff.fields
        report = format_trace_diff(diff)
        assert f"first divergence at record {k} (line {k + 2})" in report
        # context is aligned: the shared prefix right before the divergence
        assert diff.common == tuple(trace[max(0, k - 3):k])
        with pytest.raises(AssertionError,
                           match=f"first divergence at record {k} "):
            assert_traces_equal(trace, other)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(trace=trace_strategy, extra=st.lists(record_strategy, min_size=1,
                                                max_size=5))
    def test_prefix_truncation_diverges_at_the_shorter_length(self, trace, extra):
        longer = trace + extra
        diff = trace_diff(trace, longer)
        assert diff.index == len(trace)
        assert diff.reason == "length"
        assert diff.counts == (len(trace), len(longer))
        assert diff.left is None and diff.right == extra[0]
        assert "<end of trace>" in format_trace_diff(diff)


class TestDiffBasics:
    def test_identical_traces(self):
        trace = [TraceRecord(0.1 * i, "step", "engine", {"step": i})
                 for i in range(4)]
        diff = trace_diff(trace, list(trace))
        assert diff.identical
        assert diff.index is None and diff.line is None
        assert format_trace_diff(diff) == "traces identical: 4 records"
        assert_traces_equal(trace, list(trace))  # does not raise

    def test_empty_traces_are_identical(self):
        assert trace_diff([], []).identical

    def test_report_names_both_sides_and_fields(self):
        a = [TraceRecord(0.0, "step", "engine", {"step": 0}),
             TraceRecord(1.0, "step", "engine", {"step": 1})]
        b = [a[0], TraceRecord(2.0, "step", "engine", {"step": 9})]
        report = format_trace_diff(trace_diff(a, b), label_a="left.jsonl",
                                   label_b="right.jsonl")
        assert "left.jsonl (2 records)" in report
        assert "right.jsonl (2 records)" in report
        assert "differing fields: t, data.step" in report
        assert "a-> record 1" in report and "b-> record 1" in report

    def test_diff_trace_files_reports_the_perturbed_record(self, tmp_path):
        records = [TraceRecord(0.05 * i, "calendar.complete", i)
                   for i in range(10)]
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        with JsonlTraceSink(path_a) as sink:
            for record in records:
                sink.emit(record)
        records[5] = TraceRecord(records[5].time + 123.0, "calendar.complete", 5)
        with JsonlTraceSink(path_b) as sink:
            for record in records:
                sink.emit(record)
        diff = diff_trace_files(path_a, path_b)
        assert diff.index == 5
        assert diff.line == 7  # header + 5 shared records precede it
        assert diff.fields == ("t",)
        assert diff_trace_files(path_a, path_a).identical


class TestHashSeedIndependence:
    def test_loaded_trace_is_identical_under_two_hash_seeds(self, tmp_path):
        """The CI trace-smoke run records byte-identical JSONL whatever
        ``PYTHONHASHSEED`` is: no set iteration order leaks into the
        calendar's re-timing order."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_root = str(Path(repro.__file__).parents[1])
        paths = []
        for seed in ("0", "1"):
            path = tmp_path / f"seed-{seed}.jsonl"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "trace", "record",
                 "--workload", "ring-allgather", "--hosts", "4",
                 "--bg-rate", "120", "--bg-size", "1M", "--bg-max-flows", "8",
                 "--out", str(path)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            paths.append(path)
        diff = diff_trace_files(*paths)
        assert diff.identical, format_trace_diff(diff)
        assert paths[0].read_bytes() == paths[1].read_bytes()
