"""Tests for the trace record schema, the log container and the sinks."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.exceptions import TraceError
from repro.network.fluid import CalendarStats, CalendarStatsSnapshot
from repro.simulator.engine import EngineLoopStats, EngineStatsSnapshot
from repro.trace import (
    KNOWN_KINDS,
    TRACE_FORMAT,
    TRACE_VERSION,
    JsonlTraceSink,
    MemoryTraceSink,
    NullTraceSink,
    TraceLog,
    TraceRecord,
    active_sink,
    read_trace_log,
)


def sample_record(kind: str, index: int) -> TraceRecord:
    """A representative record of ``kind`` with a kind-typical payload."""
    payloads = {
        "run.meta": (None, {"workload": "broadcast", "hosts": 4, "seed": 0}),
        "calendar.activate": (index, {"src": 0, "dst": 1, "size": 1e6}),
        "calendar.complete": (index, {}),
        "calendar.cancel": (index, {"remaining": 12.5}),
        "calendar.retime": (index, {"rate": 1e8, "remaining": 5e5,
                                    "completion": 0.25}),
        "calendar.flush": (None, {"added": 2, "removed": 1, "changed": 3,
                                  "active": 4}),
        "calendar.reprice": (None, {"active": 4, "changed": 4}),
        "calendar.compaction": (None, {"dropped": 40, "kept": 24}),
        "calendar.stall": (index, {"rate": 0.0}),
        "calendar.stall_retry": (None, {"ids": ["t1", "t2"]}),
        "step": ("engine", {"step": index}),
        "task.state": (index % 4, {"status": "send", "label": ""}),
        "task.event": (index % 4, {"kind": "send", "start": 0.0, "end": 0.5,
                                   "size": 1024, "peer": 1, "label": "",
                                   "penalty": 1.5, "index": 0}),
        "inject.apply": ("background", {"index": 0}),
        "inject.flow_start": (f"background#{index}",
                              {"src": 0, "dst": 1, "size": 4e6,
                               "owner": "background"}),
        "inject.flow_end": (f"background#{index}", {}),
        "inject.rate_scale_on": (0, {"factor": 0.5, "hosts": [0, 1]}),
        "inject.rate_scale_off": (0, {}),
        "inject.compute_scale_on": (1, {"factor": 0.5, "hosts": None}),
        "inject.compute_scale_off": (1, {}),
        "inject.reprice": (None, {}),
        "app.meta": (None, {"num_tasks": 4, "name": "hpl"}),
        "app.compute": (0, {"duration": 0.125, "label": "dgemm"}),
        "app.send": (0, {"dst": 1, "size": 1048576, "tag": 7}),
        "app.recv": (1, {"src": None, "size": None, "tag": 7}),
        "app.barrier": (2, {}),
        "metrics.sample": (None, {"engine.steps": 80,
                                  "calendar.flush_s.count": 80,
                                  "calendar.flush_s.total": 0.004}),
    }
    subject, data = payloads[kind]
    return TraceRecord(time=0.125 * index, kind=kind, subject=subject, data=data)


class TestTraceRecord:
    def test_every_known_kind_round_trips_through_dicts(self):
        for index, kind in enumerate(KNOWN_KINDS):
            record = sample_record(kind, index)
            assert TraceRecord.from_dict(record.to_dict()) == record

    def test_to_dict_omits_empty_fields(self):
        record = TraceRecord(1.0, "calendar.complete")
        assert record.to_dict() == {"t": 1.0, "kind": "calendar.complete"}

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(TraceError):
            TraceRecord.from_dict({"t": 1.0})
        with pytest.raises(TraceError):
            TraceRecord.from_dict({"kind": "x", "t": "not-a-number"})
        with pytest.raises(TraceError):
            TraceRecord.from_dict({"kind": "x", "data": [1, 2]})


class TestTraceLog:
    def build(self):
        return TraceLog([
            TraceRecord(0.0, "run.meta", None, {"workload": "w"}),
            TraceRecord(0.0, "calendar.activate", "a", {}),
            TraceRecord(0.5, "calendar.flush", None, {}),
            TraceRecord(1.0, "calendar.complete", "a", {}),
            TraceRecord(1.0, "step", "engine", {"step": 1}),
        ])

    def test_queries(self):
        log = self.build()
        assert len(log) == 5
        assert log.kinds()["calendar.activate"] == 1
        assert [r.kind for r in log.records_of("calendar")] == [
            "calendar.activate", "calendar.flush", "calendar.complete"]
        assert [r.kind for r in log.records_of("calendar.flush")] == [
            "calendar.flush"]
        assert log.subjects() == ["a", "engine"]
        assert log.duration == 1.0
        assert log.meta() == {"workload": "w"}

    def test_between_is_half_open(self):
        log = self.build()
        cut = log.between(0.5, 1.0)
        assert [r.kind for r in cut] == ["calendar.flush"]

    def test_empty_log(self):
        log = TraceLog()
        assert len(log) == 0
        assert log.duration == 0.0
        assert log.meta() == {}
        assert log.subjects() == []
        assert not log.records_of("calendar")


class TestSnapshots:
    def test_calendar_snapshot_keeps_dict_access(self):
        stats = CalendarStats(flushes=3, rate_updates=7)
        snap = stats.freeze()
        assert isinstance(snap, CalendarStatsSnapshot)
        assert snap["flushes"] == 3
        assert snap.get("rate_updates") == 7
        assert dict(**snap) == stats.snapshot()
        assert "flushes" in snap and len(snap) == 15
        with pytest.raises(KeyError):
            snap["no_such_counter"]

    def test_engine_snapshot_merges_calendar_counters_flat(self):
        loop = EngineLoopStats(iterations=5, steps=4, injected_events=1,
                               background_flows=2,
                               calendar=CalendarStats(retimed=9).snapshot())
        snap = loop.freeze()
        assert isinstance(snap, EngineStatsSnapshot)
        assert snap["iterations"] == 5
        assert snap["retimed"] == 9          # calendar counter, flat access
        assert snap.calendar.retimed == 9    # typed access
        assert snap.as_dict() == loop.snapshot()
        assert sorted(snap.keys()) == sorted(loop.snapshot().keys())

    def test_every_live_counter_reaches_its_snapshot(self):
        counters = {spec.name: i + 1 for i, spec in enumerate(fields(CalendarStats))}
        stats = CalendarStats(**counters)
        assert stats.snapshot() == counters
        loop_counters = {spec.name: i + 1 for i, spec in enumerate(fields(EngineLoopStats))
                         if spec.name != "calendar"}
        snap = EngineLoopStats(**loop_counters, calendar=stats.snapshot()).freeze()
        assert snap.calendar == stats.freeze()
        assert snap.as_dict() == {**loop_counters, **counters}

    def test_snapshots_compare_by_value(self):
        assert CalendarStats(flushes=1).freeze() == CalendarStats(flushes=1).freeze()
        assert CalendarStats(flushes=1).freeze() != CalendarStats(flushes=2).freeze()


class TestSinks:
    def test_active_sink_normalises_disabled_sinks(self):
        assert active_sink(None) is None
        assert active_sink(NullTraceSink()) is None
        memory = MemoryTraceSink()
        assert active_sink(memory) is memory

    def test_memory_sink_is_bounded(self):
        sink = MemoryTraceSink(maxlen=3)
        for index in range(10):
            sink.emit(TraceRecord(float(index), "step", "fluid", {}))
        assert sink.emitted == 10
        assert [r.time for r in sink.records] == [7.0, 8.0, 9.0]
        assert len(sink.log()) == 3
        sink.clear()
        assert sink.emitted == 0 and not sink.records

    def test_jsonl_round_trip_of_every_record_kind(self, tmp_path):
        path = tmp_path / "all-kinds.jsonl"
        records = [sample_record(kind, i) for i, kind in enumerate(KNOWN_KINDS)]
        with JsonlTraceSink(path) as sink:
            for record in records:
                sink.emit(record)
        log = read_trace_log(path)
        assert log.version == TRACE_VERSION
        assert log.records == records

    def test_jsonl_zero_event_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        JsonlTraceSink(path).close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": TRACE_FORMAT, "version": TRACE_VERSION}
        log = read_trace_log(path)
        assert len(log) == 0 and log.duration == 0.0

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(TraceError):
            sink.emit(TraceRecord(0.0, "step"))

    def test_reader_rejects_bad_files(self, tmp_path):
        missing_header = tmp_path / "nohdr.jsonl"
        missing_header.write_text('{"t": 0.0, "kind": "step"}\n')
        with pytest.raises(TraceError):
            read_trace_log(missing_header)

        bad_version = tmp_path / "v999.jsonl"
        bad_version.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": 999}) + "\n")
        with pytest.raises(TraceError):
            read_trace_log(bad_version)

        truly_empty = tmp_path / "zero-bytes.jsonl"
        truly_empty.write_text("")
        with pytest.raises(TraceError):
            read_trace_log(truly_empty)

        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION})
            + "\nnot json\n")
        with pytest.raises(TraceError):
            read_trace_log(garbage)

    def test_bad_path_fails_at_construction(self, tmp_path):
        with pytest.raises(TraceError):
            JsonlTraceSink(tmp_path / "no" / "such" / "dir" / "t.jsonl")


class TestAbnormalExit:
    """Buffered records survive a process that never reaches close()."""

    def run_python(self, source: str) -> None:
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", source], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr

    def test_atexit_flushes_an_unclosed_sink(self, tmp_path):
        path = tmp_path / "died.jsonl"
        self.run_python(
            "from repro.trace import JsonlTraceSink, TraceRecord\n"
            f"sink = JsonlTraceSink({str(path)!r})\n"
            "for i in range(5):\n"
            "    sink.emit(TraceRecord(float(i), 'calendar.complete', i))\n"
            "raise SystemExit(3)\n"  # leaves the buffer unflushed
        )
        log = read_trace_log(path)
        assert [r.subject for r in log] == [0, 1, 2, 3, 4]

    def test_atexit_flush_lands_on_a_record_boundary(self, tmp_path):
        """A run that dies mid-buffer still leaves a batch-readable file —
        complete trailing record, no partial line."""
        path = tmp_path / "died-mid-flush.jsonl"
        self.run_python(
            "from repro.trace import JsonlTraceSink, TraceRecord\n"
            f"sink = JsonlTraceSink({str(path)!r}, flush_every=3)\n"
            "for i in range(7):\n"  # flushes at 3 and 6; one record buffered
            "    sink.emit(TraceRecord(float(i), 'step', 'engine', {'step': i}))\n"
            "raise SystemExit(3)\n"
        )
        assert path.read_text().endswith("\n")
        assert len(read_trace_log(path)) == 7
