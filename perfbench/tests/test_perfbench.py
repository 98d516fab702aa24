"""Tests of the benchmark itself: tiny workloads, digests, spans, results.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import abc
import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import layers, results, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


def tiny(name: str, tmp_path: Path, seed: int = 0):
    if name == "hpl":
        return workloads.Hpl(seed, ranks=8)
    if name == "sweep":
        return workloads.Sweep(seed, parts=2, seeds=1, host_counts=(8,))
    loaded = workloads.Loaded(seed, hosts=8, parts=2, workdir=tmp_path)
    for part in loaded.parts:
        # 100 flows/s of 4 MB saturate 8 hosts' links and the run barely drains
        part["background"]["rate"] = 20
    return loaded


def reference_digest(workload) -> str:
    outcomes = []
    for part in range(len(workload.parts)):
        prep = workload.setup(part)
        try:
            outcomes.append(workload.outcome(prep, workload.run(prep)))
        finally:
            prep.close()
    return workloads.combine(outcomes).digest


# ------------------------------------------------------------------- spans
def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # engine [0, 10] > calendar [1, 5] > provider [2, 4] > calendar [2.5, 3]
    #        [0, 10] > sink [6, 7]
    tree = [
        ["engine", 0.0, 10.0, -1, 0],
        ["calendar", 1.0, 5.0, 0, 0],
        ["provider", 2.0, 4.0, 1, 0],
        ["calendar", 2.5, 3.0, 2, 0],
        ["sink", 6.0, 7.0, 0, 0],
    ]
    assert spans.self_times(tree) == {
        "engine": 10.0 - 4.0 - 1.0,
        "calendar": (4.0 - 2.0) + 0.5,
        "provider": 2.0 - 0.5,
        "sink": 1.0,
    }
    # self times add up to the top-level span
    assert sum(spans.self_times(tree).values()) == 10.0
    assert spans.covered_time(tree, 0.0, 10.0) == 10.0
    assert spans.covered_time(tree + [["engine", 20.0, 21.0, -1, 1]], 5.0, 20.5) == 5.5


class _Base(abc.ABC):
    @abc.abstractmethod
    def price(self, x): ...


class _Layer(_Base):
    def price(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return 2 * x


def test_wrappers_record_nesting_and_restore_exactly():
    before = dict(_Layer.__dict__)
    recorder = spans.SpanRecorder()
    recorder.wrap(_Layer, "price", "outer")
    recorder.wrap(_Layer, "inner", "inner")
    assert set(_Layer.__dict__) == set(before)
    assert _Layer().price(3) == 7
    names = [(s[spans.NAME], s[spans.PARENT]) for s in recorder.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert all(s[spans.END] >= s[spans.START] for s in recorder.spans)
    recorder.restore()
    assert dict(_Layer.__dict__) == before


def test_wrap_refuses_missing_and_abstract_methods():
    recorder = spans.SpanRecorder()
    with pytest.raises(TypeError):
        recorder.wrap(_Layer, "missing", "x")
    with pytest.raises(TypeError):
        recorder.wrap(_Base, "price", "x")


def test_install_adds_no_attribute_and_restore_puts_everything_back():
    owners = [owner for _, owner, _ in layers.ENTRY_POINTS] + list(layers._model_classes())
    before = {owner: dict(owner.__dict__) for owner in owners}
    recorder = spans.SpanRecorder()
    layers.install(recorder)
    try:
        assert all(set(owner.__dict__) == set(before[owner]) for owner in owners)
    finally:
        recorder.restore()
    assert all(dict(owner.__dict__) == before[owner] for owner in owners)


# ------------------------------------------------------------- workloads
@pytest.mark.parametrize("name", ["hpl", "sweep", "loaded"])
def test_tiny_workload_emits_every_metric_and_traced_run_matches(name, tmp_path):
    workload = tiny(name, tmp_path)
    expected = reference_digest(workload)
    probe = run.SpeedProbe()
    plain = [run.one_rep(workload, expected, probe=probe) for _ in range(2)]
    for rep in plain:
        assert len(rep.run_s) == len(rep.setup_s) == len(rep.speed) == len(workload.parts)
    traced = [run.one_rep(workload, expected, spans.SpanRecorder()) for _ in range(2)]
    assert all(rep.ok for rep in plain + traced)
    assert run.observer_check(plain, traced) == 0

    e2e = run.end_to_end(plain)
    assert set(e2e) == set(run.END_TO_END)
    assert all(value > 0 for value in e2e.values())
    layer = run.per_layer(plain, traced)
    assert list(layer) == list(layers.PER_LAYER)
    assert 0.0 <= layer["bench.unattributed_frac"] < 1.0
    self_times = {metric: layer[metric] for metric in layers.SELF_TIME_METRIC.values()}
    if name == "sweep":
        assert layer["campaign.self_s"] > 0 and layer["core.model.eval_s"] > 0
        assert layer["simulator.engine.self_s"] == 0.0
    else:
        assert layer["simulator.engine.self_s"] > 0
        assert layer["simulator.engine.steps"] > 0
    if name == "loaded":
        assert layer["network.allocator.update_s"] > 0
        assert layer["trace.records"] > 0 and layer["trace.emit_s"] > 0
        assert layer["simulator.interference.injected_events"] > 0
    if name == "hpl":
        assert layer["network.fluid.slot_tier_frac"] == 1.0
        assert layer["core.incremental.update_s"] > 0
    assert all(value >= 0 for value in self_times.values())


def test_observer_check_flags_a_traced_run_on_another_tier():
    def rep(tiers, digest="d"):
        return run.Rep([0.0], [1.0], workloads.Outcome(digest, 1, {}, tiers), True)

    plain = [rep((10, 0, 0))]
    assert run.observer_check(plain, [rep((10, 0, 0))]) == 0
    assert run.observer_check(plain, [rep((0, 0, 10)), rep((10, 0, 0))]) == 1
    assert run.observer_check(plain, [rep((10, 0, 0), digest="other")]) == 1


def test_main_prints_the_contract_line(monkeypatch, tmp_path, capsys):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(run, "make_workload", lambda name, seed: tiny(name, tmp_path, seed))
    monkeypatch.setattr(run, "expected_digest",
                        lambda table, workload: reference_digest(workload))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "HISTORY", tmp_path / "history.json")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "sweep", "--seconds", "0", "--trace", str(trace)]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] == 1 + run.MIN_REPS * (1 + trace)
        declared = {m["name"]: m["unit"] for m in benchmark[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    history = results.read_json(tmp_path / "history.json")
    assert [record["trace"] for record in history] == [0, 1]
    assert history[0]["provenance"]["nproc"] >= 1


# ----------------------------------------------------------------- digests
def test_perturbed_report_fails_the_digest_check(tmp_path):
    workload = tiny("hpl", tmp_path)
    prep = workload.setup(0)
    report = workload.run(prep)
    digest = workloads.report_digest(report)
    record = report.records[3]
    report.records[3] = dataclasses.replace(record, end=record.end * (1 + 1e-15))
    assert workloads.report_digest(report) != digest
    report.records[3] = record
    report.finish_time_per_task[0] += 1e-9
    assert workloads.report_digest(report) != digest

    wrong = run.one_rep(workload, expected="0" * 64)
    assert not wrong.ok and wrong.outcome is not None


def test_perturbed_campaign_result_fails_the_digest_check(tmp_path):
    workload = tiny("sweep", tmp_path)
    prep = workload.setup(0)
    store = workload.run(prep)
    digest = workloads.store_digest(store)
    result = next(iter(store))
    name = sorted(result.penalties)[0]
    result.penalties[name] = result.penalties[name] + 1e-12
    assert workloads.store_digest(store) != digest


def test_parts_combine_into_one_digest_and_sum_their_fastest_times():
    a = workloads.Outcome("a", 2, {"steps": 1}, (1, 0, 0))
    b = workloads.Outcome("b", 3, {"steps": 2}, (0, 1, 0))
    assert workloads.combine([a]) is a
    both = workloads.combine([a, b])
    assert (both.events, both.counters, both.tiers) == (5, {"steps": 3}, (1, 1, 0))
    assert workloads.combine([b, a]).digest != both.digest
    assert workloads.combine([a, dataclasses.replace(b, digest="c")]).digest != both.digest
    # runs x parts: each part's fastest run, summed
    assert run.per_part([[3.0, 1.0], [2.0, 4.0]], min) == 3.0
    assert run.per_part([], min) == 0.0
    # a call timed while the probe took twice its reference time counts half
    reference = run.PROBE_REFERENCE_S
    assert run.scaled([2.0, 1.0], [2 * reference, reference]) == [1.0, 1.0]


def test_expected_table_covers_every_input_variant():
    table = results.read_json(run.EXPECTED)
    assert set(table["hpl"]) == {"all"}
    for name in ("sweep", "loaded"):
        assert set(table[name]) == {str(v) for v in range(workloads.VARIANTS)}
    assert workloads.variant_of(workloads.heldout_seed(5)) != workloads.variant_of(5)


def test_benchmark_json_matches_the_metric_tables():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]} \
        == layers.PER_LAYER


# ----------------------------------------------------------------- results
def test_history_is_written_atomically_and_never_reset(tmp_path):
    path = tmp_path / "history.json"
    results.append_history(path, {"n": 1})
    results.append_history(path, {"n": 2})
    assert results.read_json(path) == [{"n": 1}, {"n": 2}]
    assert [p.name for p in tmp_path.iterdir()] == ["history.json"]

    path.write_text('[{"n": 1}, {"n"', encoding="utf-8")
    with pytest.raises(results.CorruptResultError, match="history.json"):
        results.append_history(path, {"n": 3})
    assert path.read_text(encoding="utf-8") == '[{"n": 1}, {"n"'

    path.write_text('{"n": 1}', encoding="utf-8")
    with pytest.raises(results.CorruptResultError, match="JSON list"):
        results.append_history(path, {"n": 3})
