"""Per-rule tests against the seeded fixture trees.

Every rule RC01–RC06 has a seeded-violation fixture and a clean twin; the
tests pin the *exact* ``(path, line, code)`` triples so a checker that
drifts by one line, fires twice, or goes silent fails loudly.
"""

from __future__ import annotations

from pathlib import Path

from repro.checks import run_check
from repro.checks.bench_emit import BenchEmitChecker
from repro.checks.delta_contract import DeltaContractChecker
from repro.checks.guarded_emission import GuardedEmissionChecker
from repro.checks.numpy_guard import NumpyGuardChecker
from repro.checks.parity import ParityManifestChecker
from repro.checks.trace_kinds import TraceKindChecker

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def triples(findings):
    return [(f.path, f.line, f.code) for f in findings]


class TestTraceKindsRC01:
    ROOT = FIXTURES / "rc01"

    def run(self, *names, trace_doc="trace-format.md"):
        return run_check([self.ROOT / name for name in names],
                         root=self.ROOT, checkers=[TraceKindChecker],
                         trace_doc=self.ROOT / trace_doc)

    def test_unregistered_literal_kind_is_reported(self):
        findings, _ = self.run("records.py", "bad_kinds.py")
        assert triples(findings) == [("bad_kinds.py", 7, "RC01")]
        assert "calendar.flsh" in findings[0].message

    def test_registered_kind_is_clean(self):
        findings, _ = self.run("records.py", "clean_kinds.py")
        assert findings == []

    def test_undocumented_registry_entry_is_reported(self, tmp_path):
        pristine = (self.ROOT / "trace-format.md").read_text(encoding="utf-8")
        kept = [line for line in pristine.splitlines(keepends=True)
                if "`metrics.sample`" not in line]
        assert len(kept) == len(pristine.splitlines()) - 1
        drifted = tmp_path / "trace-format.md"
        drifted.write_text("".join(kept), encoding="utf-8")
        findings, _ = run_check(
            [self.ROOT / "records.py", self.ROOT / "clean_kinds.py"],
            root=self.ROOT, checkers=[TraceKindChecker], trace_doc=drifted)
        # anchored at the registry entry of the now-undocumented kind
        assert triples(findings) == [("records.py", 6, "RC01")]
        assert "metrics.sample" in findings[0].message


class TestNumpyGuardRC02:
    ROOT = FIXTURES / "rc02"

    def test_direct_imports_are_reported_per_statement(self):
        findings, _ = run_check([self.ROOT / "bad_numpy.py"], root=self.ROOT,
                                checkers=[NumpyGuardChecker])
        assert triples(findings) == [("bad_numpy.py", 3, "RC02"),
                                     ("bad_numpy.py", 4, "RC02")]

    def test_guarded_import_is_clean(self):
        findings, _ = run_check([self.ROOT / "clean_numpy.py"],
                                root=self.ROOT, checkers=[NumpyGuardChecker])
        assert findings == []

    def test_inline_suppression_counts_but_does_not_report(self):
        findings, ctx = run_check([self.ROOT / "suppressed_numpy.py"],
                                  root=self.ROOT,
                                  checkers=[NumpyGuardChecker])
        assert findings == []
        assert ctx.suppressed_count == 1


class TestGuardedEmissionRC03:
    ROOT = FIXTURES / "rc03"

    def test_unguarded_truthy_and_computed_receivers_are_reported(self):
        findings, _ = run_check([self.ROOT / "bad" / "engine.py"],
                                root=self.ROOT,
                                checkers=[GuardedEmissionChecker])
        assert triples(findings) == [("bad/engine.py", 7, "RC03"),
                                     ("bad/engine.py", 12, "RC03"),
                                     ("bad/engine.py", 16, "RC03")]

    def test_every_real_guard_shape_is_accepted(self):
        findings, _ = run_check([self.ROOT / "clean" / "engine.py"],
                                root=self.ROOT,
                                checkers=[GuardedEmissionChecker])
        assert findings == []

    def test_non_hot_basenames_are_ignored(self, tmp_path):
        twin = tmp_path / "analysis.py"
        twin.write_text((self.ROOT / "bad" / "engine.py").read_text(),
                        encoding="utf-8")
        findings, _ = run_check([twin], root=tmp_path,
                                checkers=[GuardedEmissionChecker])
        assert findings == []


class TestDeltaContractRC04:
    ROOT = FIXTURES / "rc04"

    def test_all_four_shape_rules_fire_at_the_offending_def(self):
        findings, _ = run_check([self.ROOT / "bad_provider.py"],
                                root=self.ROOT,
                                checkers=[DeltaContractChecker])
        # TwoPricingWalks (no reset) trips the view rule at its update def
        # line and the invariant-method rule at its update_slots def line;
        # SlotsWithoutReset trips the invariant-method rule without update()
        assert triples(findings) == [("bad_provider.py", 5, "RC04"),
                                     ("bad_provider.py", 8, "RC04"),
                                     ("bad_provider.py", 16, "RC04"),
                                     ("bad_provider.py", 24, "RC04"),
                                     ("bad_provider.py", 29, "RC04")]
        messages = "\n".join(f.message for f in findings)
        assert "update() that does not route through update_slots()" in messages
        assert "slot-map invariant method set (missing: reset)" in messages
        assert "does not route through update()" in messages
        assert "reset() must be zero-arg" in messages

    def test_conforming_tiered_provider_is_clean(self):
        findings, _ = run_check([self.ROOT / "clean_provider.py"],
                                root=self.ROOT,
                                checkers=[DeltaContractChecker])
        assert findings == []


class TestParityManifestRC05:
    ROOT = FIXTURES / "rc05"

    def test_unmapped_toggle_is_reported_at_the_toggle_line(self):
        findings, _ = run_check(
            [self.ROOT / "toggle_module.py"], root=self.ROOT,
            checkers=[ParityManifestChecker],
            parity_manifest=self.ROOT / "manifest_empty.json")
        assert triples(findings) == [("toggle_module.py", 4, "RC05")]

    def test_mapped_toggle_is_clean(self):
        findings, _ = run_check(
            [self.ROOT / "toggle_module.py"], root=self.ROOT,
            checkers=[ParityManifestChecker],
            parity_manifest=self.ROOT / "manifest_good.json")
        assert findings == []

    def test_stale_entry_and_missing_test_file_are_reported(self):
        findings, _ = run_check(
            [self.ROOT / "no_toggle.py", self.ROOT / "toggle_module.py"],
            root=self.ROOT, checkers=[ParityManifestChecker],
            parity_manifest=self.ROOT / "manifest_stale.json")
        assert triples(findings) == [("manifest_stale.json", 0, "RC05"),
                                     ("no_toggle.py", 1, "RC05")]
        assert "missing_test_file.py" in findings[0].message
        assert "no longer defines" in findings[1].message


class TestBenchEmitRC06:
    ROOT = FIXTURES / "rc06"

    def test_hand_rolled_writes_are_reported(self):
        findings, _ = run_check([self.ROOT / "bench_bad.py"], root=self.ROOT,
                                checkers=[BenchEmitChecker])
        assert triples(findings) == [("bench_bad.py", 9, "RC06"),
                                     ("bench_bad.py", 10, "RC06")]

    def test_emit_fixture_usage_is_clean(self):
        findings, _ = run_check([self.ROOT / "bench_clean.py"],
                                root=self.ROOT, checkers=[BenchEmitChecker])
        assert findings == []

    def test_rule_only_applies_to_bench_basenames(self, tmp_path):
        twin = tmp_path / "helper.py"
        twin.write_text((self.ROOT / "bench_bad.py").read_text(),
                        encoding="utf-8")
        findings, _ = run_check([twin], root=tmp_path,
                                checkers=[BenchEmitChecker])
        assert findings == []
