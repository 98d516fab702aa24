"""Run the repository benchmark: one workload, or all three.

Usage (from the repository root)::

    python3 perfbench/run.py                          # all workloads, 35 s each
    python3 perfbench/run.py --workload hpl --seed 3 --seconds 35 --trace 0

Each workload runs as a closed loop with one caller on one thread: the next
run starts when the previous one returns.  A run is the workload's job: for
each of its parts, ``setup`` followed by the timed call.  Every run's output
digest is checked against ``perfbench/expected.json``.  A short fixed loop,
the speed probe, is timed before and after every part, and each part's
set-up and call times are scaled by it to a reference core's speed
(README.md says why).  Before the timed loop, one untimed run checks the
held-out seed and warms the interpreter.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with runs whose layer entry points are wrapped in spans, and
reports the per-layer metrics; the traced runs must reproduce the untraced
digest and handoff-tier counters exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each result, with
its provenance, is also appended to ``perfbench/out/history.json``.
"""

from __future__ import annotations

import os

# pin BLAS pools before numpy loads: the benchmark runs on one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

try:
    # measure this checkout's program, never an installed copy
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError("no src/repro package in this checkout")
    from perfbench import layers, provenance, results, spans, workloads  # noqa: E402
except ImportError as _exc:
    if __name__ != "__main__":
        raise
    print(f"perfbench: cannot import the program under {ROOT / 'src'}: {_exc}",
          file=sys.stderr)
    raise SystemExit(2)

OUT = ROOT / "perfbench" / "out"
EXPECTED = ROOT / "perfbench" / "expected.json"
HISTORY = OUT / "history.json"

#: timed runs (or traced/untraced pairs) per invocation, however short
MIN_REPS = 3
#: iterations of the speed probe's loop
PROBE_ITERATIONS = 5000
#: a fixed reference time for the probe: scaled times read as seconds on a
#: core where the probe takes this long (on the 2-vCPU x86-64 machine the
#: benchmark was written on, the fastest probe of a run took 1.36-1.71 ms)
PROBE_REFERENCE_S = 1.2e-3

#: end-to-end metric name -> (unit, better)
END_TO_END = {
    "run_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

clock = time.perf_counter


@dataclass
class Rep:
    """One run of a workload's job: per-part timings, output and verdict."""

    setup_s: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    outcome: Optional[workloads.Outcome] = None
    ok: bool = False
    recorder: Optional[spans.SpanRecorder] = None
    #: (start, end) of each part's timed call
    windows: List[tuple] = field(default_factory=list)
    #: per part, the mean of the speed probes just before and after it
    speed: List[float] = field(default_factory=list)


class SpeedProbe:
    """Times :func:`provenance.calibration_loop`: how fast the core runs now."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def __call__(self) -> float:
        t0 = clock()
        provenance.calibration_loop(PROBE_ITERATIONS)
        self.samples.append(clock() - t0)
        return self.samples[-1]


def make_workload(name: str, seed: int):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Loaded:
        return cls(seed, workdir=OUT)
    return cls(seed)


def expected_digest(table: Dict[str, Dict[str, str]], workload) -> Optional[str]:
    key = "all" if workload.variant is None else str(workload.variant)
    return table.get(workload.name, {}).get(key)


def one_rep(workload, expected: Optional[str],
            recorder: Optional[spans.SpanRecorder] = None,
            probe: Optional[SpeedProbe] = None) -> Rep:
    """Set up and run each part of ``workload`` once; digest the output (untimed)."""
    rep = Rep(recorder=recorder)
    outcomes = []
    if recorder is not None:
        layers.install(recorder)
    try:
        before = probe() if probe is not None else 0.0
        for part in range(len(workload.parts)):
            prep = None
            try:
                t0 = clock()
                prep = workload.setup(part, recorder)
                t1 = clock()
                result = workload.run(prep)
                t2 = clock()
                if probe is not None:
                    after = probe()
                    rep.speed.append((before + after) / 2)
                    before = after
                outcomes.append(workload.outcome(prep, result))
            finally:
                if prep is not None:
                    prep.close()
            rep.setup_s.append(t1 - t0)
            rep.run_s.append(t2 - t1)
            rep.windows.append((t1, t2))
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        traceback.print_exc()
        return rep
    finally:
        if recorder is not None:
            recorder.restore()
    rep.outcome = workloads.combine(outcomes)
    rep.ok = expected is not None and rep.outcome.digest == expected
    if not rep.ok:
        print(f"perfbench: {workload.name} variant {workload.variant}: digest "
              f"{rep.outcome.digest} != expected {expected}", file=sys.stderr)
    return rep


def peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timed(reps: List[Rep]) -> List[Rep]:
    """Correct runs, or every completed run when none was correct."""
    return [rep for rep in reps if rep.ok] or [rep for rep in reps if rep.outcome]


def per_part(samples: List[List[float]], pick) -> float:
    """Sum over parts of ``pick`` over each part's samples (``samples[run][part]``)."""
    return sum(pick(column) for column in zip(*samples)) if samples else 0.0


def scaled(times: List[float], speed: List[float]) -> List[float]:
    """Per-part times at the reference core's speed: each time divided by the
    probe time around it, in units of :data:`PROBE_REFERENCE_S`."""
    return [t * PROBE_REFERENCE_S / probe for t, probe in zip(times, speed)]


def end_to_end(reps: List[Rep]) -> Dict[str, float]:
    """``run_s`` and ``setup_s`` sum each part's median scaled call and
    set-up time over the run; README.md says why scaled."""
    good = _timed(reps)
    run_s = per_part([scaled(rep.run_s, rep.speed) for rep in good], statistics.median)
    events = good[0].outcome.events if good else 0
    return {
        "run_s": run_s,
        "events_per_s": events / run_s if run_s > 0 else 0.0,
        "setup_s": per_part([scaled(rep.setup_s, rep.speed) for rep in good],
                            statistics.median),
        "peak_rss_mb": peak_rss_mib(),
    }


def per_layer(plain: List[Rep], traced: List[Rep]) -> Dict[str, float]:
    good = _timed(traced)
    metrics = dict(layers.counter_metrics(good[0].outcome.counters)) if good else {}
    steps = metrics.get("simulator.engine.steps", 0.0)
    samples: Dict[str, List[float]] = {}
    for rep in good:
        span_list = rep.recorder.spans
        values = layers.time_metrics(spans.self_times(span_list), steps)
        covered = sum(spans.covered_time(span_list, *window) for window in rep.windows)
        values["bench.unattributed_frac"] = 1.0 - covered / sum(rep.run_s)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    metrics.update({name: _median(values) for name, values in samples.items()})
    plain_s = per_part([rep.run_s for rep in _timed(plain)], min)
    traced_s = per_part([rep.run_s for rep in good], min)
    metrics["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return {name: metrics.get(name, 0.0) for name in layers.PER_LAYER}


def observer_check(plain: List[Rep], traced: List[Rep]) -> int:
    """Count traced runs whose digest or handoff tiers differ from untraced."""
    reference = next((rep.outcome for rep in plain if rep.ok), None)
    if reference is None:
        return 0
    mismatches = 0
    for rep in traced:
        if rep.outcome is None:
            continue
        if (rep.outcome.digest, rep.outcome.tiers) != (reference.digest, reference.tiers):
            mismatches += rep.ok  # a wrong digest has already failed the call
            print(f"perfbench: OBSERVER EFFECT: traced run produced digest "
                  f"{rep.outcome.digest} tiers {rep.outcome.tiers}, untraced "
                  f"{reference.digest} tiers {reference.tiers}", file=sys.stderr)
    return mismatches


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    table = results.read_json(EXPECTED)
    workload = make_workload(name, seed)
    expected = expected_digest(table, workload)
    # untimed: checks a second, held-out seed and warms the interpreter
    check_workload = make_workload(name, workloads.heldout_seed(seed))
    check = one_rep(check_workload, expected_digest(table, check_workload))

    plain: List[Rep] = []
    traced: List[Rep] = []
    probe = SpeedProbe()
    deadline = clock() + seconds
    while len(plain) < MIN_REPS or clock() < deadline:
        if not trace:
            plain.append(one_rep(workload, expected, probe=probe))
        elif len(plain) % 2 == 0:
            plain.append(one_rep(workload, expected))
            traced.append(one_rep(workload, expected, spans.SpanRecorder(len(traced))))
        else:
            traced.append(one_rep(workload, expected, spans.SpanRecorder(len(traced))))
            plain.append(one_rep(workload, expected))

    reps = [check] + plain + traced
    failed = sum(not rep.ok for rep in reps) + observer_check(plain, traced)
    if trace:
        metrics = per_layer(plain, traced)
        units = layers.PER_LAYER
        last = traced[-1].recorder
        OUT.mkdir(parents=True, exist_ok=True)
        last.write_jsonl(OUT / f"{name}-spans.jsonl")
    else:
        metrics = end_to_end(plain)
        units = END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "variant": workload.variant,
        "heldout_seed": workloads.heldout_seed(seed),
        "trace": int(trace),
        "run_seconds": seconds,
        "runs": len(plain) + len(traced),
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "error_rate": failed / len(reps),
        "metrics": {key: {"value": value, "unit": units[key][0]}
                    for key, value in metrics.items()},
        "samples": {
            "parts": len(workload.parts),
            "run_s": [sum(rep.run_s) for rep in plain],
            "run_s_median": _median([sum(rep.run_s) for rep in _timed(plain)]),
            "run_s_fastest_parts": per_part([rep.run_s for rep in _timed(plain)], min),
            "setup_s_fastest_parts": per_part([rep.setup_s for rep in _timed(plain)], min),
            "probe_fastest_ms": min(probe.samples, default=0.0) * 1e3,
            "probe_median_ms": _median(probe.samples) * 1e3,
            "probe_count": len(probe.samples),
            "traced_run_s": [sum(rep.run_s) for rep in traced],
        },
    }


def print_report(record: dict) -> None:
    units = layers.PER_LAYER if record["trace"] else END_TO_END
    print(f"== {record['workload']} (seed {record['seed']}, variant "
          f"{record['variant']}, held-out seed {record['heldout_seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}, {record['runs']} timed "
          f"runs of {record['samples']['parts']} parts; run_s and setup_s sum "
          f"each part's median time scaled to the reference core, layer times "
          f"are medians)")
    for name, entry in record["metrics"].items():
        print(f"  {name:<42s} {entry['value']:>14.6g} {entry['unit']:<9s} "
              f"({units[name][1]} is better)")
    print(f"  {'error_rate':<42s} {record['error_rate']:>14.6g} {'fraction':<9s} "
          f"(lower is better; {record['failed']} of {record['attempted']} runs failed)")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another.

    Separate processes keep one workload's peak memory out of the next
    one's ``peak_rss_mb``; no two run at once.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["provenance"] = provenance.collect(ROOT)
    print_report(record)
    results.append_history(HISTORY, record)
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
