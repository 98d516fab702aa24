"""Which public entry points belong to which layer, and the per-layer metrics.

Layers are named by the program's modules.  A traced run wraps the entry
points below (see :mod:`perfbench.spans`); each layer's self time excludes
the layers it calls, so the calendar's time excludes the provider's and the
provider's excludes the model's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.campaign import CampaignRunner
from repro.campaign.spec import ScenarioSpec
from repro.core.penalty import ContentionModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import TransferCalendar
from repro.simulator import Simulator
from repro.simulator.providers import ModelRateProvider
from repro.trace import JsonlTraceSink

PROVIDER_METHODS = ("update_slots", "update_arrays", "update", "rates")

#: (layer, class, methods); a method the class does not define is skipped
ENTRY_POINTS = (
    ("simulator.engine", Simulator, ("run",)),
    ("network.fluid", TransferCalendar, ("flush", "pop_due", "activate", "next_time")),
    ("core.incremental", ModelRateProvider, PROVIDER_METHODS),
    ("campaign", CampaignRunner, ("run",)),
    ("workloads", ScenarioSpec, ("build_graph", "build_application")),
    ("network.allocator", EmulatorRateProvider, PROVIDER_METHODS),
    ("trace", JsonlTraceSink, ("emit", "close")),
)
MODEL_METHODS = ("penalties", "penalties_batch")

#: per-layer metric name -> (unit, better); the order BENCHMARK.json lists
PER_LAYER = {
    "simulator.engine.self_s": ("s", "lower"),
    "simulator.engine.self_us_per_step": ("us", "lower"),
    "simulator.engine.steps": ("count", "lower"),
    "network.fluid.self_s": ("s", "lower"),
    "network.fluid.flushes": ("count", "lower"),
    "network.fluid.rate_updates": ("count", "lower"),
    "network.fluid.retimed": ("count", "lower"),
    "network.fluid.slot_tier_frac": ("fraction", "higher"),
    "core.incremental.update_s": ("s", "lower"),
    "core.incremental.cache_hit_ratio": ("fraction", "higher"),
    "core.incremental.comm_evaluations": ("count", "lower"),
    "core.model.eval_s": ("s", "lower"),
    "core.model.component_evaluations": ("count", "lower"),
    "campaign.self_s": ("s", "lower"),
    "campaign.cache_hit_ratio": ("fraction", "higher"),
    "workloads.build_s": ("s", "lower"),
    "network.allocator.update_s": ("s", "lower"),
    "network.allocator.cache_hit_ratio": ("fraction", "higher"),
    "network.allocator.warm_starts": ("count", "higher"),
    "simulator.interference.injected_events": ("count", "higher"),
    "simulator.interference.background_flows": ("count", "higher"),
    "trace.emit_s": ("s", "lower"),
    "trace.records": ("count", "higher"),
    "bench.unattributed_frac": ("fraction", "lower"),
    "bench.trace_overhead_frac": ("fraction", "lower"),
}

#: layer -> the per-layer metric holding its self time
SELF_TIME_METRIC = {
    "simulator.engine": "simulator.engine.self_s",
    "network.fluid": "network.fluid.self_s",
    "core.incremental": "core.incremental.update_s",
    "core.model": "core.model.eval_s",
    "campaign": "campaign.self_s",
    "workloads": "workloads.build_s",
    "network.allocator": "network.allocator.update_s",
    "trace": "trace.emit_s",
}


def _model_classes() -> Iterator[type]:
    pending: List[type] = [ContentionModel]
    while pending:
        cls = pending.pop()
        yield cls
        pending.extend(cls.__subclasses__())


def install(recorder) -> None:
    """Wrap every layer entry point the program currently defines."""
    for layer, owner, methods in ENTRY_POINTS:
        for method in methods:
            if method in owner.__dict__:
                recorder.wrap(owner, method, layer)
    for cls in _model_classes():
        for method in MODEL_METHODS:
            function = cls.__dict__.get(method)
            if function is not None and not getattr(function, "__isabstractmethod__", False):
                recorder.wrap(cls, method, "core.model")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics read from the program's own work counters."""
    c = {key: float(value) for key, value in counters.items()}
    get = c.get
    return {
        "simulator.engine.steps": get("steps", 0.0),
        "network.fluid.flushes": get("flushes", 0.0),
        "network.fluid.rate_updates": get("rate_updates", 0.0),
        "network.fluid.retimed": get("retimed", 0.0),
        "network.fluid.slot_tier_frac": _ratio(get("handoff_tier_slots", 0.0),
                                               get("flushes", 0.0)),
        "core.incremental.cache_hit_ratio": _ratio(
            get("pricing_cache_hits", 0.0),
            get("pricing_cache_hits", 0.0) + get("pricing_cache_misses", 0.0)),
        "core.incremental.comm_evaluations": get("pricing_comm_evaluations", 0.0),
        "core.model.component_evaluations": get("component_evaluations", 0.0),
        "campaign.cache_hit_ratio": _ratio(
            get("campaign_cache_hits", 0.0),
            get("campaign_cache_hits", 0.0) + get("campaign_cache_misses", 0.0)),
        "network.allocator.cache_hit_ratio": _ratio(
            get("allocator_cache_hits", 0.0),
            get("allocator_cache_hits", 0.0) + get("allocator_cache_misses", 0.0)),
        "network.allocator.warm_starts": get("warm_starts", 0.0),
        "simulator.interference.injected_events": get("injected_events", 0.0),
        "simulator.interference.background_flows": get("background_flows", 0.0),
        "trace.records": get("trace_records", 0.0),
    }


def time_metrics(self_s: Dict[str, float], steps: float) -> Dict[str, float]:
    """The per-layer self-time metrics of one traced run."""
    metrics = {metric: self_s.get(layer, 0.0) for layer, metric in SELF_TIME_METRIC.items()}
    metrics["simulator.engine.self_us_per_step"] = _ratio(
        metrics["simulator.engine.self_s"] * 1e6, steps)
    return metrics
