"""Trace records, the in-memory trace log and the stats-snapshot base.

See the package docstring (:mod:`repro.trace`) for the schema.  This module
is deliberately dependency-free (no simulator imports) so every layer of the
stack can import it without cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    ItemsView,
    Iterator,
    KeysView,
    List,
    Optional,
    Tuple,
    Union,
    ValuesView,
    overload,
)

from ..exceptions import TraceError

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "KNOWN_KINDS",
    "TraceRecord",
    "TraceLog",
    "SnapshotBase",
]

#: the container format tag written to JSONL headers
TRACE_FORMAT = "repro-trace"
#: schema version of the record vocabulary below
TRACE_VERSION = 1

#: every record kind of schema version 1 (the round-trip tests iterate this)
KNOWN_KINDS: Tuple[str, ...] = (
    "run.meta",
    "calendar.activate",
    "calendar.complete",
    "calendar.cancel",
    "calendar.retime",
    "calendar.flush",
    "calendar.reprice",
    "calendar.compaction",
    "calendar.stall",
    "calendar.stall_retry",
    "step",
    "task.state",
    "task.event",
    "inject.apply",
    "inject.flow_start",
    "inject.flow_end",
    "inject.rate_scale_on",
    "inject.rate_scale_off",
    "inject.compute_scale_on",
    "inject.compute_scale_off",
    "inject.reprice",
    "app.meta",
    "app.compute",
    "app.send",
    "app.recv",
    "app.barrier",
    "metrics.sample",
)


@dataclass(slots=True)
class TraceRecord:
    """One structured trace event: time / kind / subject / payload.

    Slotted and *not* frozen: record construction sits on the simulation
    hot path (one record per calendar state change), and a frozen dataclass
    costs about 2× per instantiation (``object.__setattr__``).  Treat
    records as immutable by convention — sinks and logs never mutate them.
    """

    time: float
    kind: str
    subject: Optional[Hashable] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the JSONL line shape, minus the newline)."""
        out: Dict[str, Any] = {"t": self.time, "kind": self.kind}
        if self.subject is not None:
            out["subject"] = self.subject
        if self.data:
            out["data"] = dict(self.data)
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TraceRecord":
        if not isinstance(raw, dict) or "kind" not in raw:
            raise TraceError(f"malformed trace record {raw!r}")
        try:
            time = float(raw.get("t", 0.0))
        except (TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace record time in {raw!r}") from exc
        data = raw.get("data", {})
        if not isinstance(data, dict):
            raise TraceError(f"trace record data must be a mapping, got {data!r}")
        return cls(time=time, kind=str(raw["kind"]), subject=raw.get("subject"),
                   data=data)


class TraceLog:
    """An ordered collection of trace records with filtering helpers.

    The in-memory twin of a JSONL trace file: what
    :func:`repro.trace.read_trace_log` returns and what the analysis layer
    (:mod:`repro.analysis.timeline`) consumes.
    """

    def __init__(self, records: Iterable[TraceRecord] = (),
                 version: int = TRACE_VERSION) -> None:
        self.records: List[TraceRecord] = list(records)
        self.version = int(version)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceRecord]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceRecord, List[TraceRecord]]:
        return self.records[index]

    # --------------------------------------------------------------- queries
    def kinds(self) -> "Counter[str]":
        """Record count per kind."""
        return Counter(record.kind for record in self.records)

    def records_of(self, *kinds: str) -> List[TraceRecord]:
        """Records whose kind is in ``kinds`` (or has one as a dotted prefix).

        ``records_of("calendar")`` returns every ``calendar.*`` record;
        ``records_of("calendar.flush")`` only the flushes.
        """
        wanted = tuple(kinds)
        return [
            record for record in self.records
            if any(record.kind == kind or record.kind.startswith(kind + ".")
                   for kind in wanted)
        ]

    def subjects(self, kind: Optional[str] = None) -> List[Hashable]:
        """Distinct subjects, in first-appearance order."""
        seen: Dict[Hashable, None] = {}
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if record.subject is not None and record.subject not in seen:
                seen[record.subject] = None
        return list(seen)

    def between(self, start: float, end: float) -> "TraceLog":
        """Records with ``start <= time < end`` (the "what happened at t=X" cut)."""
        return TraceLog(
            (r for r in self.records if start <= r.time < end),
            version=self.version,
        )

    @property
    def duration(self) -> float:
        """Time span covered by the records (0.0 for an empty trace)."""
        if not self.records:
            return 0.0
        times = [record.time for record in self.records]
        return max(times) - min(times)

    def meta(self) -> Dict[str, Any]:
        """Payload of the first ``run.meta`` record (empty dict when absent)."""
        for record in self.records:
            if record.kind == "run.meta":
                return dict(record.data)
        return {}


class SnapshotBase:
    """Mapping-style access over a frozen stats dataclass.

    The typed snapshots (:class:`~repro.network.fluid.CalendarStatsSnapshot`,
    :class:`~repro.simulator.engine.EngineStatsSnapshot`) replace the untyped
    ``last_engine_stats`` / ``last_calendar_stats`` dicts while keeping the
    historical dict access working: ``snapshot["rate_updates"]``,
    ``dict(**snapshot)`` and ``snapshot.as_dict()`` all see one *flat* view
    in which nested snapshots (the engine's embedded calendar counters) are
    merged in — the exact shape of the dicts they replace, so stats and
    trace summaries share one counter vocabulary.
    """

    def _flat(self) -> Dict[str, Any]:
        # built once per (frozen, hence never stale) instance: dict-style
        # access is O(1) instead of re-walking fields() per lookup
        cached = getattr(self, "_flat_cache", None)
        if cached is not None:
            return cached
        out: Dict[str, Any] = {}
        for spec in fields(self):  # type: ignore[arg-type]
            value = getattr(self, spec.name)
            if isinstance(value, SnapshotBase):
                out.update(value._flat())
            else:
                out[spec.name] = value
        object.__setattr__(self, "_flat_cache", out)
        return out

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict view; nested snapshots are merged into the top level.

        Returns a fresh dict (callers may mutate it freely, like the plain
        dicts these snapshots replaced).
        """
        return dict(self._flat())

    # ------------------------------------------------- dict-style compatibility
    def keys(self) -> KeysView[str]:
        return self._flat().keys()

    def items(self) -> ItemsView[str, Any]:
        return self._flat().items()

    def values(self) -> ValuesView[Any]:
        return self._flat().values()

    def __getitem__(self, key: str) -> Any:
        try:
            return self._flat()[key]
        except KeyError:
            raise KeyError(f"{type(self).__name__} has no counter {key!r}") from None

    def get(self, key: str, default: Any = None) -> Any:
        return self._flat().get(key, default)

    def __contains__(self, key: object) -> bool:
        return key in self._flat()

    def __iter__(self) -> Iterator[str]:
        return iter(self._flat())

    def __len__(self) -> int:
        return len(self._flat())
