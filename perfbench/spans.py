"""Span recording around layer entry points, and self-time arithmetic.

A traced run installs wrappers on *existing* methods of the program's
classes (never adding or hiding one: the calendar chooses its provider
handoff tier with ``getattr``, so a new attribute would switch the code path
being measured).  Each wrapped call appends one span
``[name, start, end, parent, op_id]`` to an in-memory list; ``parent`` is the
index of the enclosing span (``-1`` at top level) and ``op_id`` numbers the
timed call the span belongs to.  Spans are written out only after the run.

A layer's *self time* is the duration of its spans minus the part of each
span covered by its direct child spans, summed over the layer.  Nested
spans of the same layer are therefore counted once.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    """In-memory span list plus the wrappers that feed it."""

    def __init__(self, op_id: int = 0) -> None:
        self.spans: List[list] = []
        #: the timed call these spans belong to
        self.op_id = op_id
        self._stack: List[int] = []
        self._installed: List[Tuple[type, str, object]] = []

    # ----------------------------------------------------------- recording
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # ---------------------------------------------------------- installing
    def wrap(self, owner: type, attr: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``.

        Only a plain function defined on ``owner`` itself is wrapped; the
        wrapper replaces it under the same name, so attribute lookups on
        instances resolve exactly as before.
        """
        original = owner.__dict__.get(attr)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner.__qualname__}.{attr} is not a plain method")
        if getattr(original, "__isabstractmethod__", False):
            raise TypeError(f"{owner.__qualname__}.{attr} is abstract")
        opened, closed = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = opened(layer)
            try:
                return original(*args, **kwargs)
            finally:
                closed(index)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped method back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-layer self time: span duration minus its direct children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span[END] - span[START] - child_time[index]
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals


def covered_time(spans: List[list], start: float, end: float) -> float:
    """Time inside ``[start, end]`` that top-level spans cover.

    One thread records the spans, so top-level spans never overlap and
    their durations add up to the union of every layer's spans.
    """
    return sum(min(span[END], end) - max(span[START], start) for span in spans
               if span[PARENT] < 0 and span[END] > start and span[START] < end)
