"""Test oracle: the all-ranks ready sweep the engine's ready queue replaced.

:class:`SweepEngine` is :class:`~repro.simulator.engine.ExecutionEngine`
with the rank-ordered ready queue taken out: :meth:`_mark_ready` only sets
the status, and :meth:`_process_ready_tasks` rescans every rank in each
pass until a pass advances nothing — O(ranks) per pass, the order the
queue's sweep-order contract reproduces.  The barrier is released by the
matching scan over all live tasks, not by the production engine's
live-task counter.  Message matching and the calendar are the production
code, so a divergence between the two engines
(``tests/property/test_ready_queue.py``) is a divergence in scheduling.
After each sweep the oracle also recounts the live and computing tasks that
the production engine tracks with counters.
"""

from __future__ import annotations

from repro.simulator.engine import ExecutionEngine, _Status, _TaskState
from repro.simulator.events import BarrierEvent


class SweepEngine(ExecutionEngine):
    """Reference engine: every pass scans all ranks for READY tasks."""

    def _mark_ready(self, task: _TaskState) -> None:
        task.status = _Status.READY

    def _maybe_release_barrier(self) -> None:
        alive = [t for t in self.tasks if t.status is not _Status.DONE]
        if alive and all(t.status is _Status.BARRIER for t in alive):
            for task in alive:
                start = self.barrier_waiting.pop(task.rank)
                label = ""
                if isinstance(task.current_event, BarrierEvent):
                    label = task.current_event.label
                self._record(task.rank, "barrier", start, self.now, label=label)
                self._mark_ready(task)
                task.resume_value = {"kind": "barrier"}

    def _process_ready_tasks(self) -> None:
        made_progress = True
        while made_progress:
            made_progress = False
            for task in self.tasks:
                if task.status is not _Status.READY:
                    continue
                event = self._advance_program(task)
                if event is None:
                    self._finish_task(task)
                    self._maybe_release_barrier()
                else:
                    self._start_event(task, event)
                made_progress = True
        self._check_counters()

    def _check_counters(self) -> None:
        live = sum(task.status is not _Status.DONE for task in self.tasks)
        computing = sum(task.status is _Status.COMPUTING for task in self.tasks)
        assert (self._live, self._computing) == (live, computing), (
            f"counters (live={self._live}, computing={self._computing}) "
            f"disagree with the tasks (live={live}, computing={computing})"
        )
