"""Execution tracing: per-task and per-worker event timelines.

The paper's profiler (section 4.5) can "monitor only specific code
segments, providing detailed and accurate results for individual tasks or
threads".  This module is that facility for the simulated runtime: an
opt-in tracer that records dispatch/pause/finish/migration events with
virtual timestamps, plus analysis helpers (per-task latency breakdowns,
per-worker occupancy, a Chrome-trace-format exporter for visual
inspection).

Tracing costs nothing in virtual time (the real CHARM's claim of 5-10%
polling overhead applies to hardware PMU reads, which the simulation gets
for free) and is off by default.

Events carry the worker's chiplet and NUMA node at event time, so a
migration is a *pair* of locations (``src_core``/``src_chiplet`` ->
``core``/``chiplet``) and the merged exporter in :mod:`repro.obs.export`
can draw it as a cross-lane arrow between chiplet lanes in Perfetto.
"""

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, TextIO

from enum import Enum

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import Runtime
    from repro.runtime.task import Task
    from repro.runtime.worker import Worker


class EventKind(Enum):
    DISPATCH = "dispatch"
    PAUSE = "pause"
    FINISH = "finish"
    MIGRATE = "migrate"


@dataclass(frozen=True)
class TraceEvent:
    time_ns: float
    kind: EventKind
    worker_id: int
    core: int
    task_id: Optional[int] = None
    task_name: str = ""
    detail: str = ""
    # Location fields (PR 5): -1 means "not recorded" so events built by
    # older callers/tests stay constructible unchanged.
    chiplet: int = -1
    numa: int = -1
    src_core: int = -1
    src_chiplet: int = -1


@dataclass
class TaskSummary:
    """Aggregated view of one task's lifetime."""

    task_id: int
    name: str
    spans: List[tuple] = field(default_factory=list)  # (start, end, worker)

    @property
    def run_ns(self) -> float:
        return sum(e - s for s, e, _ in self.spans)

    @property
    def first_start(self) -> float:
        return self.spans[0][0] if self.spans else 0.0

    @property
    def last_end(self) -> float:
        return self.spans[-1][1] if self.spans else 0.0

    @property
    def workers_used(self) -> List[int]:
        return sorted({w for _, _, w in self.spans})


class Tracer:
    """Attach to a runtime before ``run()`` to record its timeline.

    Works by wrapping the runtime's dispatch/pause/finish callbacks, so it
    composes with any strategy and never perturbs virtual time.
    """

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.events: List[TraceEvent] = []
        self._open_span: Dict[int, tuple] = {}  # task_id -> (start, worker)
        self._summaries: Dict[int, TaskSummary] = {}
        self._chiplet_of = runtime.machine.topo.chiplet_of_core_table
        self._numa_of = runtime.machine.topo.numa_of_core_table
        self._installed = False
        self.install()

    # -- Hook installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        rt = self.runtime
        orig_dispatch = rt.on_dispatch
        orig_paused = rt.on_task_paused
        orig_done = rt.task_done
        orig_migrate = rt.request_migration

        def on_dispatch(worker: "Worker", task: "Task"):
            self._record(EventKind.DISPATCH, worker, task)
            self._open_span[task.task_id] = (worker.clock, worker.worker_id)
            orig_dispatch(worker, task)

        def on_task_paused(worker: "Worker"):
            task = worker.current
            self._close_span(task, worker.clock)
            self._record(EventKind.PAUSE, worker, task)
            orig_paused(worker)

        def task_done(task: "Task", worker: "Worker"):
            self._close_span(task, worker.clock)
            self._record(EventKind.FINISH, worker, task)
            orig_done(task, worker)

        def request_migration(worker: "Worker", target_core: int) -> bool:
            before = worker.core
            granted = orig_migrate(worker, target_core)
            if granted and worker.core != before:
                self.events.append(TraceEvent(
                    worker.clock, EventKind.MIGRATE, worker.worker_id, worker.core,
                    detail=f"core {before} -> {worker.core}",
                    chiplet=self._chiplet_of[worker.core],
                    numa=self._numa_of[worker.core],
                    src_core=before,
                    src_chiplet=self._chiplet_of[before],
                ))
            return granted

        rt.on_dispatch = on_dispatch
        rt.on_task_paused = on_task_paused
        rt.task_done = task_done
        rt.request_migration = request_migration
        self._installed = True

    # -- Recording ----------------------------------------------------------------

    def _record(self, kind: EventKind, worker: "Worker", task: Optional["Task"]) -> None:
        self.events.append(TraceEvent(
            worker.clock, kind, worker.worker_id, worker.core,
            task_id=task.task_id if task else None,
            task_name=task.name if task else "",
            chiplet=self._chiplet_of[worker.core],
            numa=self._numa_of[worker.core],
        ))

    def _close_span(self, task: Optional["Task"], end: float) -> None:
        if task is None:
            return
        span = self._open_span.pop(task.task_id, None)
        if span is None:
            return
        start, worker_id = span
        summary = self._summaries.setdefault(
            task.task_id, TaskSummary(task.task_id, task.name))
        summary.spans.append((start, end, worker_id))

    # -- Analysis -------------------------------------------------------------------

    def task_summaries(self) -> List[TaskSummary]:
        return sorted(self._summaries.values(), key=lambda s: s.task_id)

    def migrations(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind is EventKind.MIGRATE]

    def worker_occupancy(self, wall_ns: float) -> Dict[int, float]:
        """Fraction of the run each worker spent executing task spans."""
        busy: Dict[int, float] = {}
        for s in self._summaries.values():
            for start, end, wid in s.spans:
                busy[wid] = busy.get(wid, 0.0) + (end - start)
        if wall_ns <= 0:
            return {w: 0.0 for w in busy}
        return {w: min(1.0, b / wall_ns) for w, b in busy.items()}

    def longest_tasks(self, n: int = 10) -> List[TaskSummary]:
        return sorted(self._summaries.values(), key=lambda s: -s.run_ns)[:n]

    # -- Export ---------------------------------------------------------------------

    def to_chrome_trace(self, fh: TextIO) -> int:
        """Write Chrome trace-event JSON (load in chrome://tracing / Perfetto).

        Returns the number of events written.  Durations use the task
        spans; instant events mark migrations.  The *merged* exporter
        (task spans + policy decisions + counter series) lives in
        :func:`repro.obs.export.write_chrome_trace`.
        """
        out = []
        for s in self._summaries.values():
            for start, end, wid in s.spans:
                out.append({
                    "name": s.name, "ph": "X", "ts": start / 1000.0,
                    "dur": max(end - start, 1.0) / 1000.0,
                    "pid": 0, "tid": wid, "args": {"task_id": s.task_id},
                })
        for e in self.migrations():
            out.append({
                "name": "migrate", "ph": "i", "ts": e.time_ns / 1000.0,
                "pid": 0, "tid": e.worker_id, "s": "t",
                "args": {"detail": e.detail},
            })
        json.dump({"traceEvents": out}, fh)
        return len(out)
