"""Per-layer attribution measured from outside the program.

:class:`LayerTracer` installs timing wrappers around public functions of
each layer and attaches a :class:`~repro.obs.selfprof.KernelProfiler`
to every machine that gets built.  Each wrapped call is a span; a span's
self time is its duration minus the time its wrapped children cover.
Nothing the wrappers record feeds back into the simulation, so results
are bit-identical with and without them (the traced run checks this by
hash).

:func:`serve_stage_report` turns the ``/debug/trace`` documents of a
traced server run into per-stage self time and wait.
"""

import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: the KernelProfiler's path buckets
PROFILER_PATHS = ("scalar", "vec_miss", "vec_hit", "vec_peer", "vec_gather",
                  "vec_dup_replay", "hot_replay", "access", "program",
                  "orchestration")

#: the access-servicing paths (program and orchestration service none;
#: they are reported as ``runtime.*``)
KERNEL_PATHS = PROFILER_PATHS[:-2]

#: paths whose accesses count as serviced off the scalar fallback
FAST_PATHS = ("vec_miss", "vec_hit", "vec_peer", "vec_gather", "vec_dup_replay",
              "hot_replay")

#: serve stages reported as mean self time and mean wait per span
SERVE_STAGES = ("parse", "normalize", "hot_probe", "respond", "store_probe",
                "coalesce_wait", "batch_window", "pool_ipc")


class LayerTracer:
    """Timing wrappers around each layer's public entry points."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.steps = 0
        self.cohorts = 0
        self.accesses = 0
        self.path_s: Dict[str, float] = {p: 0.0 for p in PROFILER_PATHS}
        self.path_accesses: Dict[str, int] = {p: 0 for p in PROFILER_PATHS}
        self._machines: List[Any] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span = spans[name]
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[0]
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerTracer":
        from repro.bench import cells, datasets, store, sweep
        from repro.hw.machine import Machine
        from repro.obs.selfprof import KernelProfiler
        from repro.runtime.runtime import Runtime
        from repro.sim.engine import EventLoop

        tracer = self
        init = self._wrap("machine_build", Machine.__init__)

        def machine_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            machine.profiler = KernelProfiler()
            tracer._machines.append(machine)

        loop_run = self._wrap("event_loop", EventLoop.run)

        def event_loop_run(loop):
            steps, cohorts = loop.steps, loop.cohorts
            try:
                return loop_run(loop)
            finally:
                tracer.steps += loop.steps - steps
                tracer.cohorts += loop.cohorts - cohorts

        execute = self._wrap("execute_cell", cells.execute_cell)

        def execute_cell(cell):
            try:
                return execute(cell)
            finally:
                tracer.harvest()

        self._patch(Machine, "__init__", machine_init)
        for attr in ("access", "access_batch", "access_run"):
            self._patch(Machine, attr, self._wrap(attr, getattr(Machine, attr)))
        self._patch(EventLoop, "run", event_loop_run)
        self._patch(Runtime, "run", self._wrap("runtime_run", Runtime.run))
        self._patch(datasets, "get", self._wrap("dataset_get", datasets.get))
        self._patch(store.ResultStore, "get", self._wrap("store_get", store.ResultStore.get))
        self._patch(store.ResultStore, "put", self._wrap("store_put", store.ResultStore.put))
        # sweep binds execute_cell by name at import; wrap both references
        self._patch(cells, "execute_cell", execute_cell)
        self._patch(sweep, "execute_cell", execute_cell)
        return self

    def uninstall(self) -> None:
        self.harvest()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def harvest(self) -> None:
        """Fold the profilers and access counts of machines built so far."""
        for machine in self._machines:
            prof = machine.profiler
            self.accesses += machine.total_accesses
            for path in PROFILER_PATHS:
                self.path_s[path] += prof.wall_s.get(path, 0.0)
                self.path_accesses[path] += prof.accesses.get(path, 0)
        self._machines.clear()

    # -- report -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.spans[name][0]) if name in self.spans else 0

    def total_ms(self, name: str) -> float:
        return self.spans[name][1] * 1e3 if name in self.spans else 0.0

    def self_ms(self, name: str) -> float:
        return self.spans[name][2] * 1e3 if name in self.spans else 0.0

    def report(self) -> Dict[str, float]:
        from repro.bench import datasets

        out: Dict[str, float] = {
            "store.get_calls": self.calls("store_get"),
            "store.get_ms": self.total_ms("store_get"),
            "store.put_calls": self.calls("store_put"),
            "store.put_ms": self.total_ms("store_put"),
            "cell.machine_build_ms": self.total_ms("machine_build"),
            "cell.dataset_ms": self.total_ms("dataset_get"),
            "cell.dataset_builds": datasets.stats()["builds"],
            "runtime.run_ms": self.total_ms("runtime_run"),
            "runtime.program_ms": self.path_s["program"] * 1e3,
            "runtime.orchestration_ms": self.path_s["orchestration"] * 1e3,
            "sim.event_loop_ms": self.self_ms("event_loop"),
            "sim.steps": self.steps,
            "sim.cohorts": self.cohorts,
            "hw.accesses": self.accesses,
        }
        kernel_s = 0.0
        for attr in ("access_batch", "access_run", "access"):
            out[f"hw.{attr}_calls"] = self.calls(attr)
            out[f"hw.{attr}_ms"] = self.total_ms(attr)
            kernel_s += self.total_ms(attr) / 1e3
        for path in KERNEL_PATHS:
            out[f"hw.path.{path}_ms"] = self.path_s[path] * 1e3
            out[f"hw.path.{path}_accesses"] = self.path_accesses[path]
        serviced = sum(self.path_accesses.values())
        fast = sum(self.path_accesses[p] for p in FAST_PATHS)
        out["hw.vector_coverage"] = fast / serviced if serviced else 0.0
        out["hw.host_ns_per_access"] = (kernel_s * 1e9 / self.accesses
                                        if self.accesses else 0.0)
        return out


# -- serve stages from /debug/trace -------------------------------------------------


def serve_stage_report(traces: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
    """Mean self time and mean wait per serve stage, in ms.

    ``traces`` maps trace id to its Chrome-trace ``X`` events.  Self time
    is a span's duration minus the part its child spans cover.  A span's
    wait is the gap between the end of the step before it and its start:
    the previous span of the same cell (or, for request-level spans, the
    previous sibling), else the parent's start.  ``pool_ipc`` is the
    ``pool_execute`` span minus the summed ``cell_wall_s`` of its chunk,
    shared equally among the chunk's cells.
    """
    self_ms: Dict[str, List[float]] = defaultdict(list)
    wait_ms: Dict[str, List[float]] = defaultdict(list)
    chunks: Dict[Tuple[float, int], List[float]] = defaultdict(list)
    for events in traces.values():
        by_id = {ev["args"]["span_id"]: ev for ev in events}
        children: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for ev in events:
            children[ev["args"]["parent_id"]].append(ev)
        for ev in events:
            args = ev["args"]
            name = ev["name"]
            if name == "request":
                continue
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            covered = _covered(start, end, children.get(args["span_id"], []))
            parent = by_id.get(args["parent_id"])
            prev_end = parent["ts"] if parent is not None else start
            for sib in children.get(args["parent_id"], []):
                if sib is ev or sib["args"].get("cell") != args.get("cell"):
                    continue
                sib_end = sib["ts"] + sib["dur"]
                if prev_end < sib_end <= start:
                    prev_end = sib_end
            wait = max(0.0, start - prev_end) / 1e3
            if name == "pool_execute":
                chunks[(ev["dur"], args.get("chunk_cells", 1))].append(
                    args.get("cell_wall_s", 0.0))
                wait_ms["pool_ipc"].append(wait)
                continue
            self_ms[name].append((ev["dur"] - covered) / 1e3)
            wait_ms[name].append(wait)
    for (dur_us, n_cells), walls in chunks.items():
        if len(walls) == n_cells:
            ipc = (dur_us / 1e3 - sum(walls) * 1e3) / n_cells
            self_ms["pool_ipc"].extend([ipc] * n_cells)
        else:  # a chunk mate's trace is missing: charge each span alone
            self_ms["pool_ipc"].extend(dur_us / 1e3 - w * 1e3 for w in walls)
    out: Dict[str, float] = {}
    for stage in SERVE_STAGES:
        s, w = self_ms.get(stage, []), wait_ms.get(stage, [])
        out[f"serve.{stage}_ms"] = sum(s) / len(s) if s else 0.0
        out[f"serve.{stage}_wait_ms"] = sum(w) / len(w) if w else 0.0
    return out


def _covered(start: float, end: float, kids: List[Dict[str, Any]]) -> float:
    """Length of ``[start, end]`` covered by the union of child spans."""
    spans = sorted((max(start, k["ts"]), min(end, k["ts"] + k["dur"])) for k in kids)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in spans:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
