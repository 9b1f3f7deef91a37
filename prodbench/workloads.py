"""The three workloads: ``paper_quick``, ``advise_cold`` and ``advise_hot``.

Each ``run_*`` function returns an :class:`Outcome`: the end-to-end
figures of the untraced run, the correctness verdict with its reasons,
and, in trace mode, the per-layer figures of a separate traced pass plus
the tracing overhead (traced figures minus untraced ones).
"""

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from prodbench import streams
from prodbench.client import Conn, Server, closed_loop, placement
from prodbench.common import (
    BenchError,
    RunDir,
    highest_supported,
    median,
    peak_rss_kib,
    percentile,
    results_hash,
    run_child,
    supports,
)
from prodbench.layers import serve_stage_report

#: cells in the quick evaluation suite
PAPER_QUICK_CELLS = 173

#: tail percentile reported per advise workload (each run's sample must
#: leave at least ten samples beyond it)
TAIL_PCT = {"advise_cold": 95.0, "advise_hot": 99.0}

#: fewest requests a run sends: enough for the tail percentile
MIN_REQUESTS = {"advise_cold": 200, "advise_hot": 1000}

#: requests per pass of a traced advise run (untraced and traced alike);
#: the cold prefix is shorter than a timed run so three passes fit the
#: run time limit, and its tail drops to the highest supported percentile
TRACED_REQUESTS = {"advise_cold": 120, "advise_hot": 2000}

#: set-up samples per run (the reported setup_s is their median)
SETUP_REPEATS = {"paper_quick": 5, "advise_cold": 3, "advise_hot": 3}

#: served cells re-run in-process per advise run
RECOMPUTE_SAMPLE = 4

#: hot-replay bodies generated up front (cycled if a run sends more)
HOT_REPLAY_ROUNDS = 256

#: smoke-size settings used by the benchmark's own tests
SMOKE = {"experiments": ["fig01_summary"], "advise_cold": 6, "advise_hot": 60,
         "hot_set": 3}


@dataclass
class Outcome:
    e2e: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    hash: str = ""
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


def _tail(outcome: Outcome, workload: str, latencies_ms: List[float],
          strict: bool) -> None:
    """Median and tail latency, with the sample count.  Unless ``strict``,
    a sample too small for the workload's tail percentile reports the
    highest percentile it supports instead."""
    pct = TAIL_PCT[workload]
    if not strict and not supports(len(latencies_ms), pct):
        pct = highest_supported(len(latencies_ms)) or 50.0
    outcome.e2e["latency_p50_ms"] = percentile(latencies_ms, 50.0)
    outcome.e2e["latency_tail_ms"] = percentile(latencies_ms, pct)
    outcome.samples["latency_p50_ms"] = outcome.samples["latency_tail_ms"] = \
        len(latencies_ms)
    outcome.notes["tail_percentile"] = pct


def _check_hash(outcome: Outcome, expected: Optional[str], label: str) -> None:
    if expected is not None and outcome.hash != expected:
        outcome.problems.append(
            f"{label}: simulated-result hash {outcome.hash} differs from the "
            f"recorded {expected}")


# -- paper_quick ------------------------------------------------------------------


def _suite_figures(rep: Dict[str, Any], outcome: Outcome) -> None:
    """The suite is one operation a researcher waits on: its latency is the
    suite's wall time (one sample, so no tail beyond it), its request
    rate experiments per second, its cell rate cells per second."""
    wall = rep["wall_s"]
    cells = rep["stats"]["executed"]
    outcome.e2e["cells_per_s"] = cells / wall
    outcome.e2e["req_per_s"] = rep["experiments"] / wall
    outcome.e2e["latency_p50_ms"] = outcome.e2e["latency_tail_ms"] = wall * 1e3
    outcome.samples.update(cells_per_s=cells, req_per_s=rep["experiments"],
                           latency_p50_ms=1, latency_tail_ms=1)


def run_paper_quick(seed: int, seconds: float, trace: bool, workdir: RunDir,
                    expected_hash: Optional[str], smoke: bool = False) -> Outcome:
    """The quick evaluation suite on an empty store (input ignores the seed)."""
    out = Outcome()
    args = {"experiments": SMOKE["experiments"] if smoke else None}
    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_REPEATS["paper_quick"] - 1):
            rep, t_launch = run_child("setup_probe", {}, workdir)
            setups.append(rep["t_ready"] - t_launch)
    store = workdir.new("store")
    rep, t_launch = run_child("suite", args, workdir, store=store)
    setups.append(rep["t_ready"] - t_launch)
    stats = rep["stats"]
    out.attempted = stats["total"]
    out.failed = stats["total"] - stats["executed"]
    if stats["cache_hits"]:
        out.problems.append(f"{stats['cache_hits']} cells came from a cache")
    if not smoke and stats["total"] != PAPER_QUICK_CELLS:
        out.problems.append(f"suite has {stats['total']} cells, "
                            f"expected {PAPER_QUICK_CELLS}")
    _suite_figures(rep, out)
    out.e2e["setup_s"] = median(setups)
    out.samples["setup_s"] = len(setups)
    out.e2e["peak_rss_mib"] = (peak_rss_kib() + rep["peak_rss_kib"]) / 1024.0
    out.samples["peak_rss_mib"] = 1
    out.hash = rep["hash"]
    _check_hash(out, None if smoke else expected_hash, "paper_quick")
    out.notes["sweep_jobs"] = stats["jobs"]
    if trace:
        traced, _ = run_child("suite", dict(args, traced=True), workdir,
                              store=workdir.new("store"))
        if traced["hash"] != out.hash:
            out.problems.append(f"traced run hash {traced['hash']} differs from "
                                f"untraced {out.hash}")
        traced_out = Outcome()
        _suite_figures(traced, traced_out)
        out.layers = dict(traced["layers"])
        _overhead(out, traced_out, traced["hash"] == out.hash)
    return out


def _overhead(untraced: Outcome, traced: Outcome, hash_match: bool) -> None:
    for name in ("latency_p50_ms", "latency_tail_ms", "req_per_s", "cells_per_s"):
        untraced.layers[f"trace.overhead_{name}"] = traced.e2e[name] - untraced.e2e[name]
    untraced.layers["trace.hash_match"] = 1 if hash_match else 0


# -- advise workloads ------------------------------------------------------------------


def _start_servers(n: int, workdir: RunDir,
                   template: Optional[Path]) -> Tuple[Server, List[float]]:
    """Launch ``n`` servers one after another, each on a fresh store
    (empty, or a copy of ``template``); keep the last, stop the rest."""
    setups = []
    server = None
    for k in range(n):
        store = workdir.new("store")
        if template is not None:
            shutil.copytree(template, store)
        server = Server(store, workdir.new("server.log"))
        setups.append(server.setup_s)
        if k < n - 1:
            server.stop()
    return server, setups


def _policies(doc: Dict[str, Any]) -> List[str]:
    raw = doc.get("policies", doc.get("policy", list(streams.POLICIES)))
    raw = [raw] if isinstance(raw, str) else raw
    return [p for p in streams.POLICIES if p in raw]


def _serve_counts(server: Server) -> Dict[str, float]:
    """Tier counts from ``/stats`` and the mean batch size from ``/metrics``."""
    status, stats = server.get_json("/stats")
    if status != 200:
        raise BenchError(f"/stats answered {status}")
    cells = stats["cells"]
    counts = {
        "serve.cells_hot": cells["hot_hits"],
        "serve.cells_store": cells["store_hits"],
        "serve.cells_coalesced": cells["coalesced"],
        "serve.cells_computed": cells["computed"],
        "serve.cache_hit_ratio": cells["cache_hit_ratio"],
    }
    status, text = server.get_json("/metrics")
    total = count = 0.0
    if status == 200:
        for line in text.splitlines():
            if line.startswith("repro_serve_batch_cells_sum"):
                total = float(line.split()[-1])
            elif line.startswith("repro_serve_batch_cells_count"):
                count = float(line.split()[-1])
    counts["serve.batch_cells_mean"] = total / count if count else 0.0
    return counts


class _Drainer:
    """Reads ``/debug/trace`` often enough that its 64-trace ring never
    wraps between reads; keeps each trace's events once, by trace id."""

    def __init__(self) -> None:
        self.traces: Dict[str, List[Dict[str, Any]]] = {}

    def __call__(self, conn: Conn) -> None:
        status, payload = conn.request("GET", "/debug/trace")
        if status != 200:
            raise BenchError(f"/debug/trace answered {status}")
        fresh: Dict[str, List[Dict[str, Any]]] = {}
        for ev in json.loads(payload)["traceEvents"]:
            if ev.get("ph") == "X" and ev["args"]["trace_id"] not in self.traces:
                fresh.setdefault(ev["args"]["trace_id"], []).append(ev)
        self.traces.update(fresh)

    def final(self, port: int) -> None:
        conn = Conn(port)
        try:
            self(conn)
        finally:
            conn.close()


class _Stream:
    """One advise workload's request stream, checking answers as they
    arrive and keeping each served cell's first answer."""

    def __init__(self) -> None:
        #: request bodies in stream order (a run may read past the end:
        #: see :meth:`body`)
        self.docs: List[Dict[str, Any]] = []
        self.served: Dict[str, Any] = {}
        self.served_by: Dict[str, Tuple[int, str]] = {}
        self.cells = 0
        self.tiers: Dict[str, int] = {}
        self.problems: List[str] = []

    def body(self, i: int) -> bytes:
        return json.dumps(self.docs[i]).encode()

    def expect(self, i: int, doc: Dict[str, Any]) -> bool:
        """Workload-specific check of one parsed answer."""
        raise NotImplementedError

    def check(self, i: int, status: int, payload: bytes) -> bool:
        if status != 200:
            return False
        doc = json.loads(payload)
        if list(doc["results"]) != _policies(self.docs[i]) or not self.expect(i, doc):
            return False
        for policy, tier in doc["tiers"].items():
            self.tiers[tier] = self.tiers.get(tier, 0) + 1
            cell_id = doc["cells"][policy]
            if cell_id not in self.served:
                self.served[cell_id] = doc["results"][policy]
                self.served_by[cell_id] = (i, policy)
        self.cells += len(doc["tiers"])
        return True

    def served_upto(self, n: int) -> Dict[str, Any]:
        """``{cell_id: result}`` of the cells first served by request < n."""
        return {c: r for c, r in self.served.items() if self.served_by[c][0] < n}

    def recompute_items(self) -> List[Tuple[Dict[str, Any], str, str, Any]]:
        return [(self.docs[i], policy, cell_id, self.served[cell_id])
                for cell_id, (i, policy) in sorted(self.served_by.items())]


class _ColdStream(_Stream):
    """The seeded cold stream; every answer must be freshly computed."""

    def __init__(self, seed: int):
        super().__init__()
        self._gen = streams.cold_stream(seed)

    def pregenerate(self, n: int) -> None:
        while len(self.docs) < n:
            self.docs.append(next(self._gen))

    def body(self, i: int) -> bytes:
        self.pregenerate(i + 1)
        return super().body(i)

    def expect(self, i: int, doc: Dict[str, Any]) -> bool:
        tiers = set(doc["tiers"].values())
        if tiers != {"computed"}:
            self.problems.append(f"request {i} served cached cells ({sorted(tiers)})")
        return True

    def check_counts(self, counts: Dict[str, float]) -> List[str]:
        cached = counts["serve.cells_hot"] + counts["serve.cells_store"] \
            + counts["serve.cells_coalesced"]
        problems = [f"advise_cold served {cached:g} cached cells"] if cached else []
        if counts["serve.cells_computed"] != self.cells:
            problems.append(f"server computed {counts['serve.cells_computed']:g} "
                            f"cells, answers carried {self.cells}")
        return problems


class _HotReplay(_Stream):
    """The seeded replay of the prepared set; answers must equal the
    prepared results and come from the store or hot tier."""

    def __init__(self, seed: int, queries: List[Dict[str, Any]],
                 prepared: Dict[str, Any]):
        super().__init__()
        self._replay = streams.hot_replay(seed, queries, HOT_REPLAY_ROUNDS)
        self.docs = [doc for _, doc in self._replay]
        self._bodies = [json.dumps(doc).encode() for doc in self.docs]
        self.expected = prepared["expected"]
        self.expected_cells = prepared["cells"]

    def body(self, i: int) -> bytes:
        return self._bodies[i % len(self._bodies)]

    def check(self, i: int, status: int, payload: bytes) -> bool:
        return super().check(i % len(self.docs), status, payload)

    def expect(self, i: int, doc: Dict[str, Any]) -> bool:
        if "computed" in doc["tiers"].values():
            self.problems.append(f"request {i} simulated a cell")
        qi = self._replay[i][0]
        return doc["results"] == self.expected[qi] and doc["cells"] == self.expected_cells[qi]

    def check_counts(self, counts: Dict[str, float]) -> List[str]:
        computed = counts["serve.cells_computed"]
        return [f"advise_hot simulated {computed:g} cells"] if computed else []


def _advise_pass(workload: str, stream: _Stream, workdir: RunDir,
                 template: Optional[Path], *, seconds: float, min_requests: int,
                 max_requests: Optional[int], setups: int, traced: bool,
                 strict_tail: bool) -> Outcome:
    """Servers up, one timed closed loop, server counts, servers down."""
    out = Outcome()
    server, setup_s = _start_servers(setups, workdir, template)
    try:
        drainer = _Drainer() if traced else None
        with placement(server):
            res = closed_loop(
                server.port, stream.body, check=stream.check, seconds=seconds,
                min_requests=min_requests, max_requests=max_requests,
                headers=b"X-Repro-Trace: 1\r\n" if traced else b"", drain=drainer)
        if drainer is not None:
            drainer.final(server.port)
            out.layers.update(serve_stage_report(drainer.traces))
            out.notes["traces_collected"] = len(drainer.traces)
        counts = _serve_counts(server)
        out.e2e["peak_rss_mib"] = (peak_rss_kib() + server.peak_rss_kib()) / 1024.0
    finally:
        server.stop()
    out.layers.update(counts)
    out.e2e["setup_s"] = median(setup_s)
    out.e2e["req_per_s"] = len(res.latencies_s) / res.wall_s
    out.e2e["cells_per_s"] = stream.cells / res.wall_s
    out.samples.update(setup_s=len(setup_s), peak_rss_mib=1,
                       req_per_s=len(res.latencies_s), cells_per_s=stream.cells)
    _tail(out, workload, [s * 1e3 for s in res.latencies_s], strict_tail)
    out.attempted, out.failed = res.attempted, res.failed
    out.problems.extend(stream.problems[:5] + stream.check_counts(counts))
    out.notes["tiers"] = dict(stream.tiers)
    out.hash = results_hash(stream.served_upto(min_requests))
    return out


def _run_advise(workload: str, make_stream: Callable[[], _Stream], seed: int,
                seconds: float, trace: bool, workdir: RunDir,
                template: Optional[Path], smoke: bool) -> Outcome:
    """One untraced run, or in trace mode an untraced and a traced pass over
    the same prefix plus the cell path replayed under the layer tracer;
    then a seeded sample of served cells is recomputed in a fresh process."""
    kw = dict(setups=1, seconds=0, strict_tail=not (trace or smoke))
    if trace:
        n = SMOKE[workload] if smoke else TRACED_REQUESTS[workload]
        kw.update(min_requests=n, max_requests=n)
    else:
        n = SMOKE[workload] if smoke else MIN_REQUESTS[workload]
        kw.update(min_requests=n, max_requests=None, seconds=seconds,
                  setups=SETUP_REPEATS[workload])
    stream = make_stream()
    if isinstance(stream, _ColdStream):
        stream.pregenerate(2 * n)
    out = _advise_pass(workload, stream, workdir, template, traced=False, **kw)
    if trace:
        traced = _advise_pass(workload, make_stream(), workdir, template, traced=True,
                              **kw)
        out.problems.extend(traced.problems)
        store = workdir.new("store")
        if template is not None:
            shutil.copytree(template, store)
        cells, _ = run_child("traced_cells", {"docs": stream.docs[:n]}, workdir,
                             store=store)
        out.layers = dict(traced.layers, **cells["layers"])
        match = out.hash == traced.hash == cells["hash"]
        if not match:
            out.problems.append(f"traced hashes {traced.hash} (served) and "
                                f"{cells['hash']} (cell path) differ from {out.hash}")
        _overhead(out, traced, match)
    rng = random.Random(f"recompute:{seed}")
    pool = stream.recompute_items()
    items = rng.sample(pool, min(RECOMPUTE_SAMPLE, len(pool)))
    rep, _ = run_child("recompute", {"items": [[d, p, c] for d, p, c, _ in items]},
                       workdir, store=workdir.new("store"))
    for (_, _, cell_id, served), got in zip(items, rep["results"]):
        if got != served:
            out.problems.append(f"served {cell_id} = {served!r} but "
                                f"execute_cell gives {got!r}")
    out.notes["recomputed_cells"] = len(items)
    return out


def run_advise_cold(seed: int, seconds: float, trace: bool, workdir: RunDir,
                    expected_hash: Optional[str], smoke: bool = False) -> Outcome:
    """Distinct seeded queries against a server on an empty store."""
    out = _run_advise("advise_cold", lambda: _ColdStream(seed), seed, seconds, trace,
                      workdir, None, smoke)
    # a traced run serves a shorter prefix than the recorded hash covers
    _check_hash(out, None if smoke or trace else expected_hash, "advise_cold")
    return out


def run_advise_hot(seed: int, seconds: float, trace: bool, workdir: RunDir,
                   expected_hash: Optional[str], smoke: bool = False) -> Outcome:
    """A prepared query set replayed in equivalent spellings."""
    queries = streams.hot_set(seed, SMOKE["hot_set"] if smoke else streams.HOT_SET_SIZE)
    template = workdir.new("hot-template")
    prepared, _ = run_child("prep_hot", {"queries": [streams.strip(q) for q in queries]},
                            workdir, store=template)
    out = _run_advise("advise_hot", lambda: _HotReplay(seed, queries, prepared), seed,
                      seconds, trace, workdir, template, smoke)
    _check_hash(out, None if smoke else expected_hash, "advise_hot")
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "paper_quick": run_paper_quick,
    "advise_cold": run_advise_cold,
    "advise_hot": run_advise_hot,
}
