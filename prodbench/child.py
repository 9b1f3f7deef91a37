"""Fresh-process tasks of the product benchmark.

Usage: ``python -m prodbench.child <task> <args.json> <out.json>`` with
the checkout's ``src`` on ``PYTHONPATH`` and ``REPRO_SWEEP_CACHE`` set
to a temporary store.  Each task starts in a new interpreter, so the
dataset, import and ``code_version`` caches start empty, and writes one
JSON report.

Tasks:

- ``setup_probe``: the suite's set-up alone (imports), then exit;
- ``suite``: the quick evaluation suite through ``run_many``, optionally
  under :class:`~prodbench.layers.LayerTracer`;
- ``prep_hot``: compute the hot query set into the store;
- ``recompute``: re-run sampled served cells with ``execute_cell``;
- ``traced_cells``: replay the advise workloads' cell path (store probe,
  then simulate and store on a miss) under the layer tracer.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

from prodbench.common import BenchError, peak_rss_kib, results_hash


def _check_source() -> None:
    """The program must come from this checkout's ``src``."""
    import repro

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"repro imported from {repro.__file__}, not {src}")


def setup_probe(args: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench import sweep  # noqa: F401
    from repro.cli import EXPERIMENT_ORDER  # noqa: F401

    return {"t_ready": time.monotonic()}


def suite(args: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench import sweep
    from repro.cli import EXPERIMENT_ORDER

    names = args.get("experiments") or list(EXPERIMENT_ORDER)
    tracer = None
    if args.get("traced"):
        from prodbench.layers import LayerTracer

        tracer = LayerTracer().install()
    t_ready = time.monotonic()
    t0 = time.perf_counter()
    out, stats = sweep.run_many(names, quick=True, jobs=0)
    wall = time.perf_counter() - t0
    report: Dict[str, Any] = {
        "t_ready": t_ready,
        "wall_s": wall,
        "experiments": len(out),
        "stats": stats.as_dict(),
        "hash": results_hash([[name, rows, text] for name, rows, text in out]),
        # pooled runs (hosts with more than two CPUs) add their largest worker
        "peak_rss_kib": peak_rss_kib()
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.report()
        layers["sweep.cells_executed"] = stats.executed
        layers["sweep.overhead_ms"] = stats.wall_s * 1e3 - tracer.total_ms("execute_cell")
        report["layers"] = layers
    return report


def _cells_of(doc: Dict[str, Any]):
    from repro.serve.query import normalize_query

    return normalize_query(doc).cells()


def prep_hot(args: Dict[str, Any]) -> Dict[str, Any]:
    """Compute every cell of the hot set into the store, as a sweep does."""
    from repro.bench import sweep

    per_query = [_cells_of(doc) for doc in args["queries"]]
    cells = [cell for group in per_query for cell in group]
    results, stats = sweep.run_cells(cells, jobs=1)
    if stats.executed != len({c.cell_id for c in cells}):
        raise BenchError(f"hot-set preparation executed {stats.executed} cells "
                         f"of {len(cells)} (store not empty?)")
    sweep.get_store().close()
    return {"expected": [{c.strategy: results[c.cell_id] for c in group}
                         for group in per_query],
            "cells": [{c.strategy: c.cell_id for c in group} for group in per_query]}


def recompute(args: Dict[str, Any]) -> Dict[str, Any]:
    """Re-run each sampled ``(query, policy, cell_id)`` in-process."""
    from repro.bench.cells import execute_cell

    out = []
    for doc, policy, cell_id in args["items"]:
        cell = next(c for c in _cells_of(doc) if c.strategy == policy)
        if cell.cell_id != cell_id:
            raise BenchError(f"served cell {cell_id} but the query "
                             f"normalizes to {cell.cell_id}")
        out.append(execute_cell(cell))
    return {"results": out}


def traced_cells(args: Dict[str, Any]) -> Dict[str, Any]:
    """The advise cell path in one process, under the layer tracer.

    For each cell in arrival order: the first arrival probes the store
    (as the server's store tier does); a miss simulates the cell and
    stores the result (the compute tier and its persist); later
    arrivals are hot-tier hits and touch neither.
    """
    from prodbench.layers import LayerTracer
    from repro.bench import cells as cells_mod
    from repro.bench import sweep

    tracer = LayerTracer().install()
    seen: Dict[str, Any] = {}
    executed = 0
    t0 = time.perf_counter()
    for doc in args["docs"]:
        for cell in _cells_of(doc):
            if cell.cell_id in seen:
                continue
            hit, result = sweep.load_cached(cell)
            if not hit:
                t_cell = time.perf_counter()
                result = cells_mod.execute_cell(cell)
                sweep.store_cached(cell, result,
                                   wall_s=time.perf_counter() - t_cell)
                executed += 1
            seen[cell.cell_id] = result
    wall = time.perf_counter() - t0
    tracer.uninstall()
    layers = tracer.report()
    layers["sweep.cells_executed"] = executed
    layers["sweep.overhead_ms"] = wall * 1e3 - tracer.total_ms("execute_cell")
    return {"layers": layers, "hash": results_hash(seen), "executed": executed}


TASKS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "setup_probe": setup_probe,
    "suite": suite,
    "prep_hot": prep_hot,
    "recompute": recompute,
    "traced_cells": traced_cells,
}


def main(argv) -> int:
    task, args_path, out_path = argv
    args = json.loads(Path(args_path).read_text())
    _check_source()
    report = TASKS[task](args)
    tmp = Path(out_path + ".part")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
