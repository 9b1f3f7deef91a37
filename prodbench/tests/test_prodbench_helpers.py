"""Percentile rule, result hashing, and the serve-stage trace reduction."""

import json
from pathlib import Path

import pytest

from prodbench.common import (
    BenchError,
    highest_supported,
    percentile,
    results_hash,
    supports,
)
from prodbench.layers import serve_stage_report

ROOT = Path(__file__).resolve().parents[2]


def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 201))
    p95 = percentile(values, 95.0)
    assert sum(v > p95 for v in values) == 10
    with pytest.raises(BenchError):
        percentile(values[:199], 95.0)
    p99 = percentile(list(range(1000)), 99.0)
    assert sum(v > p99 for v in range(1000)) == 10
    with pytest.raises(BenchError):
        percentile(list(range(999)), 99.0)


def test_median_is_always_allowed():
    assert percentile([3.0], 50.0) == 3.0
    assert percentile([1.0, 2.0, 9.0], 50.0) == 2.0


@pytest.mark.parametrize("n, pct", [(10, 0.0), (20, 50.0), (40, 75.0), (100, 90.0),
                                    (200, 95.0), (999, 95.0), (1000, 99.0),
                                    (10000, 99.9)])
def test_highest_supported(n, pct):
    got = highest_supported(n, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0))
    assert got == pct
    assert supports(n, got)


def test_results_hash_is_order_independent_and_bit_sensitive():
    a = {"x": {"metric": 1.5}, "y": {"metric": 2.0}}
    b = {"y": {"metric": 2.0}, "x": {"metric": 1.5}}
    assert results_hash(a) == results_hash(b)
    assert results_hash(a) != results_hash({"x": {"metric": 1.5000000000000002},
                                            "y": {"metric": 2.0}})


def _ev(sid, parent, name, ts, dur, trace="req-0", **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "args": {"trace_id": trace, "span_id": sid, "parent_id": parent, **args}}


def test_serve_stage_report_self_time_and_waits():
    events = [
        _ev(0, -1, "request", 0.0, 1000.0),
        _ev(1, 0, "parse", 10.0, 20.0),
        _ev(2, 0, "normalize", 40.0, 10.0),
        _ev(3, 0, "answer_cells", 60.0, 800.0, cells=1),
        _ev(4, 3, "hot_probe", 65.0, 5.0, cell="c"),
        _ev(5, 3, "store_probe", 80.0, 20.0, cell="c"),
        _ev(6, 3, "batch_window", 100.0, 100.0, cell="c"),
        _ev(7, 3, "pool_execute", 250.0, 500.0, cell="c", chunk_cells=1,
            cell_wall_s=0.0004),
        _ev(8, 0, "respond", 900.0, 50.0),
    ]
    rep = serve_stage_report({"req-0": events})
    us = 1e-3  # microseconds in ms
    assert rep["serve.parse_ms"] == pytest.approx(20 * us)
    assert rep["serve.parse_wait_ms"] == pytest.approx(10 * us)
    assert rep["serve.normalize_wait_ms"] == pytest.approx(10 * us)
    assert rep["serve.hot_probe_wait_ms"] == pytest.approx(5 * us)
    assert rep["serve.store_probe_wait_ms"] == pytest.approx(10 * us)
    assert rep["serve.batch_window_ms"] == pytest.approx(100 * us)
    assert rep["serve.pool_ipc_ms"] == pytest.approx(100 * us)
    assert rep["serve.pool_ipc_wait_ms"] == pytest.approx(50 * us)
    assert rep["serve.respond_wait_ms"] == pytest.approx(40 * us)
    assert rep["serve.coalesce_wait_ms"] == 0.0


def test_pool_ipc_is_shared_across_a_chunk():
    def trace(tid, cell, wall):
        return [_ev(0, -1, "request", 0.0, 2000.0, trace=tid),
                _ev(1, 0, "pool_execute", 100.0, 1000.0, trace=tid, cell=cell,
                    chunk_cells=2, cell_wall_s=wall)]
    rep = serve_stage_report({"a": trace("a", "x", 0.0003),
                              "b": trace("b", "y", 0.0005)})
    assert rep["serve.pool_ipc_ms"] == pytest.approx((1.0 - 0.8) / 2)


def test_benchmark_json_matches_the_manifest():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((ROOT / "prodbench" / "MANIFEST.json").read_text())
    assert bench["end_to_end"] == manifest["end_to_end"]
    assert bench["per_layer"] == manifest["per_layer"]
    assert {w["name"] for w in bench["workloads"]} == {"paper_quick", "advise_cold",
                                                       "advise_hot"}
    seeds = manifest["seeds"]
    for workload in ("advise_cold", "advise_hot"):
        for seed in (seeds["default"], seeds["held_out"]):
            assert str(seed) in manifest["hashes"][workload]
    assert "any" in manifest["hashes"]["paper_quick"]
