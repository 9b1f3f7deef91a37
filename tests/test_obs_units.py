"""Unit tests for the repro.obs building blocks."""

import numpy as np
import pytest

from repro.obs.bus import EventBus
from repro.obs.decisions import DecisionLog, PolicyDecision
from repro.obs.selfprof import PATHS, KernelProfiler
from repro.obs.series import RingSeries
from repro.obs.telemetry import Telemetry
from repro.runtime.ops import Access, Compute, YieldPoint
from repro.runtime.policy import CharmStrategy
from repro.runtime.runtime import Runtime


# -- EventBus ------------------------------------------------------------------

def test_bus_null_sink_counts_nothing():
    bus = EventBus()
    bus.emit("hw.batch", {"t": 1.0})
    assert bus.counts == {}  # unsubscribed topics cost no bookkeeping


def test_bus_delivers_and_counts_subscribed_topics():
    bus = EventBus()
    seen = []
    bus.subscribe("a", lambda topic, fields: seen.append((topic, fields["x"])))
    bus.emit("a", {"x": 1})
    bus.emit("a", {"x": 2})
    bus.emit("b", {"x": 3})  # nobody listening
    assert seen == [("a", 1), ("a", 2)]
    assert bus.counts == {"a": 2}


# -- RingSeries ----------------------------------------------------------------

def test_ring_series_ordered_before_wrap():
    rs = RingSeries(["x", "y"], capacity=8)
    for i in range(5):
        rs.append(float(i), [i * 10.0, i * 100.0])
    assert len(rs) == 5
    assert rs.dropped() == 0
    assert list(rs.timestamps()) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert list(rs.column("y")) == [0.0, 100.0, 200.0, 300.0, 400.0]


def test_ring_series_wraparound_keeps_newest_in_order():
    rs = RingSeries(["x"], capacity=4)
    for i in range(10):
        rs.append(float(i), [float(i)])
    assert len(rs) == 4
    assert rs.dropped() == 6
    assert list(rs.timestamps()) == [6.0, 7.0, 8.0, 9.0]
    assert list(rs.column("x")) == [6.0, 7.0, 8.0, 9.0]
    t, v = rs.series()["x"]
    assert np.array_equal(t, rs.timestamps())
    assert np.array_equal(v, rs.column("x"))


# -- DecisionLog ---------------------------------------------------------------

def _decision(action="hold", core_before=0, core_after=0, worker=0):
    return PolicyDecision(
        time_ns=1.0, worker_id=worker, elapsed_ns=50_000.0, counter=3,
        rate=3.0, threshold=24.0, action=action,
        spread_before=1, spread_after=1,
        core_before=core_before, core_after=core_after,
    )


def test_decision_log_actions_and_migrations():
    log = DecisionLog()
    log.record(_decision("spread", core_before=0, core_after=8))
    log.record(_decision("hold"))
    log.record(_decision("compact", worker=1))
    assert len(log) == 3
    assert log.by_action() == {"spread": 1, "compact": 1, "hold": 1}
    assert log.migrations() == 1
    assert [d.action for d in log.for_worker(1)] == ["compact"]
    d = log.rows[0].as_dict()
    assert d["migrated"] is True
    assert d["threshold"] == 24.0


# -- KernelProfiler ------------------------------------------------------------

def test_kernel_profiler_report_shares():
    prof = KernelProfiler()
    prof.add("scalar", 10, 0.25)
    prof.add("vec_hit", 90, 0.75)
    rep = prof.report()
    assert set(rep) == {"scalar", "vec_hit"}  # zero-call paths omitted
    assert rep["scalar"]["share"] == pytest.approx(0.25)
    assert rep["vec_hit"]["accesses"] == 90
    assert prof.total_wall_s() == pytest.approx(1.0)
    assert all(p in PATHS for p in rep)


def test_obs_package_lazy_exports():
    import repro.obs as obs

    assert obs.Telemetry is Telemetry
    assert obs.RingSeries is RingSeries
    with pytest.raises(AttributeError):
        obs.nonexistent_name


# -- Integration-level wiring --------------------------------------------------

def _tiny_run(tiny, with_telemetry):
    rt = Runtime(tiny, 2, CharmStrategy(), seed=5)
    region = rt.alloc_shared(32 * tiny.block_bytes, name="u")

    def body():
        for b in range(8):
            yield Access(region, b)
            yield Compute(500.0)
            yield YieldPoint()
        return None

    rt.spawn(body, pin_worker=0, name="t0")
    rt.spawn(body, pin_worker=1, name="t1")
    tel = Telemetry(rt) if with_telemetry else None
    report = rt.run()
    return rt, tel, report


def test_trace_events_carry_chiplet_and_numa(tiny):
    rt, tel, _ = _tiny_run(tiny, with_telemetry=True)
    events = tel.tracer.events
    assert events
    topo = rt.machine.topo
    for ev in events:
        if ev.core >= 0:
            assert ev.chiplet == topo.chiplet_of_core_table[ev.core]
            assert ev.numa == topo.numa_of_core_table[ev.core]


def test_run_report_fill_totals_and_latency(tiny):
    _, _, report = _tiny_run(tiny, with_telemetry=False)
    assert sum(report.fill_totals.values()) > 0
    assert set(report.fill_totals) == set(report.fill_latency)
    for rec in report.fill_latency.values():
        assert set(rec) == {"fills", "latency_ns", "avg_ns"}
    filled = report.fill_totals["dram_local"]
    assert report.fill_latency["dram_local"]["fills"] == filled


def test_double_attach_rejected(tiny):
    rt = Runtime(tiny, 2, CharmStrategy(), seed=5)
    Telemetry(rt)
    with pytest.raises(RuntimeError):
        Telemetry(rt)


def test_unknown_mode_rejected(tiny):
    rt = Runtime(tiny, 2, CharmStrategy(), seed=5)
    with pytest.raises(ValueError):
        Telemetry(rt, mode="verbose")
