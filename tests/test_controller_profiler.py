"""Adaptive controller and profiler utilities."""

from repro.hw.machine import milan
from repro.runtime.controller import AdaptiveController, Approach, ControllerMetrics
from repro.runtime.ops import AccessBatch, Compute, YieldPoint
from repro.obs.profiler import ProfileLog, fill_breakdown, sample_workers, utilization
from repro.runtime.policy import StaticSpreadStrategy
from repro.runtime.runtime import Runtime


def test_approach_thresholds_ordered():
    loc = AdaptiveController(Approach.LOCATION_CENTRIC).policy_config()
    ada = AdaptiveController(Approach.ADAPTIVE).policy_config()
    cache = AdaptiveController(Approach.CACHE_CENTRIC).policy_config()
    assert loc.rmt_chip_access_rate > ada.rmt_chip_access_rate > cache.rmt_chip_access_rate


def test_threshold_override():
    cfg = AdaptiveController(threshold_override=99.0).policy_config()
    assert cfg.rmt_chip_access_rate == 99.0


def test_make_strategy():
    s = AdaptiveController(Approach.ADAPTIVE).make_strategy()
    assert s.name == "charm"


def test_refine_switches_approach():
    c = AdaptiveController()
    assert c.refine(ControllerMetrics(dram_fill_rate=100, remote_fill_rate=1)).approach \
        is Approach.CACHE_CENTRIC
    assert c.refine(ControllerMetrics(dram_fill_rate=1, remote_fill_rate=100)).approach \
        is Approach.LOCATION_CENTRIC
    assert c.refine(ControllerMetrics(dram_fill_rate=10, remote_fill_rate=10)).approach \
        is Approach.ADAPTIVE


def _run():
    rt = Runtime(milan(scale=64), 4, StaticSpreadStrategy(2), seed=3)
    region = rt.alloc(1 << 20, node=0)

    def body(wid):
        yield AccessBatch(region, list(range(wid * 8, wid * 8 + 8)))
        yield YieldPoint()
        yield Compute(100.0)
        return wid

    for w in range(4):
        rt.spawn(body, w, pin_worker=w)
    report = rt.run()
    return rt, report


def test_sample_workers_and_log():
    rt, _ = _run()
    samples = sample_workers(rt)
    assert len(samples) == 4
    assert all(s.remote_fills >= 0 for s in samples)
    log = ProfileLog()
    log.record(rt)
    assert len(log.last_by_worker()) == 4
    assert log.spread_of(0)


def test_utilization_bounds():
    _, report = _run()
    u = utilization(report)
    assert len(u) == 4
    assert all(0 <= x <= 1 for x in u)


def test_fill_breakdown_keys():
    _, report = _run()
    row = fill_breakdown(report)
    assert set(row) == {"local_chiplet", "remote_chiplet", "remote_numa_chiplet", "main_memory"}
