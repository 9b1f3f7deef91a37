"""Every strategy satisfies the SchedulingStrategy contract."""

import pytest

from repro.baselines import (
    AsymSchedStrategy,
    OsAsyncStrategy,
    RingStrategy,
    SamStrategy,
    ShoalStrategy,
)
from repro.baselines.vanilla import VanillaStrategy
from repro.hw.machine import milan
from repro.hw.memory import MemPolicy
from repro.runtime.policy import CharmStrategy, StaticSpreadStrategy
from repro.runtime.runtime import Runtime

ALL_STRATEGIES = [
    CharmStrategy, RingStrategy, ShoalStrategy, AsymSchedStrategy,
    SamStrategy, OsAsyncStrategy, VanillaStrategy,
    lambda: StaticSpreadStrategy(2),
]


@pytest.mark.parametrize("mk", ALL_STRATEGIES)
def test_initial_placement_unique_and_in_range(mk):
    machine = milan(scale=64)
    s = mk()
    for n in (1, 8, 17, 64):
        cores = [s.initial_core(w, n, machine) for w in range(n)]
        assert len(set(cores)) == n
        assert all(0 <= c < machine.topo.total_cores for c in cores)


@pytest.mark.parametrize("mk", ALL_STRATEGIES)
def test_shared_policy_is_valid(mk):
    machine = milan(scale=64)
    rt = Runtime(machine, 4, mk(), seed=1)
    for ro in (True, False):
        region = rt.alloc_shared(1 << 16, read_only=ro)
        assert region.policy in MemPolicy


@pytest.mark.parametrize("mk", ALL_STRATEGIES)
def test_runs_a_small_workload(mk):
    from repro.runtime.ops import AccessBatch, Compute, YieldPoint

    machine = milan(scale=64)
    rt = Runtime(machine, 4, mk(), seed=1)
    region = rt.alloc_shared(1 << 18)

    def body(wid):
        yield AccessBatch(region, list(range(wid * 4, wid * 4 + 4)))
        yield YieldPoint()
        yield Compute(100.0)
        return wid

    for w in range(4):
        rt.spawn(body, w, pin_worker=w)
    report = rt.run()
    assert report.tasks_completed == 4
    assert report.wall_ns > 0


@pytest.mark.parametrize("mk", ALL_STRATEGIES)
def test_names_distinct(mk):
    names = {m().name if not isinstance(m, type) else m().name for m in ALL_STRATEGIES}
    assert len(names) == len(ALL_STRATEGIES)


@pytest.mark.parametrize("mk", ALL_STRATEGIES)
def test_steal_order_excludes_self(mk):
    machine = milan(scale=64)
    rt = Runtime(machine, 6, mk(), seed=1)
    for w in rt.workers:
        order = rt.steal_plan(w).order(w.rng.getrandbits)
        assert w.worker_id not in order
        assert set(order) <= set(range(6))
