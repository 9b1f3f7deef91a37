"""The idle path against its reference, inside real runs.

An idle worker's probe round uses its memoized :class:`StealPlan` (victim
tiers rebuilt only after a migration) and, while no queue holds an
unpinned task, charges the round without visiting a deque.  Both are
speed-only: at every round of these runs the order must equal the
reference order built from scratch with a clone of the worker's RNG, the
RNG must end in the clone's state, and the stolen task, probe count and
clock must be what the reference probe loop gives.  Separately, the
runtime-wide stealable count must equal the unpinned tasks in all queues
at the end of every step.
"""

import random

import pytest

from repro.baselines.vanilla import VanillaStrategy
from repro.hw.machine import milan
from repro.runtime.ops import AccessBatch, Compute, SpawnOp, YieldPoint
from repro.runtime.policy import CharmStrategy
from repro.runtime.runtime import Runtime
from repro.runtime.worker import Worker
from tests.test_queues import flat_steal_order, hierarchical_steal_order

SEED = 7


def _clone(rng: random.Random) -> random.Random:
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _reference_order(worker: Worker, rng: random.Random):
    rt = worker.runtime
    if rt.strategy.hierarchical_stealing:
        return hierarchical_steal_order(rt.machine.topo, worker.core,
                                        rt.worker_cores(), rng)
    return flat_steal_order(worker.worker_id, len(rt.workers), rng)


def _charged(clock: float, probe: float, n: int) -> float:
    for _ in range(n):
        clock += probe
    return clock


@pytest.fixture
def oracle(monkeypatch):
    """Check every probe round against the reference; count what was seen."""
    seen = {"rounds": 0, "skipped": 0, "steals": 0, "after_migration": 0,
            "three_tiers": 0}
    orig = Worker._try_steal

    def checked(self):
        rt = self.runtime
        ref_rng = _clone(self.rng)
        ref = _reference_order(self, ref_rng)
        plan = rt.steal_plan(self)
        assert plan.order(_clone(self.rng).getrandbits) == ref
        # The reference probe loop takes the first victim holding an
        # unpinned task (LocalQueue.steal scans past a pinned tail).
        hit = next((i for i, v in enumerate(ref)
                    if any(not t.pinned for t in rt.workers[v].queue)), None)
        probes = len(ref) if hit is None else hit + 1
        clock = _charged(self.clock, rt.strategy.steal_probe_ns, probes)
        attempts, skipped = self.steal_attempts, rt.skipped_steal_rounds
        task = orig(self)
        assert self.rng.getstate() == ref_rng.getstate()
        assert self.steal_attempts - attempts == probes
        if hit is None:
            assert task is None
            assert rt.skipped_steal_rounds == skipped + 1
            assert self.clock == clock  # same sequential adds, bit for bit
        else:
            assert task is not None and not task.pinned
            assert rt.skipped_steal_rounds == skipped
            seen["steals"] += 1
        seen["rounds"] += 1
        seen["skipped"] += hit is None
        seen["after_migration"] += rt.total_migrations > 0
        seen["three_tiers"] += len(plan.tiers) == 3 and all(plan.tiers)
        return task

    monkeypatch.setattr(Worker, "_try_steal", checked)
    return seen


def _spread_and_spawn(rt: Runtime, rounds: int):
    """Pinned owners whose working set outgrows a chiplet (so Alg. 1
    migrates them) and which spawn unpinned children (so idle workers
    steal)."""
    big = rt.alloc_shared(8 << 20, name="big")
    span = big.n_blocks - 16

    def child(k):
        first = k * 8 % span
        yield AccessBatch(big, list(range(first, first + 8)))
        yield Compute(300.0)
        return k

    def owner(wid):
        for r in range(rounds):
            first = r * 16 % span
            yield AccessBatch(big, list(range(first, first + 16)))
            if r % 4 == wid % 4:
                yield SpawnOp(child, (wid * rounds + r,))
            yield YieldPoint()
        return wid

    for w in range(len(rt.workers) // 2):
        rt.spawn(owner, w, pin_worker=w)
    return rt.run()


def test_charm_rounds_match_reference_across_migrations(oracle):
    # 72 workers: socket 0's 64 cores fill, so every worker has a
    # same-chiplet, a same-socket and a remote-socket tier.
    rt = Runtime(milan(scale=64), 72, CharmStrategy(), seed=SEED)
    report = _spread_and_spawn(rt, rounds=60)
    assert report.migrations > 0
    assert oracle["after_migration"] > 0
    assert oracle["three_tiers"] > 0
    assert oracle["steals"] > 0
    assert 0 < oracle["skipped"] < oracle["rounds"]
    assert rt.skipped_steal_rounds == oracle["skipped"]


def test_charm_gups_cell_with_migrations_matches_reference(oracle):
    from repro.workloads.gups import run_gups

    res = run_gups(milan(scale=64), CharmStrategy(), 16, table_bytes=8 << 20,
                   updates_per_worker=2048, seed=SEED)
    assert res.report.migrations > 0
    assert oracle["after_migration"] > 0


def test_flat_order_baseline_matches_reference(oracle):
    from repro.workloads.streamcluster import make_points, run_streamcluster

    assert not VanillaStrategy.hierarchical_stealing
    run_streamcluster(milan(scale=64), VanillaStrategy(), 16,
                      make_points(256, 8, 4, seed=3), n_centers=4,
                      search_iterations=2, seed=SEED)
    assert oracle["steals"] > 0 and oracle["skipped"] > 0


def test_empty_round_charges_sequential_probe_adds():
    """With no stealable task anywhere, a round is charged as one probe
    add per victim: from this clock, one 7 x probe add differs in the
    last bit."""
    rt = Runtime(milan(scale=64), 8, CharmStrategy(), seed=SEED)
    w = rt.workers[0]
    w.clock = w.busy_ns = 18.531679347733032
    probe = rt.strategy.steal_probe_ns
    expect = _charged(w.clock, probe, 7)
    assert expect != w.clock + 7 * probe
    assert w._try_steal() is None
    assert rt.skipped_steal_rounds == 1 and w.steal_attempts == 7
    assert w.clock == expect and w.busy_ns == expect


# -- the stealable count at every step end -----------------------------------------


def _gups():
    from repro.workloads.gups import run_gups

    run_gups(milan(scale=64), CharmStrategy(), 16, table_bytes=1 << 20,
             updates_per_worker=512, seed=SEED)


def _pagerank():
    from repro.workloads.graph.generator import kronecker
    from repro.workloads.graph.runner import run_graph_algorithm

    run_graph_algorithm(milan(scale=64), CharmStrategy(), "pagerank",
                        kronecker(9, edgefactor=4, seed=5), 16, seed=SEED,
                        pagerank_iterations=2)


def _streamcluster():
    from repro.workloads.streamcluster import make_points, run_streamcluster

    run_streamcluster(milan(scale=64), CharmStrategy(), 16,
                      make_points(256, 8, 4, seed=3), n_centers=4,
                      search_iterations=2, seed=SEED)


@pytest.mark.parametrize("run, queued_kind", [
    (_gups, "pinned"), (_pagerank, "pinned"), (_streamcluster, "unpinned"),
], ids=["gups", "pagerank", "streamcluster"])
def test_stealable_count_at_every_step_end(monkeypatch, run, queued_kind):
    seen = {"steps": 0, "pinned": 0, "unpinned": 0}
    orig = Worker.step

    def checked(self, loop):
        out = orig(self, loop)
        queued = [t for w in self.runtime.workers for t in w.queue]
        unpinned = sum(not t.pinned for t in queued)
        assert self.runtime.stealable.n == unpinned
        seen["steps"] += 1
        seen["unpinned"] += unpinned
        seen["pinned"] += len(queued) - unpinned
        return out

    monkeypatch.setattr(Worker, "step", checked)
    run()
    assert seen["steps"] > 0
    # The check saw queues holding the kind of task the workload queues.
    assert seen[queued_kind] > 0
