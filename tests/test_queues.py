"""Local task queues, the stealable-task count and steal ordering.

``hierarchical_steal_order`` and ``flat_steal_order`` are the reference
steal orders: the straightforward per-probe rebuild through the validated
``Topology`` accessors and ``random.shuffle``.  The runtime's memoized
:class:`StealPlan` must give the same order and consume the same draws
(see ``tests/test_steal_path.py`` for the in-run oracle).
"""

import random
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.topology import Topology, milan_topology
from repro.runtime.queues import LocalQueue, StealableCount, StealPlan
from repro.runtime.task import Task
from repro.sim.rng import stream_rng


def hierarchical_steal_order(
    topo: Topology, my_core: int, worker_cores: List[int], rng
) -> List[int]:
    """Reference chiplet-first victim order (CHARM, section 4.4): same
    chiplet, then same socket, then remote socket; random within a tier."""
    my_chiplet = topo.chiplet_of_core(my_core)
    my_socket = topo.socket_of_core(my_core)
    tiers: List[List[int]] = [[], [], []]
    for wid, core in enumerate(worker_cores):
        if core == my_core:
            continue
        if topo.chiplet_of_core(core) == my_chiplet:
            tiers[0].append(wid)
        elif topo.socket_of_core(core) == my_socket:
            tiers[1].append(wid)
        else:
            tiers[2].append(wid)
    order: List[int] = []
    for tier in tiers:
        rng.shuffle(tier)
        order.extend(tier)
    return order


def flat_steal_order(my_worker: int, n_workers: int, rng) -> List[int]:
    """Reference topology-oblivious victim order (NUMA-aware baselines)."""
    order = [w for w in range(n_workers) if w != my_worker]
    rng.shuffle(order)
    return order


def _task(pinned=False):
    def body():
        yield None

    return Task(body, pinned=pinned)


def test_owner_pops_fifo():
    q = LocalQueue()
    a, b = _task(), _task()
    q.push(a)
    q.push(b)
    assert q.pop_local() is a
    assert q.pop_local() is b
    assert q.pop_local() is None


def test_thief_steals_newest_unpinned():
    q = LocalQueue()
    a, b = _task(), _task()
    q.push(a)
    q.push(b)
    assert q.steal() is b


def test_pinned_tasks_not_stealable():
    q = LocalQueue()
    p1, u, p2 = _task(pinned=True), _task(), _task(pinned=True)
    q.push(p1)
    q.push(u)
    q.push(p2)
    assert q.steal() is u  # skips the pinned tail
    assert q.steal() is None
    assert len(q) == 2


def test_remove():
    q = LocalQueue()
    a = _task()
    q.push(a)
    assert q.remove(a)
    assert not q.remove(a)


def test_hierarchical_order_tiers():
    topo = milan_topology()
    # workers on cores 0..15 (chiplets 0,1) plus one on socket 1.
    cores = list(range(16)) + [64]
    rng = stream_rng(1, "steal")
    order = hierarchical_steal_order(topo, my_core=0, worker_cores=cores, rng=rng)
    # First tier: same chiplet (cores 1..7 -> worker ids 1..7).
    assert set(order[:7]) == set(range(1, 8))
    # Last: the cross-socket worker.
    assert order[-1] == 16


def test_flat_order_complete():
    rng = stream_rng(1, "steal")
    order = flat_steal_order(3, 8, rng)
    assert sorted(order) == [0, 1, 2, 4, 5, 6, 7]


# -- the inlined draw loop ------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_draw_loop_matches_stdlib_shuffle(seed):
    """StealPlan's Fisher-Yates loop over getrandbits is random.shuffle:
    the same permutation and the same generator state, for every length
    0..130 (a change in the stdlib algorithm fails here, loudly)."""
    ref = random.Random(seed)
    mine = random.Random(seed)
    skipper = random.Random(seed)
    for m in range(131):
        expect = list(range(m))
        ref.shuffle(expect)
        plan = StealPlan([range(m)])
        assert plan.order(mine.getrandbits) == expect, m
        assert mine.getstate() == ref.getstate(), m
        plan.skip(skipper.getrandbits)
        assert skipper.getstate() == ref.getstate(), m


# -- the stealable count ---------------------------------------------------------


def _queue_ops():
    op = st.one_of(
        st.tuples(st.just("push"), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("pop_local"), st.integers(0, 2)),
        st.tuples(st.just("steal"), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 2), st.integers(0, 40)),
    )
    return st.lists(op, max_size=80)


@given(_queue_ops())
@settings(max_examples=150, deadline=None)
def test_stealable_count_tracks_unpinned_tasks(ops):
    """Over any mix of push / pop_local / steal (with and without
    allow_pinned) / remove on queues sharing one count, the count equals
    the queued unpinned tasks, and a plain steal() finds a task exactly
    when its queue holds an unpinned one."""
    count = StealableCount()
    queues = [LocalQueue(count) for _ in range(3)]
    made: List[Task] = []
    for op in ops:
        q = queues[op[1]]
        if op[0] == "push":
            t = _task(pinned=op[2])
            made.append(t)
            q.push(t)
        elif op[0] == "pop_local":
            q.pop_local()
        elif op[0] == "steal":
            unpinned_here = any(not t.pinned for t in q)
            got = q.steal(allow_pinned=op[2])
            if not op[2]:
                assert (got is not None) == unpinned_here
                assert got is None or not got.pinned
        elif made:
            q.remove(made[op[2] % len(made)])
        assert count.n == sum(not t.pinned for q in queues for t in q)
