"""Bit-identity of the hit-path and peer-fill kernels vs the scalar path.

PR 3 proved the *miss*-path kernels bit-identical; this suite covers the
hit and peer-fill classes added on top: the bulk LRU touch
(``CacheSystem.touch_run``), the shared-mode bulk install
(``fill_run(shared=True)``), the segment classifier's hit / one-peer /
miss / scalar labelling, the hot-replay fast path in ``access_run``, and
the per-source fill-latency histogram.  The contract is unchanged:
virtual times, LRU contents *and order*, the sharing directory,
hit/miss/eviction statistics, per-core fill counters, and bandwidth
server state must match a forced-scalar twin exactly — bit for bit
(the shared harness in ``tests/test_kernel_harness.py``).

Scenario shapes are chosen to pin each class: hit-heavy (warm re-reads),
peer-heavy (another chiplet is the holder), and mixed batches with
duplicates (exercising the duplicate-aware segment splitter).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.hw.machine as machine_mod
from repro.hw.cache import CacheSystem
from repro.hw.counters import SOURCE_INDEX, FillSource
from repro.hw.memory import MemPolicy
from repro.hw.topology import Topology
from tests.test_kernel_harness import (
    PRESETS,
    assert_same_state,
    core_on_other_chiplet,
    scalar_batch,
)


def _warm(machine, region, core, blocks, now=0.0):
    """Install ``blocks`` into ``core``'s slice via the scalar path."""
    return scalar_batch(machine, core, region, blocks, now).ns


# -- Hit-heavy: warm re-reads stay on the local-hit kernel -------------------

@pytest.mark.parametrize("mk", PRESETS.values(), ids=PRESETS.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hit_heavy_bit_identical(mk, data):
    m_vec, m_ref = mk(), mk()
    size = 120 * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    n_blocks = r_vec.n_blocks
    core = data.draw(st.integers(0, m_vec.topo.total_cores - 1))

    warm = list(range(n_blocks))
    _warm(m_vec, r_vec, core, warm)
    _warm(m_ref, r_ref, core, warm)

    now = 1000.0
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, n_blocks - 1))
        count = data.draw(st.integers(1, n_blocks - start))
        mlp = data.draw(st.sampled_from([1.0, 10.0]))
        as_run = data.draw(st.booleans())
        if as_run:
            res_v = m_vec.access_run(core, r_vec, start, count, now=now,
                                     mlp=mlp)
        else:
            res_v = m_vec.access_batch(core, r_vec,
                                       list(range(start, start + count)),
                                       now=now, mlp=mlp)
        res_r = scalar_batch(m_ref, core, r_ref,
                             range(start, start + count), now, mlp=mlp)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


@pytest.mark.parametrize("mk", PRESETS.values(), ids=PRESETS.keys())
def test_hot_replay_steady_state(mk):
    """Repeated identical runs hit ``access_run``'s hot-replay fast path."""
    m_vec, m_ref = mk(), mk()
    # Half of one slice, so the whole region stays resident after pass 1
    # (on the small test machine that is below VECTOR_MIN — the replay
    # path then never fires and the scalar twin covers both sides).
    size = max(m_vec.caches.caches[0].capacity_bytes // 2, m_vec.block_bytes)
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="hot")
    n = r_vec.n_blocks
    now = 0.0
    for _ in range(5):  # pass 1 fills; passes 2+ take the replay path
        res_v = m_vec.access_run(0, r_vec, 0, n, now=now, mlp=4.0)
        res_r = scalar_batch(m_ref, 0, r_ref, range(n), now, mlp=4.0)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)
    hist = m_vec.bandwidth_stats()["fill_latency"]["per_source"]
    local = hist[FillSource.LOCAL_CHIPLET.value]
    assert local["fills"] == 4 * n
    assert local["latency_ns"] > 0.0
    assert local["avg_ns"] == pytest.approx(m_vec.latency.l3_hit)


# -- Peer-heavy: another chiplet holds every block ---------------------------

@pytest.mark.parametrize("mk", PRESETS.values(), ids=PRESETS.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_peer_heavy_bit_identical(mk, data):
    m_vec, m_ref = mk(), mk()
    size = 120 * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="pr")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="pr")
    n_blocks = r_vec.n_blocks
    holder_core = data.draw(st.integers(0, m_vec.topo.total_cores - 1))
    reader_core = core_on_other_chiplet(m_vec, holder_core)

    warm = list(range(n_blocks))
    _warm(m_vec, r_vec, holder_core, warm)
    _warm(m_ref, r_ref, holder_core, warm)

    now = 1000.0
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, n_blocks - 1))
        count = data.draw(st.integers(1, n_blocks - start))
        mlp = data.draw(st.sampled_from([1.0, 10.0]))
        res_v = m_vec.access_batch(core=reader_core, region=r_vec,
                                   blocks=list(range(start, start + count)),
                                   now=now, mlp=mlp)
        res_r = scalar_batch(m_ref, reader_core, r_ref,
                             range(start, start + count), now, mlp=mlp)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


# -- Mixed batches with duplicates: the segment splitter ---------------------

@pytest.mark.parametrize("mk", PRESETS.values(), ids=PRESETS.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mixed_duplicate_batches_bit_identical(mk, data):
    """Hit/peer/miss interleavings with repeats cut segments, stay exact."""
    m_vec, m_ref = mk(), mk()
    size = 150 * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=MemPolicy.BIND, name="mx")
    r_ref = m_ref.alloc_region(size, node=0, policy=MemPolicy.BIND, name="mx")
    n_blocks = r_vec.n_blocks
    core_a = data.draw(st.integers(0, m_vec.topo.total_cores - 1))
    core_b = core_on_other_chiplet(m_vec, core_a)

    # Plant residency: core_a holds the low third, core_b the middle
    # third, the top third stays cold — so one batch can mix all classes.
    third = n_blocks // 3
    _warm(m_vec, r_vec, core_a, list(range(third)))
    _warm(m_ref, r_ref, core_a, list(range(third)))
    _warm(m_vec, r_vec, core_b, list(range(third, 2 * third)))
    _warm(m_ref, r_ref, core_b, list(range(third, 2 * third)))

    now = 1000.0
    for _ in range(data.draw(st.integers(1, 3))):
        base = data.draw(st.lists(st.integers(0, n_blocks - 1),
                                  min_size=1, max_size=80))
        dup_from = data.draw(st.integers(0, len(base) - 1))
        blocks = base + base[dup_from:]
        write = data.draw(st.booleans())
        res_v = m_vec.access_batch(core_a, r_vec, blocks, now=now,
                                   write=write, mlp=4.0)
        res_r = scalar_batch(m_ref, core_a, r_ref, blocks, now,
                             write=write, mlp=4.0)
        assert res_v.ns == res_r.ns
        assert res_v.finish == res_r.finish
        assert res_v.fill_counts == res_r.fill_counts
        assert res_v.invalidations == res_r.invalidations
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


def test_all_duplicates_batch_needs_no_scalar_span(tiny):
    """A pathological all-repeats batch is serviced without a scalar loop.

    The duplicate-aware splitter once cut a boundary at every repeat (one
    merged scalar span); the gather kernel now replays repeats as hits
    directly, so the batch costs *zero* scalar spans.  Bit-identity is
    asserted against a forced-scalar twin.
    """
    ref = machine_mod.small_test_machine()
    r_vec = tiny.alloc_region(64 * tiny.block_bytes, node=0, name="dup")
    r_ref = ref.alloc_region(64 * ref.block_bytes, node=0, name="dup")
    blocks = [5] * (4 * machine_mod.VECTOR_MIN)

    calls = []
    orig = tiny._scalar_span

    def counting_span(*args, **kw):
        calls.append(args)
        return orig(*args, **kw)

    tiny._scalar_span = counting_span
    res_v = tiny.access_batch(0, r_vec, blocks, now=0.0)
    res_r = scalar_batch(ref, 0, r_ref, blocks, 0.0)
    assert len(calls) == 0
    assert res_v.ns == res_r.ns and res_v.finish == res_r.finish
    del tiny._scalar_span
    assert_same_state(tiny, ref)


# -- touch_run vs scalar touch loop ------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    resident=st.lists(st.integers(0, 30), unique=True, max_size=16),
    touches=st.lists(st.integers(0, 30), min_size=1, max_size=40),
)
def test_touch_run_matches_scalar_touch_loop(resident, touches):
    """Recency order and counters match a per-block touch loop exactly.

    Covers arbitrary interleavings with duplicates, the steady-state
    no-op fast path (when ``touches`` equals the recency tail), and the
    non-resident fallback (which must count misses like the loop).
    """
    topo = Topology(sockets=1, chiplets_per_socket=1, cores_per_chiplet=1,
                    name="t")
    a = CacheSystem(topo, 64 * 64)
    b = CacheSystem(topo, 64 * 64)
    for blk in resident:
        a.fill(0, blk, 64)
        b.fill(0, blk, 64)

    for blk in touches:
        a.caches[0].touch(blk)
    b.touch_run(0, touches)

    ca, cb = a.caches[0], b.caches[0]
    assert list(ca._lru.items()) == list(cb._lru.items())
    assert (ca.hits, ca.misses) == (cb.hits, cb.misses)


def test_touch_run_noop_tail_is_exact():
    """The tail-compare fast path changes nothing but the hit counter."""
    topo = Topology(1, 1, 1, name="t")
    cs = CacheSystem(topo, 64 * 64)
    blocks = list(range(8))
    for blk in blocks:
        cs.fill(0, blk, 64)
    before = list(cs.caches[0]._lru.items())
    cs.touch_run(0, blocks)  # recency tail == blocks: order no-op
    assert list(cs.caches[0]._lru.items()) == before
    assert cs.caches[0].hits == len(blocks)


# -- fill_run(shared=True) vs sequential fill --------------------------------

@settings(max_examples=60, deadline=None)
@given(
    capacity_blocks=st.integers(1, 12),
    k=st.integers(1, 20),
    nbytes=st.integers(1, 200),
    pre=st.integers(0, 8),
)
def test_fill_run_shared_matches_sequential_fill(capacity_blocks, k, nbytes,
                                                 pre):
    """Peer-fill installs join existing holder sets, evictions included."""
    topo = Topology(sockets=1, chiplets_per_socket=3, cores_per_chiplet=1,
                    name="t")
    cap = capacity_blocks * 64
    a = CacheSystem(topo, cap)
    b = CacheSystem(topo, cap)
    blocks = list(range(k))
    for cs in (a, b):
        # Peer-fill precondition: every block already held elsewhere —
        # some by one peer, some by two (multi-holder eviction shapes).
        for blk in blocks:
            cs.fill(1, blk, nbytes)
            if blk % 3 == 0:
                cs.fill(2, blk, nbytes)
        for i in range(pre):  # unrelated residents in the filling slice
            cs.fill(0, 500 + i, 32)

    ev0 = b.caches[0].evictions
    for blk in blocks:
        a.fill(0, blk, nbytes)
    evicted = b.fill_run(0, blocks, nbytes, shared=True)

    ca, cb = a.caches[0], b.caches[0]
    assert list(ca._lru.items()) == list(cb._lru.items())
    assert ca.used_bytes == cb.used_bytes
    assert ca.evictions == cb.evictions
    assert evicted == cb.evictions - ev0
    assert {blk: frozenset(h) for blk, h in a.directory.items()} == \
        {blk: frozenset(h) for blk, h in b.directory.items()}
    assert b.check_directory_consistent()


# -- Fill-latency histogram ---------------------------------------------------

def test_fill_latency_histogram_tracks_sources(tiny):
    """Per-source fills and latency sums line up with the fill counters."""
    # Exactly one slice's worth of blocks, so pass 2 is all local hits.
    r = tiny.alloc_region(tiny.caches.caches[0].capacity_bytes, node=0,
                          name="h")
    n = r.n_blocks
    tiny.access_batch(0, r, list(range(n)), now=0.0)       # DRAM fills
    tiny.access_batch(0, r, list(range(n)), now=1e6)       # local hits
    other = core_on_other_chiplet(tiny, 0)
    tiny.access_batch(other, r, list(range(n)), now=2e6)   # peer fills
    hist = tiny.bandwidth_stats()["fill_latency"]["per_source"]
    fills = tiny.counters.totals()
    for src, idx in SOURCE_INDEX.items():
        h = hist[src.value]
        assert h["fills"] == fills[idx], src
        if fills[idx]:
            assert h["latency_ns"] > 0.0
            assert h["avg_ns"] == pytest.approx(h["latency_ns"] / fills[idx])
        else:
            assert h["latency_ns"] == 0.0
    assert hist[FillSource.LOCAL_CHIPLET.value]["fills"] >= n


def test_fill_latency_histogram_bit_identical(tiny):
    """The histogram is part of ``bandwidth_stats`` — covered by the
    state comparison, asserted here directly for clarity."""
    ref = machine_mod.small_test_machine()
    r_vec = tiny.alloc_region(64 * tiny.block_bytes, node=0, name="h")
    r_ref = ref.alloc_region(64 * ref.block_bytes, node=0, name="h")
    n = r_vec.n_blocks
    now = 0.0
    for _ in range(3):
        res_v = tiny.access_batch(0, r_vec, list(range(n)), now=now)
        scalar_batch(ref, 0, r_ref, list(range(n)), now)
        now += res_v.ns
    assert tiny.bandwidth_stats()["fill_latency"] == \
        ref.bandwidth_stats()["fill_latency"]
