"""Bit-identity of the gather/scatter kernel vs the scalar path.

PR 3/4 proved the sorted-unique miss, hit, and peer-fill kernels
bit-identical; this suite covers the gather kernel that services
*unsorted, duplicate-laden* batches directly: the inverse-permutation
scatter of per-class delays, the duplicate-replay clock math (repeats
resolve against the first touch's fill), the composite-key bank
grouping, the single ``serve_groups`` call across channel/peer/xlink
server classes, and the SoA eviction/writeback paths underneath.

The contract is the one every kernel in :mod:`repro.hw.vector` obeys:
virtual times, LRU contents *and order*, the sharing directory,
hit/miss/eviction statistics, per-core fill counters, and bandwidth
server state must match a forced-scalar twin exactly — bit for bit —
and every run must leave the directory structurally consistent
(:meth:`CacheSystem.check_directory_consistent`).  The twin and the
state snapshot come from the shared harness,
``tests/test_kernel_harness.py``.

Scenario shapes pin the gather-specific classes: raw gups-style streams
(unsorted, occasional repeats), duplicate-heavy batches drawn from a
tiny block pool, reverse-sorted batches, and mixed read/write sequences
interleaved across cores so directory state carries between batches.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw.machine import MachineGeometry, milan, small_test_machine
from repro.hw.memory import MemPolicy
from repro.obs.selfprof import KernelProfiler
from tests.test_kernel_harness import (
    MACHINES,
    assert_same_state,
    core_on_other_chiplet,
    dse_machine,
    scalar_batch,
)


def _pair(mk, policy=MemPolicy.INTERLEAVE, blocks=96):
    m_vec, m_ref = mk(), mk()
    size = blocks * m_vec.block_bytes
    r_vec = m_vec.alloc_region(size, node=0, policy=policy, name="geq")
    r_ref = m_ref.alloc_region(size, node=0, policy=policy, name="geq")
    return m_vec, r_vec, m_ref, r_ref


def _drive(m_vec, r_vec, m_ref, r_ref, batches):
    """Run (core, blocks, write) batches through both twins, clock-chained."""
    now = 0.0
    for core, blocks, write in batches:
        res_v = m_vec.access_batch(core, r_vec, np.asarray(blocks, dtype=np.int64),
                                   now=now, write=write)
        res_s = scalar_batch(m_ref, core, r_ref, blocks, now, write=write)
        assert res_v.ns == res_s.ns, "virtual time diverged"
        assert res_v.finish == res_s.finish
        assert res_v.fill_counts == res_s.fill_counts
        now += res_v.ns
    assert_same_state(m_vec, m_ref)


# --- hypothesis: arbitrary unsorted duplicate-laden read/write sequences ---

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_gather_matches_scalar_on_irregular_batches(mk, data):
    policy = data.draw(st.sampled_from([MemPolicy.BIND, MemPolicy.INTERLEAVE]))
    m_vec, r_vec, m_ref, r_ref = _pair(mk, policy)
    n_blocks = r_vec.n_blocks
    total_cores = m_vec.topo.total_cores
    # A tiny pool forces heavy duplication; the full range forces misses.
    hi = data.draw(st.sampled_from([7, n_blocks - 1]))
    batches = []
    for _ in range(data.draw(st.integers(1, 4))):
        core = data.draw(st.integers(0, total_cores - 1))
        blocks = data.draw(st.lists(st.integers(0, hi),
                                    min_size=32, max_size=96))
        write = data.draw(st.booleans())
        batches.append((core, blocks, write))
    _drive(m_vec, r_vec, m_ref, r_ref, batches)


# --- deterministic shapes that pin specific gather classes ---

@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_matches_scalar_on_raw_gups_stream(mk):
    """The exact emission shape of the gups workload: raw update order."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=256)
    rng = np.random.default_rng(7)
    batches = []
    for i in range(4):
        idx = rng.integers(0, r_vec.n_blocks, size=256, dtype=np.int64)
        batches.append((i % m_vec.topo.total_cores, idx, True))
    _drive(m_vec, r_vec, m_ref, r_ref, batches)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_matches_scalar_on_duplicate_heavy_writes(mk):
    """~50% repeats per batch: the duplicate-replay clock path."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=256)
    rng = np.random.default_rng(11)
    batches = []
    for i in range(4):
        pool = rng.integers(0, r_vec.n_blocks, size=64, dtype=np.int64)
        idx = pool[rng.integers(0, pool.size, size=128)]
        batches.append((i % m_vec.topo.total_cores, idx, bool(i % 2)))
    _drive(m_vec, r_vec, m_ref, r_ref, batches)


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_matches_scalar_on_reverse_sorted_batch(mk):
    """Strictly descending blocks: maximal unsortedness, zero repeats."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=96)
    blocks = np.arange(r_vec.n_blocks - 1, -1, -1, dtype=np.int64)
    _drive(m_vec, r_vec, m_ref, r_ref,
           [(0, blocks, False), (0, blocks, True)])


@pytest.mark.parametrize("mk", MACHINES.values(), ids=MACHINES.keys())
def test_gather_peer_fills_after_cross_core_warm(mk):
    """Unsorted re-reads from another chiplet: gathered peer fills."""
    m_vec, r_vec, m_ref, r_ref = _pair(mk, blocks=64)
    warm = list(range(r_vec.n_blocks))
    other = core_on_other_chiplet(m_vec, 0)
    rng = np.random.default_rng(3)
    reread = rng.permutation(np.arange(r_vec.n_blocks, dtype=np.int64))
    _drive(m_vec, r_vec, m_ref, r_ref,
           [(0, warm, False), (other, reread, False)])


# --- capacity pressure: the regime the product's DSE cells run ---

@pytest.mark.parametrize("policy", [MemPolicy.BIND, MemPolicy.INTERLEAVE],
                         ids=["bind", "interleave"])
@pytest.mark.parametrize("l3_mib", [4, 32])
def test_gather_serves_capacity_pressured_batches_whole(l3_mib, policy):
    """gups write batches from many cores over a 1024-block table, then
    unsorted re-reads with peer holders, on 8- and 64-block slices:
    bit-identical to the scalar twin, and every access serviced by the
    gather kernel — none charged to the scalar fallback."""
    mk = dse_machine(l3_mib)
    m_vec, r_vec, m_ref, r_ref = _pair(mk, policy, blocks=1024)
    prof = m_vec.profiler = KernelProfiler()
    rng = np.random.default_rng(13)
    cores = m_vec.topo.total_cores
    batches = [(int(c), rng.integers(0, 1024, size=256, dtype=np.int64), True)
               for c in rng.permutation(cores)[:24]]
    for c in range(0, cores, 3):
        batches.append((c, rng.permutation(1024)[:256], False))
    _drive(m_vec, r_vec, m_ref, r_ref, batches)
    served = prof.accesses["vec_gather"] + prof.accesses["vec_dup_replay"]
    assert served == m_vec.total_accesses
    assert prof.accesses["scalar"] == 0
    assert sum(m_vec.gather_declines.values()) == 0
    assert sum(m_vec.counters.totals()[1:]) > 0  # some accesses missed


# --- an independent oracle: a plain LRU per slice -------------------------

class LruOracle:
    """Per-chiplet OrderedDict LRUs of ``cap`` blocks; a write drops every
    other chiplet's copy.  Knows nothing of the kernel or the scalar path."""

    def __init__(self, chiplets, cap):
        self.lru = [OrderedDict() for _ in range(chiplets)]
        self.cap = cap
        self.evictions = [0] * chiplets

    def batch(self, ch, blocks, write):
        lru, hits, peer = self.lru[ch], 0, 0
        for b in blocks:
            if b in lru:
                lru.move_to_end(b)
                hits += 1
            else:
                peer += any(b in o for o in self.lru if o is not lru)
                if len(lru) == self.cap:
                    lru.popitem(last=False)
                    self.evictions[ch] += 1
                lru[b] = None
            if write:
                for o in self.lru:
                    if o is not lru:
                        o.pop(b, None)
        return hits, peer, len(blocks) - hits - peer


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_gather_matches_lru_oracle(data):
    cap = data.draw(st.sampled_from([1, 2, 3, 8, 31, 64, 200]), label="cap")
    m = small_test_machine(l3_blocks_per_chiplet=cap)
    policy = data.draw(st.sampled_from([MemPolicy.BIND, MemPolicy.INTERLEAVE]))
    region = m.alloc_region(256 * m.block_bytes, policy=policy, name="oracle")
    prof = m.profiler = KernelProfiler()
    oracle = LruOracle(m.topo.total_chiplets, cap)
    shift = region.region_id << region._KEY_SHIFT
    # Block pools from all-duplicate (one block) to wider than any slice.
    pool = data.draw(st.sampled_from([1, 4, 40, 255]), label="pool")
    now = 0.0
    for _ in range(data.draw(st.integers(1, 5), label="batches")):
        core = data.draw(st.integers(0, m.topo.total_cores - 1))
        ch = m._chiplet_of_core[core]
        blocks = data.draw(st.lists(st.integers(0, pool - 1),
                                    min_size=32, max_size=96))
        write = data.draw(st.booleans())
        if not write and all(a < b for a, b in zip(blocks, blocks[1:])):
            blocks.reverse()  # sorted reads take the segment kernels
        cache = m.caches.caches[ch]
        h0, mi0 = cache.hits, cache.misses
        res = m.access_batch(core, region, np.asarray(blocks, dtype=np.int64),
                             now=now, write=write)
        now += res.ns
        hits, peer, dram = oracle.batch(ch, blocks, write)
        assert (cache.hits - h0, cache.misses - mi0) == (hits, peer + dram)
        fc = res.fill_counts
        assert (fc[0], fc[1] + fc[2], fc[3] + fc[4]) == (hits, peer, dram)
        for c, lru in zip(m.caches.caches, oracle.lru):
            assert list(c.blocks()) == [shift | b for b in lru]
            assert c.evictions == oracle.evictions[c.chiplet]
            assert c.used_bytes == len(lru) * m.block_bytes
    expect = {}
    for c, lru in enumerate(oracle.lru):
        for b in lru:
            expect.setdefault(shift | b, set()).add(c)
    assert m.caches.directory == expect
    assert prof.accesses["scalar"] == 0


# --- gather declines: counted by reason, never silent ---

def test_gather_declines_are_counted_by_reason():
    m = small_test_machine(l3_blocks_per_chiplet=8)
    small = m.alloc_region(64 * 64, block_bytes=64, name="small")
    big = m.alloc_region(64 * 128, block_bytes=128, name="big")
    huge = m.alloc_region(4 * 1024, block_bytes=1024, name="huge")
    rep = m.alloc_region(64 * 64, policy=MemPolicy.REPLICATED, name="rep")
    batch = np.arange(40, dtype=np.int64)[::-1].copy()
    m.access_batch(0, small, batch, now=0.0)
    assert m.gather_declines == {"mixed_sizes": 0, "block_gt_slice": 0,
                                 "replicated": 0}
    m.access_batch(0, big, batch[:4], now=0.0)  # short: scalar, no attempt
    m.access_batch(0, small, batch, now=0.0)  # slice now holds 128 B entries
    assert m.gather_declines["mixed_sizes"] == 1
    m.access_batch(0, huge, np.array([3, 1, 2, 0] * 8), now=0.0)
    assert m.gather_declines["block_gt_slice"] == 1
    m.access_batch(0, rep, batch, now=0.0)
    assert m.gather_declines == {"mixed_sizes": 1, "block_gt_slice": 1,
                                 "replicated": 1}


def test_dse_gups_cell_records_no_gather_declines():
    from repro.bench.dse import DSE_MACHINE_SCALE
    from repro.runtime.policy import CharmStrategy
    from repro.workloads.gups import run_gups

    geo = MachineGeometry(chiplets_per_socket=4, cores_per_chiplet=8,
                          l3_mib_per_chiplet=4, mem_channels_per_socket=8)
    m = geo.build(scale=DSE_MACHINE_SCALE)
    prof = m.profiler = KernelProfiler()
    run_gups(m, CharmStrategy(), 48, 4 << 20, updates_per_worker=512, seed=1)
    assert m.gather_declines == {"mixed_sizes": 0, "block_gt_slice": 0,
                                 "replicated": 0}
    assert prof.accesses["scalar"] == 0


# --- memory-footprint smoke: SoA state must not exceed the dict layout ---

def test_soa_state_smaller_than_dict_layout_at_perf_sizes():
    """The SoA columns must stay within the dict-of-objects footprint.

    Fills a ``milan(scale=32)`` machine's slices well past capacity with
    gups-style random writes (the perf-suite shape), then compares the
    resident bytes of the SoA cache/directory state against the modelled
    pre-SoA layout for the same contents.
    """
    m = milan(scale=32)
    agg_l3 = m.l3_bytes_per_chiplet * m.topo.total_chiplets
    region = m.alloc_region(4 * agg_l3, node=0,
                            policy=MemPolicy.INTERLEAVE, name="smoke")
    rng = np.random.default_rng(7)
    now = 0.0
    for core in range(0, m.topo.total_cores, 4):
        idx = rng.integers(0, region.n_blocks, size=2048, dtype=np.int64)
        now += m.access_batch(core, region, idx, now=now, write=True).ns
    caches = m.caches
    assert caches.check_directory_consistent()
    soa, dict_layout = caches.state_nbytes(), caches.dict_layout_nbytes()
    assert soa <= dict_layout, (
        f"SoA cache state ({soa:,} B) exceeds the modelled dict layout "
        f"({dict_layout:,} B)")
