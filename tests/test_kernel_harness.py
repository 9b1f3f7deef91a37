"""Shared forced-scalar harness for the access-kernel equivalence suites.

``Machine.access_batch``/``access_run`` route batches through the numpy
kernels of :mod:`repro.hw.vector`; the scalar loop is the reference they
must match **bit for bit**.  ``test_vector_kernels``,
``test_hitpath_equivalence`` and ``test_gather_equivalence`` all judge a
kernel the same way, with the pieces defined once here:

- :data:`PRESETS` — the three machine presets; :data:`MACHINES` adds
  two capacity-pressured DSE geometries.  The segment-path suites
  (vector kernels, hit path) run on the presets only: on the DSE
  geometries' small slices their sorted read batches reach the
  eviction-guard divergence pinned at the bottom of this module;
- :func:`forced_scalar` — the reference context: ``VECTOR_MIN`` raised
  beyond any batch size, so every access takes the scalar loop;
- :func:`machine_state` / :func:`assert_same_state` — the full-state
  snapshot the contract covers: the sharing directory, per-slice LRU
  contents *and order*, hit/miss/eviction/byte statistics, the
  aggregated ``bandwidth_stats`` (with the fill-latency histogram),
  every bandwidth server's ``free_at``/``busy_ns``/``wait_ns``/
  ``requests``, per-core fill counters and the access total, plus the
  directory's structural consistency.

The tests in this module check the harness itself, and pin one known
divergence of the segment path as a strict xfail.
"""

import contextlib

import pytest

import repro.hw.machine as machine_mod
from repro.hw.machine import (
    MachineGeometry,
    milan,
    sapphire_rapids,
    small_test_machine,
)
from repro.hw.memory import MemPolicy


def dse_machine(l3_mib):
    """A DSE lattice point at the sweep's scale (128): 4 MiB -> 8-block
    slices, 32 MiB -> 64-block slices — the capacity-pressured regime
    the product runs."""
    return lambda: MachineGeometry(
        chiplets_per_socket=4, cores_per_chiplet=4, l3_mib_per_chiplet=l3_mib,
        mem_channels_per_socket=4).build(scale=128)


PRESETS = {
    "small_test_machine": small_test_machine,
    "milan32": lambda: milan(scale=32),
    "sapphire_rapids32": lambda: sapphire_rapids(scale=32),
}

MACHINES = {
    **PRESETS,
    "dse_l3_4": dse_machine(4),
    "dse_l3_32": dse_machine(32),
}


@contextlib.contextmanager
def forced_scalar():
    """Disable every vector kernel for the duration (reference path)."""
    saved = machine_mod.VECTOR_MIN
    machine_mod.VECTOR_MIN = 1 << 60
    try:
        yield
    finally:
        machine_mod.VECTOR_MIN = saved


def scalar_batch(machine, core, region, blocks, now, **kw):
    """Service a batch with the vector kernels disabled (reference path)."""
    with forced_scalar():
        return machine.access_batch(core, region, list(blocks), now, **kw)


def machine_state(m):
    """Everything the equivalence contract covers, as comparable values."""
    return {
        "directory": {k: frozenset(v) for k, v in m.caches.directory.items()},
        "lru": [list(c._lru.items()) for c in m.caches.caches],
        "cache_stats": [
            (c.hits, c.misses, c.evictions, c.used_bytes) for c in m.caches.caches
        ],
        "bandwidth": m.bandwidth_stats(),
        "servers": [(sv.free_at, sv.busy_ns, sv.wait_ns, sv.requests)
                    for sv in _servers(m)],
        "counters": [m.counters.core(c).v for c in range(m.topo.total_cores)],
        "total_accesses": m.total_accesses,
    }


def _servers(m):
    """Every bandwidth server: channels, fabric links, cross-socket links."""
    for bank in m.channels._servers:
        yield from bank
    yield from m.links._servers
    yield from m.xlinks._servers.values()


def assert_same_state(m_vec, m_ref):
    sv, sr = machine_state(m_vec), machine_state(m_ref)
    for k in sv:
        assert sv[k] == sr[k], f"state mismatch in {k}"
    assert m_vec.caches.check_directory_consistent()


def core_on_other_chiplet(machine, core):
    """A core whose chiplet differs from ``core``'s (same or other socket)."""
    mine = machine._chiplet_of_core[core]
    for c, ch in enumerate(machine._chiplet_of_core):
        if ch != mine:
            return c
    pytest.skip("machine has a single chiplet")


# -- The harness itself -------------------------------------------------------

def test_forced_scalar_takes_no_kernel_and_restores():
    from repro.obs.selfprof import KernelProfiler

    m = milan(scale=32)
    r = m.alloc_region(256 * m.block_bytes, node=0, name="h")
    prof = m.profiler = KernelProfiler()
    saved = machine_mod.VECTOR_MIN
    scalar_batch(m, 0, r, range(200), 0.0)
    assert machine_mod.VECTOR_MIN == saved
    assert prof.accesses["scalar"] == 200
    assert sum(prof.accesses.values()) == 200


@pytest.mark.parametrize("field", ["lru_order", "servers", "counters"])
def test_state_snapshot_sees_divergence(field):
    """Each kind of state the snapshot covers can fail the comparison."""
    m_a, m_b = small_test_machine(), small_test_machine()
    r_a = m_a.alloc_region(64 * m_a.block_bytes, node=0, name="s")
    r_b = m_b.alloc_region(64 * m_b.block_bytes, node=0, name="s")
    scalar_batch(m_a, 0, r_a, [0, 1, 2], 0.0)
    if field == "lru_order":
        scalar_batch(m_b, 0, r_b, [2, 1, 0], 0.0)
    elif field == "servers":
        scalar_batch(m_b, 0, r_b, [0, 1, 2], 500.0)
    else:
        scalar_batch(m_b, 1, r_b, [0, 1, 2], 0.0)
    with pytest.raises(AssertionError, match="state mismatch"):
        assert_same_state(m_a, m_b)


# -- Known divergence ---------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Machine._service_segment reads its eviction guard before it flushes "
    "the pending scalar span, so the span's evictions go unseen"))
def test_eviction_guard_sees_pending_span_evictions():
    """A short miss run ahead of a hit run evicts the hit run's blocks.

    Core 0's 256-block slice holds blocks 100-355 (oldest first).  The
    sorted read ``[0..9] + [100..139]`` classifies into a 10-block miss
    run (below ``VECTOR_MIN``, left pending as a scalar span) and a
    40-block hit run.  Flushing the span fills 0-9 and evicts 100-109,
    and then every later access misses and evicts the next block: the
    scalar path makes 50 fills in 17,607 ns.  The vector path checks the
    guard before that flush and charges 40 local hits in 4,081 ns.

    Setup checks use ``pytest.fail`` so that only the equivalence
    asserts below count as the expected failure.
    """
    m_vec, m_ref = milan(scale=32), milan(scale=32)
    r_vec = m_vec.alloc_region(512 * m_vec.block_bytes, node=0,
                               policy=MemPolicy.BIND, name="guard")
    r_ref = m_ref.alloc_region(512 * m_ref.block_bytes, node=0,
                               policy=MemPolicy.BIND, name="guard")
    if m_vec.caches.caches[0].capacity_bytes != 256 * m_vec.block_bytes:
        pytest.fail("milan(scale=32) no longer has 256-block slices")
    resident = list(range(100, 356))
    now = scalar_batch(m_vec, 0, r_vec, resident, 0.0).ns
    if scalar_batch(m_ref, 0, r_ref, resident, 0.0).ns != now:
        pytest.fail("the scalar warm-up is not deterministic")
    batch = list(range(10)) + list(range(100, 140))
    res_v = m_vec.access_batch(0, r_vec, batch, now=now)
    res_r = scalar_batch(m_ref, 0, r_ref, batch, now)
    assert res_v.fill_counts == res_r.fill_counts
    assert res_v.ns == res_r.ns
    assert_same_state(m_vec, m_ref)
