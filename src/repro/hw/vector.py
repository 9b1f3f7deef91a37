"""Vectorized access kernels: batch servicing in O(channels + links) array ops.

Miss-heavy batches — the DRAM-bound streams behind the paper's Fig. 5/7
bandwidth-saturation results — used to crawl through a per-block Python
loop.  This module services an entire *vectorizable segment* of a batch
with numpy array operations instead:

- arrival times are one exact cumulative sum (issue steps depend only on
  pure latency, never on queue backpressure, so they are known up front);
- each memory channel / fabric link / cross-socket link replays its
  max-plus queue recurrence ``free = max(free, t_i) + s`` over the batch's
  arrivals grouped by server (:func:`serve_constant`);
- LRU insert/evict and directory updates are bulk operations
  (:meth:`repro.hw.cache.CacheSystem.fill_run`).

Everything here is **bit-identical** to the scalar path.  Floating-point
addition is not associative, so the kernels never substitute closed-form
products for the scalar path's sequential accumulation: every float chain
the scalar loop builds one ``+=`` at a time is rebuilt here with a seeded
``np.cumsum`` (numpy accumulates left-to-right in IEEE double, exactly
like the interpreter), and every comparison runs on those exact values.
The equivalence contract is enforced by the hypothesis property suite in
``tests/test_vector_kernels.py`` and ``tests/test_access_batch_equivalence.py``.

Unsorted, duplicate-laden or write batches go whole to
:func:`gather_segment`.  Within one batch the requester's L3 slice is the
only state the batch's own accesses feed back into: a miss's peer holders
are the pre-batch directory mask minus the requester's bit, or none once
an earlier write-touch of the block in the same batch dropped every other
copy (the miss then fills from DRAM with 0 invalidations).  So one exact
key-level replay of that slice's LRU — pop and re-insert on a hit, evict
from the front on a full-slice miss — fixes every access's class, and the
rest is array ops.  The kernel never declines on capacity pressure; it
declines, mutating nothing, only when the slice holds entries of another
block size or the block exceeds the slice.

Sorted spans (and batches the gather kernel declined) are split into
*segments*: maximal duplicate-free spans (repeated blocks cut segment
boundaries), classified per *run* of equal service class by
``Machine._service_segment`` (see MODELING.md for the full table):

- **miss** runs — blocks resident in no L3 slice — go to
  :func:`dram_fill_segment` (pure DRAM fills; writes service like reads
  because there are no sharers to invalidate);
- **hit** runs — blocks resident in the requester's own slice — go to
  :func:`local_hit_segment` (one bulk LRU touch, no servers);
- **one-peer** runs — read fills whose deterministic min-id holder is
  the same remote slice — go to :func:`peer_fill_segment`;
- everything else (REPLICATED regions, non-uniform sizes, writes that
  invalidate sharers, mixed-holder spans, short runs) falls back to the
  scalar loop, with boundaries chosen conservatively.

The hot shape — a BIND-region arithmetic run (sequential or strided
scan) arriving at an idle machine — additionally takes a *joint* fast
path: when no server queues anywhere in the segment, every delay equals
its pure service expression, so the per-server grouping collapses into a
handful of whole-segment array ops plus O(channels) scalar accounting.
"""

from itertools import islice, repeat
from math import gcd
from typing import List, Optional, Tuple

import numpy as np

from repro.hw.counters import (
    IDX_DRAM_LOCAL,
    IDX_DRAM_REMOTE,
    IDX_LOCAL_CHIPLET,
    IDX_REMOTE_CHIPLET,
    IDX_REMOTE_NUMA_CHIPLET,
)
from repro.hw.memory import MemPolicy

# Fill-source counter index per service-class code (0 resident hit,
# 1/2 local/remote DRAM, 3/4 same/cross-socket peer).
_LUT_SRC = np.array(
    (IDX_LOCAL_CHIPLET, IDX_DRAM_LOCAL, IDX_DRAM_REMOTE,
     IDX_REMOTE_CHIPLET, IDX_REMOTE_NUMA_CHIPLET),
    dtype=np.int64,
)

# Above this many repeats, replaying a constant ``+= s`` chain with a
# seeded cumsum beats the interpreter loop; below it, the numpy call
# overhead dominates.
_CHAIN_LOOP_MAX = 48

# A queueing batch is served either by an interpreter replay of
# ``_Server.service`` (~1 us per arrival) or by the busy-period cumsum
# replay (a handful of numpy passes per busy period).  The interpreter
# wins when periods are dense relative to arrivals: python_cost ~ m,
# numpy_cost ~ periods * this many arrival-equivalents per pass.
_SERVE_PERIOD_COST = 9

# The breadth-first period replay chains *all* busy periods at once with
# one vector add per queue position, so its cost is ~6 numpy ops per
# *longest* period instead of per period.  Past this depth a single
# dense period is cheaper through the per-period cumsum.
_SERVE_VEC_MAX_DEPTH = 32


def _chain(x0: float, m: int, s: float) -> float:
    """Endpoint of ``m`` sequential ``x0 += s`` updates, bit-exactly.

    Floating-point addition is not associative, so ``x0 + m * s`` would
    diverge from the scalar loop; a seeded ``np.cumsum`` accumulates
    left-to-right in IEEE double exactly like the interpreter.
    """
    if m <= _CHAIN_LOOP_MAX:
        for _ in range(m):
            x0 += s
        return x0
    acc = np.empty(m + 1)
    acc[0] = x0
    acc[1:] = s
    return float(acc.cumsum()[-1])


def _accumulate_busy(server, m: int, s: float) -> None:
    """Replay ``m`` sequential ``busy_ns += s`` updates, bit-exactly."""
    server.busy_ns = _chain(server.busy_ns, m, s)


def _per_row(mat, first: int, m: int, rem: int) -> list:
    """Per-channel chain endpoints from a seeded cumsum matrix.

    Row ``r`` of ``mat`` holds channel ``r``'s chain; channels ``r < rem``
    absorbed ``m`` arrivals (endpoint at column ``m``), the rest ``m - 1``.
    Two slices + ``tolist`` replace ``first`` scalar ``float(mat[r, k])``
    extractions.
    """
    out = mat[:rem, m].tolist()
    if rem < first:
        out += mat[rem:first, m - 1].tolist()
    return out


_ARANGE = np.arange(4096)


def _arange(k: int) -> np.ndarray:
    """Memoized ``np.arange(k)`` (read-only use only)."""
    global _ARANGE
    if k > _ARANGE.shape[0]:
        _ARANGE = np.arange(2 * k)
    return _ARANGE[:k]


def serve_groups(servers: list, t: np.ndarray, bounds: np.ndarray,
                 s_row: np.ndarray) -> np.ndarray:
    """Serve several independent servers' arrival groups in one matrix pass.

    ``t[bounds[g]:bounds[g+1]]`` holds group ``g``'s nondecreasing arrival
    times for ``servers[g]`` with constant service time ``s_row[g]`` —
    different rows may carry different service times, so DRAM channels,
    peer fabric links and cross-socket links all batch into *one* call.
    Equivalent to one :func:`serve_constant` call per group —
    bit-identically, including all server-state updates — but the cost
    is one set of numpy ops over a ``groups x longest-group`` matrix
    instead of ~a dozen ops *per group*.  The servers must be pairwise
    distinct (each row's state evolves independently).

    The matrix path requires a row to be head-drain shaped (arrivals
    spaced at least ``s_row[g]`` apart, so any queue backlog carried in
    from earlier batches only shrinks): the row chain is then a seeded
    row cumsum up to the drain point and plain ``t + s`` after it.
    Internally dense rows are served by :func:`serve_constant`
    individually; the returned delay vector always covers every group.
    """
    ng = len(servers)
    length = np.diff(bounds)
    max_l = int(length.max())
    col = _arange(max_l)
    valid = col < length[:, None]
    tm = np.full((ng, max_l), np.inf)
    tm[valid] = t
    sg = s_row[:, None]
    if max_l > 1:
        # +inf padding makes every pad gap trivially ok.
        ok = (tm[:, 1:] >= tm[:, :-1] + sg).all(axis=1)
        all_ok = bool(ok.all())
    else:
        all_ok = True
    d_out = None
    if not all_ok:
        # Dense rows replay through the sequential server; the matrix
        # path below then runs on the surviving head-drain rows only.
        d_out = np.empty(t.shape[0])
        for g in np.flatnonzero(~ok).tolist():
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            d_out[lo:hi], _ = serve_constant(servers[g], t[lo:hi],
                                             float(s_row[g]))
        if not bool(ok.any()):
            return d_out
        keep = np.repeat(ok, length)
        servers = [sv for g, sv in enumerate(servers) if ok[g]]
        tm = tm[ok]
        valid = valid[ok]
        length = length[ok]
        sg = sg[ok]
        ng = len(servers)
        max_l = int(length.max())
        if max_l < tm.shape[1]:
            tm = tm[:, :max_l]
            valid = valid[:, :max_l]
            col = col[:max_l]
    rows = _arange(ng)
    heads = tm[:, 0]
    attrs = np.fromiter((x for sv in servers
                         for x in (sv.free_at, sv.busy_ns, sv.wait_ns)),
                        dtype=np.float64, count=3 * ng).reshape(ng, 3)
    if bool((attrs[:, 0] <= heads).all()):
        # Every row starts idle and stays idle (arrivals spaced >= s):
        # each arrival departs at ``t + s`` with zero wait, so the wait
        # chain adds +0.0 per arrival — a bitwise no-op on the
        # non-negative accumulator — and only the busy chain needs a
        # sequential replay.
        fm = tm + sg
        am = np.empty((ng, max_l + 1))
        am[:, 0] = attrs[:, 1]
        am[:, 1:] = sg
        np.cumsum(am, axis=1, out=am)
        busy_end = am[rows, length].tolist()
        free_end = fm[rows, length - 1].tolist()
        len_l = length.tolist()
        for g, sv in enumerate(servers):
            sv.free_at = free_end[g]
            sv.busy_ns = busy_end[g]
            sv.requests += len_l[g]
        if d_out is None:
            return fm[valid] - t
        d_out[keep] = fm[valid] - t[keep]
        return d_out
    start0 = np.maximum(attrs[:, 0], heads)
    # Candidate finishes assuming each row stays queued: the exact
    # sequential ``+= s`` chain, seeded per row, replayed left-to-right
    # by one row-wise cumsum — stacked with the busy_ns accumulator
    # chains, which replay the same ``+= s`` adds and whose seeds are
    # already known here (the wait chains below are not: they need
    # ``cm`` first).  ``cm``'s extra pad column sits past every row's
    # last arrival and is never read.
    big = np.empty((2 * ng, max_l + 1))
    big[:ng, 0] = attrs[:, 1]
    big[:ng, 1:] = sg
    big[ng:, 0] = start0 + sg[:, 0]
    big[ng:, 1:] = sg
    np.cumsum(big, axis=1, out=big)
    busy_end = big[rows, length].tolist()
    cm = big[ng:, :max_l]
    # First arrival that finds its server idle; +inf padding guarantees
    # a hit at the first pad cell, so rows without one drain at length.
    # (All-singleton groups have no drain candidates: the head IS the
    # row, and ``start0`` already folded its idle-vs-queued choice in.)
    if max_l > 1:
        drained = cm[:, : max_l - 1] <= tm[:, 1:]
        # A short row always drains at its first +inf pad cell, so only
        # a full-width all-False row needs the ``length`` fallback —
        # distinguishable from a first-column drain without a full
        # ``any`` scan.
        j = np.argmax(drained, axis=1) + 1
        j = np.where((j > 1) | drained[:, 0], j, length)
    else:
        j = length
    queued = col < j[:, None]
    fm = np.where(queued, cm, tm + sg)
    # Per-server wait_ns accumulator chains, seeded row cumsums with
    # endpoints at each row's true length; the wait values land directly
    # in the chain matrix (pad cells are +0.0 and sit past each
    # endpoint).
    am = np.empty((ng, max_l + 1))
    am[:, 0] = attrs[:, 2]
    am[:, 1] = start0 - heads
    if max_l > 1:
        am[:, 2:] = np.where(queued[:, 1:], cm[:, : max_l - 1] - tm[:, 1:],
                             0.0)
    np.cumsum(am, axis=1, out=am)
    wait_end = am[rows, length].tolist()
    free_end = fm[rows, length - 1].tolist()
    len_l = length.tolist()
    for g, sv in enumerate(servers):
        sv.free_at = free_end[g]
        sv.busy_ns = busy_end[g]
        sv.wait_ns = wait_end[g]
        sv.requests += len_l[g]
    if d_out is None:
        return fm[valid] - t
    d_out[keep] = fm[valid] - t[keep]
    return d_out


def serve_constant(server, t: np.ndarray, s: float) -> Tuple[np.ndarray, np.ndarray]:
    """Serve ``m`` arrivals at nondecreasing times ``t`` with constant service ``s``.

    Bit-exact replay of ``m`` sequential ``_Server.service(t[i], s)`` calls,
    including the server's ``free_at`` / ``busy_ns`` / ``wait_ns`` /
    ``requests`` updates.  Returns ``(total_delay, queue_wait)`` arrays.

    Within one busy period the scalar recurrence degenerates to repeated
    addition of ``s`` — reproduced exactly by a seeded ``np.cumsum`` — so
    the only sequential work left is locating busy-period boundaries:
    one numpy comparison per period (and a single vectorized check when
    the server never queues at all).
    """
    m = t.shape[0]
    if m == 0:
        return np.empty(0), np.empty(0)
    free = server.free_at
    # Fast path: no queueing anywhere in the batch (idle server at every
    # arrival).  ``t[i] >= t[i-1] + s`` uses the exact finish values the
    # scalar loop would compare against.
    n_gaps = 0
    if m > 1:
        gaps = t[1:] >= t[:-1] + s
        if bool(gaps.all()):
            if free <= t[0]:
                f = t + s
                server.free_at = float(f[-1])
                server.requests += m
                _accumulate_busy(server, m, s)
                # Every wait is ``t[i] - t[i] == +0.0`` and the scalar
                # chain ``wait_ns += 0.0`` leaves a non-negative
                # accumulator bit-unchanged.
                return f - t, np.zeros(m)
            # Head-drain: the server starts busy (carryover from an
            # earlier batch) but arrivals are spaced >= s apart, so the
            # backlog only shrinks — once one arrival finds the server
            # idle, every later one does too.  The busy head is one
            # seeded cumsum (the exact ``+= s`` chain); everything after
            # the drain point is a plain idle ``t + s``.
            c = np.empty(m)
            c[0] = free + s
            c[1:] = s
            c = np.cumsum(c)
            drained = c[:-1] <= t[1:]
            # argmax == 0 is ambiguous (drain at 1 vs never): one scalar
            # probe resolves it without a second full scan.
            j0 = int(np.argmax(drained))
            j = j0 + 1 if (j0 or bool(drained[0])) else m
            f = np.empty(m)
            f[:j] = c[:j]
            w = np.empty(m)
            w[0] = free - t[0]
            w[1:j] = c[: j - 1] - t[1:j]
            if j < m:
                f[j:] = t[j:] + s
                w[j:] = 0.0
            server.free_at = float(f[-1])
            server.requests += m
            # One stacked cumsum replays both accumulator chains (the
            # busy ``+= s`` chain and the wait chain) row-by-row — the
            # same left-to-right float adds as two separate chains.
            acc = np.empty((2, m + 1))
            acc[0, 0] = server.busy_ns
            acc[0, 1:] = s
            acc[1, 0] = server.wait_ns
            acc[1, 1:] = w
            np.cumsum(acc, axis=1, out=acc)
            server.busy_ns = float(acc[0, -1])
            server.wait_ns = float(acc[1, -1])
            return f - t, w
        # Idle gaps under the no-queue assumption estimate busy-period
        # starts (queue carryover only merges periods, never adds any).
        n_gaps = int(np.count_nonzero(gaps))
    elif free <= t[0]:
        f = t + s
        server.free_at = float(f[-1])
        server.requests += 1
        _accumulate_busy(server, 1, s)
        return f - t, np.zeros(1)
    if n_gaps and m >= 10:
        # Breadth-first period replay: chain every provisional busy
        # period simultaneously, one ``+= s`` vector add per queue depth
        # — the same left-to-right float accumulation as the scalar loop,
        # applied to all period heads at once.  Provisional starts (idle
        # gaps) are a superset of true starts, so the result is valid iff
        # every provisional start really found the server idle; that is
        # checked before any state is touched, falling back to the exact
        # sequential paths below when queue backlog carried across a gap.
        ps = np.empty(n_gaps + 1, dtype=np.int64)
        ps[0] = 0
        ps[1:] = np.flatnonzero(gaps) + 1
        ends = np.empty(n_gaps + 1, dtype=np.int64)
        ends[:-1] = ps[1:]
        ends[-1] = m
        if int((ends - ps).max()) <= _SERVE_VEC_MAX_DEPTH:
            bases = t[ps]
            if free > t[0]:
                bases[0] = free
            curq = bases + s
            f = np.empty(m)
            w = np.zeros(m)
            f[ps] = curq
            if free > t[0]:
                w[0] = free - t[0]
            pos = ps + 1
            en = ends
            while True:
                alive = pos < en
                if not bool(alive.all()):
                    pos = pos[alive]
                    if not pos.size:
                        break
                    en = en[alive]
                    curq = curq[alive]
                prev = curq           # = free before this arrival (queued)
                curq = curq + s
                f[pos] = curq
                w[pos] = prev - t[pos]
                pos = pos + 1
            if bool((f[ps[1:] - 1] <= t[ps[1:]]).all()):
                server.free_at = float(f[-1])
                server.requests += m
                _accumulate_busy(server, m, s)
                acc = np.empty(m + 1)
                acc[0] = server.wait_ns
                acc[1:] = w
                server.wait_ns = float(np.cumsum(acc)[-1])
                return f - t, w
    if m < _SERVE_PERIOD_COST * (n_gaps + 1):
        # Dense busy periods (scattered arrivals, short queues): an
        # interpreter replay of ``_Server.service`` — same float ops,
        # same order — beats per-busy-period numpy passes.
        busy = server.busy_ns
        waits = server.wait_ns
        d_l: List[float] = []
        w_l: List[float] = []
        for now in t.tolist():
            start = free if free > now else now
            free = start + s
            busy += s
            w = start - now
            waits += w
            d_l.append(free - now)
            w_l.append(w)
        server.free_at = free
        server.busy_ns = busy
        server.wait_ns = waits
        server.requests += m
        return np.asarray(d_l), np.asarray(w_l)
    f = np.empty(m)
    start = np.empty(m)
    i = 0
    while i < m:
        s0 = free if free > t[i] else t[i]
        seg = np.empty(m - i + 1)
        seg[0] = s0
        seg[1:] = s
        fc = np.cumsum(seg)[1:]  # candidate finishes for i .. m-1
        if i + 1 < m:
            # The busy period ends at the first arrival that finds the
            # server idle (strictly later than the previous finish;
            # equality keeps the same values either way).
            idle = t[i + 1:] > fc[:-1]
            j = i + 1 + int(np.argmax(idle)) if idle.any() else m
        else:
            j = m
        f[i:j] = fc[: j - i]
        start[i] = s0
        if j - i > 1:
            start[i + 1 : j] = fc[: j - i - 1]
        free = float(f[j - 1])
        i = j
    server.free_at = float(f[-1])
    server.requests += m
    _accumulate_busy(server, m, s)
    # wait_ns accumulates one += w per request; a seeded cumsum replays
    # that chain in order, bit-exactly.
    wait = start - t
    acc = np.empty(m + 1)
    acc[0] = server.wait_ns
    acc[1:] = wait
    server.wait_ns = float(np.cumsum(acc)[-1])
    return f - t, wait


def dram_fill_segment(
    machine,
    region,
    chiplet: int,
    my_node: int,
    blocks: np.ndarray,
    keys: np.ndarray,
    keys_list: List[int],
    t0: float,
    req_bytes: int,
    per_issue_ns: float,
    mlp: float,
    lat_local: float,
    lat_remote: float,
) -> Tuple[float, float, int, int]:
    """Service a vectorizable segment of pure DRAM fills.

    Preconditions (established by the caller): ``blocks`` are distinct,
    in range, resident in no slice, and the region is BIND or INTERLEAVE.
    Mutates channel/link/xlink servers, the requester's LRU slice, the
    directory, and the slice's eviction counter — all bit-identically to
    the scalar loop.

    Returns ``(t_end, finish, n_local, n_remote)`` where ``t_end`` is the
    issue clock after the segment and ``finish`` the segment's slowest
    completion.
    """
    n = blocks.shape[0]
    lat = machine.latency
    channels = machine.channels
    cps = channels.channels_per_socket
    s_chan = req_bytes / channels.bytes_per_ns
    s_link = req_bytes / machine.links.bytes_per_ns
    s_xlink = req_bytes / machine.xlinks.bytes_per_ns
    link = machine.links.server(chiplet)

    if region.policy is MemPolicy.BIND:
        home = region.home_node
        local = home == my_node
        base = lat.dram_local if local else lat.dram_remote
        # One scalar step for the whole segment: the issue clock is a
        # seeded cumsum of a constant.
        step = (lat_local if local else lat_remote) / mlp
        if per_issue_ns > 0.0 and step < per_issue_ns:
            step = per_issue_ns
        tf = np.empty(n + 1)
        tf[0] = t0
        tf[1:] = step
        tf = np.cumsum(tf)
        t = tf[:-1]
        t_end = float(tf[-1])

        res = _bind_arith_segment(
            machine, blocks, keys_list, t, base, home, local,
            my_node, cps, s_chan, s_link, s_xlink, link,
        )
        if res is not None:
            finish = res
            machine.caches.fill_run(chiplet, keys_list, region.block_bytes)
            fl = machine._fill_lat
            src = IDX_DRAM_LOCAL if local else IDX_DRAM_REMOTE
            fl[src] = _chain(fl[src], n, lat_local if local else lat_remote)
            return t_end, finish, n if local else 0, 0 if local else n

        homes = None
        remote_mask = None
    else:  # INTERLEAVE
        homes = blocks % region.numa_nodes
        local_mask = homes == my_node
        remote_mask = ~local_mask
        base = np.where(local_mask, lat.dram_local, lat.dram_remote)
        lat_arr = np.where(local_mask, lat_local, lat_remote)

        # Issue clock: steps depend only on pure latency, so every arrival
        # time is known before any queue is consulted.  Seeded cumsum ==
        # the scalar loop's sequential ``t += step``.
        step = lat_arr / mlp
        if per_issue_ns > 0.0:
            step = np.where(step > per_issue_ns, step, per_issue_ns)
        tf = np.empty(n + 1)
        tf[0] = t0
        tf[1:] = step
        tf = np.cumsum(tf)
        t = tf[:-1]
        t_end = float(tf[-1])

    # Per-channel max-plus recurrence, grouped by owning channel.
    d_chan = np.empty(n)
    chan_of = keys % cps
    if homes is None:
        sort_key = chan_of
    else:
        sort_key = homes * cps + chan_of
    order = np.argsort(sort_key, kind="stable")
    sorted_key = sort_key[order]
    group_bounds = [0, *(np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1).tolist(), n]
    for gi in range(len(group_bounds) - 1):
        b0 = group_bounds[gi]
        b1 = group_bounds[gi + 1]
        idx = order[b0:b1]
        sk = int(sorted_key[b0])
        socket = home if homes is None else sk // cps
        server = channels.server(socket, sk % cps)
        d, _ = serve_constant(server, t[idx], s_chan)
        d_chan[idx] = d

    # The requester's fabric link sees every access, in batch order.
    d_link, _ = serve_constant(link, t, s_link)

    ns = (base + d_chan) + d_link
    if homes is None:
        if not local:
            server = machine.xlinks.server(my_node, home)
            d_x, _ = serve_constant(server, t, s_xlink)
            ns = ns + d_x
        n_local = n if local else 0
    else:
        for h in np.unique(homes[remote_mask]) if remote_mask.any() else ():
            idx = np.flatnonzero(homes == h)
            server = machine.xlinks.server(my_node, int(h))
            d_x, _ = serve_constant(server, t[idx], s_xlink)
            ns[idx] = ns[idx] + d_x
        n_local = int(np.count_nonzero(local_mask))

    finish = float((t + ns).max())
    machine.caches.fill_run(chiplet, keys_list, region.block_bytes)
    # Per-source fill-latency histogram: within this segment each source's
    # accumulator receives its own pure-latency constant once per access,
    # so the scalar ``+=`` chain is order-independent across the interleave
    # and replays as one chain per source.
    fl = machine._fill_lat
    if n_local:
        fl[IDX_DRAM_LOCAL] = _chain(fl[IDX_DRAM_LOCAL], n_local, lat_local)
    if n - n_local:
        fl[IDX_DRAM_REMOTE] = _chain(fl[IDX_DRAM_REMOTE], n - n_local, lat_remote)
    return t_end, finish, n_local, n - n_local


def _bind_arith_segment(
    machine, blocks, keys_list, t, base, home, local,
    my_node, cps, s_chan, s_link, s_xlink, link,
):
    """Joint channel servicing for a BIND arithmetic run.

    When the segment's blocks form an arithmetic progression with stride
    ``q``, its arrivals hit the home socket's channels cyclically with
    period ``p = cps / gcd(|q|, cps)``: arrival ``i`` is the ``i // p``-th
    visit to channel ``(c0 + (i % p) * q) % cps``.  That structure
    collapses the per-channel grouping (argsort + fancy indexing) into
    strided views, and lets the two steady-state regimes be serviced for
    *all* channels jointly:

    - **idle** (no channel ever queues): every delay is its pure service
      expression ``(t + s) - t``, one whole-segment comparison proves
      idleness for every channel at once, and ``wait_ns`` accumulators
      are bit-unchanged (each wait is ``+0.0``);
    - **backlogged** (every channel busy at every arrival — the saturated
      stream the paper's bandwidth plots are built on): each channel's
      finish times are a pure ``free += s`` chain independent of the
      arrivals, so one 2-D seeded ``np.cumsum`` (row per channel, axis=1
      accumulates left-to-right like the interpreter) replays every
      chain, and one interleave/compare validates the regime.

    Anything in between falls back to per-channel
    :func:`serve_constant` over strided views.  The requester link (and
    cross-socket link when remote) always goes through
    :func:`serve_constant` — they are single servers, not banks.

    Returns the segment's ``finish`` time, or ``None`` when the blocks
    are not an arithmetic progression (caller uses the grouped path).
    """
    n = blocks.shape[0]
    if n < 2:
        return None
    q = int(blocks[1]) - int(blocks[0])
    if q == 0 or not bool((blocks[2:] - blocks[1:-1] == q).all()):
        return None
    p = cps // gcd(abs(q), cps)
    first = p if p < n else n  # number of distinct channels visited
    channels = machine.channels
    c0 = keys_list[0] % cps
    servers = [channels.server(home, (c0 + r * q) % cps) for r in range(first)]

    # Arrivals per channel: the first ``rem`` residues see ``m`` arrivals,
    # the rest ``m - 1`` (m_r == (n - 1 - r) // p + 1).
    m = (n + p - 1) // p
    rem = n - (m - 1) * p

    d_chan = None
    idle = True
    for r in range(first):
        if servers[r].free_at > t[r]:
            idle = False
            break
    if idle and n > p:
        idle = bool((t[p:] >= t[:-p] + s_chan).all())
    if idle:
        # Delays replay the scalar loop's ``(now + s) - now`` per access;
        # waits are identically +0.0, leaving wait_ns bit-unchanged.
        d_chan = (t + s_chan) - t
        # One seeded 2-D cumsum replays every channel's busy_ns chain.
        busy = np.empty((first, m + 1))
        busy[:, 0] = [srv.busy_ns for srv in servers]
        busy[:, 1:] = s_chan
        busy = np.cumsum(busy, axis=1)
        new_busy = _per_row(busy, first, m, rem)
        last = t.take([r + (((m if r < rem else m - 1)) - 1) * p
                       for r in range(first)]).tolist()
        for r in range(first):
            srv = servers[r]
            srv.requests += m if r < rem else m - 1
            srv.busy_ns = new_busy[r]
            srv.free_at = last[r] + s_chan
    else:
        # Candidate backlogged regime: chain every channel's finishes.
        # free_at and busy_ns advance by the same constant, so one 2-D
        # seeded cumsum replays both chains for every channel.
        mat = np.empty((2 * first, m + 1))
        mat[:first, 0] = [srv.free_at for srv in servers]
        mat[first:, 0] = [srv.busy_ns for srv in servers]
        mat[:, 1:] = s_chan
        mat = np.cumsum(mat, axis=1)
        chain = mat[:first]
        # chain[r, k] = channel r's free time before its k-th arrival;
        # interleave rows back into arrival order (i -> row i % p).
        free_before = chain[:, :-1].T.ravel()[:n]
        if bool((free_before >= t).all()):
            d_chan = chain[:, 1:].T.ravel()[:n] - t
            waits = free_before - t
            acc = np.empty((first, m + 1))
            acc[:, 0] = [srv.wait_ns for srv in servers]
            padded = np.zeros(first * m)
            padded[:n] = waits
            acc[:, 1:] = padded.reshape(m, first).T
            acc = np.cumsum(acc, axis=1)
            new_free = _per_row(chain, first, m, rem)
            new_busy = _per_row(mat[first:], first, m, rem)
            new_wait = _per_row(acc, first, m, rem)
            for r in range(first):
                srv = servers[r]
                srv.requests += m if r < rem else m - 1
                srv.free_at = new_free[r]
                srv.busy_ns = new_busy[r]
                srv.wait_ns = new_wait[r]
    if d_chan is None:
        # Mixed regime (e.g. the segment where a stream first saturates):
        # per-channel recurrence over strided views, no argsort needed.
        d_chan = np.empty(n)
        for r in range(first):
            sl = slice(r, None, p)
            d, _ = serve_constant(servers[r], t[sl], s_chan)
            d_chan[sl] = d

    d_link, _ = serve_constant(link, t, s_link)
    ns = (base + d_chan) + d_link
    if not local:
        xsrv = machine.xlinks.server(my_node, home)
        d_x, _ = serve_constant(xsrv, t, s_xlink)
        ns = ns + d_x
    return float((t + ns).max())


def _lru_replay(slot_map: dict, keys_list: List[int], fresh: List[int],
                probe: List[int]) -> Tuple[List[int], List[int]]:
    """Replay a batch's accesses against one LRU slice, in place.

    Exactly the scalar loop's slice mechanics, and nothing else: a
    resident key is popped and re-inserted (recency refresh, slot carried
    along); a missing key takes a slot from ``fresh`` while the slice has
    room, otherwise it evicts the front entry and reuses its slot.  Slots
    are interchangeable because the slice is uniformly sized on entry.

    Only the ``probe`` positions (ascending) can hit: every other access
    is the first touch of a block the slice did not hold at batch start,
    a certain miss.  A run of certain misses is replayed in bulk — fill
    the free slots, then evict the run's length from the front (the run
    evicts its own head once the slice's entries are exhausted) — with a
    few C-level dict passes instead of one interpreter step per access,
    which also keeps ``next(iter(slot_map))`` (whose cost grows with the
    deleted-entry holes at the front of a large dict) off the common path.

    Returns ``(missed, victims)``: the probe positions that missed, and
    the evicted keys in eviction order (a key the batch evicts and
    re-fills appears once per eviction).
    """
    pop = slot_map.pop
    victims: List[int] = []
    missed: List[int] = []
    n = len(keys_list)
    pos = 0
    for q in (*probe, n):
        if q > pos:
            run = keys_list[pos:q]
            r = min(len(fresh), len(run))
            if r:
                slot_map.update(zip(run[:r], fresh[len(fresh) - r:]))
                del fresh[len(fresh) - r:]
                run = run[r:]
            k = len(run)
            if k:
                if k < len(slot_map):
                    out = list(islice(slot_map, k))
                    slots = list(map(pop, out))
                else:
                    out = list(slot_map)
                    slots = list(slot_map.values())
                    slot_map.clear()
                    out += run[:k - len(slots)]
                    run = run[k - len(slots):]
                victims += out
                slot_map.update(zip(run, slots))
        if q == n:
            break
        key = keys_list[q]
        s = pop(key, None)
        if s is None:
            missed.append(q)
            if fresh:
                s = fresh.pop()
            else:
                v = next(iter(slot_map))
                s = pop(v)
                victims.append(v)
        slot_map[key] = s
        pos = q + 1
    return missed, victims


def gather_segment(
    machine,
    region,
    chiplet: int,
    my_node: int,
    arr: np.ndarray,
    keys: np.ndarray,
    t0: float,
    req_bytes: int,
    write: bool,
    per_issue_ns: float,
    mlp: float,
    lats: Tuple[float, float, float, float],
    counts: List[int],
    state: list,
) -> Optional[bool]:
    """Service a whole unsorted, duplicate-laden batch in array ops.

    The irregular-access kernel: it takes the batch exactly as the
    workload issued it — random order, repeats, capacity pressure and
    all — and services every access class at once.

    **Why one replay suffices.**  Within one batch the requester's slice
    is the only state the batch's own accesses feed back into.  Fills
    and evictions touch only the requester's slice and its directory
    bit; reads never change another chiplet's copy; a write drops every
    *other* copy of the block it touches.  So the peer holders a miss
    can be served from (``others``, the directory mask minus the
    requester's bit) are either the pre-batch mask or, after an earlier
    write-touch of that block in this batch, empty — and then the miss
    fills from DRAM with 0 invalidations.  Everything a per-access class
    depends on is therefore fixed up front except *residency in the
    requester's slice*, which one exact LRU replay supplies:

    1. **argsort** the block vector (stable) and read each *unique*
       block's pre-batch holder mask from the directory's bitmask column;
    2. **replay the slice** (:func:`_lru_replay`): a key-level pass over
       the live slot dict — pop and re-insert on a hit, evict from the
       front on a full-slice miss — recording which accesses missed and
       which keys were evicted, in order.  It makes no server calls.  A
       block the batch evicted and touches again is a miss with a known
       fill source; a repeat that is still resident is a local hit.
       When ``len0 + non-resident uniques <= capacity`` no eviction can
       happen and there is nothing to replay: a unique's first touch
       services as classified and every repeat is a hit;
    3. build per-access class codes (hit, local/remote DRAM, same/cross
       socket peer with the min-id holder as a lowest-set-bit), one
       seeded cumsum of issue steps, and serve every bank's arrivals
       **merged across classes in batch order** (:func:`serve_groups`);
    4. apply directory, peer-invalidation, and counter state in bulk.

    Preconditions (checked here, not by the caller): a BIND or
    INTERLEAVE region (the caller routes REPLICATED batches scalar) whose
    block fits the slice, and a slice whose resident entries all have
    the region's block size.  On failure the kernel counts the reason in
    ``machine.gather_declines`` and returns ``None`` with **no state
    mutated**; the caller falls back to the segment/scalar path.
    Otherwise it returns ``True`` when the batch had duplicates, else
    ``False``.
    """
    caches = machine.caches
    cache = caches.caches[chiplet]
    nb = region.block_bytes
    cap = cache.capacity_bytes
    if nb > cap:
        machine.gather_declines["block_gt_slice"] += 1
        return None
    slot_map = cache._slot
    len0 = len(slot_map)
    if (len0 and cache._uniform_nb != nb) or cache.used_bytes != len0 * nb:
        machine.gather_declines["mixed_sizes"] += 1
        return None
    n = arr.shape[0]

    # -- 1. argsort -> unique blocks + per-access unique index --------------
    perm = np.argsort(arr, kind="stable")
    sorted_arr = arr[perm]
    newgrp = np.empty(n, dtype=bool)
    newgrp[0] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=newgrp[1:])
    starts = np.flatnonzero(newgrp)
    nu = starts.shape[0]
    has_dups = nu < n
    # Stable sort keeps equal blocks in batch order, so a group's first
    # member is its first occurrence.
    first_pos = perm[starts]
    ukeys = keys[first_pos]  # ascending: keys are blocks plus one offset
    ukeys_list = ukeys.tolist()

    dir_slot = caches._dir_slot
    dslots = np.fromiter(map(dir_slot.get, ukeys_list, repeat(-1)),
                         dtype=np.int64, count=nu)
    present = dslots >= 0
    masks = np.zeros(nu, dtype=np.int64)
    masks[present] = caches._dir_mask[dslots[present]]
    bit = 1 << chiplet
    nbit = np.int64(bit)
    res_u = (masks & nbit) != 0  # resident in requester's slice (invariant)
    others = masks & ~nbit
    n_fill_u = nu - int(np.count_nonzero(res_u))

    # -- 2. the requester slice, replayed -----------------------------------
    # With ``len0 + non-resident uniques <= capacity`` no eviction can
    # happen, so there is nothing to replay.
    room = cap // nb - len0
    replay = n_fill_u > room
    # The first touch of a block the slice does not hold is a certain
    # miss; every other access (a repeat, or a resident block's first
    # touch) is a hit unless the batch evicted the block since.
    nonhit = np.zeros(n, dtype=bool)
    nonhit[first_pos[~res_u]] = True
    if replay:
        # Exactly ``room`` fresh slots get used: the slice fills up before
        # the first eviction and never shrinks within the batch.
        fresh = cache._take_slots(room)
        cache._sizes[fresh] = nb
        missed, victims = _lru_replay(slot_map, keys.tolist(), fresh,
                                      np.flatnonzero(~nonhit).tolist())
        nonhit[missed] = True
        cache.evictions += len(victims)
        cache.used_bytes = len(slot_map) * nb
        cache._uniform_nb = nb
    miss_pos = np.flatnonzero(nonhit)
    n_miss = miss_pos.shape[0]
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.cumsum(newgrp) - 1
    miss_u = inv[miss_pos]
    # Peer holders at the time of each miss: the pre-batch mask, or none
    # once an earlier write-touch of the block dropped every other copy.
    oth_m = others[miss_u]
    if write:
        oth_m[miss_pos != first_pos[miss_u]] = 0
    peer_m = oth_m != 0

    # -- 3. per-access latency / issue-step arrays via one class-code LUT ---
    # Five service classes: 0 resident hit, 1/2 local/remote DRAM fill,
    # 3/4 same/cross-socket peer fill.
    code = np.zeros(n, dtype=np.int64)
    dpos = miss_pos[~peer_m]
    if dpos.size:
        if region.policy is MemPolicy.BIND:
            homes = np.full(dpos.size, region.home_node, dtype=np.int64)
        else:  # INTERLEAVE
            homes = arr[dpos] % region.numa_nodes
        code[dpos] = np.where(homes == my_node, 1, 2)
    ppos = miss_pos[peer_m]
    if ppos.size:
        socket_of = machine.topo.socket_of_chiplet_arr
        my_socket = int(socket_of[chiplet])
        o = oth_m[peer_m]
        same_cand = o & np.int64(caches._socket_mask[my_socket])
        cand = np.where(same_cand != 0, same_cand, o)
        low = cand & -cand
        # Min-id holder == lowest set bit; log2 of an exact power of two
        # is exact in float64.
        holders = np.log2(low.astype(np.float64)).astype(np.int64)
        code[ppos] = np.where(socket_of[holders] == my_socket, 3, 4)
    lat = machine.latency
    l3 = lat.l3_hit
    lut_lat = np.array((l3, lats[0], lats[1], lats[2], lats[3]))
    lut_base = np.array((l3, lat.dram_local, lat.dram_remote,
                         lat.fill_same_socket, lat.fill_cross_socket))
    lat_a = lut_lat[code]
    base_a = lut_base[code]
    if write:
        # Only a block's first touch can find other copies to invalidate
        # (a hit or a peer fill — a DRAM fill has none); later touches
        # find the requester the sole holder.  Adding ``+ 0.0`` elsewhere
        # is a bitwise no-op on the positive latencies.  Write hits charge
        # the invalidation as service (``base``); peer fills keep ``base``
        # at the pure fill path and add it after the link delays.
        inval_u = np.bitwise_count(others).astype(np.int64)
        iv_a = np.zeros(n)
        iv_a[first_pos] = inval_u * lat.invalidate
        lat_a += iv_a
        hit_a = code == 0
        base_a[hit_a] = lat_a[hit_a]
    src_a = _LUT_SRC[code]

    steps = lat_a / mlp  # overlap pure latency, not queue waits
    np.maximum(steps, per_issue_ns, out=steps)
    tf = np.empty(n + 1)
    tf[0] = t0
    tf[1:] = steps
    tf = np.cumsum(tf)
    t = tf[:-1]
    t_end = float(tf[-1])

    # -- servers: arrivals merged per bank in batch order -------------------
    s_chan = req_bytes / machine.channels.bytes_per_ns
    s_link = req_bytes / machine.links.bytes_per_ns
    s_xlink = req_bytes / machine.xlinks.bytes_per_ns
    dz = np.zeros((3, n))  # rows: bank (channel/holder link), requester
    d_srv, d_req, d_x = dz  # fabric link, cross-socket link delays

    # One serve_groups call covers every server class — DRAM channels,
    # peer fabric links, and cross-socket links — as rows of a single
    # matrix with per-row service times.  Every server gets a global id
    # (channels, then fabric links, then socket pairs); ONE argsort on a
    # (server id, position) composite key groups arrivals by server
    # while keeping batch order inside each group.  Keys are unique —
    # the same position may wait on a channel AND a cross-socket link,
    # but never twice on one server — so the unstable default sort is
    # deterministic.  All these servers are pairwise distinct (the
    # requester's link is served separately below and can never collide
    # with a holder-link row because ``others`` masks out the
    # requester's own directory bit); distinct rows evolve
    # independently, so row order is free.
    n_sockets = machine.xlinks.sockets
    cps = machine.channels.channels_per_socket
    sid_C = len(machine.channels._servers) * cps
    sid_CL = sid_C + machine.topo.total_chiplets
    g_pos: List[np.ndarray] = []
    g_sid: List[np.ndarray] = []
    if dpos.size:
        g_pos.append(dpos)
        g_sid.append(homes * cps + keys[dpos] % cps)
        remote = homes != my_node
        if remote.any():
            rh = homes[remote]
            lo = np.minimum(rh, my_node)
            hi = np.maximum(rh, my_node)
            g_pos.append(dpos[remote])
            g_sid.append(sid_CL + lo * n_sockets + hi)
    if ppos.size:
        g_pos.append(ppos)
        g_sid.append(sid_C + holders)
        psock = socket_of[holders]
        cross = psock != my_socket
        if cross.any():
            cs = psock[cross]
            lo = np.minimum(cs, my_socket)
            hi = np.maximum(cs, my_socket)
            g_pos.append(ppos[cross])
            g_sid.append(sid_CL + lo * n_sockets + hi)
    if n_miss:
        # The requester's own link sees every miss once.  It is
        # pairwise-distinct from every matrix row (``others`` masks out
        # the requester's bit), but folding it in as a row would inflate
        # the matrix width to the whole miss count — it is served
        # separately through the single-server fast paths instead.
        d, _ = serve_constant(machine.links.server(chiplet), t[miss_pos],
                              s_link)
        d_req[miss_pos] = d
    if g_pos:
        pos_cat = g_pos[0] if len(g_pos) == 1 else np.concatenate(g_pos)
        sid_cat = g_sid[0] if len(g_sid) == 1 else np.concatenate(g_sid)
        order = np.argsort(sid_cat * np.int64(n) + pos_cat)
        pos_s = pos_cat[order]
        sid_s = sid_cat[order]
        cuts = (np.flatnonzero(sid_s[1:] != sid_s[:-1]) + 1).tolist()
        bounds = [0, *cuts, int(pos_s.shape[0])]
        hs = [int(sid_s[b]) for b in bounds[:-1]]
        chan_sv = machine.channels.server
        link_sv = machine.links.server
        x_sv = machine.xlinks.server
        g_servers = [
            chan_sv(sid // cps, sid % cps) if sid < sid_C
            else link_sv(sid - sid_C) if sid < sid_CL
            else x_sv((sid - sid_CL) // n_sockets,
                      (sid - sid_CL) % n_sockets)
            for sid in hs
        ]
        g_s = np.asarray([s_chan if sid < sid_C
                          else s_link if sid < sid_CL else s_xlink
                          for sid in hs])
        d_all = serve_groups(g_servers, t[pos_s], np.asarray(bounds), g_s)
        isx = sid_s >= sid_CL
        nonx = ~isx
        d_srv[pos_s[nonx]] = d_all[nonx]
        d_x[pos_s[isx]] = d_all[isx]

    # Compose per-access totals in the scalar loop's addition order; every
    # class's unused delay terms are +0.0, which leaves positive IEEE
    # doubles bit-unchanged.  Peer writes add their invalidation term
    # after the cross-link delay, exactly like the scalar loop.
    ns_a = base_a + d_srv
    ns_a += d_req
    ns_a += d_x
    if write and ppos.size:
        ns_a[ppos] += iv_a[ppos]
    ns_a += t
    fin = float(ns_a.max())
    state[0] = t_end
    if fin > state[1]:
        state[1] = fin
    state[3] += n - n_miss
    state[4] += n_miss
    if write:
        state[2] += int(inval_u.sum())

    # Per-source fill-latency chains and counters, in batch order: one
    # stable sort groups accesses by source while preserving batch order
    # inside each group (the order the scalar loop accumulates in); the
    # chains of different sources are independent accumulators, so the
    # group iteration order is free.
    fl = machine._fill_lat
    sorder = np.argsort(src_a, kind="stable")
    ssrc = src_a[sorder]
    slat = lat_a[sorder]
    sb = [0, *(np.flatnonzero(ssrc[1:] != ssrc[:-1]) + 1).tolist(), n]
    for gi in range(len(sb) - 1):
        b0, b1 = sb[gi], sb[gi + 1]
        s_idx = int(ssrc[b0])
        k = b1 - b0
        acc = np.empty(k + 1)
        acc[0] = fl[s_idx]
        acc[1:] = slat[b0:b1]
        fl[s_idx] = float(np.cumsum(acc)[-1])
        counts[s_idx] += k

    # -- 4. slice, directory and peer-invalidation state --------------------
    res_end = None  # per-unique residency at the end; None: all resident
    if not replay:
        # Bulk LRU writeback of the no-eviction case: untouched originals
        # keep their order; the batch's unique blocks re-enter at the
        # tail in last-occurrence order (hits carry their slot along,
        # fills take fresh slots sized nb).
        cache_slot_u = np.empty(nu, dtype=np.int64)
        if n_fill_u < nu:
            cache_slot_u[res_u] = np.fromiter(
                map(slot_map.pop, ukeys[res_u].tolist()), dtype=np.int64,
                count=nu - n_fill_u)
        if n_fill_u:
            new_slots = cache._take_slots(n_fill_u)
            cache._sizes[new_slots] = nb
            cache_slot_u[~res_u] = new_slots
            cache.used_bytes += n_fill_u * nb
        cache._uniform_nb = nb
        ends = np.empty(nu, dtype=np.int64)
        ends[:-1] = starts[1:]
        ends[-1] = n
        tail = np.argsort(perm[ends - 1])  # last occurrences: unique values
        slot_map.update(zip(ukeys[tail].tolist(), cache_slot_u[tail].tolist()))
    else:
        # Victims outside the batch lose the requester's bit; a batch
        # block among the victims is resident at the end only if the
        # batch touched it again after its last eviction.
        varr = np.asarray(victims, dtype=np.int64)
        at = np.searchsorted(ukeys, varr)
        np.minimum(at, nu - 1, out=at)
        own = ukeys[at] == varr
        if not own.all():
            caches._evict_prefix_dir(chiplet, varr[~own].tolist())
        if own.any():
            res_end = np.fromiter(map(slot_map.__contains__, ukeys_list),
                                  dtype=bool, count=nu)
    if write:
        # Invalidation drops on peer slices: every other copy of a block
        # the batch wrote is gone.
        caches_l = caches.caches
        for j in np.flatnonzero(others).tolist():
            key = ukeys_list[j]
            m = int(others[j])
            while m:
                lowb = m & -m
                caches_l[lowb.bit_length() - 1].drop(key)
                m ^= lowb
    if res_end is None:  # every batch block ends resident
        final = np.full(nu, nbit) if write else others | nbit
    elif write:
        final = np.where(res_end, nbit, np.int64(0))
    else:
        final = np.where(res_end, others | nbit, others)
    caches.set_holder_masks(ukeys, dslots, final)
    return has_dups


def local_hit_segment(
    machine,
    chiplet: int,
    keys_list: List[int],
    t0: float,
    per_issue_ns: float,
    mlp: float,
    touch_noop: bool = False,
) -> Tuple[float, float]:
    """Service a run of local L3 hits: one bulk LRU touch + a clock replay.

    ``touch_noop=True`` asserts the caller already proved the slice's
    recency tail equals ``keys_list`` (the hot re-read steady state), so
    the bulk touch would reorder nothing and only the hit counter moves.

    Preconditions (established by the caller's classification): every key
    is resident in ``chiplet``'s slice, and for write batches this chiplet
    is each block's *only* holder — so the scalar path's
    ``invalidate_others`` is a no-op and reads and writes service
    identically at the bare ``l3_hit`` latency.

    Hits touch no servers and carry no queue waits, so the whole run
    collapses to scalar arithmetic: the issue clock advances by one
    constant step (replayed bit-exactly with :func:`_chain`), the slowest
    completion is the last arrival plus the hit latency, and the LRU
    recency/hit-counter effects are one :meth:`CacheSystem.touch_run`.

    Returns ``(t_end, finish)``.
    """
    n = len(keys_list)
    ns = machine.latency.l3_hit
    step = ns / mlp  # hits have no queue wait: latency == ns
    if per_issue_ns > step:
        step = per_issue_ns
    t_last = _chain(t0, n - 1, step)
    if touch_noop:
        machine.caches.caches[chiplet].hits += n
    else:
        machine.caches.touch_run(chiplet, keys_list)
    fl = machine._fill_lat
    fl[IDX_LOCAL_CHIPLET] = _chain(fl[IDX_LOCAL_CHIPLET], n, ns)
    return t_last + step, t_last + ns


def peer_fill_segment(
    machine,
    region,
    chiplet: int,
    holder: int,
    keys_list: List[int],
    t0: float,
    req_bytes: int,
    per_issue_ns: float,
    mlp: float,
    lat_same: float,
    lat_cross: float,
) -> Tuple[float, float, bool]:
    """Service a run of read fills all served by one peer chiplet's L3.

    Preconditions (established by the caller's classification): the run is
    duplicate-free, no key is resident in the requester's slice, every key
    is held by ``holder``, and ``holder`` is the deterministic min-id
    choice (same socket preferred) for every key — i.e. the exact peer the
    scalar loop would pick per access.

    The issue clock is a seeded cumsum of one constant step (pure fill
    latency is uniform across the run), then each fabric link replays its
    max-plus recurrence over the run's arrivals with
    :func:`serve_constant` — the holder's link, the requester's link, and
    the cross-socket link when the peer is on the other socket (the scalar
    path's same-socket cross-link call adds ``+0.0`` without touching any
    server, so skipping it is bit-identical).  The requesting side's bulk
    insert/evict and directory transfer is one shared-mode
    :meth:`CacheSystem.fill_run`.

    Returns ``(t_end, finish, same_socket)``.
    """
    n = len(keys_list)
    socket_of = machine.topo.socket_of_chiplet_table
    my_socket = socket_of[chiplet]
    holder_socket = socket_of[holder]
    same = holder_socket == my_socket
    lat = machine.latency
    base = lat.fill_same_socket if same else lat.fill_cross_socket
    latency = lat_same if same else lat_cross
    step = latency / mlp  # overlap pure latency, not queue waits
    if per_issue_ns > step:
        step = per_issue_ns
    tf = np.empty(n + 1)
    tf[0] = t0
    tf[1:] = step
    tf = np.cumsum(tf)
    t = tf[:-1]
    t_end = float(tf[-1])

    links = machine.links
    s_link = req_bytes / links.bytes_per_ns
    d_holder, _ = serve_constant(links.server(holder), t, s_link)
    d_req, _ = serve_constant(links.server(chiplet), t, s_link)
    ns = (base + d_holder) + d_req
    if not same:
        s_xlink = req_bytes / machine.xlinks.bytes_per_ns
        xsrv = machine.xlinks.server(my_socket, holder_socket)
        d_x, _ = serve_constant(xsrv, t, s_xlink)
        ns = ns + d_x

    finish = float((t + ns).max())
    machine.caches.fill_run(chiplet, keys_list, region.block_bytes, shared=True)
    src = IDX_REMOTE_CHIPLET if same else IDX_REMOTE_NUMA_CHIPLET
    fl = machine._fill_lat
    fl[src] = _chain(fl[src], n, latency)
    return t_end, finish, same
