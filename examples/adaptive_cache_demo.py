#!/usr/bin/env python
"""Watch Alg. 1 adapt: spread_rate follows the working-set size.

Runs the same random-access loop over a small working set (fits one L3
slice) and a large one (needs the socket's aggregate L3) and shows how
the decentralised policy compacts or spreads the workers' chiplet
footprint — the paper's adaptive cache partitioning (sections 4.2/4.3).
"""

from repro.hw.machine import milan
from repro.runtime.ops import AccessBatch, YieldPoint
from repro.runtime.policy import CharmStrategy
from repro.obs.profiler import sample_workers
from repro.runtime.runtime import Runtime


def run(size_bytes: int) -> None:
    machine = milan(scale=32)
    rt = Runtime(machine, 8, CharmStrategy(), seed=3)
    region = rt.alloc_shared(size_bytes, name="working-set")
    n = region.n_blocks

    def body(wid: int):
        for r in range(80):
            lo = (wid * 97 + r * 31) % max(n - 16, 1)
            yield AccessBatch(region, list(range(lo, lo + 16)))
            yield YieldPoint()
        return wid

    for w in range(8):
        rt.spawn(body, w, pin_worker=w)
    report = rt.run()

    samples = sample_workers(rt)
    chiplets = sorted({s.chiplet for s in samples})
    spreads = [s.spread_rate for s in samples]
    print(f"working set {size_bytes >> 10:6d} KiB -> "
          f"chiplets used {chiplets}, spread_rates {spreads}, "
          f"migrations {report.migrations}, "
          f"dram fills {report.counters.dram}")


def main() -> None:
    l3 = milan(scale=32).l3_bytes_per_chiplet
    print(f"L3 slice: {l3 >> 10} KiB per chiplet, 8 chiplets per socket\n")
    print("Small working set (fits one slice) -> CHARM stays compact:")
    run(l3 // 8)
    print("\nLarge working set (needs aggregate L3) -> CHARM spreads:")
    run(l3 * 8)


if __name__ == "__main__":
    main()
