"""Product benchmark entry point.

Usage (from the root of a checkout)::

    python3 prodbench/run.py --workload paper_quick --seed 1 --seconds 25 --trace 0
    python3 prodbench/run.py --workload advise_cold --seed 2 --seconds 25 --trace 1
    python3 prodbench/run.py --workload all --seconds 25

``--trace 0`` measures the end-to-end figures with all tracing off;
``--trace 1`` runs the workload untraced and then traced, and reports
the per-layer figures, the tracing overhead and whether both runs
produced the same simulated-result hash.  Every line but the last is a
readable report; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every correctness check passed, 1 when one failed, and 2
(with no JSON line) when the benchmark could not run at all, e.g. in a
directory without the program's source.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[1])  # import as a package

from prodbench.common import (  # noqa: E402
    SRC,
    BenchError,
    RunDir,
    load_manifest,
    require_source,
)
from prodbench.workloads import WORKLOADS, Outcome  # noqa: E402


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seed: int, out: Outcome, manifest, trace: bool) -> dict:
    """Print the readable report; return the metrics of the JSON line."""
    e2e_specs = manifest["end_to_end"]
    print(f"prodbench {workload} seed={seed} trace={int(trace)} "
          f"hash={out.hash} attempted={out.attempted} failed={out.failed}")
    tail = out.notes.get("tail_percentile")
    for spec in e2e_specs:
        name = spec["name"]
        label = name
        if name == "latency_tail_ms":
            label += f" (p{tail:g})" if tail else " (one sample)"
        print(f"  {label:28s} {_fmt(out.e2e[name]):>12s} {spec['unit']:6s} "
              f"n={out.samples.get(name, 1)}")
    error_ratio = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'error_ratio':28s} {_fmt(error_ratio):>12s} {'ratio':6s} "
          f"n={out.attempted}")
    for key, value in sorted(out.notes.items()):
        print(f"  note {key}: {value}")
    for problem in out.problems:
        print(f"  PROBLEM {problem}")
    if not trace:
        return {spec["name"]: {"value": out.e2e[spec["name"]], "unit": spec["unit"]}
                for spec in e2e_specs}
    out.layers["gate.error_ratio"] = error_ratio
    metrics = {}
    for spec in manifest["per_layer"]:
        name = spec["name"]
        value = out.layers.get(name, 0)
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"  layer {name:36s} {_fmt(value):>12s} {spec['unit']}")
    unknown = sorted(set(out.layers) - set(metrics))
    if unknown:
        print(f"  layers not in the manifest: {unknown}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all three in turn (metrics then "
                             "prefixed with the workload name)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the manifest's default seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the advise loops send requests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        require_source()
        manifest = load_manifest()
    except (BenchError, OSError, ValueError) as exc:
        print(f"prodbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))  # the query streams read the geometry lattice
    seed = manifest["seeds"]["default"] if args.seed is None else args.seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        expected = manifest["hashes"].get(name, {})
        workdir = RunDir()
        t0 = time.monotonic()
        try:
            out = WORKLOADS[name](seed, args.seconds, bool(args.trace), workdir,
                                  expected.get("any", expected.get(str(seed))),
                                  smoke=args.smoke)
        except BenchError as exc:
            print(f"prodbench: {exc}", file=sys.stderr)
            return 2
        finally:
            workdir.close()
        print(f"  run took {time.monotonic() - t0:.1f}s")
        figures = report(name, seed, out, manifest, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in figures.items()})
        correct = correct and not out.problems and out.failed == 0
        attempted += out.attempted
        failed += out.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
