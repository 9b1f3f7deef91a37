"""Product benchmark for the CHARM reproduction.

Three workloads drive the product through its public entry points and
report what a user waits for, plus a separate traced run that breaks
each figure down by layer:

- ``paper_quick``: the whole quick evaluation suite,
  ``repro.bench.sweep.run_many(EXPERIMENT_ORDER, quick=True, jobs=0)``
  on an empty result store;
- ``advise_cold``: a closed loop of two connections against a fresh
  ``python -m repro serve`` whose store is empty, one distinct seeded
  what-if query per request;
- ``advise_hot``: the same loop against a server whose store holds a
  small prepared query set, replayed in equivalent spellings.

Run ``python3 prodbench/run.py --workload advise_cold --seed 1
--seconds 30 --trace 0`` from the repository root.  The last line of
standard output is the JSON result; the lines before it are a readable
report.  ``prodbench/MANIFEST.json`` records the seeds, the expected
result hashes and the layer-to-metric mapping.
"""
