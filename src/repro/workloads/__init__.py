"""Synthetic payment workloads used by tests, examples and benchmarks.

* :mod:`repro.workloads.generators` — closed- and open-loop workloads for one
  Figure 4 group (uniform, Zipf, hotspot, k-shared).
* :mod:`repro.workloads.cluster_driver` — the open-loop workload of the
  cluster layer, routed onto shards.

The package re-exports nothing: import from the defining module.
"""
