"""Deterministic observability: metrics and tracing hooks.

The layer every perf and robustness claim in this repository leans on: a
mergeable :class:`MetricsRegistry` recorded by shards wherever they execute
(driver or worker process) and a span :class:`Tracer` over the cluster's hot
phases with a Chrome ``trace_event`` exporter.

The package-wide invariant — **telemetry never perturbs results** — holds by
construction (no instrument touches simulated time, event queues or seeded
RNG streams) and by regression (``tests/obs/test_telemetry_invariance.py``
asserts fingerprint equality with telemetry off / metrics-only / full
tracing across every execution backend, migrated runs included).

``TELEMETRY_MODES`` names the three levels :class:`ClusterSystem
<repro.cluster.system.ClusterSystem>` accepts: ``"off"`` records nothing,
``"metrics"`` (the default) keeps the O(1) registries on, ``"full"`` adds
span tracing.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    top_counters,
)
from repro.obs.tracing import (
    TRACE_EVENT_REQUIRED_KEYS,
    Tracer,
    TraceSpan,
    validate_trace_file,
    write_trace_events,
)

#: The telemetry levels ClusterSystem accepts, cheapest first.
TELEMETRY_MODES = ("off", "metrics", "full")

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TELEMETRY_MODES",
    "TRACE_EVENT_REQUIRED_KEYS",
    "Tracer",
    "TraceSpan",
    "merge_snapshots",
    "top_counters",
    "validate_trace_file",
    "write_trace_events",
]
