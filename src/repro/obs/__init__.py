"""Deterministic observability: metrics and tracing hooks.

The layer every perf and robustness claim in this repository leans on: a
mergeable :class:`MetricsRegistry` recorded by shards wherever they execute
(driver or worker process) and a span :class:`Tracer` over the cluster's hot
phases with a Chrome ``trace_event`` exporter.

The package-wide invariant — **telemetry never perturbs results** — holds by
construction (no instrument touches simulated time, event queues or seeded
RNG streams) and by regression (``tests/obs/test_telemetry_invariance.py``
asserts fingerprint equality with metrics-only and full tracing across every
execution backend).

``TELEMETRY_MODES`` names the two levels :class:`ClusterSystem
<repro.cluster.system.ClusterSystem>` accepts: ``"metrics"`` (the default)
keeps the O(1) registries, which every cluster run records into, and
``"full"`` adds span tracing; otherwise the spans go to :data:`NULL_TRACER`.
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
    NULL_TRACER,
    TRACE_EVENT_REQUIRED_KEYS,
    Tracer,
    TraceSpan,
    validate_trace_file,
    write_trace_events,
)

#: The telemetry levels ClusterSystem accepts, cheapest first.
TELEMETRY_MODES = ("metrics", "full")

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "TELEMETRY_MODES",
    "TRACE_EVENT_REQUIRED_KEYS",
    "Tracer",
    "TraceSpan",
    "merge_snapshots",
    "top_counters",
    "validate_trace_file",
    "write_trace_events",
]
