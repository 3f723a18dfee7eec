"""The metrics registry: counters, gauges and histograms, O(1) everywhere.

Telemetry in this repository carries one hard invariant: **it never perturbs
results**.  Every instrument here is a plain in-memory accumulator — no
clocks read on record, no allocation beyond first use, no interaction with
the simulators' event queues or any seeded RNG stream — so attaching or
detaching a registry cannot change a single protocol decision.  The
equivalence suite (``tests/obs/test_telemetry_invariance.py``) pins exactly
that: :meth:`~repro.cluster.result.ClusterResult.fingerprint` is identical
with telemetry off, metrics-only and full tracing.

Registries are deliberately *mergeable*: every shard (and every worker
process) records into its own instance, a snapshot travels back to the
driver as plain picklable dicts (inside
:class:`~repro.cluster.shard.ShardSnapshot`), and the driver folds the
snapshots together — counters and histograms add, gauges add too (a gauge
here is a sampled per-source level, so the merged value is the cluster
total).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing count (events dispatched, signatures…)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A sampled level (queue depth, resident records): last write wins."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A bounded-memory distribution: count/total/min/max, O(1) per record.

    Percentile estimation is deliberately *not* attempted here — the one
    component that needs a p95 (the settlement fabric) keeps its own bounded
    recency window (:data:`repro.cluster.settlement.LATENCY_P95_WINDOW`).
    Four floats per series keeps the hot-path cost of an observation to a
    few attribute writes, cheap enough to leave on by default.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if self.count == 0 or value > self.max:
            self.max = value
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    One registry per recording site: each shard owns one (wherever its
    simulator runs — driver or worker process), and the driver owns
    one for the scheduler/settlement side.  Lookup is
    get-or-create so instrumentation points never need registration
    ceremony; the name spaces are dotted (``sim.events``, ``sig.verify``,
    ``phase.advance``) purely by convention.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def inc(self, name: str, amount: int = 1) -> None:
        # ``counter(name).inc(amount)`` in one frame: the hot instrument
        # (every signature and verification counts through here).
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        counter.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    # -- snapshots and merging ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The registry as plain JSON-ready (and picklable) dicts."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Optional[Dict[str, Dict[str, object]]]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram masses add; gauges add as well (each source's
        gauge is its own sampled level, so the merge is the cluster total).
        Used by the driver to fold worker-side registries shipped back in
        :class:`~repro.cluster.shard.ShardSnapshot` into the shard twins.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(gauge.value + value)
        for name, series in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = series.get("count", 0)
            if not count:
                continue
            if histogram.count == 0 or series["min"] < histogram.min:
                histogram.min = series["min"]
            if histogram.count == 0 or series["max"] > histogram.max:
                histogram.max = series["max"]
            histogram.count += count
            histogram.total += series.get("total", 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


def merge_snapshots(
    snapshots: List[Optional[Dict[str, Dict[str, object]]]]
) -> Dict[str, Dict[str, object]]:
    """Fold many registry snapshots into one combined snapshot."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def top_counters(
    snapshot: Dict[str, Dict[str, object]], limit: int = 5
) -> List[Tuple[str, int]]:
    """The ``limit`` largest counters of a snapshot, descending, name-stable."""
    counters = snapshot.get("counters", {})
    ranked = sorted(counters.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:limit]
