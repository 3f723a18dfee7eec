"""Throughput and latency metrics extracted from simulated runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.mp.system import SystemResult


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution summary (all values in seconds)."""

    average: float
    median: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        if not values:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)

        def percentile(fraction: float) -> float:
            index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
            return ordered[index]

        return cls(
            average=sum(ordered) / len(ordered),
            median=percentile(0.5),
            p95=percentile(0.95),
            p99=percentile(0.99),
            minimum=ordered[0],
            maximum=ordered[-1],
        )

    def as_milliseconds(self) -> Dict[str, float]:
        """The same statistics expressed in milliseconds (for reports)."""
        return {
            "avg_ms": self.average * 1000,
            "median_ms": self.median * 1000,
            "p95_ms": self.p95 * 1000,
            "p99_ms": self.p99 * 1000,
            "min_ms": self.minimum * 1000,
            "max_ms": self.maximum * 1000,
        }


@dataclass(frozen=True)
class RunSummary:
    """One simulated run reduced to the numbers the paper reports."""

    system: str
    process_count: int
    committed: int
    rejected: int
    duration: float
    throughput: float
    latency: LatencyStats
    messages_sent: int
    messages_per_commit: float


def summarize_result(system: str, process_count: int, result: SystemResult) -> RunSummary:
    """Reduce a :class:`SystemResult` to a :class:`RunSummary`."""
    return RunSummary(
        system=system,
        process_count=process_count,
        committed=result.committed_count,
        rejected=len(result.rejected),
        duration=result.duration,
        throughput=result.throughput,
        latency=LatencyStats.from_values(result.latencies),
        messages_sent=result.messages_sent,
        messages_per_commit=result.messages_per_commit,
    )
