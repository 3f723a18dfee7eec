"""Plain-text, paper-style reporting of experiment results.

The functions here turn the dataclasses produced by
:mod:`repro.eval.experiments` into aligned text tables — the same rows and
series the paper states in prose — so that the examples can print something
a reader can compare at a glance.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.eval.experiments import (
    ClusterScalingRow,
    ComparisonRow,
    LatencyRow,
    TelemetryRow,
)


def _format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    # No trailing padding after the last column: the tables land in golden
    # tests and diffs, where invisible whitespace is pure noise.
    return "\n".join(line.rstrip() for line in lines)


def format_comparison_table(rows: Sequence[ComparisonRow]) -> str:
    """The E5/E6 table: both systems side by side across system sizes."""
    headers = [
        "N",
        "consensusless tx/s",
        "consensus tx/s",
        "tput ratio",
        "consensusless ms",
        "consensus ms",
        "lat ratio",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.process_count,
                f"{row.consensusless.throughput:.0f}",
                f"{row.consensus_based.throughput:.0f}",
                f"{row.throughput_ratio:.2f}x",
                f"{row.consensusless.latency.average * 1000:.1f}",
                f"{row.consensus_based.latency.average * 1000:.1f}",
                f"{row.latency_ratio:.2f}x",
            ]
        )
    return _format_table(headers, body)


def format_latency_table(rows: Sequence[LatencyRow]) -> str:
    """The E6 (low load) latency table."""
    headers = ["N", "consensusless ms", "consensus ms", "ratio"]
    body = [
        [
            row.process_count,
            f"{row.consensusless_latency * 1000:.2f}",
            f"{row.consensus_latency * 1000:.2f}",
            f"{row.latency_ratio:.2f}x",
        ]
        for row in rows
    ]
    return _format_table(headers, body)


def format_cluster_table(rows: Sequence[ClusterScalingRow]) -> str:
    """The cluster scaling sweep: shards × batch size under one offered load.

    ``x-shard`` counts the submissions that crossed a shard boundary,
    ``settled`` is the amount the settlement relays certified and the
    destination shards minted, ``resident``/``retired`` are the settlement
    lifecycle's record counts (outbound ``x{d}:a`` records still resident in
    the ledgers versus compacted behind the acknowledgement watermark — a
    healthy run retires everything by quiescence), and ``conserved`` is the
    cross-ledger supply audit's identity verdict (money neither created nor
    lost; settlement *completeness* is a separate property —
    ``ClusterScalingRow.fully_settled`` / ``in_flight_amount == 0``).
    """
    headers = [
        "shards",
        "batch",
        "tx/s",
        "avg latency ms",
        "messages/commit",
        "tx/broadcast",
        "imbalance",
        "x-shard",
        "settled",
        "resident",
        "retired",
        "def-1",
        "conserved",
    ]
    body = [
        [
            str(row.shard_count),
            str(row.batch_size),
            f"{row.summary.throughput:.0f}",
            f"{row.summary.latency.average * 1000:.2f}",
            f"{row.summary.messages_per_commit:.1f}",
            f"{row.amortisation:.2f}",
            f"{row.load_imbalance:.2f}",
            str(row.cross_shard_submissions),
            str(row.settled_amount),
            str(row.resident_settlement_records),
            str(row.retired_records),
            "OK" if row.check.ok else "VIOLATED",
            "OK" if row.conservation_ok else "VIOLATED",
        ]
        for row in rows
    ]
    return _format_table(headers, body)


def format_telemetry_table(rows: Sequence[TelemetryRow]) -> str:
    """The run's phase breakdown: where the driver's wall clock went.

    One row per instrumented ``phase.*`` histogram (``phase.total`` is the
    denominator, not a row); ``share`` is the phase's fraction of total wall
    time and the column summing near 100% means the breakdown explains the
    run.  Telemetry is fingerprint-neutral, so this table can be printed for
    any run without changing what the run computed.
    """
    headers = ["phase", "count", "total s", "mean ms", "share"]
    body = [
        [
            row.phase,
            str(row.count),
            f"{row.total_s:.3f}",
            f"{row.mean_s * 1000:.3f}",
            f"{row.share * 100:.1f}%",
        ]
        for row in rows
    ]
    return _format_table(headers, body)
