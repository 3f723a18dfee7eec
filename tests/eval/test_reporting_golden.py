"""Golden-output tests for the cluster-facing report tables.

The tables are part of the repository's human interface — the cluster
quickstart example prints them — so their exact rendering is pinned
character-for-character against synthetic rows with hand-checkable numbers.  A formatting change that shifts a column or a
unit must show up here as a diff a reviewer reads, not as silent drift.
Empty inputs are part of the contract too: every table degrades to its
header pair, never to an exception.
"""

import textwrap

from repro.cluster.result import ClusterCheckReport, SupplyAudit
from repro.eval.experiments import (
    ClusterScalingRow,
    TelemetryRow,
    telemetry_breakdown,
    telemetry_phase_coverage,
    telemetry_top_counters,
)
from repro.eval.metrics import LatencyStats, RunSummary
from repro.eval.reporting import format_cluster_table, format_telemetry_table


def _golden(text: str) -> str:
    return textwrap.dedent(text).strip("\n")


def _scaling_row() -> ClusterScalingRow:
    summary = RunSummary(
        system="cluster[s=2,b=4]",
        process_count=8,
        committed=120,
        rejected=0,
        duration=0.1,
        throughput=1200.0,
        latency=LatencyStats(
            average=0.0042, median=0.004, p95=0.008, p99=0.009, minimum=0.001, maximum=0.01
        ),
        messages_sent=4800,
        messages_per_commit=40.0,
    )
    # A quiescent, conserved ledger: local carries the whole supply, the 60
    # units that crossed shards were minted and fully retired.
    audit = SupplyAudit(
        initial_supply=4000, local=4000, outbound=0, minted=60, relay_delivered=60, retired=60
    )
    return ClusterScalingRow(
        shard_count=2,
        batch_size=4,
        summary=summary,
        check=ClusterCheckReport(conservation=audit),
        broadcast_instances=30,
        payload_items=120,
        load_imbalance=1.12,
        cross_shard_submissions=45,
        settled_amount=60,
        in_flight_amount=0,
        settlement_messages=90,
        resident_settlement_records=0,
        retired_records=12,
        retired_amount=60,
    )


class TestClusterTableGolden:
    def test_single_row_renders_exactly(self):
        expected = _golden(
            """
            shards  batch  tx/s  avg latency ms  messages/commit  tx/broadcast  imbalance  x-shard  settled  resident  retired  def-1  conserved
            ------  -----  ----  --------------  ---------------  ------------  ---------  -------  -------  --------  -------  -----  ---------
            2       4      1200  4.20            40.0             4.00          1.12       45       60       0         12       OK     OK
            """
        )
        assert format_cluster_table([_scaling_row()]) == expected

    def test_no_rows_renders_the_header_pair(self):
        table = format_cluster_table([])
        lines = table.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == [
            "shards", "batch", "tx/s", "avg", "latency", "ms", "messages/commit",
            "tx/broadcast", "imbalance", "x-shard", "settled", "resident",
            "retired", "def-1", "conserved",
        ]
        assert set(lines[1]) <= {"-", " "}


class TestTelemetryTableGolden:
    def _rows(self):
        return [
            TelemetryRow(
                phase="phase.advance", count=8, total_s=0.0125, mean_s=0.0015625, share=0.625
            ),
            TelemetryRow(
                phase="phase.exchange", count=8, total_s=0.006, mean_s=0.00075, share=0.3
            ),
        ]

    def test_rows_render_exactly(self):
        expected = _golden(
            """
            phase           count  total s  mean ms  share
            --------------  -----  -------  -------  -----
            phase.advance   8      0.013    1.562    62.5%
            phase.exchange  8      0.006    0.750    30.0%
            """
        )
        assert format_telemetry_table(self._rows()) == expected

    def test_no_rows_renders_the_header_pair(self):
        assert format_telemetry_table([]) == _golden(
            """
            phase  count  total s  mean ms  share
            -----  -----  -------  -------  -----
            """
        )


class TestBreakdownHelpers:
    """The table's upstream: telemetry section -> rows, pure functions."""

    def _telemetry(self):
        return {
            "mode": "metrics",
            "driver": {
                "histograms": {
                    "phase.total": {"count": 1, "total": 0.02, "min": 0.02, "max": 0.02, "mean": 0.02},
                    "phase.advance": {"count": 8, "total": 0.0125, "min": 0.001, "max": 0.002, "mean": 0.0015625},
                    "phase.exchange": {"count": 8, "total": 0.006, "min": 0.0005, "max": 0.001, "mean": 0.00075},
                    "barrier.queue_depth": {"count": 8, "total": 12, "min": 0, "max": 3, "mean": 1.5},
                },
            },
            "totals": {"counters": {"sim.events": 900, "sig.verify": 120, "sig.sign": 40}},
        }

    def test_breakdown_excludes_total_and_non_phase_series(self):
        rows = telemetry_breakdown(self._telemetry())
        assert [row.phase for row in rows] == ["phase.advance", "phase.exchange"]
        assert rows[0].share == 0.625
        assert rows[1].share == 0.3

    def test_coverage_sums_the_shares(self):
        assert telemetry_phase_coverage(self._telemetry()) == 0.925

    def test_top_counters_reads_the_merged_totals(self):
        assert telemetry_top_counters(self._telemetry(), limit=2) == [
            ("sim.events", 900),
            ("sig.verify", 120),
        ]

    def test_everything_degrades_on_none(self):
        assert telemetry_breakdown(None) == []
        assert telemetry_phase_coverage(None) == 0.0
        assert telemetry_top_counters(None) == []
        assert format_telemetry_table(telemetry_breakdown(None)).count("\n") == 1

    def test_zero_total_yields_zero_shares_not_a_crash(self):
        telemetry = {
            "driver": {
                "histograms": {
                    "phase.total": {"count": 0, "total": 0.0},
                    "phase.advance": {"count": 1, "total": 0.001, "mean": 0.001},
                }
            }
        }
        rows = telemetry_breakdown(telemetry)
        assert rows[0].share == 0.0
