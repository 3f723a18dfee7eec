"""Tests for the metrics layer, the experiment harness and the reporting."""

import pytest

from repro.cluster.system import ClusterSystem
from repro.eval.experiments import (
    ExperimentConfig,
    compare_systems,
    latency_experiment,
    run_cluster,
)
from repro.eval.metrics import LatencyStats, summarize_result
from repro.eval.reporting import (
    format_cluster_table,
    format_comparison_table,
    format_latency_table,
)
from repro.mp.consensusless_transfer import TransferRecord
from repro.mp.system import SystemResult
from repro.common.types import Transfer
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload


def small_config(fast_network, per_process=2):
    return ExperimentConfig(transfers_per_process=per_process, network=fast_network, seed=5)


class TestLatencyStats:
    def test_empty_values(self):
        stats = LatencyStats.from_values([])
        assert stats.average == 0 and stats.p99 == 0

    def test_percentiles_ordered(self):
        stats = LatencyStats.from_values([i / 100 for i in range(1, 101)])
        assert stats.minimum <= stats.median <= stats.p95 <= stats.p99 <= stats.maximum
        assert stats.average == pytest.approx(0.505)

    def test_millisecond_view(self):
        stats = LatencyStats.from_values([0.002])
        assert stats.as_milliseconds()["avg_ms"] == pytest.approx(2.0)


class TestSummaries:
    def _result(self):
        result = SystemResult()
        transfer = Transfer("0", "1", 1, issuer=0, sequence=1)
        result.committed = [
            TransferRecord(transfer=transfer, submitted_at=0.0, completed_at=0.01, success=True),
            TransferRecord(transfer=transfer, submitted_at=0.0, completed_at=0.02, success=True),
        ]
        result.duration = 0.1
        result.messages_sent = 50
        return result

    def test_summarize_result(self):
        summary = summarize_result("consensusless", 4, self._result())
        assert summary.committed == 2
        assert summary.throughput == pytest.approx(20.0)
        assert summary.messages_per_commit == pytest.approx(25.0)


class TestExperimentHarness:
    def test_compare_systems_produces_both_summaries(self, fast_network):
        row = compare_systems(5, small_config(fast_network))
        assert row.consensusless.committed == 10
        assert row.consensus_based.committed == 10
        assert row.throughput_ratio > 0
        assert row.latency_ratio > 0
        table = format_comparison_table([row])
        assert "tput ratio" in table and str(row.process_count) in table

    def test_latency_experiment_rows(self, fast_network):
        rows = latency_experiment(process_counts=(4,), transfers=3, config=small_config(fast_network))
        assert len(rows) == 1
        assert rows[0].consensusless_latency > 0
        assert rows[0].consensus_latency > 0
        assert "ratio" in format_latency_table(rows)


class TestSettlementLifecycleExperiments:
    def _run(self, fast_network):
        """One audited 2-shard, batch-4 run at a 50 % cross-shard fraction;
        the caller closes the system."""
        system = ClusterSystem(shard_count=2, batch_size=4, network_config=fast_network, seed=7)
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=300,
                aggregate_rate=3_000.0,
                duration=0.04,
                cross_shard_fraction=0.5,
                router=system.router,
                seed=7,
            )
        )
        return run_cluster(system, workload), system

    def test_cluster_rows_surface_compaction(self, fast_network):
        row, system = self._run(fast_network)
        system.close()
        # Quiescence under the lifecycle: everything retired, nothing resident.
        assert row.retired_records > 0
        assert row.resident_settlement_records == 0
        assert row.retired_amount == row.settled_amount > 0
        table = format_cluster_table([row])
        assert "resident" in table and "retired" in table
        assert str(row.retired_records) in table

    def test_cluster_rows_run_on_the_serial_backend_by_default(self, fast_network):
        row, system = self._run(fast_network)
        try:
            assert system.backend_name == "serial"
            assert system.scheduler.barriers > 0
            assert row.check.ok
        finally:
            system.close()
