"""Tests for the metrics layer, the experiment harness and the reporting."""

import pytest

from repro.eval.experiments import (
    ClusterExperimentConfig,
    ExperimentConfig,
    backend_comparison_experiment,
    batching_ablation,
    broadcast_ablation,
    compare_systems,
    epoch_policy_experiment,
    latency_experiment,
    message_complexity_experiment,
    run_cluster,
    settlement_soak_experiment,
)
from repro.eval.metrics import LatencyStats, summarize_result
from repro.eval.reporting import (
    format_ablation_table,
    format_backend_table,
    format_cluster_table,
    format_comparison_table,
    format_epoch_policy_table,
    format_latency_table,
    format_run_summary,
    format_soak_table,
)
from repro.mp.consensusless_transfer import TransferRecord
from repro.mp.system import SystemResult
from repro.common.types import Transfer


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

    def test_format_run_summary_contains_key_numbers(self):
        text = format_run_summary(summarize_result("consensusless", 4, self._result()))
        assert "throughput" in text and "20.0 tx/s" in text


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

    def test_message_complexity_rows(self, fast_network):
        rows = message_complexity_experiment(process_counts=(4,), config=small_config(fast_network))
        assert rows[0]["consensusless_msgs_per_tx"] > rows[0]["consensus_msgs_per_tx"] * 0

    def test_broadcast_ablation(self, fast_network):
        rows = broadcast_ablation(process_count=5, config=small_config(fast_network))
        labels = {row.label for row in rows}
        assert labels == {"broadcast=bracha", "broadcast=echo"}
        bracha = next(r for r in rows if r.label == "broadcast=bracha")
        echo = next(r for r in rows if r.label == "broadcast=echo")
        # The echo broadcast needs strictly fewer messages per transfer.
        assert echo.summary.messages_per_commit < bracha.summary.messages_per_commit
        assert "configuration" in format_ablation_table(rows)

    def test_batching_ablation(self, fast_network):
        rows = batching_ablation(process_count=4, batch_sizes=(1, 4), config=small_config(fast_network))
        assert [row.label for row in rows] == ["batch=1", "batch=4"]
        assert all(row.summary.committed == 8 for row in rows)

    def test_backend_comparison_experiment(self, fast_network):
        config = ClusterExperimentConfig(
            user_count=200,
            aggregate_rate=2_000.0,
            duration=0.02,
            cross_shard_fraction=0.5,
            network=fast_network,
            seed=7,
        )
        rows = backend_comparison_experiment(
            shard_count=2, batch_size=4, backends=("serial", "process"), config=config
        )
        assert [row.backend for row in rows] == ["serial", "process"]
        # One workload, two engines: identical audited results, measured time.
        assert len({row.fingerprint for row in rows}) == 1
        for row in rows:
            assert row.wall_clock_s > 0
            # Engine and audit are timed apart; the total stays their sum.
            assert row.run_wall_s > 0 and row.audit_wall_s > 0
            assert row.wall_clock_s == pytest.approx(row.run_wall_s + row.audit_wall_s)
            assert row.row.check.ok
            assert row.row.conservation_ok
            assert row.throughput == rows[0].throughput
        table = format_backend_table(rows)
        assert "speedup" in table and "fingerprint" in table
        assert rows[0].fingerprint[:12] in table

    def test_a_stateful_epoch_policy_does_not_leak_between_runs(self):
        from repro.cluster import LatencyTargetEpochPolicy

        policy = LatencyTargetEpochPolicy(target_p95=0.004)
        config = ClusterExperimentConfig(
            user_count=2_000,
            aggregate_rate=4_000.0,
            duration=0.03,
            cross_shard_fraction=0.5,
            epoch_policy=policy,
            seed=7,
        )
        rows = backend_comparison_experiment(
            shard_count=4, batch_size=4, backends=("serial", "serial", "thread"), config=config
        )
        # The same serial run twice: each system starts from the policy as given.
        assert rows[0].fingerprint == rows[1].fingerprint == rows[2].fingerprint
        assert rows[0].fingerprint.startswith("6171aaa3055b0b8d")
        assert policy.observed_p95() == 0.0


class TestSettlementLifecycleExperiments:
    def _config(self, fast_network, duration=0.04):
        return ClusterExperimentConfig(
            user_count=300,
            aggregate_rate=3_000.0,
            duration=duration,
            cross_shard_fraction=0.5,
            network=fast_network,
            seed=7,
        )

    def test_cluster_rows_surface_compaction(self, fast_network):
        row, system = run_cluster(2, 4, self._config(fast_network))
        system.close()
        # Quiescence under the lifecycle: everything retired, nothing resident.
        assert row.retired_records > 0
        assert row.resident_settlement_records == 0
        assert row.retired_amount == row.settled_amount > 0
        table = format_cluster_table([row])
        assert "resident" in table and "retired" in table
        assert str(row.retired_records) in table

    def test_cluster_rows_run_on_the_serial_backend_by_default(self, fast_network):
        config = self._config(fast_network)
        assert config.backend == "serial"
        row, system = run_cluster(2, 4, config)
        try:
            assert system.backend_name == "serial"
            assert system.scheduler.barriers > 0
            assert row.check.ok
        finally:
            system.close()

    def test_settlement_soak_reports_bounded_residency(self, fast_network):
        report = settlement_soak_experiment(
            shard_count=2,
            batch_size=4,
            checkpoints=4,
            config=self._config(fast_network, duration=0.06),
        )
        assert not report.violations, report.violations
        assert report.final_check_ok
        assert report.bounded
        assert report.fully_retired
        assert len(report.samples) == 5  # checkpoints + quiescence
        table = format_soak_table(report)
        assert "resident" in table and "retired" in table

    def test_epoch_policy_experiment_compares_the_trade(self, fast_network):
        from repro.cluster import AdaptiveEpochPolicy, FixedEpochPolicy

        rows = epoch_policy_experiment(
            [
                ("fixed", FixedEpochPolicy(0.005)),
                ("adaptive", AdaptiveEpochPolicy(initial_epoch=0.005)),
            ],
            config=self._config(fast_network),
        )
        assert [row.policy for row in rows] == ["fixed", "adaptive"]
        for row in rows:
            assert row.check_ok
            assert row.barriers > 0
            assert row.settlement_samples > 0
            assert row.avg_settlement_latency > 0
        # Same workload and protocol outcome; only the barrier grid differs.
        assert rows[0].committed == rows[1].committed
        assert rows[0].barriers != rows[1].barriers
        table = format_epoch_policy_table(rows)
        assert "barriers" in table and "avg settle ms" in table
