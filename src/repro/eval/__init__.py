"""Evaluation harness: metrics, experiments and paper-style reporting."""

from repro.eval.experiments import (
    AblationRow,
    ClusterExperimentConfig,
    ClusterScalingRow,
    LatencyRow,
    batching_ablation,
    broadcast_ablation,
    latency_experiment,
    ComparisonRow,
    ExperimentConfig,
    compare_systems,
    double_spend_experiment,
    k_shared_experiment,
    message_complexity_experiment,
    run_cluster,
    throughput_scaling_experiment,
)
from repro.eval.metrics import LatencyStats, RunSummary, summarize_result
from repro.eval.reporting import (
    format_ablation_table,
    format_cluster_table,
    format_comparison_table,
    format_latency_table,
    format_run_summary,
)

__all__ = [
    "AblationRow",
    "ClusterExperimentConfig",
    "ClusterScalingRow",
    "LatencyRow",
    "batching_ablation",
    "broadcast_ablation",
    "format_ablation_table",
    "format_cluster_table",
    "run_cluster",
    "format_latency_table",
    "latency_experiment",
    "ComparisonRow",
    "ExperimentConfig",
    "LatencyStats",
    "RunSummary",
    "compare_systems",
    "double_spend_experiment",
    "format_comparison_table",
    "format_run_summary",
    "k_shared_experiment",
    "message_complexity_experiment",
    "summarize_result",
    "throughput_scaling_experiment",
]
