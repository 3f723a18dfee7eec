#!/usr/bin/env python3
"""Experiments E5/E6/E8: consensusless protocol vs consensus-based baseline.

Regenerates the paper's quantitative claims (Section 5): the broadcast-based
protocol outperforms a consensus-based implementation by 1.5x-6x in
throughput and up to 2x in latency (low load), on identical workloads over
the same simulated network.

Usage:
    python examples/throughput_comparison.py             # quick sweep (N = 10, 20, 30)
    python examples/throughput_comparison.py --full      # paper-scale sweep (up to N = 100; slow)
"""

import argparse

from repro.eval.experiments import (
    ExperimentConfig,
    latency_experiment,
    throughput_scaling_experiment,
)
from repro.eval.reporting import format_comparison_table, format_latency_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the paper-scale sweep up to 100 processes (takes tens of minutes)")
    parser.add_argument("--transfers", type=int, default=None,
                        help="transfers per process (default: 5 quick, 3 full)")
    args = parser.parse_args()

    if args.full:
        process_counts = (10, 25, 50, 75, 100)
        transfers = args.transfers or 3
    else:
        process_counts = (10, 20, 30)
        transfers = args.transfers or 5
    config = ExperimentConfig(transfers_per_process=transfers)

    print("== E5: throughput under a closed-loop payment workload ==")
    rows = throughput_scaling_experiment(process_counts, config)
    print(format_comparison_table(rows))
    ratios = [row.throughput_ratio for row in rows]
    print(f"\nthroughput advantage: {min(ratios):.2f}x - {max(ratios):.2f}x "
          f"(paper: 1.5x - 6x)\n")

    print("== E6: per-transfer latency at low load ==")
    latency_rows = latency_experiment(process_counts, transfers=8, config=config)
    print(format_latency_table(latency_rows))
    latency_ratios = [row.latency_ratio for row in latency_rows]
    print(f"\nlatency advantage at low load: up to {max(latency_ratios):.2f}x (paper: up to 2x)\n")

    print("== E8: messages per committed transfer (from the E5 runs) ==")
    for row in rows:
        print(f"  N={row.process_count:>3}  "
              f"consensusless={row.consensusless.messages_per_commit:>7.1f}  "
              f"consensus-based={row.consensus_based.messages_per_commit:>7.1f}")


if __name__ == "__main__":
    main()
