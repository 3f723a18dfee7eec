"""Horizontal scaling and batching, the two claims sharding by account buys.

Consensus number 1 lets the system shard by account with no cross-shard
coordination, so more shards must commit the same offered load faster, and
batching many transfers into one secure-broadcast instance must amortise
its quorum cost.  One Zipf/Poisson workload (5 000 users, 16 000 tx/s for
0.03 s, seed 7) replays against shards (1, 2) x batch (1, 8); the load is
heavy enough that the protocol, not the arrival rate, bounds throughput.
Every run must commit every submission with Definition 1, the supply
identity and agreement at quiescence holding, so the orderings compare
equal work.
"""

import pytest

from repro.cluster.system import ClusterSystem
from repro.eval.experiments import run_cluster
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

SHARD_COUNTS = (1, 2)
BATCH_SIZES = (1, 8)


@pytest.fixture(scope="module")
def grid():
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=5_000, aggregate_rate=16_000.0, duration=0.03, zipf_skew=1.0, seed=7
        )
    )
    rows, agreement = {}, {}
    for shards in SHARD_COUNTS:
        for batch in BATCH_SIZES:
            with ClusterSystem(
                shard_count=shards,
                batch_size=batch,
                network_config=NetworkConfig(seed=7),
                seed=7,
            ) as system:
                rows[shards, batch] = run_cluster(system, workload)
                agreement[shards, batch] = system.check_agreement()
    return len(workload), rows, agreement


def test_every_run_commits_every_submission_and_audits_clean(grid):
    submissions, rows, _ = grid
    for (shards, batch), row in rows.items():
        label = f"shards={shards} batch={batch}"
        assert row.summary.committed == submissions, label
        assert row.check.ok, f"{label}: {row.check.violations[:3]}"
        assert row.conservation_ok, f"{label}: {row.check.conservation}"
        assert row.fully_settled and row.resident_settlement_records == 0, label


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_throughput_rises_with_shard_count(grid, batch):
    _, rows, _ = grid
    series = [rows[shards, batch].summary.throughput for shards in SHARD_COUNTS]
    assert series == sorted(series) and series[0] < series[-1], series


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_batching_beats_one_transfer_per_broadcast(grid, shards):
    _, rows, _ = grid
    batched = rows[shards, 8].summary.throughput
    unbatched = rows[shards, 1].summary.throughput
    assert batched > unbatched, (batched, unbatched)


def test_agreement_holds_on_every_shard(grid):
    """Each shard's replicas end with one validated set, their mints
    included, and every submission answered."""
    _, _, agreement = grid
    for (shards, batch), reports in agreement.items():
        assert sorted(reports) == list(range(shards))
        for shard, report in reports.items():
            assert report.ok, f"shards={shards} batch={batch} shard={shard}: {report.violations[:3]}"
