"""Horizontal scaling and batching, the two claims sharding by account buys.

Consensus number 1 lets the system shard by account with no cross-shard
coordination, so more shards must commit the same offered load faster, and
batching many transfers into one secure-broadcast instance must amortise
its quorum cost.  One Zipf/Poisson workload (5 000 users, 16 000 tx/s for
0.03 s, seed 7) replays against shards (1, 2) x batch (1, 8); the load is
heavy enough that the protocol, not the arrival rate, bounds throughput.
Every run must commit every submission with Definition 1 and the supply
identity holding, so the orderings compare equal work.
"""

import pytest

from repro.eval.experiments import ClusterExperimentConfig, run_cluster
from repro.network.node import NetworkConfig

SHARD_COUNTS = (1, 2)
BATCH_SIZES = (1, 8)


@pytest.fixture(scope="module")
def grid():
    config = ClusterExperimentConfig(
        user_count=5_000,
        aggregate_rate=16_000.0,
        duration=0.03,
        zipf_skew=1.0,
        network=NetworkConfig(seed=7),
        seed=7,
    )
    workload = config.workload()
    rows = {}
    for shards in SHARD_COUNTS:
        for batch in BATCH_SIZES:
            row, system = run_cluster(shards, batch, config, workload=workload)
            system.close()
            rows[shards, batch] = row
    return len(workload), rows


def test_every_run_commits_every_submission_and_audits_clean(grid):
    submissions, rows = grid
    for (shards, batch), row in rows.items():
        label = f"shards={shards} batch={batch}"
        assert row.summary.committed == submissions, label
        assert row.check.ok, f"{label}: {row.check.violations[:3]}"
        assert row.conservation_ok, f"{label}: {row.check.conservation}"
        assert row.fully_settled and row.resident_settlement_records == 0, label


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_throughput_rises_with_shard_count(grid, batch):
    _, rows = grid
    series = [rows[shards, batch].summary.throughput for shards in SHARD_COUNTS]
    assert series == sorted(series) and series[0] < series[-1], series


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_batching_beats_one_transfer_per_broadcast(grid, shards):
    _, rows = grid
    batched = rows[shards, 8].summary.throughput
    unbatched = rows[shards, 1].summary.throughput
    assert batched > unbatched, (batched, unbatched)
