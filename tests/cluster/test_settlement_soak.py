"""Settlement-lifecycle soak — bounded resident records under sustained load.

The point of the acknowledgement-driven compaction lifecycle is that a
long-running ledger's settlement footprint tracks the *in-flight window*,
not the run's history: outbound ``x{d}:a`` records are retired the moment a
``2f+1`` destination-replica acknowledgement quorum confirms their mint.
This suite drives a long-horizon, cross-shard-heavy workload through the
epoch backends, sampling the resident/retired record counts and the extended
supply identity (``local + outbound - (minted - retired) == initial``) at
every checkpoint, and asserts:

* the identity holds at **every instant sampled**, not just at quiescence,
* the peak resident record count stays strictly below the cumulative number
  of outbound records the run produced (compaction reclaims mid-run), and
* by quiescence everything is retired — the ledgers carry no settlement
  history at all.

The soak run is *migrated*: a manual :class:`MigrationPlan` moves shards
between the two logical workers at one and two thirds of the horizon, so the
checkpoint identities and the boundedness claims are proven under live
placement changes, not just a static assignment.  Driver-side relay journal
residency is asserted alongside the ledger residency: with compaction behind
the retirement watermark, the relays hold the in-flight window plus one
watermark certificate per stream — never the certificate history.

The migrated soak runs again on the process pool twice — with and without
incremental checkpoints — to compare the growth figures the checkpoint seam
bounds: the driver's migration replay log and the shards' resident
local-transfer histories, alongside the tracemalloc peak.

A last run drives the same workload under :class:`FixedEpochPolicy`,
:class:`AdaptiveEpochPolicy` and :class:`LatencyTargetEpochPolicy`: the
barrier-overhead versus cross-shard-latency trade the adaptive grids
automate (the latency-target policy drives its p95 toward the goal directly).
"""

import dataclasses
import tracemalloc

from repro.cluster import (
    AdaptiveEpochPolicy,
    FixedEpochPolicy,
    LatencyTargetEpochPolicy,
    MigrationPlan,
)
from repro.eval.experiments import (
    ClusterExperimentConfig,
    epoch_policy_experiment,
    settlement_soak_experiment,
    telemetry_phase_coverage,
)
from repro.network.node import NetworkConfig

SOAK_DURATION = 0.12
SOAK_CHECKPOINTS = 6
SOAK_SHARDS = 2
SOAK_BATCH = 4
SOAK_WORKERS = 2
# The latency-target policy's p95 settlement-latency goal (simulated s).
LATENCY_TARGET_P95 = 0.006


def _config(duration: float) -> ClusterExperimentConfig:
    return ClusterExperimentConfig(
        user_count=2_000,
        aggregate_rate=4_000.0,
        duration=duration,
        zipf_skew=1.0,
        cross_shard_fraction=0.5,
        network=NetworkConfig(seed=7),
        seed=7,
    )


def _soak_migration(duration: float) -> MigrationPlan:
    """Shuffle both shards across the two logical workers, twice."""
    return MigrationPlan(
        [
            (duration / 3, 0, 1),
            (duration / 3, 1, 0),
            (2 * duration / 3, 0, 0),
            (2 * duration / 3, 1, 1),
        ]
    )


def test_settlement_soak_bounded_resident_records():
    """Long horizon, sustained cross-shard load, *live migration* mid-soak:
    resident records and relay journals stay flat, identities hold at every
    checkpoint, and the shards provably moved while it all held."""
    config = dataclasses.replace(
        _config(SOAK_DURATION),
        migration=_soak_migration(SOAK_DURATION),
        max_workers=SOAK_WORKERS,
    )
    report = settlement_soak_experiment(
        shard_count=SOAK_SHARDS,
        batch_size=SOAK_BATCH,
        checkpoints=SOAK_CHECKPOINTS,
        config=config,
    )

    assert not report.violations, report.violations
    assert report.final_check_ok
    # Compaction bit mid-run: the peak resident count is a fraction of the
    # history, and nothing is left resident at quiescence.
    assert report.cumulative_records > 0
    assert report.bounded, (
        f"resident records not bounded: peak {report.peak_resident} vs "
        f"cumulative {report.cumulative_records}"
    )
    assert report.fully_retired
    # Retirement was active well before the end, not a quiescence artefact.
    mid_run = report.samples[:-1]
    assert any(sample.retired_records > 0 for sample in mid_run)
    # The soak really migrated: all four scheduled moves executed, and the
    # identities above held at checkpoints sampled *between* the moves.
    assert report.migrations == 4
    # Driver-side relay journals track the in-flight window, not history:
    # the peak stays below the cumulative certificate deliveries, and at
    # quiescence only the per-stream retirement watermarks stay resident
    # (two certificate objects per active stream: assembled + delivered).
    assert report.journal_bounded, (
        f"relay journals not bounded: peak {report.peak_journal} vs "
        f"cumulative {report.journal_total}"
    )
    streams = SOAK_SHARDS * (SOAK_SHARDS - 1) * 4  # pairs x issuers
    final = report.samples[-1]
    assert final.resident_journal_records <= 2 * streams, (
        f"{final.resident_journal_records} journal records resident at "
        f"quiescence; expected at most the per-stream watermarks"
    )

    # The soak's telemetry (fingerprint-neutral): the phase breakdown spans
    # every checkpointed run() plus the drain, and must still explain >= 90%
    # of the total instrumented wall time.
    coverage = telemetry_phase_coverage(report.telemetry)
    assert report.telemetry is not None
    assert coverage >= 0.9, (
        f"soak phase breakdown explains only {coverage:.1%} of wall time"
    )


def test_checkpoint_soak_bounded_memory():
    """The same migrated soak on the process pool, with and without
    incremental checkpoints: checkpoints bound the driver's replay log and
    (with ``compact_history``) the shards' local-transfer histories, while
    the canonical outcome — audits, retirement, migrations — is identical.

    The growth assertions are deterministic event counts (replay-log and
    resident-record peaks), so they are strict.  The tracemalloc traced peak
    is only loosely asserted — allocator noise and interpreter warm-up make
    tight byte bounds flaky."""
    base = dataclasses.replace(
        _config(SOAK_DURATION),
        migration=_soak_migration(SOAK_DURATION),
        backend="process",
        max_workers=SOAK_WORKERS,
    )
    plain_config = base
    ckpt_config = dataclasses.replace(
        base, checkpoint_every=2, compact_history=True
    )

    def _measured(config):
        tracemalloc.start()
        report = settlement_soak_experiment(
            shard_count=SOAK_SHARDS,
            batch_size=SOAK_BATCH,
            checkpoints=SOAK_CHECKPOINTS,
            config=config,
        )
        _, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return report, traced_peak

    # Plain first so its traced peak is not inflated by the other run's
    # surviving allocations.
    plain, plain_peak = _measured(plain_config)
    ckpt, ckpt_peak = _measured(ckpt_config)

    for report in (plain, ckpt):
        assert not report.violations, report.violations
        assert report.final_check_ok
        assert report.fully_retired
        assert report.migrations == 4
    # Checkpoints are fingerprint-neutral one level up too: both runs commit
    # the same workload to the same outcome.
    assert [s.committed for s in ckpt.samples] == [
        s.committed for s in plain.samples
    ]

    # The bugfix belt, measured: without checkpoints the process pool's
    # migration replay log grows with the run; with them it tracks the
    # window since the newest baseline.
    assert plain.peak_replay_log > 0
    assert ckpt.peak_replay_log < plain.peak_replay_log, (
        f"replay log not bounded: {ckpt.peak_replay_log} with checkpoints "
        f"vs {plain.peak_replay_log} without"
    )
    # compact_history trims settled ordinary transfers behind the baseline.
    assert plain.peak_local_records > 0
    assert ckpt.peak_local_records < plain.peak_local_records, (
        f"local histories not compacted: {ckpt.peak_local_records} with "
        f"checkpoints vs {plain.peak_local_records} without"
    )
    # The checkpoint stream itself ships deltas, not full snapshots.
    stats = ckpt.checkpoint_stats
    assert stats is not None and stats["taken"] > 0
    assert 0 < stats["delta_bytes"] < stats["full_bytes"]
    plain_stats = plain.checkpoint_stats
    assert plain_stats is None or plain_stats["taken"] == 0
    # Loose memory bound only: the checkpointed run must not cost real
    # memory for its bookkeeping (generous margin, see docstring).
    assert ckpt_peak <= plain_peak * 1.5, (
        f"checkpointed soak traced peak {ckpt_peak} vs plain {plain_peak}"
    )


def test_epoch_policy_trade():
    """Fixed vs adaptive vs latency-target grids: overhead vs settlement
    latency, with the latency-target policy judged against its p95 goal."""
    config = _config(0.05)
    policies = [
        ("fixed", FixedEpochPolicy(config.epoch)),
        ("adaptive", AdaptiveEpochPolicy(initial_epoch=config.epoch)),
        (
            "latency-target",
            LatencyTargetEpochPolicy(
                target_p95=LATENCY_TARGET_P95,
                initial_epoch=config.epoch,
                min_epoch=config.epoch / 8,
                max_epoch=config.epoch * 4,
            ),
        ),
    ]
    rows = epoch_policy_experiment(
        policies, shard_count=SOAK_SHARDS, batch_size=SOAK_BATCH, config=config
    )

    by_policy = {row.policy: row for row in rows}
    for row in rows:
        assert row.check_ok, f"audit violated under policy={row.policy}"
        assert row.settlement_samples > 0
    # Same workload, same committed outcome — the policy only moves *when*
    # settlement crosses, never what commits.
    assert by_policy["fixed"].committed == by_policy["adaptive"].committed
    assert by_policy["fixed"].committed == by_policy["latency-target"].committed
    # The adaptive grid actually adapted: its barrier schedule diverged from
    # the fixed grid's (the width can transit back through the initial value,
    # so the barrier count is the robust signal).
    assert by_policy["adaptive"].barriers != by_policy["fixed"].barriers
    # The latency-target policy either met its p95 goal or provably ran out
    # of grid to narrow (an unreachable goal must end pinned at min_epoch,
    # never silently drifting).
    latency_row = by_policy["latency-target"]
    assert (
        latency_row.p95_settlement_latency <= LATENCY_TARGET_P95
        or latency_row.final_epoch <= config.epoch / 8
    ), (
        f"latency-target ended at p95 "
        f"{latency_row.p95_settlement_latency * 1000:.2f} ms with epoch "
        f"{latency_row.final_epoch * 1000:.2f} ms"
    )
    # Narrowing toward the goal beats the fixed grid's p95.
    assert (
        latency_row.p95_settlement_latency
        <= by_policy["fixed"].p95_settlement_latency
    )
