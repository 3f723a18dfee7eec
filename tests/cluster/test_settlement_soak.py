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
``compact_history`` — to show that consumption compaction bounds the shards'
resident local-transfer histories without changing the outcome, while every
move still replays its shard from genesis.
"""

import dataclasses

from repro.cluster.migration import MigrationPlan
from repro.eval.experiments import (
    ClusterExperimentConfig,
    settlement_soak_experiment,
    telemetry_phase_coverage,
)
from repro.network.node import NetworkConfig

SOAK_DURATION = 0.12
SOAK_CHECKPOINTS = 6
SOAK_SHARDS = 2
SOAK_BATCH = 4
SOAK_WORKERS = 2


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


def test_compacted_soak_bounds_local_records():
    """The same migrated soak on the process pool, with and without
    ``compact_history``: compaction keeps fewer ordinary records resident,
    while the canonical outcome — audits, retirement, migrations — is
    identical.  The peaks are deterministic record counts, so the bound is
    strict."""
    plain_config = dataclasses.replace(
        _config(SOAK_DURATION),
        migration=_soak_migration(SOAK_DURATION),
        backend="process",
        max_workers=SOAK_WORKERS,
    )
    compacted_config = dataclasses.replace(plain_config, compact_history=True)
    plain, compacted = (
        settlement_soak_experiment(
            shard_count=SOAK_SHARDS,
            batch_size=SOAK_BATCH,
            checkpoints=SOAK_CHECKPOINTS,
            config=config,
        )
        for config in (plain_config, compacted_config)
    )

    for report in (plain, compacted):
        assert not report.violations, report.violations
        assert report.final_check_ok
        assert report.fully_retired
        assert report.migrations == 4
        # Every move replayed its shard from genesis off the driver's log.
        assert report.peak_replay_log > 0
    # Compaction is balance-preserving: both runs commit the same workload
    # to the same outcome at every sample.
    assert [s.committed for s in compacted.samples] == [
        s.committed for s in plain.samples
    ]
    assert plain.peak_local_records > 0
    assert compacted.peak_local_records < plain.peak_local_records, (
        f"local histories not compacted: {compacted.peak_local_records} with "
        f"compact_history vs {plain.peak_local_records} without"
    )
