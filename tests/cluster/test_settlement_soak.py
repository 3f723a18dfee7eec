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

Driver-side relay journal residency is asserted alongside the ledger
residency: with compaction behind the retirement watermark, the relays hold
the in-flight window plus one watermark certificate per stream — never the
certificate history.

The soak runs again on the two-worker process pool, which must sample the
serial soak's checkpoints exactly: the same commits, resident and retired
records, amounts, journal residency and identity flags at every one.
"""

import dataclasses

import pytest

from repro.eval.experiments import (
    ClusterExperimentConfig,
    SoakReport,
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


def _soak(config: ClusterExperimentConfig) -> SoakReport:
    return settlement_soak_experiment(
        shard_count=SOAK_SHARDS,
        batch_size=SOAK_BATCH,
        checkpoints=SOAK_CHECKPOINTS,
        config=config,
    )


@pytest.fixture(scope="module")
def serial_soak() -> SoakReport:
    return _soak(_config(SOAK_DURATION))


def test_settlement_soak_bounded_resident_records(serial_soak):
    """Long horizon, sustained cross-shard load: resident records and relay
    journals stay flat and identities hold at every checkpoint."""
    report = serial_soak

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


def test_pool_soak_samples_match_the_serial_soak(serial_soak):
    """The same soak on the two-worker process pool: audits hold, everything
    retires, and every checkpoint samples exactly what the serial soak's
    does — the pool moves no commit, record, journal entry or identity."""
    pool = _soak(
        dataclasses.replace(
            _config(SOAK_DURATION), backend="process", max_workers=SOAK_WORKERS
        )
    )

    assert not pool.violations, pool.violations
    assert pool.final_check_ok
    assert pool.fully_retired
    assert len(pool.samples) == len(serial_soak.samples) == SOAK_CHECKPOINTS + 1
    # Whole samples: commits, resident and retired records, amounts,
    # journal residency and both identity flags, at every checkpoint.
    for index, (ours, theirs) in enumerate(zip(pool.samples, serial_soak.samples)):
        assert ours == theirs, f"checkpoint {index}: pool {ours} vs serial {theirs}"
