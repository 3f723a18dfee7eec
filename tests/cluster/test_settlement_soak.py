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

Driver-side certificate residency is asserted alongside the ledger
residency: the settlement layer holds a certificate only while it is queued
for delivery or buffered in an inbox, so the resident count tracks the
in-flight window and is zero at quiescence — never the certificate history.
So are the live ``Signature`` objects, which carry their verification
verdicts (and the bytes they were checked over): every one sits in a
resident certificate or on a voucher or ack of a record still in flight.

The soak runs again on the two-worker process pool, which must sample the
serial soak's checkpoints exactly: the same commits, resident and retired
records, amounts, certificate residency and identity flags at every one.
"""

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pytest

from repro.cluster.system import ClusterSystem
from repro.crypto.signatures import Signature
from repro.eval.experiments import CLUSTER_MAX_EVENTS, telemetry_phase_coverage
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

SOAK_DURATION = 0.12
SOAK_CHECKPOINTS = 6
SOAK_SHARDS = 2
SOAK_BATCH = 4
SOAK_WORKERS = 2
REPLICAS = 4
QUORUM = 2 * ((REPLICAS - 1) // 3) + 1
INITIAL_BALANCE = 1_000_000


@dataclass(frozen=True)
class SoakSample:
    """One checkpoint of a long-horizon settlement soak."""

    time: float
    committed: int
    resident_settlement_records: int
    retired_records: int
    retired_amount: int
    minted_amount: int
    in_flight_amount: int
    conserved: bool
    retirement_backed: bool
    # Driver-side certificate residency: certificate objects queued for
    # delivery or buffered in an inbox.  Bounded by the in-flight window,
    # like the ledgers, and zero at quiescence.
    resident_journal_records: int = 0


@dataclass(frozen=True)
class SoakReport:
    """The soak's verdict: compaction keeps resident records bounded.

    ``peak_resident`` is the largest resident ``x{d}:a`` record count seen
    at any checkpoint; ``cumulative_records`` is how many outbound records
    the run produced in total (resident + retired at the end).  A working
    lifecycle keeps the peak well below the cumulative count — the in-flight
    window, not the history — and retires everything by quiescence.  The
    same bound holds one layer up for the driver-side certificates:
    ``peak_journal`` resident versus ``journal_total`` assembled.
    """

    samples: List[SoakSample]
    peak_resident: int
    cumulative_records: int
    final_check_ok: bool
    violations: List[str]
    peak_journal: int = 0
    journal_total: int = 0
    # The final run's telemetry section (None with telemetry off).
    telemetry: Optional[Dict[str, object]] = None
    # Live ``Signature`` objects in this process at each checkpoint, after a
    # full collection, those alive before the soak aside.  Kept beside the
    # samples, not in them: a pool soak's workers hold signatures its driver
    # cannot count.
    live_signatures: List[int] = field(default_factory=list)

    def signature_bound(self, sample: SoakSample) -> int:
        """The most signatures a checkpoint's resident state can hold.

        A live signature is in a certificate still queued for delivery or
        buffered in an inbox (``QUORUM`` signatures per certificate, each
        certificate one resident record) or on a voucher or ack whose
        outbound record is still resident (at most ``REPLICAS`` of each per
        record).
        """
        return (
            QUORUM * sample.resident_journal_records
            + 2 * REPLICAS * sample.resident_settlement_records
        )

    @property
    def bounded(self) -> bool:
        """Resident records never covered the full history (compaction bit)."""
        return (
            self.cumulative_records > 0
            and self.peak_resident < self.cumulative_records
        )

    @property
    def journal_bounded(self) -> bool:
        """Resident certificates never covered the full history either."""
        return self.journal_total > 0 and self.peak_journal < self.journal_total

    @property
    def fully_retired(self) -> bool:
        final = self.samples[-1] if self.samples else None
        return final is not None and final.resident_settlement_records == 0


def settlement_soak_experiment(**system_keywords) -> SoakReport:
    """Long-horizon soak: does the settlement lifecycle bound resident state?

    Runs one fraction-steered workload, pausing at evenly spaced
    checkpoints to sample the audit identity and the resident/retired
    record counts *mid-flight* — the regime where unbounded growth
    would show — then drains to quiescence.  The extended supply identity
    (``local + outbound - (minted - retired) == initial``) must hold at every
    single checkpoint, not just at the end.  Driver-side certificate
    residency is sampled alongside: it must track the in-flight window, not
    the certificate history.
    """
    system = ClusterSystem(
        shard_count=SOAK_SHARDS,
        replicas_per_shard=REPLICAS,
        batch_size=SOAK_BATCH,
        initial_balance=INITIAL_BALANCE,
        network_config=NetworkConfig(seed=7),
        seed=7,
        **system_keywords,
    )
    system.schedule_submissions(
        cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=2_000,
                aggregate_rate=4_000.0,
                duration=SOAK_DURATION,
                zipf_skew=1.0,
                cross_shard_fraction=0.5,
                router=system.router,
                seed=7,
            )
        )
    )

    initial_supply = SOAK_SHARDS * REPLICAS * INITIAL_BALANCE
    samples: List[SoakSample] = []
    violations: List[str] = []
    live_signatures: List[int] = []
    # Signatures alive before the soak (other suites' module data) are not
    # the soak's to count; holding them keeps their ids from being reused.
    gc.collect()
    earlier = [value for value in gc.get_objects() if type(value) is Signature]
    earlier_ids = {id(value) for value in earlier}

    def sample(result) -> None:
        gc.collect()
        live_signatures.append(
            sum(
                type(value) is Signature and id(value) not in earlier_ids
                for value in gc.get_objects()
            )
        )
        audit = system.supply_audit()
        samples.append(
            SoakSample(
                time=result.duration,
                committed=result.committed_count,
                resident_settlement_records=system.resident_settlement_records(),
                retired_records=system.retired_records(),
                retired_amount=audit.retired,
                minted_amount=audit.minted,
                in_flight_amount=audit.in_flight,
                conserved=audit.conserved,
                retirement_backed=audit.retirement_backed,
                resident_journal_records=system.settlement.resident_journal_records(),
            )
        )
        if audit.total != initial_supply:
            violations.append(
                f"identity broken at t={result.duration:.4f}: "
                f"total {audit.total} != initial {initial_supply}"
            )
        if not audit.retirement_backed:
            violations.append(
                f"retirement overran settlement at t={result.duration:.4f}"
            )

    for checkpoint in range(1, SOAK_CHECKPOINTS + 1):
        result = system.run(
            until=SOAK_DURATION * checkpoint / SOAK_CHECKPOINTS, max_events=CLUSTER_MAX_EVENTS
        )
        sample(result)
    result = system.run(max_events=CLUSTER_MAX_EVENTS)
    sample(result)
    report = system.check_definition1()
    if not report.ok:
        violations.extend(report.violations[:3])
    journal_total = system.settlement.journal_records_total()
    telemetry = system.result.telemetry
    system.close()

    peak = max(s.resident_settlement_records for s in samples)
    final = samples[-1]
    return SoakReport(
        samples=samples,
        peak_resident=peak,
        cumulative_records=final.resident_settlement_records + final.retired_records,
        final_check_ok=report.ok,
        violations=violations,
        peak_journal=max(s.resident_journal_records for s in samples),
        journal_total=journal_total,
        telemetry=telemetry,
        live_signatures=live_signatures,
    )


@pytest.fixture(scope="module")
def serial_soak() -> SoakReport:
    return settlement_soak_experiment()


def test_settlement_soak_bounded_resident_records(serial_soak):
    """Long horizon, sustained cross-shard load: resident records and
    resident certificates stay flat and identities hold at every checkpoint."""
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
    # Driver-side certificates track the in-flight window, not history:
    # the peak stays below the certificates assembled, and at quiescence,
    # with nothing queued or buffered, none stays resident.
    assert report.journal_bounded, (
        f"resident certificates not bounded: peak {report.peak_journal} vs "
        f"cumulative {report.journal_total}"
    )
    final = report.samples[-1]
    assert final.resident_journal_records == 0, (
        f"{final.resident_journal_records} certificates resident at quiescence"
    )
    # Signatures carry their verdicts, so they must track that window too.
    _assert_signatures_bounded(report)

    # The soak's telemetry (fingerprint-neutral): the phase breakdown spans
    # every checkpointed run() plus the drain, and must still explain >= 90%
    # of the total instrumented wall time.
    coverage = telemetry_phase_coverage(report.telemetry)
    assert report.telemetry is not None
    assert coverage >= 0.9, (
        f"soak phase breakdown explains only {coverage:.1%} of wall time"
    )


def _assert_signatures_bounded(report: SoakReport) -> None:
    assert len(report.live_signatures) == len(report.samples)
    for index, (live, sample) in enumerate(zip(report.live_signatures, report.samples)):
        assert live <= report.signature_bound(sample), (
            f"checkpoint {index}: {live} live signatures, resident state bounds "
            f"them by {report.signature_bound(sample)}"
        )


def test_pool_soak_samples_match_the_serial_soak(serial_soak):
    """The same soak on the two-worker process pool: audits hold, everything
    retires, and every checkpoint samples exactly what the serial soak's
    does — the pool moves no commit, record, certificate or identity."""
    pool = settlement_soak_experiment(backend="process", max_workers=SOAK_WORKERS)

    assert not pool.violations, pool.violations
    assert pool.final_check_ok
    assert pool.fully_retired
    assert len(pool.samples) == len(serial_soak.samples) == SOAK_CHECKPOINTS + 1
    # Whole samples: commits, resident and retired records, amounts,
    # certificate residency and both identity flags, at every checkpoint.
    for index, (ours, theirs) in enumerate(zip(pool.samples, serial_soak.samples)):
        assert ours == theirs, f"checkpoint {index}: pool {ours} vs serial {theirs}"
    # The driver holds the streams and inboxes, so the same bound holds for
    # what it keeps.
    _assert_signatures_bounded(pool)
