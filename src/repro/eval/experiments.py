"""The experiment harness behind the examples and the tests.

The paper's §5 claims (E5, E6, E8 and the PBFT batching ablation) are checked
by ``tests/paper/test_paper_claims.py`` and printed at larger sizes by
``examples/throughput_comparison.py``; ``examples/double_spend_attack.py``
runs E4.  The cluster helpers below drive ``examples/cluster_quickstart.py``
and the cluster tests.  They are deliberately plain functions returning plain
dataclasses so they can be called from pytest, from the example scripts and
from an interactive session alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.bft.pbft import PbftConfig
from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.result import ClusterCheckReport
from repro.cluster.system import ClusterSystem
from repro.common.errors import ConfigurationError
from repro.common.types import OwnershipMap
from repro.eval.metrics import RunSummary, summarize_result
from repro.mp.consensusless_transfer import account_of
from repro.obs import top_counters
from repro.mp.k_shared import KSharedSystem
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.network.node import NetworkConfig
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker, CheckReport
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload
from repro.workloads.generators import WorkloadConfig, closed_loop_workload, k_shared_workload


@dataclass
class ExperimentConfig:
    """Shared knobs for the comparison experiments (E5, E6, E8)."""

    transfers_per_process: int = 6
    initial_balance: int = 1_000
    broadcast: str = "bracha"
    batch_size: int = 8
    seed: int = 7
    network: NetworkConfig = field(default_factory=NetworkConfig)
    max_events: Optional[int] = 50_000_000

    def workload(self, process_count: int) -> List[ClientSubmission]:
        return closed_loop_workload(
            process_count,
            WorkloadConfig(transfers_per_process=self.transfers_per_process, seed=self.seed),
        )


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the E5/E6 table: both systems at one system size."""

    process_count: int
    consensusless: RunSummary
    consensus_based: RunSummary

    @property
    def throughput_ratio(self) -> float:
        """How many times higher the consensusless throughput is."""
        if self.consensus_based.throughput == 0:
            return float("inf")
        return self.consensusless.throughput / self.consensus_based.throughput

    @property
    def latency_ratio(self) -> float:
        """How many times lower the consensusless average latency is."""
        if self.consensusless.latency.average == 0:
            return float("inf")
        return self.consensus_based.latency.average / self.consensusless.latency.average


def run_consensusless(
    process_count: int, config: Optional[ExperimentConfig] = None
) -> Tuple[RunSummary, ConsensuslessSystem]:
    """Run the broadcast-based system under the standard workload."""
    config = config or ExperimentConfig()
    system = ConsensuslessSystem(
        process_count=process_count,
        initial_balance=config.initial_balance,
        broadcast=config.broadcast,
        network_config=config.network,
        seed=config.seed,
    )
    system.schedule_submissions(config.workload(process_count))
    result = system.run(max_events=config.max_events)
    return summarize_result("consensusless", process_count, result), system


def run_consensus_based(
    process_count: int, config: Optional[ExperimentConfig] = None
) -> Tuple[RunSummary, ConsensusTransferSystem]:
    """Run the PBFT-ordered baseline under the standard workload."""
    config = config or ExperimentConfig()
    system = ConsensusTransferSystem(
        process_count=process_count,
        initial_balance=config.initial_balance,
        network_config=config.network,
        pbft_config=PbftConfig(batch_size=config.batch_size),
        seed=config.seed,
    )
    system.schedule_submissions(config.workload(process_count))
    result = system.run(max_events=config.max_events)
    return summarize_result("consensus-based", process_count, result), system


def compare_systems(
    process_count: int, config: Optional[ExperimentConfig] = None
) -> ComparisonRow:
    """E5/E6: one like-for-like comparison at a given system size."""
    config = config or ExperimentConfig()
    consensusless, _ = run_consensusless(process_count, config)
    consensus_based, _ = run_consensus_based(process_count, config)
    return ComparisonRow(
        process_count=process_count,
        consensusless=consensusless,
        consensus_based=consensus_based,
    )


def throughput_scaling_experiment(
    process_counts: Sequence[int] = (10, 20, 30),
    config: Optional[ExperimentConfig] = None,
) -> List[ComparisonRow]:
    """E5/E6/E8: sweep the system size and compare both systems at each point.

    The defaults are the quick sweep of ``examples/throughput_comparison.py``,
    which runs the full paper-scale sweep (up to 100 processes) when asked to.
    """
    config = config or ExperimentConfig()
    return [compare_systems(n, config) for n in process_counts]


@dataclass(frozen=True)
class DoubleSpendOutcome:
    """E4: result of running the protocol against a double-spend attacker."""

    process_count: int
    attacker: int
    committed_honest_transfers: int
    conflicting_validated_anywhere: bool
    definition_1_report: CheckReport
    supply_conserved: bool


def double_spend_experiment(
    process_count: int = 8,
    config: Optional[ExperimentConfig] = None,
    overlap: float = 0.0,
) -> DoubleSpendOutcome:
    """E4: a Byzantine owner equivocates two conflicting transfers.

    Returns whether any correct process validated both conflicting transfers
    (it never should), whether Definition 1 holds for the correct processes,
    and whether the money supply seen by correct processes is conserved.
    """
    config = config or ExperimentConfig()
    attacker = process_count - 1
    fault_model = FaultModel(
        total_processes=process_count, faults={attacker: FaultKind.DOUBLE_SPEND}
    )
    system = ConsensuslessSystem(
        process_count=process_count,
        initial_balance=config.initial_balance,
        broadcast=config.broadcast,
        network_config=config.network,
        fault_model=fault_model,
        seed=config.seed,
    )
    submissions = [
        submission
        for submission in config.workload(process_count)
        if submission.issuer != attacker and submission.destination != account_of(attacker)
    ]
    system.schedule_submissions(submissions)
    if overlap:
        for node in system.nodes.values():
            if hasattr(node, "overlap"):
                node.overlap = overlap
    system.trigger_attacks(at_time=0.0005)
    result = system.run(max_events=config.max_events)

    attacker_node = system.nodes[attacker]
    transfer_a, transfer_b = attacker_node.conflicting_transfers
    both_validated = False
    for node in system.correct_nodes():
        history = node.hist.get(account_of(attacker), set())
        if transfer_a in history and transfer_b in history:
            both_validated = True

    checker = ByzantineAssetTransferChecker(system.initial_balances())
    report = checker.check(system.observations())

    expected_supply = config.initial_balance * process_count
    supply_ok = True
    for node in system.correct_nodes():
        balances = node.all_known_balances()
        total = sum(balances.get(account_of(p), 0) for p in range(process_count))
        if total > expected_supply:
            supply_ok = False
    return DoubleSpendOutcome(
        process_count=process_count,
        attacker=attacker,
        committed_honest_transfers=result.committed_count,
        conflicting_validated_anywhere=both_validated,
        definition_1_report=report,
        supply_conserved=supply_ok,
    )


@dataclass(frozen=True)
class KSharedOutcome:
    """E7: the k-shared system with one account's owners partially silenced."""

    committed_on_healthy_accounts: int
    committed_on_compromised_account: int
    healthy_account_liveness: bool
    views_agree: bool


def k_shared_experiment(
    owners_per_shared_account: int = 3,
    singleton_accounts: int = 5,
    transfers_per_owner: int = 2,
    compromise: bool = True,
    seed: int = 11,
    network: Optional[NetworkConfig] = None,
) -> KSharedOutcome:
    """E7: shared accounts keep working; a compromised one only blocks itself.

    The system has one shared account (owned by ``owners_per_shared_account``
    processes) plus ``singleton_accounts`` single-owner accounts.  When
    ``compromise`` is true, enough of the shared account's owners are silenced
    to stall its sequencing service; the experiment then checks that the
    other accounts retain liveness and that all correct views agree.
    """
    if owners_per_shared_account < 2:
        raise ConfigurationError("the shared account needs at least two owners")
    shared_owners = tuple(range(owners_per_shared_account))
    accounts = {"shared": shared_owners}
    process_count = owners_per_shared_account + singleton_accounts
    for index in range(singleton_accounts):
        owner = owners_per_shared_account + index
        accounts[str(owner)] = (owner,)
    ownership = OwnershipMap(accounts)
    initial_balances = {account: 100 for account in ownership.accounts}

    # Silence a majority of the shared account's owners (including its
    # sequencing leader) to model a compromised account.
    silent = tuple(shared_owners[: max(1, (2 * owners_per_shared_account) // 3)]) if compromise else ()

    system = KSharedSystem(
        ownership=ownership,
        process_count=process_count,
        initial_balances=initial_balances,
        network_config=network or NetworkConfig(),
        silent_processes=silent,
        seed=seed,
    )

    submissions = k_shared_workload(
        ownership, WorkloadConfig(transfers_per_process=transfers_per_owner, seed=seed)
    )
    healthy_expected = 0
    for submission in submissions:
        if submission.issuer in silent:
            continue
        destination_owners = ownership.owners(submission.destination)
        system.submit(
            submission.time, submission.issuer, submission.source, submission.destination, submission.amount
        )
        if submission.source != "shared":
            healthy_expected += 1
    # Bound the run: a compromised shared account never quiesces (its owners
    # keep retrying), so run to a fixed horizon instead.
    result = system.run(until=3.0)

    committed_shared = sum(
        1 for record in result.committed if record.transfer.source == "shared"
    )
    committed_healthy = result.committed_count - committed_shared
    views = [node.all_known_balances() for node in system.correct_nodes()]
    views_agree = all(view == views[0] for view in views[1:]) if views else True
    return KSharedOutcome(
        committed_on_healthy_accounts=committed_healthy,
        committed_on_compromised_account=committed_shared,
        healthy_account_liveness=committed_healthy >= healthy_expected,
        views_agree=views_agree,
    )


@dataclass(frozen=True)
class LatencyRow:
    """E6 (low load): unloaded per-transfer latency of both systems."""

    process_count: int
    consensusless_latency: float
    consensus_latency: float

    @property
    def latency_ratio(self) -> float:
        if self.consensusless_latency == 0:
            return float("inf")
        return self.consensus_latency / self.consensusless_latency


def latency_experiment(
    process_counts: Sequence[int] = (10, 20, 30),
    transfers: int = 10,
    config: Optional[ExperimentConfig] = None,
) -> List[LatencyRow]:
    """E6: per-transfer latency at low load.

    A handful of transfers are issued far apart in time so that neither
    system queues: the measurement isolates the protocol's critical path
    (3 one-way delays for the broadcast protocol versus client-to-leader
    forwarding, batching delay and three phases for PBFT).  This is the
    regime in which the paper's "up to 2× lower latency" claim applies.
    """
    config = config or ExperimentConfig()
    rows: List[LatencyRow] = []
    for process_count in process_counts:
        spacing = 0.25
        submissions = [
            ClientSubmission(
                time=spacing * (index + 1),
                issuer=index % process_count,
                destination=account_of((index + 1) % process_count),
                amount=1,
            )
            for index in range(transfers)
        ]
        consensusless = ConsensuslessSystem(
            process_count=process_count,
            initial_balance=config.initial_balance,
            broadcast=config.broadcast,
            network_config=config.network,
            seed=config.seed,
        )
        consensusless.schedule_submissions(submissions)
        result_cl = consensusless.run(max_events=config.max_events)

        consensus = ConsensusTransferSystem(
            process_count=process_count,
            initial_balance=config.initial_balance,
            network_config=config.network,
            pbft_config=PbftConfig(batch_size=config.batch_size),
            seed=config.seed,
        )
        consensus.schedule_submissions(submissions)
        result_bft = consensus.run(max_events=config.max_events)

        rows.append(
            LatencyRow(
                process_count=process_count,
                consensusless_latency=result_cl.average_latency,
                consensus_latency=result_bft.average_latency,
            )
        )
    return rows


@dataclass
class ClusterExperimentConfig:
    """Knobs of the cluster experiments.

    The workload is shared across every swept configuration (same seed, same
    users, same arrival times), so throughput differences are attributable to
    the cluster geometry alone — "equal offered load".  ``cross_shard_fraction``
    steers the settlement load; because which destinations are cross-shard
    depends on the cluster geometry, fraction-steered workloads are generated
    *per configuration* (from the target system's own router) rather than
    shared.
    """

    replicas_per_shard: int = 4
    broadcast: str = "bracha"
    initial_balance: int = 1_000_000
    user_count: int = 10_000
    aggregate_rate: float = 20_000.0
    duration: float = 0.1
    zipf_skew: float = 1.0
    cross_shard_fraction: Optional[float] = None
    # A HotspotProfile shifting a Zipf hotspot across shards mid-run.  Needs
    # a router, like cross_shard_fraction.
    hotspot: Optional[object] = None
    # Execution backend of the swept systems: "serial" or "process" (see
    # repro.cluster.backends); results are backend-invariant, wall-clock time
    # is not.
    backend: str = "serial"
    epoch: float = 0.005
    max_workers: Optional[int] = None
    # The telemetry mode ("off"/"metrics"/"full"), passed straight through to
    # ClusterSystem.  Fingerprint-neutral by the telemetry invariant — runs
    # only gain a telemetry section, never different results.
    telemetry: str = "metrics"
    seed: int = 7
    network: NetworkConfig = field(default_factory=NetworkConfig)
    max_events: Optional[int] = 50_000_000

    def workload(self, router=None):
        return cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=self.user_count,
                aggregate_rate=self.aggregate_rate,
                duration=self.duration,
                zipf_skew=self.zipf_skew,
                cross_shard_fraction=self.cross_shard_fraction,
                hotspot=self.hotspot,
                router=router,
                seed=self.seed,
            )
        )

    def system(self, shard_count: int, batch_size: int = 1) -> ClusterSystem:
        """The one place this config becomes a :class:`ClusterSystem`."""
        return ClusterSystem(
            shard_count=shard_count,
            replicas_per_shard=self.replicas_per_shard,
            batch_size=batch_size,
            broadcast=self.broadcast,
            initial_balance=self.initial_balance,
            network_config=self.network,
            backend=self.backend,
            epoch=self.epoch,
            max_workers=self.max_workers,
            telemetry=self.telemetry,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ClusterScalingRow:
    """One swept cluster configuration and its audited outcome."""

    shard_count: int
    batch_size: int
    summary: RunSummary
    check: ClusterCheckReport
    broadcast_instances: int
    payload_items: int
    load_imbalance: float
    cross_shard_submissions: int = 0
    settled_amount: int = 0
    in_flight_amount: int = 0
    settlement_messages: int = 0
    # Settlement-lifecycle figures: outbound records retired behind the
    # compaction watermarks (and the money they carried) versus those still
    # resident in the ledgers — the quantity compaction bounds.
    resident_settlement_records: int = 0
    retired_records: int = 0
    retired_amount: int = 0

    @property
    def amortisation(self) -> float:
        """Transfers per secure-broadcast instance (> 1 under batching)."""
        if self.broadcast_instances == 0:
            return 0.0
        return self.payload_items / self.broadcast_instances

    @property
    def conservation_ok(self) -> bool:
        """The conservation *identity* holds (money is never created or lost).

        Deliberately does not require settlement completeness: a run stopped
        mid-flight is conserved but not settled.  Completeness is visible
        separately as ``in_flight_amount == 0`` / :attr:`fully_settled`.
        """
        audit = self.check.conservation
        return audit is not None and audit.ok

    @property
    def fully_settled(self) -> bool:
        """Every outbound cross-shard credit was minted at its destination."""
        audit = self.check.conservation
        return audit is not None and audit.fully_settled


def run_cluster(
    shard_count: int,
    batch_size: int = 1,
    config: Optional[ClusterExperimentConfig] = None,
    workload=None,
) -> Tuple[ClusterScalingRow, ClusterSystem]:
    """Run one cluster configuration under the high-volume open-loop workload.

    ``workload`` lets sweeps reuse one generated submission list across
    configurations instead of regenerating it per run; fraction-steered
    workloads (``config.cross_shard_fraction``) are built from the freshly
    constructed system's router when no workload is passed in.
    """
    config = config or ClusterExperimentConfig()
    system = config.system(shard_count, batch_size)
    if workload is None:
        workload = config.workload(system.router)
    system.schedule_submissions(workload)
    result = system.run(max_events=config.max_events)
    total_processes = shard_count * config.replicas_per_shard
    summary = summarize_result(
        f"cluster[s={shard_count},b={batch_size}]", total_processes, result
    )
    check = system.check_definition1()
    audit = check.conservation
    row = ClusterScalingRow(
        shard_count=shard_count,
        batch_size=batch_size,
        summary=summary,
        check=check,
        broadcast_instances=system.broadcast_instances(),
        payload_items=system.payload_items(),
        load_imbalance=result.load_imbalance(),
        cross_shard_submissions=system.cross_shard_submissions,
        settled_amount=audit.minted if audit is not None else 0,
        in_flight_amount=audit.in_flight if audit is not None else 0,
        settlement_messages=(
            system.settlement.settlement_messages() if system.settlement else 0
        ),
        resident_settlement_records=system.resident_settlement_records(),
        retired_records=system.retired_records(),
        retired_amount=audit.retired if audit is not None else 0,
    )
    return row, system


@dataclass(frozen=True)
class TelemetryRow:
    """One driver phase of a run's telemetry section, ready for a table.

    ``share`` is the phase's fraction of ``phase.total`` wall time; the
    shares of the non-total rows summing close to 1.0 is the breakdown's
    *coverage* — how much of the run the instrumented phases account for.
    """

    phase: str
    count: int
    total_s: float
    mean_s: float
    share: float


def telemetry_breakdown(telemetry: Optional[Dict[str, object]]) -> List[TelemetryRow]:
    """The driver's per-phase wall-time breakdown, largest share first.

    Reads the ``phase.*`` histograms of the telemetry section's driver
    registry (``phase.open``/``advance``/``exchange``/
    ``finalize``/``capture``) and normalises each against ``phase.total``.
    The ``phase.total`` row itself is excluded — it is the denominator.
    Returns ``[]`` for ``None`` (telemetry off) or a section with no phase
    histograms.
    """
    if not telemetry:
        return []
    driver = telemetry.get("driver") or {}
    histograms = driver.get("histograms") or {}
    total = (histograms.get("phase.total") or {}).get("total", 0.0)
    rows = [
        TelemetryRow(
            phase=name,
            count=series.get("count", 0),
            total_s=series.get("total", 0.0),
            mean_s=series.get("mean", 0.0),
            share=series.get("total", 0.0) / total if total > 0 else 0.0,
        )
        for name, series in histograms.items()
        if name.startswith("phase.") and name != "phase.total"
    ]
    rows.sort(key=lambda row: (-row.total_s, row.phase))
    return rows


def telemetry_phase_coverage(telemetry: Optional[Dict[str, object]]) -> float:
    """Fraction of ``phase.total`` wall time the named phases account for.

    The soak test asserts this stays ≥ 0.9: if instrumentation drifts out of
    a hot phase, the breakdown silently stops explaining the run — this is
    the guard.
    """
    return sum(row.share for row in telemetry_breakdown(telemetry))


def telemetry_top_counters(
    telemetry: Optional[Dict[str, object]], limit: int = 5
) -> List[Tuple[str, int]]:
    """The largest counters of the run's merged (driver + shards) totals."""
    if not telemetry:
        return []
    totals = telemetry.get("totals") or {}
    return top_counters(totals, limit=limit)


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
    # Driver-side relay journal residency: certificate objects still held in
    # the relays' certificates/delivered/retirement journals.  Compaction
    # behind the retirement watermark bounds this by the in-flight window
    # (plus one watermark certificate per stream), like the ledgers.
    resident_journal_records: int = 0


@dataclass(frozen=True)
class SoakReport:
    """The soak's verdict: compaction keeps resident records bounded.

    ``peak_resident`` is the largest resident ``x{d}:a`` record count seen
    at any checkpoint; ``cumulative_records`` is how many outbound records
    the run produced in total (resident + retired at the end).  A working
    lifecycle keeps the peak well below the cumulative count — the in-flight
    window, not the history — and retires everything by quiescence.  The
    same bound holds one layer up for the driver-side relay journals:
    ``peak_journal`` versus ``journal_total`` cumulative certificate
    deliveries.
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

    @property
    def bounded(self) -> bool:
        """Resident records never covered the full history (compaction bit)."""
        return (
            self.cumulative_records > 0
            and self.peak_resident < self.cumulative_records
        )

    @property
    def journal_bounded(self) -> bool:
        """Relay journals never held the full certificate history either."""
        return self.journal_total > 0 and self.peak_journal < self.journal_total

    @property
    def fully_retired(self) -> bool:
        final = self.samples[-1] if self.samples else None
        return final is not None and final.resident_settlement_records == 0


def settlement_soak_experiment(
    shard_count: int = 2,
    batch_size: int = 4,
    checkpoints: int = 8,
    config: Optional[ClusterExperimentConfig] = None,
) -> SoakReport:
    """Long-horizon soak: does the settlement lifecycle bound resident state?

    Runs one fraction-steered workload, pausing at evenly spaced
    checkpoints to sample the audit identity and the resident/retired
    record counts *mid-flight* — the regime where unbounded growth
    would show — then drains to quiescence.  The extended supply identity
    (``local + outbound - (minted - retired) == initial``) must hold at every
    single checkpoint, not just at the end.  Driver-side relay journal
    residency is sampled alongside: the journals must track the in-flight
    window, not the certificate history.
    """
    config = config or ClusterExperimentConfig(
        duration=0.2, aggregate_rate=4_000.0, user_count=2_000, cross_shard_fraction=0.5
    )
    system = config.system(shard_count, batch_size)
    system.schedule_submissions(config.workload(system.router))

    initial_supply = (
        shard_count * config.replicas_per_shard * config.initial_balance
    )
    samples: List[SoakSample] = []
    violations: List[str] = []

    def sample(result) -> None:
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
                resident_journal_records=(
                    system.settlement.resident_journal_records()
                    if system.settlement
                    else 0
                ),
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

    horizon = config.duration
    for checkpoint in range(1, checkpoints + 1):
        result = system.run(
            until=horizon * checkpoint / checkpoints, max_events=config.max_events
        )
        sample(result)
    result = system.run(max_events=config.max_events)
    sample(result)
    report = system.check_definition1()
    if not report.ok:
        violations.extend(report.violations[:3])
    journal_total = (
        system.settlement.journal_records_total() if system.settlement else 0
    )
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
    )
