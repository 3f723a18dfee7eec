"""The experiment harness behind EXPERIMENTS.md and the benchmarks.

Every function here regenerates one of the experiments indexed in DESIGN.md
§3.  They are deliberately plain functions returning plain dataclasses / dicts
so they can be called from pytest benchmarks, from the example scripts and
from an interactive session alike.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.bft.pbft import PbftConfig
from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.result import ClusterCheckReport
from repro.cluster.routing import ShardRouter
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

    def network_copy(self) -> NetworkConfig:
        return NetworkConfig(
            latency_base=self.network.latency_base,
            latency_mean=self.network.latency_mean,
            processing_time=self.network.processing_time,
            signature_verification_time=self.network.signature_verification_time,
            seed=self.network.seed,
            drop_probability=self.network.drop_probability,
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

    @property
    def message_ratio(self) -> float:
        """Messages per committed transfer: consensusless / consensus-based."""
        if self.consensus_based.messages_per_commit == 0:
            return float("inf")
        return self.consensusless.messages_per_commit / self.consensus_based.messages_per_commit


def run_consensusless(
    process_count: int, config: Optional[ExperimentConfig] = None
) -> Tuple[RunSummary, ConsensuslessSystem]:
    """Run the broadcast-based system under the standard workload."""
    config = config or ExperimentConfig()
    system = ConsensuslessSystem(
        process_count=process_count,
        initial_balance=config.initial_balance,
        broadcast=config.broadcast,
        network_config=config.network_copy(),
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
        network_config=config.network_copy(),
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
    """E5/E6: sweep the system size and compare both systems at each point.

    The defaults keep simulation time reasonable for the test/benchmark
    suite; ``examples/throughput_comparison.py`` runs the full paper-scale
    sweep (up to 100 processes) when asked to.
    """
    config = config or ExperimentConfig()
    return [compare_systems(n, config) for n in process_counts]


def message_complexity_experiment(
    process_counts: Sequence[int] = (10, 20, 30),
    config: Optional[ExperimentConfig] = None,
) -> List[Dict[str, float]]:
    """E8: messages per committed transfer for both systems."""
    rows: List[Dict[str, float]] = []
    for row in throughput_scaling_experiment(process_counts, config):
        rows.append(
            {
                "n": row.process_count,
                "consensusless_msgs_per_tx": round(row.consensusless.messages_per_commit, 1),
                "consensus_msgs_per_tx": round(row.consensus_based.messages_per_commit, 1),
                "ratio": round(row.message_ratio, 2),
            }
        )
    return rows


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
        network_config=config.network_copy(),
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
            network_config=config.network_copy(),
            seed=config.seed,
        )
        consensusless.schedule_submissions(submissions)
        result_cl = consensusless.run(max_events=config.max_events)

        consensus = ConsensusTransferSystem(
            process_count=process_count,
            initial_balance=config.initial_balance,
            network_config=config.network_copy(),
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


@dataclass(frozen=True)
class AblationRow:
    """One configuration of an ablation sweep."""

    label: str
    summary: RunSummary


def broadcast_ablation(
    process_count: int = 15,
    config: Optional[ExperimentConfig] = None,
) -> List[AblationRow]:
    """Ablation: Bracha (quadratic) versus signed echo broadcast (linear).

    DESIGN.md lists this as one of the design choices worth quantifying: the
    echo broadcast trades signature work for an O(N) reduction in message
    count per transfer.
    """
    config = config or ExperimentConfig()
    rows: List[AblationRow] = []
    for label in ("bracha", "echo"):
        variant = ExperimentConfig(
            transfers_per_process=config.transfers_per_process,
            initial_balance=config.initial_balance,
            broadcast=label,
            batch_size=config.batch_size,
            seed=config.seed,
            network=config.network_copy(),
            max_events=config.max_events,
        )
        summary, _ = run_consensusless(process_count, variant)
        rows.append(AblationRow(label=f"broadcast={label}", summary=summary))
    return rows


def batching_ablation(
    process_count: int = 15,
    batch_sizes: Sequence[int] = (1, 4, 8, 16),
    config: Optional[ExperimentConfig] = None,
) -> List[AblationRow]:
    """Ablation: PBFT batch size versus throughput/latency.

    Batching is the baseline's main lever against its quadratic vote cost;
    sweeping it shows how much of the gap of E5 it can close.
    """
    config = config or ExperimentConfig()
    rows: List[AblationRow] = []
    for batch_size in batch_sizes:
        variant = ExperimentConfig(
            transfers_per_process=config.transfers_per_process,
            initial_balance=config.initial_balance,
            broadcast=config.broadcast,
            batch_size=batch_size,
            seed=config.seed,
            network=config.network_copy(),
            max_events=config.max_events,
        )
        summary, _ = run_consensus_based(process_count, variant)
        rows.append(AblationRow(label=f"batch={batch_size}", summary=summary))
    return rows


@dataclass
class ClusterExperimentConfig:
    """Knobs of the cluster scaling experiments.

    The workload is shared across every swept configuration (same seed, same
    users, same arrival times), so throughput differences are attributable to
    the cluster geometry alone — "equal offered load" in the benchmark's
    acceptance sense.  ``cross_shard_fraction`` steers the settlement load;
    because which destinations are cross-shard depends on the cluster
    geometry, fraction-steered workloads are generated *per configuration*
    (from the target system's own router) rather than shared.
    """

    replicas_per_shard: int = 4
    broadcast: str = "bracha"
    initial_balance: int = 1_000_000
    user_count: int = 10_000
    aggregate_rate: float = 20_000.0
    duration: float = 0.1
    zipf_skew: float = 1.0
    cross_shard_fraction: Optional[float] = None
    # A HotspotProfile shifting a Zipf hotspot across shards mid-run — the
    # skew the migration/rebalancing experiments react to.  Needs a router,
    # like cross_shard_fraction.
    hotspot: Optional[object] = None
    # Execution backend of the swept systems: "serial", "thread" or "process"
    # (see repro.cluster.backends); results are backend-invariant, wall-clock
    # time is not.
    backend: str = "serial"
    epoch: float = 0.005
    # An EpochPolicy instance overriding the fixed `epoch` grid (e.g.
    # AdaptiveEpochPolicy).
    epoch_policy: Optional[object] = None
    max_workers: Optional[int] = None
    # The ClusterSystem migration knob: None/"off", "manual", a
    # MigrationPlan, or a ThresholdMigrationPolicy.  Results are
    # placement-invariant; the knob moves wall-clock load distribution only.
    migration: Optional[object] = None
    # Incremental-checkpoint cadence in taken barriers: bounds the driver
    # replay log and turns migrations O(delta).  And the consumption-
    # compaction knob for ordinary local records.  Both are
    # fingerprint-neutral by the checkpoint-invariance harness.
    checkpoint_every: Optional[int] = None
    compact_history: bool = False
    # Observability knobs, passed straight through to ClusterSystem:
    # telemetry mode ("off"/"metrics"/"full") and the cProfile sampler.
    # Fingerprint-neutral by the telemetry invariant — rows only gain a
    # telemetry section, never different results.
    telemetry: object = "metrics"
    profile: bool = False
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

    def network_copy(self) -> NetworkConfig:
        return dataclasses.replace(self.network)


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
    # The run's telemetry section (ClusterResult.telemetry): mode, driver
    # registry, per-shard registries and merged totals.  None when the run
    # had telemetry off.  Excluded from the fingerprint by construction.
    telemetry: Optional[Dict[str, object]] = None
    # Wall-clock seconds the Definition 1 + conservation audit took: the same
    # work on every backend, so timing comparisons subtract it.
    audit_wall_s: float = 0.0

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
    system = ClusterSystem(
        shard_count=shard_count,
        replicas_per_shard=config.replicas_per_shard,
        batch_size=batch_size,
        broadcast=config.broadcast,
        initial_balance=config.initial_balance,
        network_config=config.network_copy(),
        backend=config.backend,
        epoch=config.epoch,
        epoch_policy=config.epoch_policy,
        max_workers=config.max_workers,
        migration=config.migration,
        checkpoint_every=config.checkpoint_every,
        compact_history=config.compact_history,
        telemetry=config.telemetry,
        profile=config.profile,
        seed=config.seed,
    )
    if workload is None:
        needs_router = (
            config.cross_shard_fraction is not None or config.hotspot is not None
        )
        workload = config.workload(system.router if needs_router else None)
    system.schedule_submissions(workload)
    result = system.run(max_events=config.max_events)
    total_processes = shard_count * config.replicas_per_shard
    summary = summarize_result(
        f"cluster[s={shard_count},b={batch_size}]", total_processes, result
    )
    audit_started = time.perf_counter()
    check = system.check_definition1()
    audit_wall_s = time.perf_counter() - audit_started
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
        telemetry=result.telemetry,
        audit_wall_s=audit_wall_s,
    )
    return row, system


def cluster_scaling_experiment(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    batch_sizes: Sequence[int] = (1, 8, 32),
    config: Optional[ClusterExperimentConfig] = None,
) -> List[ClusterScalingRow]:
    """The cluster benchmark's sweep: shards × batch sizes, one shared load.

    Every configuration replays the *same* submission list; rows report
    cluster-wide throughput, the per-shard Definition 1 verdict and how many
    transfers each secure-broadcast instance amortised.
    """
    config = config or ClusterExperimentConfig()
    workload = config.workload()
    rows: List[ClusterScalingRow] = []
    for batch_size in batch_sizes:
        for shard_count in shard_counts:
            row, system = run_cluster(shard_count, batch_size, config, workload=workload)
            system.close()
            rows.append(row)
    return rows


def cross_shard_settlement_experiment(
    configurations: Sequence[Tuple[int, int, float]] = ((2, 8, 0.25), (4, 8, 0.5), (4, 8, 1.0)),
    config: Optional[ClusterExperimentConfig] = None,
) -> List[Tuple[float, ClusterScalingRow]]:
    """Sweep (shards, batch, cross_shard_fraction) triples through settlement.

    Each configuration gets its own fraction-steered workload (the realised
    cross-shard mix depends on the geometry), so rows are *not* comparable as
    "equal offered load" the way the scaling sweep is; what they assert is
    that under every mix the cluster settles completely — Definition 1 holds
    per shard and the cross-ledger supply audit nets to the initial supply
    with nothing left in flight.
    """
    config = config or ClusterExperimentConfig()
    rows: List[Tuple[float, ClusterScalingRow]] = []
    for shard_count, batch_size, fraction in configurations:
        variant = dataclasses.replace(config, cross_shard_fraction=fraction)
        row, system = run_cluster(shard_count, batch_size, variant)
        system.close()
        rows.append((fraction, row))
    return rows


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
    registry (``phase.open``/``advance``/``exchange``/``migrate``/
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

    The benchmarks assert this stays ≥ 0.9: if instrumentation drifts out of
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
class BackendComparisonRow:
    """One execution backend's audited run of the same cluster workload.

    ``wall_clock_s`` is ``run_wall_s + audit_wall_s``: the engine's share
    (construct, schedule, run — what the backend changes) and the audit's
    (the same work on every backend).  Compare backends on ``run_wall_s``.
    """

    backend: str
    wall_clock_s: float
    fingerprint: str
    row: ClusterScalingRow
    # The run's telemetry section (same shape as ClusterScalingRow.telemetry)
    # — per-backend phase timings are the interesting comparison axis here.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def throughput(self) -> float:
        return self.row.summary.throughput

    @property
    def audit_wall_s(self) -> float:
        return self.row.audit_wall_s

    @property
    def run_wall_s(self) -> float:
        return self.wall_clock_s - self.row.audit_wall_s


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
    # Executed migrations so far (non-zero only in migrated soak runs).
    migrations: int = 0
    # Ordinary (non-settlement) records resident in the ledgers — the figure
    # ``compact_history`` bounds — and barrier commands held in the driver's
    # migration replay log — the figure checkpoint truncation bounds.
    resident_local_records: int = 0
    replay_log_entries: int = 0


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
    migrations: int = 0
    # The final run's telemetry section (None with telemetry off).
    telemetry: Optional[Dict[str, object]] = None
    # Peaks of the two growth figures the checkpoint seam bounds, plus the
    # backend's cumulative checkpoint accounting (zeros with checkpoints
    # off) — the memory-soak benchmark compares these across cadences.
    peak_local_records: int = 0
    peak_replay_log: int = 0
    checkpoint_stats: Optional[Dict[str, int]] = None

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
    window, not the certificate history.  With ``config.migration`` set the
    soak runs *migrated* — shards move between workers mid-soak while every
    checkpoint identity still holds.
    """
    config = config or ClusterExperimentConfig(
        duration=0.2, aggregate_rate=4_000.0, user_count=2_000, cross_shard_fraction=0.5
    )
    system = ClusterSystem(
        shard_count=shard_count,
        replicas_per_shard=config.replicas_per_shard,
        batch_size=batch_size,
        broadcast=config.broadcast,
        initial_balance=config.initial_balance,
        network_config=config.network_copy(),
        backend=config.backend,
        epoch=config.epoch,
        epoch_policy=config.epoch_policy,
        max_workers=config.max_workers,
        migration=config.migration,
        checkpoint_every=config.checkpoint_every,
        compact_history=config.compact_history,
        telemetry=config.telemetry,
        profile=config.profile,
        seed=config.seed,
    )
    needs_router = config.cross_shard_fraction is not None or config.hotspot is not None
    workload = config.workload(system.router if needs_router else None)
    system.schedule_submissions(workload)

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
                migrations=len(system.migration_signature()),
                resident_local_records=system.resident_local_records(),
                replay_log_entries=system.replay_log_entries(),
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
    checkpoint_stats = system.checkpoint_stats()
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
        migrations=final.migrations,
        telemetry=telemetry,
        peak_local_records=max(s.resident_local_records for s in samples),
        peak_replay_log=max(s.replay_log_entries for s in samples),
        checkpoint_stats=checkpoint_stats,
    )


@dataclass(frozen=True)
class EpochPolicyRow:
    """One epoch policy's audited run of the same cluster workload.

    ``barriers`` is the scheduler's barrier count (the overhead the policy
    spends); the settlement-latency columns are the cross-shard delay it
    buys down.  Together they are the trade the adaptive policy automates.
    """

    policy: str
    barriers: int
    final_epoch: float
    settlement_samples: int
    avg_settlement_latency: float
    p95_settlement_latency: float
    max_settlement_latency: float
    committed: int
    check_ok: bool
    fingerprint: str


def epoch_policy_experiment(
    policies: Sequence[Tuple[str, object]],
    shard_count: int = 2,
    batch_size: int = 4,
    backend: str = "serial",
    config: Optional[ClusterExperimentConfig] = None,
) -> List[EpochPolicyRow]:
    """Drive one workload through each epoch policy and compare the trade.

    Policies change *when* settlement traffic crosses shard boundaries, so
    rows legitimately differ in fingerprints and latency — what every row
    must share is a clean audit (Definition 1, conservation, full settlement
    and retirement at quiescence).
    """
    config = config or ClusterExperimentConfig(
        duration=0.05, aggregate_rate=8_000.0, user_count=2_000, cross_shard_fraction=0.5
    )
    fraction = config.cross_shard_fraction
    router = (
        ShardRouter(shard_count, config.replicas_per_shard, salt=config.seed)
        if fraction is not None
        else None
    )
    workload = config.workload(router)
    rows: List[EpochPolicyRow] = []
    for label, policy in policies:
        system = ClusterSystem(
            shard_count=shard_count,
            replicas_per_shard=config.replicas_per_shard,
            batch_size=batch_size,
            broadcast=config.broadcast,
            initial_balance=config.initial_balance,
            network_config=config.network_copy(),
            backend=backend,
            epoch=config.epoch,
            epoch_policy=policy,
            max_workers=config.max_workers,
            seed=config.seed,
        )
        system.schedule_submissions(workload)
        result = system.run(max_events=config.max_events)
        samples, average, worst = system.settlement.settlement_latency()
        rows.append(
            EpochPolicyRow(
                policy=label,
                barriers=system.scheduler.barriers,
                final_epoch=system.scheduler.epoch,
                settlement_samples=samples,
                avg_settlement_latency=average,
                p95_settlement_latency=system.settlement.settlement_latency_p95(),
                max_settlement_latency=worst,
                committed=result.committed_count,
                check_ok=system.check_definition1().ok,
                fingerprint=result.fingerprint(),
            )
        )
        system.close()
    return rows


@dataclass(frozen=True)
class MigrationComparisonRow:
    """One migration schedule's audited run of the same hotspot workload.

    ``moves`` is the executed migration count; ``snapshot_bytes`` and
    ``stall_s`` total the per-move measurements (what a move costs);
    ``fingerprint`` must equal the static row's — placement invariance is
    the whole point.  ``delta_bytes``/``replayed_events`` total the *actual*
    adopt payloads — the replay tail past the newest checkpoint — where
    ``snapshot_bytes`` stays the full-snapshot measurement each move
    verified against; with checkpoints on, the delta column is the row's
    real transfer cost and sits strictly below the full one.
    """

    schedule: str
    backend: str
    moves: int
    snapshot_bytes: int
    stall_s: float
    peak_worker_load: int
    mean_worker_load: float
    committed: int
    check_ok: bool
    fingerprint: str
    migration_stream: List[tuple]
    delta_bytes: int = 0
    replayed_events: int = 0


def migration_rebalancing_experiment(
    schedules: Sequence[Tuple[str, object]],
    shard_count: int = 4,
    batch_size: int = 4,
    backend: str = "serial",
    max_workers: int = 2,
    config: Optional[ClusterExperimentConfig] = None,
) -> List[MigrationComparisonRow]:
    """One shifting-hotspot workload under several migration schedules.

    Every schedule replays the identical workload (same router salt, same
    hotspot phases); rows record what moved, what the moves cost (snapshot
    bytes, wall-clock stall) and the per-worker load distribution the
    schedule achieved.  Callers assert the placement-invariance contract on
    the fingerprints: every row must match the static one.
    """
    from repro.workloads.cluster_driver import HotspotProfile

    config = config or ClusterExperimentConfig(
        duration=0.06,
        aggregate_rate=6_000.0,
        user_count=2_000,
        cross_shard_fraction=0.4,
    )
    if config.hotspot is None:
        config = dataclasses.replace(
            config,
            hotspot=HotspotProfile(
                period=config.duration / 3, intensity=0.7, width=8
            ),
        )
    router = ShardRouter(shard_count, config.replicas_per_shard, salt=config.seed)
    workload = config.workload(router)
    rows: List[MigrationComparisonRow] = []
    for label, migration in schedules:
        system = ClusterSystem(
            shard_count=shard_count,
            replicas_per_shard=config.replicas_per_shard,
            batch_size=batch_size,
            broadcast=config.broadcast,
            initial_balance=config.initial_balance,
            network_config=config.network_copy(),
            backend=backend,
            epoch=config.epoch,
            epoch_policy=config.epoch_policy,
            max_workers=max_workers,
            migration=migration,
            checkpoint_every=config.checkpoint_every,
            compact_history=config.compact_history,
            seed=config.seed,
        )
        system.schedule_submissions(workload)
        result = system.run(max_events=config.max_events)
        records = system.scheduler.migration_log
        loads = system.worker_loads()
        rows.append(
            MigrationComparisonRow(
                schedule=label,
                backend=backend,
                moves=len(records),
                snapshot_bytes=sum(r.snapshot_bytes for r in records),
                stall_s=sum(r.stall_s for r in records),
                delta_bytes=sum(r.delta_bytes for r in records),
                replayed_events=sum(r.replayed_events for r in records),
                peak_worker_load=max(loads.values()) if loads else 0,
                mean_worker_load=(
                    sum(loads.values()) / len(loads) if loads else 0.0
                ),
                committed=result.committed_count,
                check_ok=system.check_definition1().ok,
                fingerprint=result.fingerprint(),
                migration_stream=list(result.migration_stream or []),
            )
        )
        system.close()
    return rows


def backend_comparison_experiment(
    shard_count: int = 8,
    batch_size: int = 8,
    backends: Sequence[str] = ("serial", "thread", "process"),
    config: Optional[ClusterExperimentConfig] = None,
) -> List[BackendComparisonRow]:
    """Run one workload through every execution backend and time it.

    Simulated results are backend-invariant by construction (each row
    carries the run's :meth:`~repro.cluster.result.ClusterResult.fingerprint`
    so callers can assert it); what differs is *wall-clock* time — the
    process pool advances shards on real cores while the serial backend is
    the single-threaded reference.  Fraction-steered workloads are shared
    across backends (one geometry, one router salt), so the comparison is
    equal work, not merely equal offered load.
    """
    config = config or ClusterExperimentConfig()
    # Fraction-steered workloads need the cluster geometry; the router is a
    # pure function of (shards, replicas, salt), the same one every swept
    # system will construct for itself.
    router = (
        ShardRouter(shard_count, config.replicas_per_shard, salt=config.seed)
        if config.cross_shard_fraction is not None
        else None
    )
    workload = config.workload(router)
    rows: List[BackendComparisonRow] = []
    for backend in backends:
        variant = dataclasses.replace(config, backend=backend)
        started = time.perf_counter()
        scaling_row, system = run_cluster(shard_count, batch_size, variant, workload=workload)
        elapsed = time.perf_counter() - started
        fingerprint = system.result.fingerprint()
        system.close()
        rows.append(
            BackendComparisonRow(
                backend=backend,
                wall_clock_s=elapsed,
                fingerprint=fingerprint,
                row=scaling_row,
                telemetry=scaling_row.telemetry,
            )
        )
    return rows
