"""The experiment harness behind the examples and the tests.

The paper's §5 claims (E5, E6, E8 and the PBFT batching ablation) are checked
by ``tests/paper/test_paper_claims.py`` and printed at larger sizes by
``examples/throughput_comparison.py``; ``examples/double_spend_attack.py``
runs E4.  For the cluster, :func:`run_cluster` runs and audits a
:class:`~repro.cluster.system.ClusterSystem` the caller built — its keywords
are the only place a cluster knob is named — and the telemetry helpers turn a
run's telemetry section into table rows.  They are deliberately plain
functions returning plain dataclasses so they can be called from pytest, from
the example scripts and from an interactive session alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.bft.pbft import PbftConfig
from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.result import ClusterCheckReport
from repro.cluster.system import ClusterSystem
from repro.eval.metrics import RunSummary, summarize_result
from repro.mp.consensusless_transfer import account_of
from repro.obs import top_counters
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.network.node import NetworkConfig
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker, CheckReport
from repro.workloads.cluster_driver import ClusterSubmission
from repro.workloads.generators import WorkloadConfig, closed_loop_workload


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
        return self.check.conservation.ok

    @property
    def fully_settled(self) -> bool:
        """Every outbound cross-shard credit was minted at its destination."""
        return self.check.conservation.fully_settled


# The event budget of a cluster run: a livelock backstop far above what any
# workload here executes, so it only ever stops a protocol flooding the network.
CLUSTER_MAX_EVENTS = 50_000_000


def run_cluster(
    system: ClusterSystem, submissions: Iterable[ClusterSubmission]
) -> ClusterScalingRow:
    """Run ``submissions`` on a freshly built ``system`` to quiescence and
    audit it; the caller keeps (and closes) the system."""
    system.schedule_submissions(submissions)
    result = system.run(max_events=CLUSTER_MAX_EVENTS)
    shards, batch = system.shard_count, system.batch_size
    summary = summarize_result(
        f"cluster[s={shards},b={batch}]", shards * system.replicas_per_shard, result
    )
    check = system.check_definition1()
    audit = check.conservation
    return ClusterScalingRow(
        shard_count=shards,
        batch_size=batch,
        summary=summary,
        check=check,
        broadcast_instances=system.broadcast_instances(),
        payload_items=system.payload_items(),
        load_imbalance=result.load_imbalance(),
        cross_shard_submissions=system.cross_shard_submissions,
        settled_amount=audit.minted,
        in_flight_amount=audit.in_flight,
        settlement_messages=system.settlement.settlement_messages(),
        resident_settlement_records=system.resident_settlement_records(),
        retired_records=system.retired_records(),
        retired_amount=audit.retired,
    )


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
