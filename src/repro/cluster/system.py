"""The cluster façade: N independent shards, one deterministic outcome.

:class:`ClusterSystem` mirrors :class:`repro.mp.system.ConsensuslessSystem`
one level up: it owns the :class:`~repro.cluster.routing.ShardRouter`, the
per-shard deployments and the
:class:`~repro.cluster.settlement.SettlementFabric` that turns validated
cross-shard credits into quorum certificates minted at the destination
shard.  It routes cluster-level submissions to their owning shard, drives
the whole cluster to quiescence and merges per-shard results.

Every shard runs on its own simulator, driven between epoch-barrier
settlement exchanges by an execution backend (:mod:`repro.cluster.backends`):
``backend="serial"`` (the default) or ``"process"`` — same results, bit for
bit, with the process pool putting real cores behind the shards.  The
barriers sit on one fixed grid, ``epoch`` apart: shards meet nowhere else, so
that fixed-period synchronizer is all the coordination the cluster has.

The audit runs at two levels.  The Definition 1 checker runs *per shard* —
shards share no accounts, so each shard's observations are checked against
its own initial balances (augmented with the settlement provisions its
delivered certificates justify).  On top, the cluster-level
:class:`~repro.cluster.result.SupplyAudit` nets outbound ``x{d}:a`` credits
against minted ``settle:{s}:{p}`` provisions across all shard ledgers, so
settled cross-shard money is conserved end to end, not just per shard.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import AccountId, Amount
from repro.cluster.backends import (
    BACKEND_NAMES,
    EpochScheduler,
    _phase as _timed_phase,
    make_backend,
)
from repro.cluster.result import ClusterCheckReport, ClusterResult, SupplyAudit
from repro.cluster.routing import ShardRouter, parse_external_account
from repro.cluster.settlement import SettlementFabric, is_settlement_account
from repro.cluster.shard import Shard
from repro.network.node import NetworkConfig
from repro.obs import TELEMETRY_MODES, MetricsRegistry, Tracer, merge_snapshots
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker, CheckReport, check_agreement
from repro.workloads.cluster_driver import ClusterSubmission, partition_submissions


class ClusterSystem:
    """A sharded deployment of the consensusless protocol.

    Parameters
    ----------
    shard_count:
        Number of independent shard groups.
    replicas_per_shard:
        Figure 4 replicas per shard (>= 4; each owns one local account).
    batch_size:
        Transfers coalesced per secure-broadcast instance (1 = unbatched).
    broadcast:
        ``"bracha"`` or ``"echo"`` — the per-shard secure broadcast.
    initial_balance:
        Starting balance of every shard-local account.
    network_config:
        Cost model template; every shard gets its own seeded copy.
    settlement:
        When true (the default), cross-shard credits are quorum-certified by
        the settlement fabric and minted — spendable — at the destination
        shard.  When false, they stay parked in the source shard's ``x{d}:a``
        accounts, which the negative-control tests use.  The settlement
        links' delays are the fixed constants of
        :mod:`repro.cluster.settlement`.
    backend:
        The execution backend (:mod:`repro.cluster.backends`), ``"serial"``
        (the default) or ``"process"``.  Each shard owns its simulator and
        runs independently up to each settlement barrier, where
        vouchers/certificates are exchanged in deterministic ``(time, shard,
        sequence)`` order.  Both backends produce bit-identical
        :class:`ClusterResult` fingerprints.
    epoch:
        Barrier spacing, in simulated seconds: the fixed grid every shard
        meets on (also the granularity of cross-shard settlement latency).
        Finite and positive.
    max_workers:
        Process pool size for the process backend (defaults to
        ``min(shard_count, cpu_count)``; at least 1, at most
        ``shard_count``).  Shard ``i`` runs on worker ``i % max_workers``
        for the whole session.  Worker count never affects results, only
        wall-clock time.
    compact_history:
        When true, each replica removes a transfer record from its local
        ``hist`` once the record's credit has been *consumed* — folded into
        a validated dependency set of a later transfer by the consuming
        account — keeping balances bit-identical through per-account offset
        folding (the ``retire_settled`` watermark mechanism, extended to
        ordinary local records).  Bounds resident history under sustained
        local traffic; sound for benign issuers (see
        ``ConsensuslessTransferNode.compact_consumed`` for the Byzantine
        caveat), which is why it is off by default.
    telemetry:
        The observability mode: ``"off"`` (no registries, no spans),
        ``"metrics"`` (the default — counters/gauges/histograms across the
        stack, O(1) per record), or ``"full"`` (metrics plus span tracing of
        the hot phases, exportable to chrome://tracing via
        :meth:`~repro.cluster.result.ClusterResult.export_trace`).  Any
        other value raises :class:`ConfigurationError`.  **Telemetry never
        perturbs results**: every sink is write-only from the protocol's
        point of view, so fingerprints are bit-identical across all three
        modes (the invariance suite pins this).
    seed:
        Root seed; all shard seeds derive from it.
    """

    def __init__(
        self,
        shard_count: int,
        replicas_per_shard: int = 4,
        batch_size: int = 1,
        broadcast: str = "bracha",
        initial_balance: Amount = 1_000_000,
        network_config: Optional[NetworkConfig] = None,
        settlement: bool = True,
        backend: str = "serial",
        epoch: float = 0.005,
        max_workers: Optional[int] = None,
        compact_history: bool = False,
        telemetry: str = "metrics",
        seed: int = 0,
    ) -> None:
        if shard_count <= 0:
            raise ConfigurationError("shard_count must be positive")
        if backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        if telemetry not in TELEMETRY_MODES:
            raise ConfigurationError(
                f"unknown telemetry mode {telemetry!r}; expected one of {TELEMETRY_MODES}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be at least 1 (or None for the default), got {max_workers}"
            )
        self.shard_count = shard_count
        self.replicas_per_shard = replicas_per_shard
        self.batch_size = batch_size
        self.seed = seed
        self.compact_history = bool(compact_history)
        self.backend_name = backend
        # Observability: a driver-side registry (mode != off) for phase
        # timings, scheduler counters and end-of-run gauges; a tracer (mode
        # == full) for chrome://tracing spans.  Both are write-only sinks —
        # no protocol decision ever reads them — so every mode produces the
        # same fingerprint (the telemetry invariant).
        self.telemetry_mode = telemetry
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.telemetry_mode != "off" else None
        )
        self.tracer: Optional[Tracer] = Tracer() if self.telemetry_mode == "full" else None
        self.router = ShardRouter(shard_count, replicas_per_shard, salt=seed)
        self.shards: List[Shard] = [
            Shard(
                index=index,
                replicas=replicas_per_shard,
                initial_balance=initial_balance,
                broadcast=broadcast,
                batch_size=batch_size,
                network_config=network_config,
                telemetry=self.telemetry_mode != "off",
                compact_history=self.compact_history,
                seed=seed,
            )
            for index in range(shard_count)
        ]
        self.scheduler = EpochScheduler(epoch, metrics=self.metrics, tracer=self.tracer)
        self._backend = make_backend(backend, max_workers)
        self._backend.attach_telemetry(self.metrics, self.tracer)
        self._session_open = False
        self._partitioned: Dict[int, List] = {}
        self.settlement: Optional[SettlementFabric] = (
            SettlementFabric(self.shards, self.scheduler) if settlement else None
        )
        self._result = ClusterResult()
        self._started = False
        self.cross_shard_submissions = 0

    # -- driving ------------------------------------------------------------------------------

    def start(self) -> None:
        """Start every shard's replicas (idempotent)."""
        if self._started:
            return
        self._started = True
        for shard in self.shards:
            shard.start()

    def schedule_submissions(self, submissions: Iterable[ClusterSubmission]) -> int:
        """Route and schedule cluster-level submissions; returns the count.

        The arrivals are *pre-partitioned* into per-shard routed lists — the
        lists travel with the shards into worker processes when the
        run opens the backend session, and the system lets go of them there
        (after which further submissions are rejected: the workload must be
        fully known before the shards start executing elsewhere).
        """
        self.start()
        if self._session_open:
            raise ConfigurationError(
                "the backend session is already executing; schedule all "
                "submissions before the first run()"
            )
        materialized = list(submissions)
        per_shard, cross_shard = partition_submissions(materialized, self.router)
        self.cross_shard_submissions += cross_shard
        for shard_index, routed in per_shard.items():
            self._partitioned.setdefault(shard_index, []).extend(routed)
        return len(materialized)

    def _phase(self, name: str):
        """A driver-phase timing context (histogram + optional span)."""
        return _timed_phase(self.metrics, self.tracer, name, cat="driver")

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> ClusterResult:
        """Drive the cluster through its settlement barriers to quiescence.

        ``until`` pauses at that simulated time; a later ``run()`` resumes
        where it stopped, delivering anything injected into the relays in
        between.
        """
        self.start()
        with self._phase("phase.total"):
            if not self._session_open:
                with self._phase("phase.open"):
                    specs = [shard.spec() for shard in self.shards]
                    self._backend.open(self.shards, specs, self._partitioned)
                    # The shards hold their arrivals now; nothing replays them.
                    self._partitioned = {}
                self._session_open = True
            reports = self.scheduler.run(
                self._backend, self.settlement, until=until, max_events=max_events
            )
            with self._phase("phase.finalize"):
                self._backend.finalize()
            with self._phase("phase.capture"):
                duration = self.scheduler.duration()
                self._result.shard_results = [
                    shard.finalize(duration) for shard in self.shards
                ]
                self._result.duration = duration
                self._result.events_processed = self.scheduler.events_processed()
                self._result.per_shard_events = [
                    reports[shard.index].processed_events for shard in self.shards
                ]
                self._capture_result()
        # Outside every phase block: the total/capture histograms must have
        # recorded before the telemetry section snapshots them.
        self._capture_telemetry()
        return self._result

    def close(self) -> None:
        """Release backend resources (worker processes)."""
        self._backend.close()

    def __enter__(self) -> "ClusterSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _capture_result(self) -> None:
        """Record the canonical run content on the result (fingerprint input)."""
        self._result.balances = {
            str(shard.index): {
                str(pid): dict(shard.nodes[pid].all_known_balances())
                for pid in sorted(shard.nodes)
            }
            for shard in self.shards
        }
        self._result.committed_stream = self.committed_signature()
        self._result.settlement_stream = self.settlement_signature()
        self._result.retirement_stream = self.retirement_signature()
        self._result.retired_records = self.retired_records()
        self._result.resident_settlement_records = self.resident_settlement_records()
        audit = self.supply_audit()
        self._result.audit = {
            "initial_supply": audit.initial_supply,
            "local": audit.local,
            "outbound": audit.outbound,
            "minted": audit.minted,
            "retired": audit.retired,
            "relay_delivered": audit.relay_delivered,
            "conserved": audit.conserved,
            "fully_settled": audit.fully_settled,
            "ledger_matches_relay": audit.ledger_matches_relay,
            "retirement_backed": audit.retirement_backed,
        }

    def _capture_telemetry(self) -> None:
        """Assemble the result's telemetry section (volatile, hash-excluded).

        Driver-side gauges (settlement lifecycle depths) are sampled here —
        once per capture, never on a hot path — then the per-shard
        registries are snapshotted and everything is merged into a
        cluster-wide totals view.  The section lands on the fingerprint
        *payload* for inspection but is excluded from the fingerprint *hash*
        (wall-clock figures are legitimately different on every run).
        """
        if self.metrics is None:
            self._result.telemetry = None
            self._result.trace = None
            return
        if self.settlement is not None:
            self.settlement.telemetry_sample(self.metrics)
        per_shard = {}
        for shard in self.shards:
            snapshot = shard.metrics_snapshot()
            if snapshot is not None:
                per_shard[str(shard.index)] = snapshot
        driver = self.metrics.snapshot()
        telemetry = {
            "mode": self.telemetry_mode,
            "driver": driver,
            "per_shard": per_shard,
            "totals": merge_snapshots([driver] + list(per_shard.values())),
        }
        if self.tracer is not None:
            telemetry["spans"] = self.tracer.aggregate()
            self._result.trace = self.tracer.trace_events()
        self._result.telemetry = telemetry

    # -- inspection ---------------------------------------------------------------------------

    @property
    def result(self) -> ClusterResult:
        return self._result

    def check_definition1(self) -> ClusterCheckReport:
        """Audit the run: per-shard Definition 1 plus cluster conservation.

        Each shard's checker sees its own initial balances *augmented with
        the settlement provisions its delivered certificates justify* — the
        money whose debit the source shard's checker already audits.  A
        replica that minted without a certificate therefore surfaces as a C2
        balance violation.  The cluster-level :class:`SupplyAudit` then nets
        outbound and minted credits across all shard ledgers.
        """
        # Every relay's provisions, folded by destination shard in one walk
        # (the same sums ``settlement.provisions_for`` gives one shard at a time).
        provisions: Dict[int, Dict[AccountId, Amount]] = {}
        if self.settlement is not None:
            for relay in self.settlement.relays:
                folded = provisions.setdefault(relay.destination_shard, {})
                for account, amount in relay.provisions().items():
                    folded[account] = folded.get(account, 0) + amount
        report = ClusterCheckReport()
        for shard in self.shards:
            initial = shard.initial_balances()
            initial.update(provisions.get(shard.index, ()))
            checker = ByzantineAssetTransferChecker(initial)
            report.shard_reports[shard.index] = checker.check(shard.observations())
        report.conservation = self.supply_audit()
        return report

    def check_agreement(self) -> Dict[int, CheckReport]:
        """Agreement and validity at quiescence, per shard index.

        Each shard's correct replicas must hold one validated set — their
        mints included, so a certificate minted at only some destination
        replicas is a violation — and have answered every submission.
        Refuses a run that has not drained: a pause at ``until``, or a
        system that never ran.
        """
        if not self.scheduler.quiescent:
            raise SimulationError(
                "the agreement audit needs a quiescent run: run() the cluster to the end"
            )
        return {shard.index: check_agreement(shard.observations()) for shard in self.shards}

    def supply_audit(self) -> SupplyAudit:
        """Classify every balance in every shard ledger (replica-0 views).

        Local accounts carry spendable money; ``x{d}:a`` accounts carry the
        *unretired* outbound record in source ledgers (compaction removes
        fully-acknowledged records behind the watermark and the audit adds
        the retired amount back in); ``settle:{s}:{p}`` provision accounts
        run negative in destination ledgers by exactly the minted amount.
        See :class:`SupplyAudit` for the identity this nets.
        """
        local: Amount = 0
        outbound: Amount = 0
        minted: Amount = 0
        retired: Amount = 0
        for shard in self.shards:
            node = shard.nodes[0]
            for account, balance in node.all_known_balances().items():
                if parse_external_account(account) is not None:
                    outbound += balance
                elif is_settlement_account(account):
                    minted += -balance
                else:
                    local += balance
            retired += node.retired_outbound_total()
        initial = sum(sum(shard.initial_balances().values()) for shard in self.shards)
        delivered = self.settlement.delivered_amount() if self.settlement else 0
        return SupplyAudit(
            initial_supply=initial,
            local=local,
            outbound=outbound,
            minted=minted,
            relay_delivered=delivered,
            retired=retired,
        )

    def total_supply(self) -> Amount:
        """Cluster-wide money supply as seen by shard replicas 0.

        Sums every account in every shard ledger: local accounts, outbound
        ``x{d}:a`` settlement credits (positive in the source ledger) and
        inbound ``settle:{s}:{p}`` provisions (negative in the destination
        ledger by the minted amount).  Because every ledger application —
        local transfer, cross-shard debit, certified mint — conserves its own
        ledger's sum, this total equals the initial supply at *every*
        instant, settled or not; :meth:`supply_audit` breaks the identity
        into its parts and additionally checks the minted balances against
        the relays' delivered certificates.
        """
        return self.supply_audit().total

    def broadcast_instances(self) -> int:
        """Total secure-broadcast instances delivered (shard replicas 0)."""
        return sum(shard.broadcast_instances() for shard in self.shards)

    def payload_items(self) -> int:
        """Total transfers carried by those instances (>= instances)."""
        return sum(shard.payload_items() for shard in self.shards)

    def committed_signature(self) -> List[tuple]:
        """A deterministic fingerprint of the committed-transfer sequence.

        Used by the determinism regression test: two runs with the same seed
        must produce identical fingerprints (same transfers, same order, same
        completion times) and identical message counts.
        """
        signature = []
        for shard in self.shards:
            for record in shard.result.committed:
                transfer = record.transfer
                signature.append(
                    (
                        shard.index,
                        transfer.issuer,
                        transfer.sequence,
                        transfer.source,
                        transfer.destination,
                        transfer.amount,
                        round(record.completed_at, 12),
                    )
                )
        return signature

    def settlement_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the delivered settlement certificates.

        The determinism regression asserts this alongside
        :meth:`committed_signature`: same seed, same certificates, same
        delivery order.  Empty when settlement is disabled.
        """
        if self.settlement is None:
            return []
        return self.settlement.settlement_signature()

    def retirement_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the delivered retirement watermarks."""
        if self.settlement is None:
            return []
        return self.settlement.retirement_signature()

    def resident_settlement_records(self) -> int:
        """Outbound ``x{d}:a`` records still resident across shard ledgers.

        The quantity the compaction lifecycle bounds: it tracks the
        settlement in-flight window instead of the run's history.
        """
        return sum(shard.resident_settlement_records() for shard in self.shards)

    def retired_records(self) -> int:
        """Outbound records retired behind compaction watermarks, cluster-wide."""
        return sum(shard.retired_record_count() for shard in self.shards)

    def resident_local_records(self) -> int:
        """Ordinary (non-settlement) transfer records resident cluster-wide.

        The figure ``compact_history`` bounds: without it this tracks the
        whole run's validated local traffic; with it, only unconsumed
        records remain.
        """
        return sum(shard.resident_local_records() for shard in self.shards)

    def compacted_local_records(self) -> int:
        """Ordinary records removed by consumption compaction, cluster-wide."""
        return sum(shard.compacted_local_record_count() for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSystem(shards={self.shard_count}, "
            f"replicas={self.replicas_per_shard}, batch={self.batch_size})"
        )
