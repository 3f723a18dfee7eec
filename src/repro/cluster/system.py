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
``backend="serial"`` (the default), ``"thread"`` or ``"process"`` — same
results, bit for bit, with the process pool putting real cores behind the
shards.

The audit runs at two levels.  The Definition 1 checker runs *per shard* —
shards share no accounts, so each shard's observations are checked against
its own initial balances (augmented with the settlement provisions its
delivered certificates justify).  On top, the cluster-level
:class:`~repro.cluster.result.SupplyAudit` nets outbound ``x{d}:a`` credits
against minted ``settle:{s}:{p}`` provisions across all shard ledgers, so
settled cross-shard money is conserved end to end, not just per shard.
"""

from __future__ import annotations

import copy
import cProfile
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.common.types import Amount
from repro.cluster.backends import (
    BACKEND_NAMES,
    EpochPolicy,
    EpochScheduler,
    FixedEpochPolicy,
    _phase as _timed_phase,
    make_backend,
)
from repro.cluster.migration import (
    MigrationRecord,
    Move,
    PlacementPlan,
    migration_totals,
    normalize_migration,
    rebalance_moves,
)
from repro.cluster.result import ClusterCheckReport, ClusterResult, SupplyAudit
from repro.cluster.routing import ShardRouter, parse_external_account
from repro.cluster.settlement import (
    SettlementConfig,
    SettlementFabric,
    is_settlement_account,
)
from repro.cluster.shard import Shard
from repro.network.node import NetworkConfig
from repro.obs import MetricsRegistry, Tracer, merge_snapshots, normalize_telemetry
from repro.obs.profiling import merge_profile_stats, profile_stats_dict
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker
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
        accounts (the PR 1 behaviour), which the negative-control tests use.
    settlement_config:
        Timing of the settlement fabric's voucher and delivery legs.
    backend:
        The execution backend (:mod:`repro.cluster.backends`), one of
        ``"serial"`` (the default), ``"thread"`` or ``"process"``.  Each
        shard owns its simulator and runs independently up to each
        settlement barrier, where vouchers/certificates are exchanged in
        deterministic ``(time, shard, sequence)`` order.  All three backends
        produce bit-identical :class:`ClusterResult` fingerprints.
    epoch:
        Barrier spacing, in simulated seconds (also the granularity of
        cross-shard settlement latency).  Shorthand for
        ``epoch_policy=FixedEpochPolicy(epoch)``.
    epoch_policy:
        An :class:`~repro.cluster.backends.EpochPolicy` deciding the barrier
        grid.  :class:`~repro.cluster.backends.FixedEpochPolicy` is today's
        constant grid; :class:`~repro.cluster.backends.AdaptiveEpochPolicy`
        widens/narrows the grid from observed per-barrier settlement volume.
        Policies run in the driver from backend-invariant observations, so
        fingerprint equality across backends holds for any policy.  The
        system runs on its own copy of the policy (and of a ``migration``
        policy), so one object can configure any number of systems.
    max_workers:
        Thread/process pool size for the concurrent backends (defaults to
        ``min(shard_count, cpu_count)``; at least 1).  Worker count never
        affects results, only wall-clock time.  It is also the logical
        worker count of the :class:`PlacementPlan`, so a serial run with
        ``max_workers=2`` records the same migration schedule a two-worker
        process pool executes for real.
    migration:
        The live-migration knob.  ``None``/"off" (the default) keeps the
        assignment static for the session; ``"manual"``
        enables the seam with no automatic policy (moves come from
        :meth:`rebalance`); a
        :class:`~repro.cluster.migration.MigrationPlan` schedules explicit
        moves; a :class:`~repro.cluster.migration.ThresholdMigrationPolicy`
        rebalances automatically under load skew.  Whatever the schedule,
        results are **placement-invariant**: the run's fingerprint equals
        the static-assignment run's (the extended equivalence harness pins
        this).
    checkpoint_every:
        Incremental-checkpoint cadence in taken barriers (``None`` =
        never).  Every N-th barrier each protocol-quiescent shard records a
        delta-encoded checkpoint; migration then ships and replays
        only the post-checkpoint tail (O(delta) instead of O(history)), and
        the driver's per-shard replay log is truncated behind the checkpoint
        so long migratable runs hold bounded memory.  Checkpointing only
        observes state — every cadence fingerprints identically to the
        no-checkpoint run on every backend (the invariance suite pins it).
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
        :meth:`~repro.cluster.result.ClusterResult.export_trace`).  Booleans
        and ``None`` are accepted shorthands.  **Telemetry never perturbs
        results**: every sink is write-only from the protocol's point of
        view, so fingerprints are bit-identical across all three modes (the
        invariance suite pins this).
    profile:
        When true, sample a :mod:`cProfile` profiler in the driver (and in
        every worker process under the process backend); the merged stats
        come back from :meth:`profile_stats`.  Profiling changes wall-clock
        timing only, never results.
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
        relay_final: bool = True,
        settlement: bool = True,
        settlement_config: Optional[SettlementConfig] = None,
        backend: str = "serial",
        epoch: float = 0.005,
        epoch_policy: Optional[EpochPolicy] = None,
        max_workers: Optional[int] = None,
        migration=None,
        checkpoint_every: Optional[int] = None,
        compact_history: bool = False,
        telemetry="metrics",
        profile: bool = False,
        seed: int = 0,
    ) -> None:
        if shard_count <= 0:
            raise ConfigurationError("shard_count must be positive")
        if backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be at least 1 (or None for the default), got {max_workers}"
            )
        # Policies are stateful (a latency window, a draining MigrationPlan,
        # threshold cooldowns): each system runs on its own copy, so the
        # caller's object can configure any number of runs identically.
        epoch_policy = copy.deepcopy(epoch_policy)
        self._migration_enabled, self._migration_policy = normalize_migration(
            copy.deepcopy(migration)
        )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be at least 1 barrier")
        self.shard_count = shard_count
        self.replicas_per_shard = replicas_per_shard
        self.batch_size = batch_size
        self.seed = seed
        self.checkpoint_every = checkpoint_every
        self.compact_history = bool(compact_history)
        self.backend_name = backend
        # Observability: a driver-side registry (mode != off) for phase
        # timings, scheduler counters and end-of-run gauges; a tracer (mode
        # == full) for chrome://tracing spans.  Both are write-only sinks —
        # no protocol decision ever reads them — so every mode produces the
        # same fingerprint (the telemetry invariant).
        self.telemetry_mode = normalize_telemetry(telemetry)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.telemetry_mode != "off" else None
        )
        self.tracer: Optional[Tracer] = Tracer() if self.telemetry_mode == "full" else None
        self.profile = bool(profile)
        self._profiler: Optional[cProfile.Profile] = None
        self._profile_raw: List[dict] = []
        self.router = ShardRouter(shard_count, replicas_per_shard, salt=seed)
        self.shards: List[Shard] = [
            Shard(
                index=index,
                replicas=replicas_per_shard,
                initial_balance=initial_balance,
                broadcast=broadcast,
                batch_size=batch_size,
                network_config=network_config,
                relay_final=relay_final,
                telemetry=self.telemetry_mode != "off",
                compact_history=self.compact_history,
                seed=seed,
            )
            for index in range(shard_count)
        ]
        self.epoch_policy: EpochPolicy = epoch_policy or FixedEpochPolicy(epoch)
        # The shard -> worker assignment, first-class and mutable.  One plan
        # per cluster, shared by the scheduler (which decides moves), the
        # backend (which routes per-epoch commands and executes moves) and
        # rebalance().  Worker slots are logical: the process pool maps them
        # onto worker processes, serial/thread keep them as bookkeeping, so
        # the same migration schedule records identically on every backend.
        worker_count = max_workers or min(shard_count, os.cpu_count() or 1)
        self.placement = PlacementPlan(shard_count, min(worker_count, shard_count))
        self.scheduler = EpochScheduler(
            policy=self.epoch_policy,
            placement=self.placement,
            migration=self._migration_policy,
            metrics=self.metrics,
            tracer=self.tracer,
            checkpoint_every=checkpoint_every,
        )
        self._backend = make_backend(backend, max_workers)
        self._backend.attach_telemetry(self.metrics, self.tracer, profile=self.profile)
        self._session_open = False
        self._partitioned: Dict[int, List] = {}
        self.settlement: Optional[SettlementFabric] = (
            SettlementFabric(self.shards, self.scheduler, settlement_config)
            if settlement
            else None
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
        lists travel with the shards into worker threads/processes when the
        run opens the backend session (after which further submissions are
        rejected: the workload must be fully known before the shards start
        executing elsewhere).
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

    def _ensure_profiler(self) -> None:
        """Start the driver-side sampler on the first drive call."""
        if self.profile and self._profiler is None:
            self._profiler = cProfile.Profile()
            self._profiler.enable()

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> ClusterResult:
        """Drive the cluster through its settlement barriers to quiescence.

        ``until`` pauses at that simulated time; a later ``run()`` resumes
        where it stopped, delivering anything injected into the relays in
        between.
        """
        self.start()
        self._ensure_profiler()
        with self._phase("phase.total"):
            if not self._session_open:
                with self._phase("phase.open"):
                    specs = [shard.spec() for shard in self.shards]
                    self._backend.open(
                        self.shards,
                        specs,
                        self._partitioned,
                        placement=self.placement,
                        record_history=self._migration_enabled,
                    )
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

    def rebalance(
        self, moves: Optional[Sequence[Union[Move, Tuple[int, int]]]] = None
    ) -> List[MigrationRecord]:
        """Rebalance the shard placement, live, at the current barrier.

        With ``moves`` given (``Move`` objects or ``(shard, worker)``
        pairs), executes exactly those; without, runs the greedy balancer
        over the per-shard load observed so far (simulator events plus
        settlement volume) and moves the hottest shards off the busiest
        workers while that strictly lowers the peak.  Requires migration to
        be enabled (``migration=`` anything but off).

        Callable between runs only: after any ``run()``/``run(until=...)``
        return, every shard is quiescent through the current barrier, which
        is exactly the state a migration needs.  Called before the first
        ``run()`` it simply edits the initial placement — the shards have
        not started executing anywhere yet, so there is nothing to move and
        no migration is recorded.

        Results are placement-invariant: a rebalanced run's fingerprint
        equals the static run's, whatever moves are made — only wall-clock
        load distribution changes.
        """
        if not self._migration_enabled:
            raise ConfigurationError(
                "rebalance() needs migration enabled: construct the "
                "ClusterSystem with migration='manual' (or a policy)"
            )
        if moves is None:
            normalized = rebalance_moves(self.placement, self.scheduler.current_loads())
        else:
            normalized = [
                move if isinstance(move, Move) else Move(shard=move[0], worker=move[1])
                for move in moves
            ]
        normalized = [
            move for move in normalized if self.placement.worker_of(move.shard) != move.worker
        ]
        if not normalized:
            return []
        if not self._session_open:
            for move in normalized:
                self.placement.move(move.shard, move.worker)
            return []
        records = self._backend.migrate(
            self.scheduler.barriers, self.scheduler.now, normalized
        )
        self.scheduler.migration_log.extend(records)
        return records

    def worker_loads(self) -> Dict[int, int]:
        """Cumulative load per logical worker under the current placement.

        The before/after view a ``rebalance()`` call changes; empty workers
        report zero.
        """
        return self.placement.worker_loads(self.scheduler.current_loads())

    def close(self) -> None:
        """Release backend resources (worker processes / thread pools)."""
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
        self._result.migration_stream = self.migration_signature()
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

        Driver-side gauges (settlement lifecycle depths, migration totals)
        are sampled here — once per capture, never on a hot path — then the
        per-shard registries are snapshotted and everything is merged into a
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
        totals = migration_totals(self.scheduler.migration_log)
        self.metrics.set_gauge("migrate.records", totals["moves"])
        self.metrics.set_gauge("migrate.snapshot_bytes_total", totals["snapshot_bytes"])
        self.metrics.set_gauge("migrate.delta_bytes_total", totals["delta_bytes"])
        self.metrics.set_gauge("migrate.replayed_events_total", totals["replayed_events"])
        self.metrics.set_gauge("migrate.stall_s_total", totals["stall_s"])
        if self.checkpoint_every is not None:
            stats = self._backend.checkpoint_stats()
            self.metrics.set_gauge("checkpoint.taken_total", stats["taken"])
            self.metrics.set_gauge("checkpoint.skipped_total", stats["skipped"])
            self.metrics.set_gauge("checkpoint.delta_bytes_total", stats["delta_bytes"])
            self.metrics.set_gauge("checkpoint.full_bytes_total", stats["full_bytes"])
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

    def profile_stats(self):
        """Merged :mod:`pstats` view of the run (``None`` unless profiling).

        Stops the driver-side sampler, pulls each worker's raw stats over
        the pipe (process backend only — in-process backends are already in
        the driver profile) and merges everything into one
        :class:`pstats.Stats`.  Call after the last ``run()``; a later run
        restarts the driver sampler.
        """
        if not self.profile:
            return None
        if self._profiler is not None:
            self._profiler.disable()
            self._profile_raw.append(profile_stats_dict(self._profiler))
            self._profiler = None
        if self._session_open:
            self._profile_raw.extend(self._backend.collect_profiles())
        return merge_profile_stats(self._profile_raw)

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
        report = ClusterCheckReport()
        for shard in self.shards:
            initial = shard.initial_balances()
            if self.settlement is not None:
                initial.update(self.settlement.provisions_for(shard.index))
            checker = ByzantineAssetTransferChecker(initial)
            report.shard_reports[shard.index] = checker.check(shard.observations())
        report.conservation = self.supply_audit()
        return report

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

    def migration_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the executed migration schedule.

        Recorded on the result's fingerprint *payload* (it pins migration
        decisions as backend-invariant) but excluded from the fingerprint
        *hash* — the hash's contract is precisely that placement never
        changes results.  Empty for static runs.
        """
        return self.scheduler.migration_signature()

    def resident_settlement_records(self) -> int:
        """Outbound ``x{d}:a`` records still resident across shard ledgers.

        The quantity the compaction lifecycle bounds: with compaction on it
        tracks the settlement in-flight window instead of the run's history.
        """
        return sum(shard.resident_settlement_records() for shard in self.shards)

    def retired_records(self) -> int:
        """Outbound records retired behind compaction watermarks, cluster-wide."""
        return sum(shard.retired_record_count() for shard in self.shards)

    def checkpoint_stats(self) -> Dict[str, int]:
        """Cumulative checkpoint accounting from the backend session.

        Zeros with checkpoints off.  ``delta_bytes`` vs ``full_bytes`` is
        the incremental stream's measured win.
        """
        return self._backend.checkpoint_stats()

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

    def replay_log_entries(self) -> int:
        """Commands held in the driver-side migration replay log right now.

        Zero on backends that migrate without replay; on the process pool
        this is the figure checkpoint truncation keeps bounded (the soak
        benchmark samples it).
        """
        return self._backend.replay_log_entries()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSystem(shards={self.shard_count}, "
            f"replicas={self.replicas_per_shard}, batch={self.batch_size})"
        )
