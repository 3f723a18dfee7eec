"""One shard group: an independent Figure 4 deployment.

A shard is a :class:`~repro.mp.system.ConsensuslessSystem` built from the
shard's own derived seed, so it owns its replicas, its network (with its own
seeded latency stream and per-node CPU queues), its signature scheme and its
clock: every shard runs on *its own*
:class:`~repro.network.simulator.Simulator` and is advanced independently up
to each settlement barrier by an execution backend
(:mod:`repro.cluster.backends`) — which is safe for the same reason sharding
itself is: shards never exchange messages, so a shard's event sequence
depends only on its own schedule.

Because a shard is built purely from seeds (:class:`ShardSpec`), the same
spec builds bit-identical shards in the driver process and in a worker
process — the property the cross-backend equivalence harness rests on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.common.types import AccountId, Amount, ProcessId, Transfer
from repro.cluster.routing import parse_external_account
from repro.mp.consensusless_transfer import ConsensuslessTransferNode, TransferRecord
from repro.mp.system import ConsensuslessSystem, SystemResult
from repro.network.node import NetworkConfig, NodeStats
from repro.obs import MetricsRegistry, merge_snapshots
from repro.spec.byzantine_spec import ClientOperation, ProcessObservation, ValidatedTransfer


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to rebuild a shard, as plain picklable data.

    Shards are deterministic functions of their spec: the network latency
    stream, the key material and every protocol decision derive from
    ``seed``.  The process-pool backend ships specs (never live objects)
    to its workers; the worker-built shard and the driver-side shard built
    from the same spec behave identically.
    """

    index: int
    replicas: int = 4
    initial_balance: Amount = 1_000_000
    broadcast: str = "bracha"
    batch_size: int = 1
    network_config: Optional[NetworkConfig] = None
    seed: int = 0
    # Whether the built shard records into a repro.obs.MetricsRegistry.
    # Pure accounting — the registry is never a protocol input — so the
    # flag can differ between builds of the same spec without changing a
    # single event (the telemetry invariant, pinned by tests/obs).
    telemetry: bool = True
    # Compact ordinary local transfer records out of ``hist`` once their
    # owner spends them (see ConsensuslessTransferNode.compact_consumed).
    # Balance-preserving by construction, so every fingerprint is unchanged.
    compact_history: bool = False

    def build(self) -> "Shard":
        """Construct the shard (the spec's fields are :class:`Shard`'s arguments)."""
        return Shard(**{f.name: getattr(self, f.name) for f in dataclasses.fields(self)})


@dataclass(frozen=True)
class ValidationEvent:
    """One replica's validation of a cross-shard credit, with its local time.

    ``index`` is the shard-local emission counter; ``(time, shard, index)``
    totally orders the events of one epoch across all shards, which is the
    sort key the settlement exchange uses to keep voucher processing
    identical whatever backend produced the events.
    """

    time: float
    shard: int
    replica: ProcessId
    transfer: Transfer
    index: int


@dataclass
class AdvanceReport:
    """What one shard reports back from running up to an epoch barrier."""

    shard: int
    events: List[ValidationEvent] = field(default_factory=list)
    pending_events: int = 0
    next_event_time: Optional[float] = None
    processed_events: int = 0
    now: float = 0.0


@dataclass
class NodeSnapshot:
    """The picklable final state of one replica (inspection-relevant fields).

    Carries the compaction state of the settlement lifecycle alongside the
    Figure 4 state: the per-account baseline offsets and retired-outbound
    totals behind the watermark, the retirement commands still waiting for
    their record to validate, and the retired-record counter — so a
    rehydrated driver-side twin audits exactly like the worker's shard.
    """

    seq: Dict[ProcessId, int]
    rec: Dict[ProcessId, int]
    hist: Dict[AccountId, set]
    deps: set
    validated_log: List[ValidatedTransfer]
    client_operations: List[ClientOperation]
    completed: List[TransferRecord]
    failed_immediately: List[TransferRecord]
    stats: NodeStats
    submitted: int = 0
    retired_offsets: Dict[AccountId, Amount] = field(default_factory=dict)
    retired_outbound: Dict[AccountId, Amount] = field(default_factory=dict)
    pending_retirements: set = field(default_factory=set)
    retired_records: int = 0
    compacted_local_records: int = 0
    stale_retirements_dropped: int = 0


@dataclass
class ShardSnapshot:
    """A shard's final state, shipped from a worker back to the driver.

    Holds exactly what the inspection and audit surfaces read after a run:
    per-node protocol state, the completion records in completion order, and
    the shard-level counters.  Restoring it onto a never-started driver-side
    shard makes ``balance_of`` / ``observations`` / ``finalize`` answer as if
    the run had happened locally.
    """

    index: int
    nodes: Dict[ProcessId, NodeSnapshot]
    committed: List[TransferRecord]
    rejected: List[TransferRecord]
    messages_sent: int
    submitted: int
    broadcast_delivered: int
    payload_items: int
    # The shard's metrics-registry snapshot (repro.obs), shipped back so the
    # driver can merge worker-side telemetry.
    metrics: Optional[Dict[str, Dict[str, object]]] = None


class Shard:
    """A replica group executing the transfers of its account partition."""

    def __init__(
        self,
        index: int,
        replicas: int = 4,
        initial_balance: Amount = 1_000_000,
        broadcast: str = "bracha",
        batch_size: int = 1,
        network_config: Optional[NetworkConfig] = None,
        seed: int = 0,
        telemetry: bool = True,
        compact_history: bool = False,
    ) -> None:
        # The construction inputs, kept verbatim so spec() can emit the exact
        # recipe this shard was built from (base config, pre-derivation seed).
        self._spec = ShardSpec(
            index=index,
            replicas=replicas,
            initial_balance=initial_balance,
            broadcast=broadcast,
            batch_size=batch_size,
            network_config=network_config,
            seed=seed,
            telemetry=telemetry,
            compact_history=compact_history,
        )
        self.index = index
        self.replicas = replicas
        # Every shard derives its own seed lineage so latency streams and key
        # material are independent across shards yet reproducible.
        shard_seed = derive_seed(seed, "shard", index) % (2**31)
        base_config = network_config or NetworkConfig()
        self.group = ConsensuslessSystem(
            process_count=replicas,
            initial_balance=initial_balance,
            broadcast=broadcast,
            network_config=dataclasses.replace(base_config, seed=shard_seed),
            seed=shard_seed,
            batch_size=batch_size,
        )
        self.simulator = self.group.simulator
        self.network = self.group.network
        self.scheme = self.group.scheme
        self.result = self.group.result
        self.nodes: Dict[ProcessId, ConsensuslessTransferNode] = {
            node.node_id: node for node in self.group.correct_nodes()
        }
        for node in self.nodes.values():
            node.compact_consumed = compact_history
        self.metrics = MetricsRegistry() if telemetry else None
        self.simulator.metrics = self.metrics
        # Key pairs read the registry through the scheme at sign time, so
        # telemetry counts every signature even when it is attached after
        # pairs were handed out; wiring it here just starts counting early.
        self.scheme.metrics = self.metrics
        self.submitted = 0
        self._validation_events: List[ValidationEvent] = []
        self._stats_override: Optional[Tuple[int, int]] = None
        # The worker-side registry snapshot a restore() installed (process
        # backend twins).  Kept separate from ``self.metrics`` — which holds
        # this object's *own* recording (driver-side fabric activity for a
        # twin) — and *replaced*, never merged, on every restore, so repeated
        # pause/finalize cycles cannot double-count worker telemetry.
        self._worker_metrics: Optional[Dict[str, Dict[str, object]]] = None

    # -- driving ------------------------------------------------------------------------------

    def start(self) -> None:
        self.network.start()

    def submit(self, time: float, issuer: ProcessId, destination: AccountId, amount: Amount) -> None:
        """Schedule one client submission on this shard's clock.

        Nothing cancels a submission, so it is a handle-less post of the
        node's ``submit_transfer``: one sequence number, as ``schedule_at``
        would take, without the handle or a closure.
        """
        self.simulator.post(time, self.nodes[issuer].submit_transfer, (destination, amount))
        self.submitted += 1

    def spec(self) -> ShardSpec:
        """The picklable recipe this shard was built from.

        ``spec().build()`` reconstructs a bit-identical twin: the original
        base network config and root seed are kept verbatim, so the derived
        latency streams and key material come out the same anywhere.
        """
        return self._spec

    def install_validation_collector(self) -> None:
        """Record cross-shard credit validations instead of vouchering inline.

        The settlement fabric lives in the driver process and never hooks
        nodes, which may execute in a worker; each shard collects the
        raw ``(time, replica, transfer)`` validation events of an epoch and
        the barrier replays them — in ``(time, shard, index)`` order —
        through the fabric.  Only credits to external ``x{d}:a`` accounts are
        recorded; everything else never produces a voucher anyway.
        """
        for pid in sorted(self.nodes):
            self.nodes[pid].on_validated = self._collector(pid)

    def _collector(self, replica: ProcessId) -> Callable[[Transfer], None]:
        def collect(transfer: Transfer) -> None:
            if parse_external_account(transfer.destination) is None:
                return
            self._validation_events.append(
                ValidationEvent(
                    time=self.simulator.now,
                    shard=self.index,
                    replica=replica,
                    transfer=transfer,
                    index=len(self._validation_events),
                )
            )

        return collect

    def advance(
        self, horizon: Optional[float], max_events: Optional[int] = None
    ) -> AdvanceReport:
        """Run this shard's own simulator up to ``horizon`` and report back.

        ``horizon=None`` runs to quiescence (used when settlement is off and
        no barriers are needed).  The report carries the epoch's validation
        events and the scheduling facts (pending events, next event time)
        the barrier scheduler folds into the global quiescence and
        next-barrier decisions.
        """
        if horizon is None:
            self.simulator.run(max_events=max_events)
        else:
            self.simulator.run_until(horizon, max_events=max_events)
        events = self._validation_events
        self._validation_events = []
        return AdvanceReport(
            shard=self.index,
            events=events,
            pending_events=self.simulator.pending_events,
            next_event_time=self.simulator.next_event_time,
            processed_events=self.simulator.processed_events,
            now=self.simulator.now,
        )

    def apply_mints(self, time: float, mints: List[Tuple[ProcessId, Transfer]]) -> None:
        """Schedule certified mints onto this shard's clock, in list order.

        The barrier delivers one ``(replica, transfer)`` entry per
        destination inbox decision; scheduling them in list order on the
        shard's own simulator reproduces the same ``(time, sequence)`` event
        ordering on every backend.  Nothing cancels a mint, so each is a
        handle-less event: one sequence number and one event, as a
        ``schedule_at`` would take, without the handle or a closure.
        """
        post = self.simulator.post
        nodes = self.nodes
        for replica, transfer in mints:
            post(time, nodes[replica].mint_certified_credit, (transfer,))

    def retire_settled(self, transfers: List[Tuple]) -> None:
        """Apply one retirement batch to every replica, in replica order.

        Retirement is uniform across the replica group (the compaction gate
        verified one quorum certificate for all of them); applying it in
        sorted replica order keeps the per-replica outcomes deterministic.
        """
        for pid in sorted(self.nodes):
            self.nodes[pid].retire_settled(list(transfers))

    def apply_retirements(self, time: float, transfers: List[Tuple]) -> None:
        """Schedule a retirement batch onto this shard's clock.

        The barrier hands over the transfers a verified ack quorum retired;
        one handle-less event at the barrier time compacts them out of every
        replica, ordered against the shard's own events exactly like mints
        are.
        """
        self.simulator.post(time, self.retire_settled, (list(transfers),))

    def resident_settlement_records(self) -> int:
        """Outbound ``x{d}:a`` records still resident at replica 0.

        The figure the compaction lifecycle bounds: without retirement it
        grows with every cross-shard payment ever validated; with it, it
        tracks the settlement in-flight window.  Classified here (not on the
        node) because external-account naming is a cluster-layer convention
        the per-shard protocol knows nothing about.
        """
        return sum(
            len(records)
            for account, records in self.nodes[0].hist.items()
            if parse_external_account(account) is not None
        )

    def retired_record_count(self) -> int:
        """Outbound records retired behind the watermark at replica 0."""
        return self.nodes[0].retired_records

    def metrics_snapshot(self) -> Optional[Dict[str, Dict[str, object]]]:
        """The shard's registry as plain dicts, cumulative stats sampled in.

        Broadcast accounting and the network's message count are kept by
        their own layers; sampling them into gauges here (rather than
        instrumenting those hot paths twice) keeps recording O(1) and the
        registry the single merged view the driver folds cluster-wide.
        """
        if self.metrics is None:
            return self._worker_metrics
        if self._worker_metrics is not None:
            # Restored twin: the run happened on a worker, whose snapshot
            # already carries the sampled broadcast/network gauges.  Sampling
            # this twin's never-run local layers would overwrite them with
            # zeros, so instead overlay the worker figures on whatever this
            # registry recorded itself (driver-side fabric activity).
            return merge_snapshots([self.metrics.snapshot(), self._worker_metrics])
        layer = self.nodes[0].broadcast_layer
        if layer is not None:
            layer.stats.record_to(self.metrics)
        self.metrics.set_gauge("net.messages_sent", self.network.messages_sent)
        self.metrics.set_gauge("shard.submitted", self.submitted)
        return self.metrics.snapshot()

    def snapshot(self) -> ShardSnapshot:
        """Capture the inspection-relevant final state as picklable data."""
        nodes = {}
        for pid in sorted(self.nodes):
            node = self.nodes[pid]
            nodes[pid] = NodeSnapshot(
                seq=dict(node.seq),
                rec=dict(node.rec),
                hist={account: set(history) for account, history in node.hist.items()},
                deps=set(node.deps),
                validated_log=list(node._validated_log),
                client_operations=list(node._client_operations),
                completed=list(node.completed),
                failed_immediately=list(node.failed_immediately),
                stats=node.stats,
                submitted=node.submitted,
                retired_offsets=dict(node.book.offsets),
                retired_outbound=dict(node._retired_outbound),
                pending_retirements=set(node._pending_retirements),
                retired_records=node.retired_records,
                compacted_local_records=node.compacted_local_records,
                stale_retirements_dropped=node.stale_retirements_dropped,
            )
        return ShardSnapshot(
            index=self.index,
            nodes=nodes,
            committed=list(self.result.committed),
            rejected=list(self.result.rejected),
            messages_sent=self.network.messages_sent,
            submitted=self.submitted,
            broadcast_delivered=self.broadcast_instances(),
            payload_items=self.payload_items(),
            metrics=self.metrics_snapshot(),
        )

    def restore(self, snapshot: ShardSnapshot) -> None:
        """Install a worker shard's final state onto this (never-run) twin.

        After restoring, every read-side surface — ``balance_of``,
        ``all_known_balances``, ``observations``, the result lists,
        ``broadcast_instances`` — answers exactly as the worker's shard
        would; the local simulator and broadcast layers stay untouched (the
        run happened elsewhere).
        """
        if snapshot.index != self.index:
            raise ConfigurationError(
                f"snapshot of shard {snapshot.index} applied to shard {self.index}"
            )
        for pid, node_snapshot in snapshot.nodes.items():
            self._restore_node(self.nodes[pid], node_snapshot)
        self.result.committed = list(snapshot.committed)
        self.result.rejected = list(snapshot.rejected)
        self.network.messages_sent = snapshot.messages_sent
        self.submitted = snapshot.submitted
        self._stats_override = (snapshot.broadcast_delivered, snapshot.payload_items)
        # Replace, never merge: each pause/finalize cycle restores the
        # worker's *cumulative* registry, so merging would double-count
        # counters on the second restore.  ``metrics_snapshot`` overlays
        # this on the twin's own (driver-side fabric) recording.
        self._worker_metrics = snapshot.metrics

    @staticmethod
    def _restore_node(node: ConsensuslessTransferNode, state: NodeSnapshot) -> None:
        """Install ``state``; the book's running balances are rebuilt from the
        shipped ``hist`` + ``retired_offsets`` by one fold."""
        node.stats = state.stats
        node.submitted = state.submitted
        node.seq = dict(state.seq)
        node.rec = dict(state.rec)
        node.book.rebuild(state.hist, state.retired_offsets)
        node.deps = set(state.deps)
        node._validated_log = list(state.validated_log)
        node._client_operations = list(state.client_operations)
        node.completed = list(state.completed)
        node.failed_immediately = list(state.failed_immediately)
        node._retired_outbound = dict(state.retired_outbound)
        node._pending_retirements = set(state.pending_retirements)
        node.retired_records = state.retired_records
        node.compacted_local_records = state.compacted_local_records
        node.stale_retirements_dropped = state.stale_retirements_dropped

    def compacted_local_record_count(self) -> int:
        """Ordinary local records compacted behind the consumption watermark (replica 0)."""
        return self.nodes[0].compacted_local_records

    def resident_local_records(self) -> int:
        """Ordinary (non-settlement) records still resident at replica 0.

        The figure ``compact_history`` bounds, mirroring
        :meth:`resident_settlement_records` for the local ledger.
        """
        return sum(
            len(records)
            for account, records in self.nodes[0].hist.items()
            if parse_external_account(account) is None
        )

    def finalize(self, duration: float) -> SystemResult:
        """Stamp run-wide figures once the cluster has quiesced.

        ``duration`` is the cluster's, not this shard's last event time;
        event counts live on :class:`~repro.cluster.result.ClusterResult`
        (``events_processed`` and ``per_shard_events``), so the per-shard
        result leaves ``events_processed`` at zero.
        """
        self.result.duration = duration
        self.result.messages_sent = self.network.messages_sent
        return self.result

    # -- inspection ---------------------------------------------------------------------------

    @property
    def fault_threshold(self) -> int:
        """``f``: Byzantine replicas this shard tolerates (``n >= 3f + 1``)."""
        return (self.replicas - 1) // 3

    @property
    def quorum_size(self) -> int:
        """``2f + 1``: signatures a settlement certificate must carry.

        Any two such quorums intersect in a correct replica, so no two
        conflicting claims for the same settlement stream slot can both be
        certified, and ``f`` silent replicas cannot block certification.
        """
        return 2 * self.fault_threshold + 1

    def observations(self) -> List[ProcessObservation]:
        """Per-replica observations for this shard's Definition 1 check."""
        return self.group.observations()

    def initial_balances(self) -> Dict[AccountId, Amount]:
        return self.group.initial_balances()

    def broadcast_instances(self) -> int:
        """Secure-broadcast instances delivered at replica 0 (amortisation)."""
        if self._stats_override is not None:
            return self._stats_override[0]
        layer = self.nodes[0].broadcast_layer
        return layer.stats.delivered if layer is not None else 0

    def payload_items(self) -> int:
        """Application transfers delivered at replica 0 across all instances."""
        if self._stats_override is not None:
            return self._stats_override[1]
        layer = self.nodes[0].broadcast_layer
        return layer.stats.payload_items if layer is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard({self.index}, replicas={self.replicas}, "
            f"batch={self._spec.batch_size}, committed={self.result.committed_count})"
        )
