"""One shard group: an independent Figure 4 deployment.

A shard owns its replicas, its network (with its own seeded latency stream
and per-node CPU queues), its signature scheme and its clock: every shard
runs on *its own* :class:`~repro.network.simulator.Simulator` and is advanced
independently up to each settlement barrier by an execution backend
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

from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.echo_broadcast import EchoBroadcast
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.common.types import AccountId, Amount, ProcessId, Transfer
from repro.crypto.signatures import SignatureScheme
from repro.cluster.batching import BatchingTransferNode
from repro.cluster.routing import parse_external_account
from repro.mp.consensusless_transfer import (
    ConsensuslessTransferNode,
    TransferRecord,
    account_of,
)
from repro.mp.system import SystemResult
from repro.network.node import Network, NetworkConfig, NodeStats
from repro.network.simulator import Simulator
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
    relay_final: bool = True
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
        """Construct the shard."""
        return Shard(
            index=self.index,
            replicas=self.replicas,
            initial_balance=self.initial_balance,
            broadcast=self.broadcast,
            batch_size=self.batch_size,
            network_config=self.network_config,
            relay_final=self.relay_final,
            seed=self.seed,
            telemetry=self.telemetry,
            compact_history=self.compact_history,
        )


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
    # driver can merge worker-side telemetry.  Excluded from the migration
    # divergence check (see ProcessPoolBackend.migrate): a replayed shard
    # re-executes the same protocol work but not the same *driving* pattern
    # (one advance per barrier vs one per replayed command), so telemetry may
    # legitimately differ where protocol state may not.
    metrics: Optional[Dict[str, Dict[str, object]]] = None

    def state_view(self) -> "ShardSnapshot":
        """This snapshot with telemetry stripped: the protocol-state content
        two snapshots must agree on byte-for-byte (migration's check)."""
        return dataclasses.replace(self, metrics=None)


@dataclass
class ShardCheckpoint:
    """A shard frozen mid-run at a protocol-quiescent barrier, as plain data.

    Where :class:`ShardSnapshot` captures the *inspection* surface of a
    finished (or paused) shard, a checkpoint captures enough to resume
    execution bit-identically: the snapshot plus the live remainder — the
    per-node validation queues and client pipelines, the broadcast layers'
    in-flight instance tables, the network RNG position and CPU horizons,
    and the simulator's clock/sequence counters.  Client arrivals are *not*
    captured: a checkpoint is only taken when every pending event is a
    client submission, and those are re-scheduled from the shard's routed
    submission list on restore (see :meth:`Shard.restore_checkpoint`).
    """

    index: int
    time: float
    sequence: int
    processed_events: int
    state: ShardSnapshot
    live: Dict[str, object] = field(default_factory=dict)


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
        relay_final: bool = True,
        seed: int = 0,
        telemetry: bool = True,
        compact_history: bool = False,
    ) -> None:
        if replicas < 4:
            raise ConfigurationError(
                "the Byzantine message-passing protocols need at least 4 replicas"
            )
        if broadcast not in ("bracha", "echo"):
            raise ConfigurationError(f"unknown broadcast kind {broadcast!r}")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        self.index = index
        self.replicas = replicas
        self.broadcast_kind = broadcast
        self.batch_size = batch_size
        self.relay_final = relay_final
        self.compact_history = compact_history
        self.simulator = Simulator()
        self.metrics = MetricsRegistry() if telemetry else None
        self._telemetry = telemetry
        self.simulator.metrics = self.metrics
        # Every shard derives its own seed lineage so latency streams and key
        # material are independent across shards yet reproducible.
        shard_seed = derive_seed(seed, "shard", index) % (2**31)
        base_config = network_config or NetworkConfig()
        self.network = Network(self.simulator, dataclasses.replace(base_config, seed=shard_seed))
        self.scheme = SignatureScheme(seed=shard_seed)
        # Key pairs read the registry through the scheme at sign time, so
        # telemetry counts every signature even when it is attached after
        # pairs were handed out; wiring it here just starts counting early.
        self.scheme.metrics = self.metrics
        self.result = SystemResult()
        self._initial_balance = initial_balance
        # The construction inputs, kept verbatim so spec() can emit the exact
        # recipe this shard was built from (base config, pre-derivation seed).
        self._base_network_config = network_config
        self._seed = seed
        self._balances: Dict[AccountId, Amount] = {
            account_of(pid): initial_balance for pid in range(replicas)
        }
        self.nodes: Dict[ProcessId, ConsensuslessTransferNode] = {}
        self._build_nodes()
        self.submitted = 0
        self._validation_events: List[ValidationEvent] = []
        self._stats_override: Optional[Tuple[int, int]] = None
        # The worker-side registry snapshot a restore() installed (process
        # backend twins).  Kept separate from ``self.metrics`` — which holds
        # this object's *own* recording (driver-side fabric activity for a
        # twin) — and *replaced*, never merged, on every restore, so repeated
        # pause/finalize cycles cannot double-count worker telemetry.
        self._worker_metrics: Optional[Dict[str, Dict[str, object]]] = None

    # -- construction -------------------------------------------------------------------------

    def _broadcast_factory(self, **kwargs):
        if self.broadcast_kind == "bracha":
            return BrachaBroadcast(**kwargs)
        return EchoBroadcast(scheme=self.scheme, relay_final=self.relay_final, **kwargs)

    def _build_nodes(self) -> None:
        for pid in range(self.replicas):
            if self.batch_size > 1:
                node: ConsensuslessTransferNode = BatchingTransferNode(
                    node_id=pid,
                    initial_balances=self._balances,
                    broadcast_factory=self._broadcast_factory,
                    on_complete=self._record_completion,
                    batch_size=self.batch_size,
                )
            else:
                node = ConsensuslessTransferNode(
                    node_id=pid,
                    initial_balances=self._balances,
                    broadcast_factory=self._broadcast_factory,
                    on_complete=self._record_completion,
                )
            node.compact_consumed = self.compact_history
            self.nodes[pid] = node
        self.network.add_nodes(self.nodes.values())

    def _record_completion(self, record: TransferRecord) -> None:
        if record.success:
            self.result.committed.append(record)
        else:
            self.result.rejected.append(record)

    # -- driving ------------------------------------------------------------------------------

    def start(self) -> None:
        self.network.start()

    def submit(self, time: float, issuer: ProcessId, destination: AccountId, amount: Amount) -> None:
        """Schedule one client submission on this shard's clock."""
        node = self.nodes[issuer]
        self.simulator.schedule_at(
            time,
            lambda: node.submit_transfer(destination, amount),
            label=f"client submit s{self.index}/p{issuer}",
        )
        self.submitted += 1

    def spec(self) -> ShardSpec:
        """The picklable recipe this shard was built from.

        ``spec().build()`` reconstructs a bit-identical twin: the original
        base network config and root seed are kept verbatim, so the derived
        latency streams and key material come out the same anywhere.
        """
        return ShardSpec(
            index=self.index,
            replicas=self.replicas,
            initial_balance=self._initial_balance,
            broadcast=self.broadcast_kind,
            batch_size=self.batch_size,
            network_config=self._base_network_config,
            relay_final=self.relay_final,
            seed=self._seed,
            telemetry=self._telemetry,
            compact_history=self.compact_history,
        )

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
        ordering on every backend.
        """
        for replica, transfer in mints:
            node = self.nodes[replica]
            self.simulator.schedule_at(
                time,
                lambda n=node, t=transfer: n.mint_certified_credit(t),
                label=f"settle mint s{self.index}/p{replica}",
            )

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
        one event at the barrier time compacts them out of every replica,
        ordered against the shard's own events exactly like mints are.
        """
        self.simulator.schedule_at(
            time,
            lambda batch=list(transfers): self.retire_settled(batch),
            label=f"settle retire s{self.index}",
        )

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

    def snapshot(self, include_metrics: bool = True) -> ShardSnapshot:
        """Capture the inspection-relevant final state as picklable data.

        ``include_metrics=False`` skips the telemetry sampling entirely —
        checkpoints compare and diff snapshots as pure protocol state, so
        carrying (and re-sampling) gauges there would only add bytes.
        """
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
            metrics=self.metrics_snapshot() if include_metrics else None,
        )

    def restore(self, snapshot: ShardSnapshot) -> None:
        """Adopt a worker shard's final state onto this (never-run) twin.

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
            self._restore_node(self.nodes[pid], node_snapshot, node_snapshot.stats)
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
    def _restore_node(
        node: ConsensuslessTransferNode, state: NodeSnapshot, stats: NodeStats
    ) -> None:
        """Install ``state``; the book's running balances are rebuilt from the
        shipped ``hist`` + ``retired_offsets`` by one fold."""
        node.stats = stats
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

    # -- checkpointing ------------------------------------------------------------------------

    def checkpoint_blockers(self) -> List[str]:
        """Why this shard cannot be checkpointed right now (empty = it can).

        A checkpoint is only sound at a *protocol-quiescent* instant: every
        pending simulator event must be a client submission (re-creatable
        from the routed-submission spec).  An in-flight protocol message or
        settlement command holds closures over live state and would be lost,
        so its presence blocks the checkpoint — the caller simply skips this
        cadence barrier and the shard keeps replaying from its previous
        checkpoint (or genesis).
        """
        blockers = [
            label
            for label in self.simulator.live_event_labels()
            if not label.startswith("client submit ")
        ]
        if self._validation_events:
            blockers.append("undrained validation events")
        return blockers

    def checkpoint(self) -> Optional[ShardCheckpoint]:
        """Capture a resumable mid-run image, or ``None`` if not quiescent.

        The capture deep-copies every mutable container, so the returned
        object stays valid however far this shard runs on (the serial and
        thread backends keep checkpoints of *live* shards in-process).
        """
        if self.checkpoint_blockers():
            return None
        state = self.snapshot(include_metrics=False)
        for node_snapshot in state.nodes.values():
            # snapshot() shares the live NodeStats object; a checkpoint must
            # freeze it.
            node_snapshot.stats = dataclasses.replace(node_snapshot.stats)
        live = {
            "nodes": {pid: self.nodes[pid].capture_live_state() for pid in sorted(self.nodes)},
            "network": self.network.capture_state(),
        }
        return ShardCheckpoint(
            index=self.index,
            time=self.simulator.now,
            sequence=self.simulator._sequence,
            processed_events=self.simulator.processed_events,
            state=state,
            live=live,
        )

    def restore_checkpoint(self, checkpoint: ShardCheckpoint, submissions) -> int:
        """Resume from ``checkpoint`` on this freshly built, started shard.

        ``submissions`` is the shard's full routed arrival list; the tail
        strictly after the checkpoint time is re-scheduled (the rest already
        executed into the captured state).  The arrivals take fresh low
        sequence numbers — all below the checkpoint's counter and in their
        original relative order, exactly as in the original timeline where
        every arrival was scheduled at open — then the clock and sequence
        counter jump to the checkpoint's values, so deterministic
        re-execution reproduces the original event order bit-for-bit.
        Returns the number of arrivals re-scheduled.

        The caller is expected to have run :meth:`start` (and installed a
        validation collector when settlement is on) before restoring, as
        :func:`repro.cluster.backends._replay_shard` does.
        """
        if checkpoint.index != self.index:
            raise ConfigurationError(
                f"checkpoint of shard {checkpoint.index} applied to shard {self.index}"
            )
        scheduled = 0
        for submission in submissions:
            if submission.time > checkpoint.time:
                self.submit(submission.time, submission.issuer, submission.destination, submission.amount)
                scheduled += 1
        snapshot = checkpoint.state
        for pid, node_snapshot in snapshot.nodes.items():
            # Copy the stats, don't alias: this node runs on and mutates them.
            self._restore_node(
                self.nodes[pid], node_snapshot, dataclasses.replace(node_snapshot.stats)
            )
        self.result.committed = list(snapshot.committed)
        self.result.rejected = list(snapshot.rejected)
        self.submitted = snapshot.submitted
        # Live remainder: validation queues, client pipelines, broadcast
        # instance tables, network RNG/CPU/counters.  No ``_stats_override``
        # and no ``_worker_metrics`` — this twin is *live*, its layers carry
        # the real cumulative stats from here on.
        for pid, live_state in checkpoint.live["nodes"].items():
            self.nodes[pid].restore_live_state(live_state)
        self.network.restore_state(checkpoint.live["network"])
        self.simulator.restore_counters(
            checkpoint.time, checkpoint.sequence, checkpoint.processed_events
        )
        return scheduled

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
        return [node.observation() for node in self.nodes.values()]

    def initial_balances(self) -> Dict[AccountId, Amount]:
        return dict(self._balances)

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
            f"batch={self.batch_size}, committed={self.result.committed_count})"
        )
