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

A shard is also both settlement trust boundaries for itself (an inbox per
replica decides its mints, its gate its retirements) and its replicas sign
their own vouchers and acks: it needs only the certificates each barrier
hands it and every shard's certificate check (the key directory).

Because a shard is built purely from seeds (:class:`ShardSpec`), the same
spec builds bit-identical shards in the driver process and in a worker
process — the property the cross-backend equivalence harness rests on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import derive_seed
from repro.common.types import AccountId, Amount, ProcessId, Transfer, TransferId
from repro.cluster.routing import parse_external_account
from repro.cluster.settlement import (
    CompactionGate,
    RetirementCertificate,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
    SettlementInbox,
    mint_transfer,
)
from repro.crypto.signatures import SignatureScheme
from repro.mp.consensusless_transfer import ConsensuslessTransferNode, TransferRecord
from repro.mp.system import ConsensuslessSystem, SystemResult
from repro.network.node import NetworkConfig, NodeStats
from repro.obs import MetricsRegistry, merge_snapshots
from repro.spec.byzantine_spec import ClientOperation, ProcessObservation


@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard is built from (``Shard(spec)``), as plain picklable data.

    Shards are deterministic functions of their spec: the network latency
    stream, the key material and every protocol decision derive from
    ``seed``.  The process-pool backend ships specs (never live objects)
    to its workers; the worker-built shard and the driver-side shard built
    from the same spec behave identically.
    """

    index: int
    replicas: int = 4
    initial_balance: Amount = 1_000_000
    batch_size: int = 1
    network_config: Optional[NetworkConfig] = None
    seed: int = 0


def _shard_seed(spec: ShardSpec) -> int:
    """The seed a shard's network, replicas and keys derive from."""
    return derive_seed(spec.seed, "shard", spec.index) % (2**31)


def quorum_size_for(replicas: int) -> int:
    """``2f + 1``, the signatures a shard of ``replicas`` puts on a
    certificate, for the ``f = (replicas - 1) // 3`` it tolerates."""
    return 2 * ((replicas - 1) // 3) + 1


def certificate_check(spec: ShardSpec, metrics, scheme: Optional[SignatureScheme] = None):
    """Shard ``spec``'s bound certificate check, counting into ``metrics``
    (the checking shard's registry, wherever the signer runs): a quorum of
    its replicas' keys, from its own ``scheme`` when it is hosted alongside
    (so verdicts reached there are reused), else from the spec (the same
    seed, so the same keys)."""
    if scheme is None:
        scheme = SignatureScheme(seed=_shard_seed(spec))
    return partial(
        scheme.counting_into(metrics).verify_certificate,
        quorum_size=quorum_size_for(spec.replicas),
        allowed_signers=frozenset(range(spec.replicas)),
    )


@dataclass
class AdvanceReport:
    """What one shard reports back from running up to an epoch barrier.

    ``events`` are the epoch's voucher rows, ``(time, shard, index,
    replica, claim, tag)``, whose tuple order (``index`` counts the shard's
    rows) is the order the exchange sends them in; ``acks`` the last
    apply's ack rows, ``(time, position, shard, replica, claim, tag)``,
    stamped with its barrier and each certificate's delivery position.
    Rows are flat tuples around a claim the agreeing replicas share: cheap
    on a pipe.
    """

    shard: int
    events: List[tuple] = field(default_factory=list)
    acks: List[tuple] = field(default_factory=list)
    pending_events: int = 0
    next_event_time: Optional[float] = None
    processed_events: int = 0
    now: float = 0.0


@dataclass
class NodeSnapshot:
    """The picklable final state of one replica (inspection-relevant fields).

    The validated history ships as the node's two columns, in local
    validation order: ``validated`` holds the transfers and ``dependencies``
    each one's declared dependency ids.  The transfers are the objects
    ``hist`` holds and every replica's dependency entry is its
    announcement's one tuple, and the codec pickles a whole shard in one
    frame, so that sharing arrives intact: the columns add a list slot per
    validation and no object.

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
    validated: List[Transfer]
    dependencies: List[Tuple[TransferId, ...]]
    client_operations: List[ClientOperation]
    completed: List[TransferRecord]
    failed_immediately: List[TransferRecord]
    stats: NodeStats
    submitted: int = 0
    retired_offsets: Dict[AccountId, Amount] = field(default_factory=dict)
    retired_outbound: Dict[AccountId, Amount] = field(default_factory=dict)
    pending_retirements: set = field(default_factory=set)
    retired_records: int = 0
    stale_retirements_dropped: int = 0


@dataclass
class ShardSnapshot:
    """A shard's final state, shipped from a worker back to the driver.

    Holds exactly what the inspection and audit surfaces read after a run:
    per-node protocol state, the completion records in completion order, the
    shard-level counters and what its inboxes and gate decided (each one's
    ``state()``: counts, rejection windows, buffers, watermarks).  Restoring
    it onto a never-started driver-side shard makes ``balance_of`` /
    ``observations`` / ``finalize`` / the inboxes and the gate answer as if
    the run had happened locally.

    One snapshot is one pipe frame: the pool's final capture asks for each
    shard by its own ``("snapshot", index)`` command and restores it before
    it decodes the next, so the driver holds one decoded shard at a time.
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
    metrics: Dict[str, Dict[str, object]]
    inboxes: List[Dict[str, object]]
    gate: Dict[str, object]


class Shard:
    """A replica group executing the transfers of its account partition."""

    def __init__(self, spec: ShardSpec) -> None:
        self._spec = spec
        self.index = spec.index
        self.replicas = spec.replicas
        # Every shard derives its own seed lineage so latency streams and key
        # material are independent across shards yet reproducible.
        shard_seed = _shard_seed(spec)
        base_config = spec.network_config or NetworkConfig()
        self.group = ConsensuslessSystem(
            process_count=spec.replicas,
            initial_balance=spec.initial_balance,
            broadcast="bracha",
            network_config=dataclasses.replace(base_config, seed=shard_seed),
            seed=shard_seed,
            batch_size=spec.batch_size,
        )
        self.simulator = self.group.simulator
        self.network = self.group.network
        self.scheme = self.group.scheme
        self.result = self.group.result
        self.nodes: Dict[ProcessId, ConsensuslessTransferNode] = {
            node.node_id: node for node in self.group.correct_nodes()
        }
        self.metrics = MetricsRegistry()
        self.simulator.metrics = self.metrics
        # Key pairs read the registry through the scheme at sign time, so
        # telemetry counts every signature even when it is attached after
        # pairs were handed out; wiring it here just starts counting early.
        self.scheme.metrics = self.metrics
        self.submitted = 0
        # The rows the next report carries: voucher rows as replicas validate,
        # ack rows as a barrier's certificates mint.
        self._validation_events: List[tuple] = []
        self._ack_rows: List[tuple] = []
        # ``(destination, issuer) -> sequence -> (transfer, claim)`` of each
        # outbound slot, from its first voucher until the gate retires it.
        self._slots: Dict[Tuple[int, ProcessId], Dict[int, tuple]] = {}
        # Each replica's signing capability (its tags) and the key directory,
        # both installed with the collector: only this shard signs for them.
        self._tag: Dict[ProcessId, Callable] = {}
        self._verifiers: Dict[int, Callable[..., bool]] = {}
        # One inbox per replica, in pid order; the claims the inbox being
        # delivered to mints, and the transfers the barrier's gate retired.
        self._minting: List[SettlementClaim] = []
        self._retiring: List[Transfer] = []
        self.inboxes: List[SettlementInbox] = [
            SettlementInbox(self.index, self._verifiers, self._minting.append) for _ in self.nodes
        ]
        self.gate = CompactionGate(self.index, self._verifiers, self._retire_slots)
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

        ``Shard(shard.spec())`` reconstructs a bit-identical twin: the spec
        keeps the base network config and root seed verbatim, so the derived
        latency streams and key material come out the same anywhere.
        """
        return self._spec

    def install_validation_collector(self, verifiers: Optional[Dict[int, Callable]] = None) -> None:
        """Hand every replica its key pair — each signs a voucher for each
        cross-shard credit it validates, collected into the epoch's
        :class:`AdvanceReport`, and an ack for each credit it mints — and
        install ``verifiers``, every shard's certificate check by index: the
        key directory the inboxes and the gate read.

        The collector parses a credit's ``x{d}:a`` name once and numbers a
        replica's credits densely per ``(destination, issuer)`` stream; all
        correct replicas validate an issuer's transfers in source order, so
        they agree.  A slot's first observer records its transfer and
        :class:`SettlementClaim`, which every replica that validated the same
        transfer signs; any other, or a retired slot, gets a claim of its own.
        """
        self._verifiers.update(verifiers or {})
        for pid in sorted(self.nodes):
            self._tag[pid] = self.scheme.keypair_for(pid).tag
            self.nodes[pid].on_validated = self._collector(pid)

    def _collector(self, replica: ProcessId) -> Callable[[Transfer], None]:
        tag = self._tag[replica]
        index = self.index
        sequences: Dict[Tuple[int, ProcessId], int] = {}  # this replica's counters

        def collect(transfer: Transfer) -> None:
            parsed = parse_external_account(transfer.destination)
            if parsed is None or parsed[0] == index:
                return
            destination, account = parsed
            stream = (destination, transfer.issuer)
            sequence = sequences[stream] = sequences.get(stream, 0) + 1
            slot = self._slots.get(stream, {}).get(sequence)
            if slot is not None and (slot[0] is transfer or slot[0] == transfer):
                claim = slot[1]
            else:
                claim = SettlementClaim(index, *stream, sequence, account, transfer.amount)
                if slot is None and sequence > self.gate.watermark(*stream):
                    self._slots.setdefault(stream, {})[sequence] = (transfer, claim)
            events = self._validation_events
            events.append(
                (self.simulator.now, index, len(events), replica, claim, tag(claim))
            )

        return collect

    def advance(
        self, horizon: Optional[float], max_events: Optional[int] = None
    ) -> AdvanceReport:
        """Run this shard's own simulator up to ``horizon`` and report back.

        ``horizon=None`` runs to quiescence.  The report carries the epoch's
        voucher rows, the ack rows of the last :meth:`apply` and the
        scheduling facts (pending events, next event time) the barrier
        scheduler folds into the global quiescence and next-barrier
        decisions.

        Spending ``max_events`` is not an error here: the shard stops with
        its next live event inside the horizon, which the report shows, and
        the scheduler raises the cluster's own budget error.  The simulator
        raises its budget error only after running exactly the allotment,
        which no failing event does, so every other error propagates.
        """
        before = self.simulator.processed_events
        try:
            self.simulator.run(until=horizon, max_events=max_events)
        except SimulationError:
            spent = self.simulator.processed_events - before
            # ``type``: a refused ``False`` budget would equal 0 events spent.
            if type(max_events) is not int or spent != max_events:
                raise
        events, self._validation_events = self._validation_events, []
        acks, self._ack_rows = self._ack_rows, []
        return AdvanceReport(
            shard=self.index,
            events=events,
            acks=acks,
            pending_events=self.simulator.pending_events,
            next_event_time=self.simulator.next_event_time,
            processed_events=self.simulator.processed_events,
            now=self.simulator.now,
        )

    def apply(
        self,
        time: float,
        certificates: List[Tuple[int, SettlementCertificate]],
        retirements: List[RetirementCertificate],
    ) -> None:
        """Decide one barrier's certificates and schedule what they license.

        Each ``(position, certificate)`` visits the inboxes in pid order;
        each mint they decide is posted as one handle-less event, in
        decision order, and its replica signs an ack row (stamped ``time``
        and ``position``) for the next report; the replicas minting a slot
        share its transfer and ack claim.  Then the gate takes each
        retirement certificate, and one event compacts what it retired out
        of every replica.  Posted in this order on the shard's own
        simulator, they take the same ``(time, sequence)`` slots on every
        backend.
        """
        post = self.simulator.post
        minting = self._minting
        for position, certificate in certificates:
            built: Dict[SettlementClaim, Tuple[Transfer, SettlementAckClaim]] = {}
            for (replica, node), inbox in zip(self.nodes.items(), self.inboxes):
                inbox.receive(certificate)
                for claim in minting:
                    if claim not in built:
                        built[claim] = (mint_transfer(claim), SettlementAckClaim(
                            claim.source_shard, claim.destination_shard, claim.issuer, claim.sequence
                        ))
                    transfer, ack_claim = built[claim]
                    post(time, node.mint_certified_credit, (transfer,))
                    tag = self._tag[replica](ack_claim)
                    self._ack_rows.append((time, position, self.index, replica, ack_claim, tag))
                minting.clear()
        for certificate in retirements:
            self.gate.receive(certificate)
        if self._retiring:
            post(time, self.retire_settled, (self._retiring,))
            self._retiring = []

    def _retire_slots(self, claim: SettlementAckClaim, first: int) -> Optional[Amount]:
        """The gate's lookup: retire the recorded slots ``first..claim.sequence``
        of the claim's stream (``None``, retiring nothing, if one is missing)."""
        stream = (claim.destination_shard, claim.issuer)
        recorded = self._slots.get(stream, {})
        span = range(first, claim.sequence + 1)
        if any(sequence not in recorded for sequence in span):
            return None
        transfers = [recorded.pop(sequence)[0] for sequence in span]
        if not recorded:  # the stream drained: its dict goes with its last slot
            del self._slots[stream]
        self._retiring.extend(transfers)
        return sum(transfer.amount for transfer in transfers)

    def retire_settled(self, transfers: List[Transfer]) -> None:
        """Apply one retirement batch to every replica, in replica order.

        Retirement is uniform across the replica group (the compaction gate
        verified one quorum certificate for all of them); applying it in
        sorted replica order keeps the per-replica outcomes deterministic.
        """
        for pid in sorted(self.nodes):
            self.nodes[pid].retire_settled(list(transfers))

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

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """The shard's registry as plain dicts, cumulative stats sampled in.

        Broadcast accounting and the network's message count are kept by
        their own layers; sampling them into gauges here (rather than
        instrumenting those hot paths twice) keeps recording O(1) and the
        registry the single merged view the driver folds cluster-wide.
        """
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
                validated=list(node._validated),
                dependencies=list(node._validated_deps),
                client_operations=list(node._client_operations),
                completed=list(node.completed),
                failed_immediately=list(node.failed_immediately),
                stats=node.stats,
                submitted=node.submitted,
                retired_offsets=dict(node.book.offsets),
                retired_outbound=dict(node._retired_outbound),
                pending_retirements=set(node._pending_retirements),
                retired_records=node.retired_records,
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
            inboxes=[inbox.state() for inbox in self.inboxes],
            gate=self.gate.state(),
        )

    def restore(self, snapshot: ShardSnapshot) -> None:
        """Install a worker shard's final state onto this (never-run) twin.

        After restoring, every read-side surface — ``balance_of``,
        ``all_known_balances``, ``observations``, the result lists,
        ``broadcast_instances``, the inboxes and the gate — answers exactly
        as the worker's shard would; the local simulator and broadcast layers
        stay untouched (the run happened elsewhere).
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
        for inbox, state in zip(self.inboxes, snapshot.inboxes):
            inbox.restore(state)
        self.gate.restore(snapshot.gate)
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
        node._validated = list(state.validated)
        node._validated_deps = list(state.dependencies)
        node._client_operations = list(state.client_operations)
        node.completed = list(state.completed)
        node.failed_immediately = list(state.failed_immediately)
        node._retired_outbound = dict(state.retired_outbound)
        node._pending_retirements = set(state.pending_retirements)
        node.retired_records = state.retired_records
        node.stale_retirements_dropped = state.stale_retirements_dropped

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
    def quorum_size(self) -> int:
        """``2f + 1``: signatures a settlement certificate must carry.

        Any two such quorums intersect in a correct replica, so no two
        conflicting claims for the same settlement stream slot can both be
        certified, and ``f`` silent replicas cannot block certification.
        """
        return quorum_size_for(self.replicas)

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
