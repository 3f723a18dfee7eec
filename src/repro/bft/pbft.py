"""Normal-case PBFT replication over the network simulator.

This is the consensus module of the baseline system: a fixed leader batches
transfer requests, proposes each batch with a ``PRE-PREPARE``, replicas
exchange ``PREPARE`` and ``COMMIT`` votes (each an all-to-all round), and a
batch executes once ``2f + 1`` commits are gathered and all earlier batches
have executed.

Modelling choices (substitutions for a full PBFT deployment):

* **Fixed, correct leader; no view change.**  This is PBFT's best case, so
  the throughput/latency gap measured against the consensusless protocol is
  a *lower bound* on the gap a real deployment (which must also pay for view
  changes, checkpointing, and leader failures) would show.
* **Batching.**  The leader proposes up to ``batch_size`` requests per
  instance and flushes partial batches after ``batch_timeout``.  Batching is
  what makes consensus-based systems competitive at all; the ablation
  benchmark sweeps it.
* **Message complexity.**  Per batch: ``N`` pre-prepares, ``N²`` prepares,
  ``N²`` commits — the quadratic replication cost that, unlike the
  broadcast-based protocol's, cannot be spread across accounts because all
  requests funnel through one total order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.bft.messages import ClientRequest, Commit, ForwardRequest, PrePrepare, Prepare
from repro.bft.smr import LedgerStateMachine, OrderedRequest
from repro.byzantine.faults import max_tolerated_faults
from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, Amount, OwnershipMap, ProcessId, Transfer
from repro.crypto.hashing import content_hash
from repro.mp.consensusless_transfer import TransferRecord, account_of
from repro.network.node import Node


@dataclass
class PbftConfig:
    """Tunables of the PBFT substrate."""

    batch_size: int = 8
    batch_timeout: float = 0.002
    view: int = 0

    def validate(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.batch_timeout < 0:
            raise ConfigurationError("batch_timeout must be non-negative")


@dataclass
class _InstanceState:
    """Per-(view, sequence) voting state at one replica."""

    pre_prepare: Optional[PrePrepare] = None
    prepares: Set[ProcessId] = field(default_factory=set)
    commits: Set[ProcessId] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    executed: bool = False


class PbftReplica(Node):
    """One PBFT replica, also acting as the client for its own account.

    Each replica owns the account named after its process id (mirroring the
    consensusless system) and exposes the same ``submit_transfer`` client API
    so both systems can be driven by identical workloads.
    """

    def __init__(
        self,
        node_id: ProcessId,
        process_count: int,
        initial_balances: Dict[AccountId, Amount],
        config: Optional[PbftConfig] = None,
        on_complete: Optional[Callable[[TransferRecord], None]] = None,
    ) -> None:
        super().__init__(node_id)
        self.account = account_of(node_id)
        self.process_count = process_count
        self.config = config or PbftConfig()
        self.config.validate()
        self.f = max_tolerated_faults(process_count)
        self.quorum = 2 * self.f + 1
        self._on_complete = on_complete

        ownership = OwnershipMap.one_account_per_process(process_count)
        self.state_machine = LedgerStateMachine(ownership, initial_balances)

        # Client side.  Processes are sequential (Section 2.1): one request is
        # outstanding at a time; further submissions queue locally, exactly as
        # in the consensusless node, so both systems see the same closed-loop
        # client behaviour.
        self._next_client_sequence = 0
        self._pending_requests: Dict[int, ClientRequest] = {}
        self._submit_queue: List[Tuple[AccountId, Amount]] = []
        self.completed: List[TransferRecord] = []

        # Leader side.
        self._queued_requests: List[ClientRequest] = []
        self._seen_request_keys: Set[Tuple[ProcessId, int]] = set()
        self._next_batch_sequence = 1
        self._batch_timer = None

        # Replica side.
        self._instances: Dict[int, _InstanceState] = {}
        self._last_executed_sequence = 0

    # -- roles ----------------------------------------------------------------------------------

    @property
    def leader_id(self) -> ProcessId:
        return self.config.view % self.process_count

    @property
    def is_leader(self) -> bool:
        return self.node_id == self.leader_id

    # -- client API --------------------------------------------------------------------------------

    def submit_transfer(self, destination: AccountId, amount: Amount) -> None:
        """Queue ``transfer(own-account, destination, amount)`` for ordering.

        The replica acts as a sequential client: if a request of its own is
        still in flight the new one waits until that request has executed.
        """
        self._submit_queue.append((destination, amount))
        self._try_issue_next()

    def _try_issue_next(self) -> None:
        if self._pending_requests or not self._submit_queue:
            return
        destination, amount = self._submit_queue.pop(0)
        self._issue_request(destination, amount)

    def _issue_request(self, destination: AccountId, amount: Amount) -> None:
        self._next_client_sequence += 1
        transfer = Transfer(
            source=self.account,
            destination=destination,
            amount=amount,
            issuer=self.node_id,
            sequence=self._next_client_sequence,
        )
        request = ClientRequest(
            issuer=self.node_id,
            client_sequence=self._next_client_sequence,
            transfer=transfer,
            submitted_at=self.now,
        )
        self._pending_requests[request.client_sequence] = request
        if self.is_leader:
            self._enqueue_request(request)
        else:
            self.send(self.leader_id, ForwardRequest(request=request))

    def balance_of(self, account: AccountId) -> Amount:
        """Balance of ``account`` in this replica's executed ledger state."""
        return self.state_machine.balance(account)

    # -- cost model ---------------------------------------------------------------------------------------

    def processing_cost(self, message: Any) -> Optional[float]:
        """CPU cost of one incoming message under the signed-votes model.

        * ``ForwardRequest`` — verify the client's signature on the transfer.
        * ``PrePrepare`` — verify the leader's signature plus the signature of
          every client request in the batch (replicas must not prepare a
          batch containing forged requests).
        * ``Prepare`` / ``Commit`` — verify one replica signature each.

        This is the standard cost profile of signature-based PBFT
        deployments and is one of the drivers of the throughput gap measured
        in experiments E5/E6 (``benchmarks/bench_throughput_scaling.py``,
        ``benchmarks/bench_latency.py``).
        """
        config = self._network.config
        base = config.processing_time
        signature = config.signature_verification_time
        if isinstance(message, ForwardRequest):
            return base + signature
        if isinstance(message, PrePrepare):
            return base + signature * (1 + len(message.batch))
        if isinstance(message, (Prepare, Commit)):
            return base + signature
        return base

    # -- message handling -------------------------------------------------------------------------------

    def on_message(self, sender: ProcessId, message: Any) -> None:
        if isinstance(message, ForwardRequest):
            if self.is_leader:
                self._enqueue_request(message.request)
        elif isinstance(message, PrePrepare):
            self._on_pre_prepare(sender, message)
        elif isinstance(message, Prepare):
            self._on_prepare(message)
        elif isinstance(message, Commit):
            self._on_commit(message)

    # -- leader: batching and ordering ---------------------------------------------------------------------

    def _enqueue_request(self, request: ClientRequest) -> None:
        key = (request.issuer, request.client_sequence)
        if key in self._seen_request_keys:
            return
        self._seen_request_keys.add(key)
        self._queued_requests.append(request)
        if len(self._queued_requests) >= self.config.batch_size:
            self._propose_batch()
        elif self._batch_timer is None:
            self._batch_timer = self.set_timer(
                self.config.batch_timeout, self._on_batch_timeout, label="batch timeout"
            )

    def _on_batch_timeout(self) -> None:
        self._batch_timer = None
        if self._queued_requests:
            self._propose_batch()

    def _propose_batch(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        batch = tuple(self._queued_requests[: self.config.batch_size])
        self._queued_requests = self._queued_requests[self.config.batch_size:]
        sequence = self._next_batch_sequence
        self._next_batch_sequence += 1
        digest = content_hash([(r.issuer, r.client_sequence) for r in batch])
        pre_prepare = PrePrepare(
            view=self.config.view, sequence=sequence, batch=batch, digest=digest
        )
        self.broadcast(pre_prepare)
        # Leftover requests immediately form the next batch (or arm a timer).
        if len(self._queued_requests) >= self.config.batch_size:
            self._propose_batch()
        elif self._queued_requests and self._batch_timer is None:
            self._batch_timer = self.set_timer(
                self.config.batch_timeout, self._on_batch_timeout, label="batch timeout"
            )

    # -- replica: the three-phase protocol --------------------------------------------------------------------

    def _instance(self, sequence: int) -> _InstanceState:
        instance = self._instances.get(sequence)
        if instance is None:
            instance = self._instances[sequence] = _InstanceState()
        return instance

    def _on_pre_prepare(self, sender: ProcessId, message: PrePrepare) -> None:
        if sender != self.leader_id or message.view != self.config.view:
            return
        instance = self._instance(message.sequence)
        if instance.pre_prepare is not None:
            return
        instance.pre_prepare = message
        prepare = Prepare(
            view=message.view,
            sequence=message.sequence,
            digest=message.digest,
            replica=self.node_id,
        )
        self.broadcast(prepare)

    def _on_prepare(self, message: Prepare) -> None:
        if message.view != self.config.view:
            return
        instance = self._instance(message.sequence)
        instance.prepares.add(message.replica)
        if (
            not instance.prepared
            and instance.pre_prepare is not None
            and len(instance.prepares) >= self.quorum
        ):
            instance.prepared = True
            commit = Commit(
                view=message.view,
                sequence=message.sequence,
                digest=message.digest,
                replica=self.node_id,
            )
            self.broadcast(commit)

    def _on_commit(self, message: Commit) -> None:
        if message.view != self.config.view:
            return
        instance = self._instance(message.sequence)
        instance.commits.add(message.replica)
        if (
            not instance.committed
            and instance.pre_prepare is not None
            and len(instance.commits) >= self.quorum
        ):
            instance.committed = True
            self._execute_ready_batches()

    # -- execution -----------------------------------------------------------------------------------------------

    def _execute_ready_batches(self) -> None:
        """Execute committed batches strictly in sequence order."""
        next_sequence = self._last_executed_sequence + 1
        while True:
            instance = self._instances.get(next_sequence)
            if instance is None or not instance.committed or instance.executed:
                break
            assert instance.pre_prepare is not None
            instance.executed = True
            for ordered in self.state_machine.execute_batch(instance.pre_prepare.batch):
                self._maybe_reply(ordered)
            self._last_executed_sequence = next_sequence
            next_sequence += 1

    def _maybe_reply(self, ordered: OrderedRequest) -> None:
        """Complete the client operation if the request originated here."""
        request = ordered.request
        if request.issuer != self.node_id:
            return
        pending = self._pending_requests.pop(request.client_sequence, None)
        if pending is None:
            return
        record = TransferRecord(
            transfer=request.transfer,
            submitted_at=request.submitted_at,
            completed_at=self.now,
            success=ordered.success,
        )
        self.completed.append(record)
        if self._on_complete is not None:
            self._on_complete(record)
        self._try_issue_next()

    # -- introspection ---------------------------------------------------------------------------------------------

    @property
    def executed_count(self) -> int:
        return self.state_machine.executed_count

    def execution_digest(self):
        return self.state_machine.execution_digest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "leader" if self.is_leader else "replica"
        return f"PbftReplica(p{self.node_id}, {role}, executed={self.executed_count})"
