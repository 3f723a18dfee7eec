"""k-shared asset transfer in message passing (Section 6).

Accounts may be owned by up to ``k`` processes.  As Section 4 shows, such
accounts cannot be handled without agreement among their owners, so the
protocol composes three ingredients:

1. **A per-account sequencing service** run by the account's owners
   (:class:`repro.bft.sequencer.OwnerQuorumSequencer`).  The lowest-numbered
   owner acts as the sequencing leader: it assigns the next per-account
   sequence number to a submitted transfer and gathers an owner-quorum
   certificate for the assignment.  A Byzantine leader or more than a third
   of Byzantine owners can block the account — but only that account.
2. **Account-order secure broadcast**
   (:class:`repro.broadcast.account_order_broadcast.AccountOrderBroadcast`):
   benign processes acknowledge a sequenced transfer only if it is the next
   one for its account, so even a fully compromised owner set cannot get two
   transfers certified for the same slot delivered.
3. **The Figure 4 validation logic**, with the per-issuer sequence number
   replaced by the certified per-account sequence number.

Liveness: every transfer on a non-compromised account completes.  Safety:
successful transfers are totally ordered per account and never overdraw it,
for *all* accounts, compromised or not.  Experiment E7 demonstrates both.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import AbstractSet, Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bft.sequencer import (
    OwnerQuorumSequencer,
    SequenceEndorsement,
    SequenceRequest,
    SequencedTransfer,
    owner_quorum_size,
)
from repro.broadcast.account_order_broadcast import AccountOrderBroadcast
from repro.broadcast.messages import AccountTaggedPayload, FinalMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastDelivery
from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, Amount, OwnershipMap, ProcessId, Transfer
from repro.core.accounts import AccountBook
from repro.crypto.signatures import SignatureScheme
from repro.mp.attackers import SilentNode
from repro.mp.consensusless_transfer import TransferRecord
from repro.mp.messages import SequencedAnnouncement, TransferAnnouncement
from repro.network.node import Network, NetworkConfig, Node
from repro.network.simulator import Simulator
from repro.mp.system import SystemResult


@dataclass(frozen=True)
class SequencingSubmission:
    """Owner -> account leader: please sequence this transfer."""

    channel: str
    account: AccountId
    transfer: Transfer
    submitter: ProcessId
    dependencies: Tuple[Transfer, ...] = ()


@dataclass(frozen=True)
class SequencedGrant:
    """Account leader -> submitter: your transfer received a certified slot."""

    channel: str
    sequenced: SequencedTransfer
    submitter: ProcessId


@dataclass
class _LeaderQueueEntry:
    submission: SequencingSubmission
    in_flight: bool = False


@dataclass
class _PendingClientTransfer:
    transfer: Transfer
    destination: AccountId
    amount: Amount
    source: AccountId
    submitted_at: float
    dependencies: Tuple[Transfer, ...] = ()
    sequenced: Optional[SequencedTransfer] = None


class KSharedTransferNode(Node):
    """A correct process in the k-shared message-passing protocol."""

    SUBMIT_CHANNEL = "k-shared-sequencing"

    def __init__(
        self,
        node_id: ProcessId,
        ownership: OwnershipMap,
        initial_balances: Dict[AccountId, Amount],
        scheme: SignatureScheme,
        on_complete: Optional[Callable[[TransferRecord], None]] = None,
        retry_timeout: float = 0.05,
    ) -> None:
        super().__init__(node_id)
        self.ownership = ownership
        self._initial_balances = dict(initial_balances)
        self.scheme = scheme
        self._on_complete = on_complete
        self.retry_timeout = retry_timeout

        owners_of = {account: ownership.owners(account) for account in ownership.accounts}
        self.sequencer = OwnerQuorumSequencer(
            own_id=node_id,
            owners_of=owners_of,
            scheme=scheme,
            channel="sequencer",
        )

        # Figure 4 state, adapted to per-account sequencing; ``hist`` lives
        # in the book, which nothing here ever discards from, so every
        # ``deps[a]`` stays a subset of ``hist[a]``.
        self.book = AccountBook(self._initial_balances)
        self.applied_sequence: Dict[AccountId, int] = {}
        self.deps: Dict[AccountId, Set[Transfer]] = {}
        self.to_validate: List[SequencedAnnouncement] = []

        # Client bookkeeping (sequential, like every process in the model).
        self._pending: Optional[_PendingClientTransfer] = None
        self._submit_queue: List[Tuple[AccountId, AccountId, Amount]] = []
        self.completed: List[TransferRecord] = []
        self.failed_immediately: List[TransferRecord] = []

        # Leader-side sequencing queues, one per account this node leads.
        self._leader_queues: Dict[AccountId, List[_LeaderQueueEntry]] = {}
        self._leader_grant_targets: Dict[Tuple[AccountId, int], SequencingSubmission] = {}

        self.broadcast_layer: Optional[AccountOrderBroadcast] = None

    @property
    def hist(self) -> Mapping[AccountId, AbstractSet[Transfer]]:
        """``hist[a]``, read-only; ``book.record`` is the mutator."""
        return self.book.hist

    # -- roles ---------------------------------------------------------------------------------

    def account_leader(self, account: AccountId) -> ProcessId:
        """The sequencing leader of ``account``: its lowest-numbered owner."""
        owners = self.ownership.owners(account)
        if not owners:
            raise ConfigurationError(f"account {account!r} has no owners")
        return min(owners)

    def leads(self, account: AccountId) -> bool:
        return self.account_leader(account) == self.node_id

    # -- lifecycle ------------------------------------------------------------------------------

    def on_start(self) -> None:
        self.broadcast_layer = AccountOrderBroadcast(
            channel="transfer",
            own_id=self.node_id,
            all_nodes=self.peers,
            send=self.send,
            send_to_all=partial(self.network.multicast, self.node_id, self.peers),
            deliver=self._on_deliver,
            scheme=self.scheme,
        )

    def processing_cost(self, message: Any) -> Optional[float]:
        """Charge signature verification on signed messages (see :class:`NetworkConfig`)."""
        config = self._network.config
        base = config.processing_time
        signature = config.signature_verification_time
        if isinstance(message, (SendMessage, SequenceRequest, SequenceEndorsement, SequencingSubmission)):
            return base + signature
        if isinstance(message, (FinalMessage, SequencedGrant)):
            return base + 2 * signature
        return base

    def on_message(self, sender: ProcessId, message: Any) -> None:
        layer = self.broadcast_layer
        if layer is not None and getattr(message, "channel", None) == layer.channel:
            layer.on_message(sender, message)
        elif isinstance(message, SequencingSubmission):
            self._on_submission(message)
        elif isinstance(message, SequenceRequest):
            endorsement = self.sequencer.handle_request(message)
            if endorsement is not None:
                self.send(message.proposer, endorsement)
        elif isinstance(message, SequenceEndorsement):
            self._on_endorsement(message)
        elif isinstance(message, SequencedGrant):
            self._on_grant(message)

    # -- client API --------------------------------------------------------------------------------

    def submit_transfer(self, source: AccountId, destination: AccountId, amount: Amount) -> None:
        """Queue ``transfer(source, destination, amount)``; ``source`` must be owned here."""
        self._submit_queue.append((source, destination, amount))
        self._try_issue_next()

    def read(self, account: AccountId) -> Amount:
        """Balance of ``account`` from the local validated history."""
        return self.balance_of(account)

    def balance_of(self, account: AccountId) -> Amount:
        return self.book.balance(account)

    def _try_issue_next(self) -> None:
        if self._pending is not None or not self._submit_queue:
            return
        source, destination, amount = self._submit_queue.pop(0)
        self._issue_transfer(source, destination, amount)

    def _issue_transfer(self, source: AccountId, destination: AccountId, amount: Amount) -> None:
        submitted_at = self.now
        transfer = Transfer(
            source=source,
            destination=destination,
            amount=amount,
            issuer=self.node_id,
            sequence=0,  # the certified per-account sequence number replaces this
        )
        if not self.ownership.is_owner(self.node_id, source) or self.balance_of(source) < amount:
            record = TransferRecord(
                transfer=transfer, submitted_at=submitted_at, completed_at=self.now, success=False
            )
            self.failed_immediately.append(record)
            if self._on_complete is not None:
                self._on_complete(record)
            self._try_issue_next()
            return

        dependencies = tuple(
            sorted(self.deps.get(source, set()), key=lambda t: (t.source, t.sequence, t.issuer))
        )
        self.deps[source] = set()
        self._pending = _PendingClientTransfer(
            transfer=transfer,
            destination=destination,
            amount=amount,
            source=source,
            submitted_at=submitted_at,
            dependencies=dependencies,
        )
        submission = SequencingSubmission(
            channel=self.SUBMIT_CHANNEL,
            account=source,
            transfer=transfer,
            submitter=self.node_id,
            dependencies=dependencies,
        )
        leader = self.account_leader(source)
        if leader == self.node_id:
            self._on_submission(submission)
        else:
            self.send(leader, submission)
        self.set_timer(self.retry_timeout, self._retry_pending)

    def _retry_pending(self) -> None:
        """Re-drive the sequencing of the pending transfer if it has stalled."""
        if self._pending is None or self._pending.sequenced is not None:
            return
        submission = SequencingSubmission(
            channel=self.SUBMIT_CHANNEL,
            account=self._pending.source,
            transfer=self._pending.transfer,
            submitter=self.node_id,
            dependencies=self._pending.dependencies,
        )
        leader = self.account_leader(self._pending.source)
        if leader == self.node_id:
            self._on_submission(submission)
        else:
            self.send(leader, submission)
        self.set_timer(self.retry_timeout, self._retry_pending)

    # -- leader side: sequencing ----------------------------------------------------------------------

    def _on_submission(self, submission: SequencingSubmission) -> None:
        if not self.leads(submission.account):
            return
        if not self.ownership.is_owner(submission.submitter, submission.account):
            return
        queue = self._leader_queues.setdefault(submission.account, [])
        for entry in queue:
            if entry.submission.transfer == submission.transfer:
                # Duplicate (retry) of something already queued or in flight.
                if entry.in_flight:
                    self._drive_queue(submission.account)
                return
        queue.append(_LeaderQueueEntry(submission=submission))
        self._drive_queue(submission.account)

    def _drive_queue(self, account: AccountId) -> None:
        """Start (or restart) sequencing of the head of the account's queue."""
        queue = self._leader_queues.get(account, [])
        if not queue:
            return
        head = queue[0]
        head.in_flight = True
        request = self.sequencer.make_request(account, head.submission.transfer)
        self._leader_grant_targets[(account, request.sequence)] = head.submission
        for owner in self.ownership.owners(account):
            if owner == self.node_id:
                endorsement = self.sequencer.handle_request(request)
                if endorsement is not None:
                    self._on_endorsement(endorsement)
            else:
                self.send(owner, request)

    def _on_endorsement(self, endorsement: SequenceEndorsement) -> None:
        sequenced = self.sequencer.handle_endorsement(endorsement)
        if sequenced is None:
            return
        submission = self._leader_grant_targets.get((sequenced.account, sequenced.sequence))
        if submission is None:
            return
        grant = SequencedGrant(
            channel=self.SUBMIT_CHANNEL, sequenced=sequenced, submitter=submission.submitter
        )
        if submission.submitter == self.node_id:
            self._on_grant(grant)
        else:
            self.send(submission.submitter, grant)

    # -- submitter side: broadcasting the sequenced transfer ---------------------------------------------

    def _on_grant(self, grant: SequencedGrant) -> None:
        pending = self._pending
        if pending is None or grant.sequenced.transfer != pending.transfer:
            return
        if pending.sequenced is not None:
            return
        pending.sequenced = grant.sequenced
        announcement = SequencedAnnouncement(
            announcement=TransferAnnouncement(
                transfer=pending.transfer, dependencies=pending.dependencies
            ),
            account=grant.sequenced.account,
            account_sequence=grant.sequenced.sequence,
            certificate=grant.sequenced.certificate,
        )
        payload = AccountTaggedPayload(
            account=grant.sequenced.account,
            account_sequence=grant.sequenced.sequence,
            body=announcement,
        )
        assert self.broadcast_layer is not None, "node not started"
        self.broadcast_layer.broadcast(payload)

    # -- delivery and validation ---------------------------------------------------------------------------

    def _on_deliver(self, delivery: BroadcastDelivery) -> None:
        payload = delivery.payload
        if not isinstance(payload, AccountTaggedPayload):
            return
        body = payload.body
        if not isinstance(body, SequencedAnnouncement):
            return
        self.to_validate.append(body)
        self._validation_pass()

    def _validation_pass(self) -> None:
        progress = True
        while progress:
            progress = False
            still_pending: List[SequencedAnnouncement] = []
            for sequenced in self.to_validate:
                if self._valid(sequenced):
                    self._apply(sequenced)
                    progress = True
                else:
                    still_pending.append(sequenced)
            self.to_validate = still_pending

    def _valid(self, sequenced: SequencedAnnouncement) -> bool:
        transfer = sequenced.announcement.transfer
        account = sequenced.account
        owners = self.ownership.owners(account)
        if transfer.source != account or transfer.issuer not in owners:
            return False
        if sequenced.certificate is None:
            return False
        verified = SequencedTransfer(
            account=account,
            sequence=sequenced.account_sequence,
            transfer=transfer,
            certificate=sequenced.certificate,
        ).verify(self.scheme, owners)
        if not verified:
            return False
        if sequenced.account_sequence != self.applied_sequence.get(account, 0) + 1:
            return False
        for dependency in sequenced.announcement.dependencies:
            if dependency not in self.book:
                return False
        return self.book.balance(account) >= transfer.amount

    def _apply(self, sequenced: SequencedAnnouncement) -> None:
        transfer = sequenced.announcement.transfer
        account = sequenced.account
        stamped = Transfer(
            source=transfer.source,
            destination=transfer.destination,
            amount=transfer.amount,
            issuer=transfer.issuer,
            sequence=sequenced.account_sequence,
        )
        for dependency in sequenced.announcement.dependencies:
            self.book.record(dependency, also_under=account)
        self.book.record(stamped)
        self.applied_sequence[account] = sequenced.account_sequence
        self.sequencer.note_delivered(account, sequenced.account_sequence)

        # Incoming transfers become dependencies of accounts this node owns.
        if self.ownership.is_owner(self.node_id, stamped.destination):
            self.deps.setdefault(stamped.destination, set()).add(stamped)

        # Leader: the head of this account's queue is done; sequence the next.
        if self.leads(account):
            queue = self._leader_queues.get(account, [])
            if queue and queue[0].submission.transfer == transfer:
                queue.pop(0)
            self._leader_grant_targets.pop((account, sequenced.account_sequence), None)
            self._drive_queue(account)

        # Submitter: complete the client operation.
        pending = self._pending
        if pending is not None and transfer == pending.transfer:
            self._pending = None
            record = TransferRecord(
                transfer=stamped,
                submitted_at=pending.submitted_at,
                completed_at=self.now,
                success=True,
            )
            self.completed.append(record)
            if self._on_complete is not None:
                self._on_complete(record)
            self._try_issue_next()

    # -- introspection ------------------------------------------------------------------------------------------

    def all_known_balances(self) -> Dict[AccountId, Amount]:
        accounts = set(self._initial_balances) | set(self.hist)
        return {account: self.balance_of(account) for account in sorted(accounts)}

    @property
    def validated_count(self) -> int:
        return sum(len(transfers) for transfers in self.hist.values())


class KSharedSystem:
    """Simulated deployment of the k-shared protocol (experiment E7)."""

    def __init__(
        self,
        ownership: OwnershipMap,
        process_count: int,
        initial_balances: Dict[AccountId, Amount],
        network_config: Optional[NetworkConfig] = None,
        silent_processes: Iterable[ProcessId] = (),
        seed: int = 0,
    ) -> None:
        if process_count < 4:
            raise ConfigurationError("the Byzantine message-passing protocols need at least 4 processes")
        self.ownership = ownership
        self.process_count = process_count
        self.initial_balance_map = dict(initial_balances)
        self.simulator = Simulator()
        config = network_config or NetworkConfig()
        self.network = Network(
            self.simulator, dataclasses.replace(config, seed=config.seed or seed)
        )
        self.scheme = SignatureScheme(seed=seed)
        self._result = SystemResult()
        self.silent = frozenset(silent_processes)

        self.nodes: Dict[ProcessId, Node] = {}
        for pid in range(process_count):
            if pid in self.silent:
                node: Node = SilentNode(pid)
            else:
                node = KSharedTransferNode(
                    node_id=pid,
                    ownership=ownership,
                    initial_balances=self.initial_balance_map,
                    scheme=self.scheme,
                    on_complete=self._record_completion,
                )
            self.nodes[pid] = node
        self.network.add_nodes(self.nodes.values())

    def _record_completion(self, record: TransferRecord) -> None:
        if record.success:
            self._result.committed.append(record)
        else:
            self._result.rejected.append(record)

    def correct_node(self, pid: ProcessId) -> KSharedTransferNode:
        node = self.nodes[pid]
        if not isinstance(node, KSharedTransferNode):
            raise ConfigurationError(f"process {pid} is not a correct k-shared node")
        return node

    def correct_nodes(self) -> List[KSharedTransferNode]:
        return [node for node in self.nodes.values() if isinstance(node, KSharedTransferNode)]

    def submit(self, time: float, issuer: ProcessId, source: AccountId,
               destination: AccountId, amount: Amount) -> None:
        """Schedule one client transfer submission."""
        self.network.start()
        node = self.correct_node(issuer)
        self.simulator.post(time, node.submit_transfer, (source, destination, amount))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> SystemResult:
        self.network.run(until=until, max_events=max_events)
        self._result.duration = self.simulator.now
        self._result.messages_sent = self.network.messages_sent
        self._result.events_processed = self.simulator.processed_events
        return self._result

    @property
    def result(self) -> SystemResult:
        return self._result

    def balances_at(self, pid: ProcessId) -> Dict[AccountId, Amount]:
        return self.correct_node(pid).all_known_balances()
