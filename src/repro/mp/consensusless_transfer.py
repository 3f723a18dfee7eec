"""Figure 4: the consensusless, broadcast-based asset-transfer protocol.

Every process owns one account (named after its process id).  To transfer,
the owner checks its local balance and, if sufficient, *securely broadcasts*
a single message carrying the transfer, its per-issuer sequence number and
its causal dependencies.  No other message is ever sent by the transfer layer
itself: the protocol inherits its complexity entirely from the underlying
secure broadcast.

Validation (the ``Valid`` predicate, lines 21–26) is purely local: the issuer
must own the debited account, the sequence number must be the next one for
that issuer, the issuer's account history must cover the amount, and every
declared dependency must already be validated.  Because all correct processes
validate the same messages in the same per-source order (source order of the
secure broadcast), they converge on the same per-account histories — without
any agreement protocol.  That is the paper's practical point: **consensus is
not needed to prevent double-spending**.

Figure 4 writes every balance as a fold over the validated history; the node
keeps that history in one :class:`repro.core.accounts.AccountBook` and reads
the fold's value off it.  Line 15 (``hist[q] := hist[q] ∪ h ∪ {t}``) is
``book.record(dependency, also_under=q)`` for each declared dependency plus
``book.record(t)``; lines 2, 7 and 25 (``balance(a, hist[a] ∪ deps)``) are
``book.balance(a)``.  Dropping the union is sound because of line 26: a
declared dependency must already be validated, so it is already in the book
under both of its accounts — ``_valid`` therefore evaluates line 26 before
line 25 (the verdict is a conjunction) — and the node's own ``deps`` only
ever holds credits the book indexes under the node's account.

Because the secure-broadcast payload is generic, batching is a parameter of
the same node rather than a different protocol: with ``batch_size > 1`` the
node drains up to that many queued submissions into one
:class:`repro.mp.messages.BatchAnnouncement`, and receivers unpack it into
the per-announcement path (sequence-gap check, ``Valid`` predicate, history
application) — each transfer validates exactly as it would have unbatched,
while the broadcast's signature and quorum cost is paid once per batch.

The node exposes a small client API (:meth:`submit_transfer`, :meth:`read`)
driven by the workload layer, and records everything the
Definition 1 checker (:mod:`repro.spec.byzantine_spec`) needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import AbstractSet, Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.broadcast.messages import FinalMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastDelivery, BroadcastLayer, payload_item_count
from repro.common.errors import ConfigurationError
from repro.common.types import (
    AccountId,
    Amount,
    ProcessId,
    Transfer,
    TransferId,
    rebuilt_by_constructor,
)
from repro.core.accounts import AccountBook
from repro.mp.messages import BatchAnnouncement, TransferAnnouncement
from repro.network.node import Node
from repro.spec.byzantine_spec import ClientOperation, ProcessObservation

# Factory building a broadcast layer for a node: (channel, own_id, all_nodes,
# send, send_to_all, deliver) -> BroadcastLayer.  The system façade binds the concrete
# implementation (Bracha, echo, ...) and its parameters.
BroadcastFactory = Callable[..., BroadcastLayer]


def account_of(process: ProcessId) -> AccountId:
    """The account owned by ``process`` (one account per process)."""
    return str(process)


@dataclass
class PendingTransfer:
    """A client transfer broadcast by this node and not yet validated."""

    transfer: Transfer
    submitted_at: float


@rebuilt_by_constructor
@dataclass(slots=True)
class TransferRecord:
    """Completion record handed to the metrics layer."""

    transfer: Transfer
    submitted_at: float
    completed_at: float
    success: bool

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at


class ConsensuslessTransferNode(Node):
    """A correct process running the Figure 4 protocol.

    Parameters
    ----------
    node_id:
        The process identifier; the node owns account ``str(node_id)``.
    initial_balances:
        The initial balance of *every* account (``q0``), identical at all
        correct nodes.
    broadcast_factory:
        Builds the secure-broadcast layer this node uses (bound to Bracha or
        echo broadcast by the system façade).
    on_complete:
        Optional callback invoked with a :class:`TransferRecord` whenever a
        locally submitted transfer completes.
    batch_size:
        How many queued submissions one broadcast carries.  At 1 (the
        paper's protocol) every broadcast is a plain
        :class:`TransferAnnouncement`; above 1 it is always a
        :class:`BatchAnnouncement`, even when only one submission is queued.
    """

    def __init__(
        self,
        node_id: ProcessId,
        initial_balances: Dict[AccountId, Amount],
        broadcast_factory: BroadcastFactory,
        on_complete: Optional[Callable[[TransferRecord], None]] = None,
        batch_size: int = 1,
    ) -> None:
        # A NaN would commit nothing and still return normally; a fraction
        # would silently round up at the batch slice.
        if type(batch_size) is not int or batch_size < 1:
            raise ConfigurationError(f"batch_size must be an int >= 1, not {batch_size!r}")
        super().__init__(node_id)
        self.account = account_of(node_id)
        self._initial_balances = dict(initial_balances)
        self._broadcast_factory = broadcast_factory
        self._on_complete = on_complete
        self.batch_size = batch_size

        # Figure 4 local state; ``hist`` lives in the book (see the property).
        self.seq: Dict[ProcessId, int] = {}
        self.rec: Dict[ProcessId, int] = {}
        self.book = AccountBook(self._initial_balances)
        self.deps: Set[Transfer] = set()
        self.to_validate: List[Tuple[ProcessId, TransferAnnouncement]] = []

        # Ledger-compaction state (the cluster settlement lifecycle).  A
        # retired transfer leaves ``hist`` entirely; its debit is folded into
        # ``book.offsets`` so every balance except the retired outbound
        # credit reads unchanged, and ``_retired_outbound`` keeps the audit's
        # cumulative view of what was compacted away per ``x{d}:a`` account.
        # Retirement commands for transfers this replica has not validated
        # yet wait in ``_pending_retirements`` and apply on validation.
        self._retired_outbound: Dict[AccountId, Amount] = {}
        self._pending_retirements: Set[Transfer] = set()
        self.retired_records = 0
        self.stale_retirements_dropped = 0

        # Client bookkeeping: the submissions given so far, the broadcast in
        # flight (one batch, in sequence order) and the submissions queued
        # behind it.
        self.submitted = 0
        self._in_flight: List[PendingTransfer] = []
        self._submit_queue: List[Tuple[AccountId, Amount]] = []
        self.completed: List[TransferRecord] = []
        self.failed_immediately: List[TransferRecord] = []

        # Observation log for the Definition 1 checker: the validated history
        # as two columns in local validation order (the index is the
        # position), each transfer beside the dependency ids its announcement
        # declared — the announcement's own tuple, ``()`` for a mint.
        self._validated: List[Transfer] = []
        self._validated_deps: List[Tuple[TransferId, ...]] = []
        self._client_operations: List[ClientOperation] = []

        self.broadcast_layer: Optional[BroadcastLayer] = None

        # Optional hook invoked with every transfer this node validates.  The
        # cluster settlement layer subscribes here to voucher cross-shard
        # credits; the hook sees transfers in this node's validation order.
        self.on_validated: Optional[Callable[[Transfer], None]] = None

    @property
    def hist(self) -> Mapping[AccountId, AbstractSet[Transfer]]:
        """``hist[a]``, read-only; ``book.record`` / ``book.discard`` are the mutators."""
        return self.book.hist

    # -- lifecycle --------------------------------------------------------------------------

    def on_start(self) -> None:
        self.broadcast_layer = self._broadcast_factory(
            channel="transfer",
            own_id=self.node_id,
            all_nodes=self.peers,
            send=self.send,
            send_to_all=partial(self.network.multicast, self.node_id, self.peers),
            deliver=self._on_deliver,
        )

    def on_message(self, sender: ProcessId, message: Any) -> None:
        layer = self.broadcast_layer
        if layer is not None and getattr(message, "channel", None) == layer.channel:
            layer.on_message(sender, message)

    def processing_cost(self, message: Any) -> Optional[float]:
        """CPU cost of one incoming message.

        Only messages that introduce a transfer (the broadcast's initial
        ``SEND`` / the certificate-bearing ``FINAL``) require verifying a
        digital signature; Bracha ``ECHO``/``READY`` traffic and the signed
        acknowledgements the issuer collects ride on MAC-authenticated
        channels and cost the flat per-message time.  This asymmetry —
        one signature verification per transfer regardless of system size —
        is the broadcast protocol's key cost advantage over signed consensus
        votes.  A batch is verified once however many transfers it carries;
        each extra transfer only costs the flat per-message time (for a
        plain announcement that term is exactly zero).
        """
        config = self._network.config
        base = config.processing_time
        if isinstance(message, SendMessage):
            extra_items = payload_item_count(message.payload) - 1
            return base + config.signature_verification_time + extra_items * base
        if isinstance(message, FinalMessage):
            # Verify the issuer's signature and the quorum certificate
            # (modelled as one aggregate verification).
            extra_items = payload_item_count(message.payload) - 1
            return base + 2 * config.signature_verification_time + extra_items * base
        return base

    # -- client API (lines 1-7) ---------------------------------------------------------------

    def submit_transfer(self, destination: AccountId, amount: Amount) -> None:
        """Queue ``transfer(own-account, destination, amount)``.

        Processes are sequential (Section 2.1): if a broadcast is already in
        flight the new transfer is queued and issued once every transfer
        that broadcast carries has completed.
        """
        self.submitted += 1
        self._submit_queue.append((destination, amount))
        self._try_issue_next()

    def read(self, account: Optional[AccountId] = None) -> Amount:
        """``read(a)``: balance from the local history (line 7)."""
        target = self.account if account is None else account
        balance = self.book.balance(target)
        self._client_operations.append(
            ClientOperation(
                process=self.node_id,
                kind="read",
                invoked_at=self.now,
                responded_at=self.now,
                response=balance,
                account=target,
            )
        )
        return balance

    def _try_issue_next(self) -> None:
        """Broadcast the next batch of queued submissions (lines 2-5).

        The queue drains in FIFO order, up to ``batch_size`` transfers: each
        is checked against the balance left after the transfers already in
        the batch (the receivers' ``Valid`` predicate sees exactly that
        running balance) and one that does not fit fails on the spot.
        """
        if self._in_flight or not self._submit_queue:
            return
        submitted_at = self.now
        balance = self.book.balance(self.account)
        sequence = self.seq.get(self.node_id, 0)
        announcements: List[TransferAnnouncement] = []
        while self._submit_queue and len(announcements) < self.batch_size:
            destination, amount = self._submit_queue.pop(0)
            transfer = Transfer(
                source=self.account,
                destination=destination,
                amount=amount,
                issuer=self.node_id,
                sequence=sequence + 1,
            )
            if balance < amount:                                         # lines 2-3
                self._respond(transfer, submitted_at, success=False)
                continue
            sequence += 1
            balance -= amount
            dependencies: Tuple[Transfer, ...] = ()
            if not announcements:
                dependencies = tuple(sorted(self.deps, key=lambda t: (t.issuer, t.sequence)))
            announcements.append(TransferAnnouncement(transfer=transfer, dependencies=dependencies))
        if not announcements:
            return
        self.deps = set()                                                # line 5
        self._in_flight = [
            PendingTransfer(transfer=announcement.transfer, submitted_at=submitted_at)
            for announcement in announcements
        ]
        assert self.broadcast_layer is not None, "node not started"
        if self.batch_size == 1:                                         # line 4
            self.broadcast_layer.broadcast(announcements[0])
        else:
            self.broadcast_layer.broadcast(BatchAnnouncement(tuple(announcements)))

    def _respond(self, transfer: Transfer, submitted_at: float, success: bool) -> None:
        """Answer one client transfer: record it, log it for the checker, notify."""
        record = TransferRecord(
            transfer=transfer,
            submitted_at=submitted_at,
            completed_at=self.now,
            success=success,
        )
        (self.completed if success else self.failed_immediately).append(record)
        self._client_operations.append(
            ClientOperation(
                process=self.node_id,
                kind="transfer",
                invoked_at=submitted_at,
                responded_at=self.now,
                response=success,
                transfer=transfer,
            )
        )
        if self._on_complete is not None:
            self._on_complete(record)

    # -- delivery and validation (lines 8-20) -----------------------------------------------------

    def _on_deliver(self, delivery: BroadcastDelivery) -> None:
        payload = delivery.payload
        if isinstance(payload, TransferAnnouncement):
            announcements: Tuple[TransferAnnouncement, ...] = (payload,)
        elif isinstance(payload, BatchAnnouncement):
            announcements = payload.announcements
        else:
            return
        progress = False
        for announcement in announcements:
            progress = self._receive_announcement(delivery.origin, announcement) or progress
        if progress:
            self._validation_pass()

    def _receive_announcement(self, issuer: ProcessId, payload: TransferAnnouncement) -> bool:
        """Well-formedness gate (lines 9-12) for one delivered announcement.

        The broadcast sequence number must be the next one we have *received*
        from this issuer; source order of the secure broadcast makes gaps
        impossible among benign issuers.  Returns ``True`` if the announcement
        was queued for validation (callers then run a validation pass; a
        batch queues all its announcements before a single pass).
        """
        transfer = payload.transfer
        expected = self.rec.get(issuer, 0) + 1
        if transfer.sequence != expected:
            return False
        self.rec[issuer] = expected
        self.to_validate.append((issuer, payload))
        return True

    def _validation_pass(self) -> None:
        """Apply every pending announcement whose ``Valid`` predicate holds.

        Validating one transfer can unblock others (its dependents), so the
        pass loops until no further progress is made.
        """
        progress = True
        while progress:
            progress = False
            still_pending: List[Tuple[ProcessId, TransferAnnouncement]] = []
            for issuer, announcement in self.to_validate:
                if self._valid(issuer, announcement):
                    self._apply(issuer, announcement)
                    progress = True
                else:
                    still_pending.append((issuer, announcement))
            self.to_validate = still_pending

    def _valid(self, issuer: ProcessId, announcement: TransferAnnouncement) -> bool:
        """The ``Valid`` predicate (lines 21-26)."""
        transfer = announcement.transfer
        source = transfer.source
        if source != account_of(issuer) or transfer.issuer != issuer:      # line 23
            return False
        if transfer.sequence != self.seq.get(issuer, 0) + 1:               # line 24
            return False
        for dependency in announcement.dependencies:                        # line 26
            if dependency not in self.book:
                return False
        return self.book.balance(source) >= transfer.amount                 # line 25

    def _apply(self, issuer: ProcessId, announcement: TransferAnnouncement) -> None:
        """Apply a validated transfer (lines 14-20).

        ``hist[a]`` maintains the invariant stated in Figure 4 ("set of
        validated transfers *involving* a"), so the transfer is indexed under
        both its source and its destination account; the declared
        dependencies are folded into the source account's history exactly as
        line 15 prescribes.
        """
        transfer = announcement.transfer
        for dependency in announcement.dependencies:                        # line 15
            self.book.record(dependency, also_under=transfer.source)
        self.book.record(transfer)
        self.seq[issuer] = transfer.sequence                                 # line 16
        self._validated.append(transfer)
        self._validated_deps.append(announcement.dependency_ids)
        if transfer.destination == self.account:                             # lines 17-18
            self.deps.add(transfer)
        if self.on_validated is not None:
            self.on_validated(transfer)
        if self._pending_retirements and transfer in self._pending_retirements:
            # The retirement certificate outran this replica's validation of
            # the record; now that the record exists locally, compact it.
            self._pending_retirements.discard(transfer)
            self._retire_now(transfer)
        if issuer == self.node_id:                                           # lines 19-20
            self._complete_in_flight()

    # -- externally-certified credits -------------------------------------------------------------

    def mint_certified_credit(self, transfer: Transfer) -> None:
        """Apply a credit whose justification lives *outside* this replica group.

        This is the settlement path beside :meth:`_receive_announcement`: the
        caller (a :class:`repro.cluster.settlement.SettlementInbox`) has
        verified a quorum certificate from another shard's replicas, so the
        transfer is applied directly — no secure broadcast, no ``Valid``
        predicate, no ``rec``/``seq`` bookkeeping (its issuer is a virtual
        settlement identity that never broadcasts).  The credit enters
        ``hist`` under both accounts and, when it credits this node's own
        account, the dependency set — which is exactly what makes it
        *spendable*: the next outgoing transfer declares it and every replica
        that minted the same certificate accepts the dependency.

        The mint is appended to the validated columns (with no declared
        dependency) so the Definition 1 checker sees it; the cluster-level
        audit provisions the settlement source account with the certified
        amount, making an uncertified mint show up as a balance violation.  Minting is idempotent: a credit already in
        the book is not logged, credited or declared a second time.
        """
        if not self.book.record(transfer):
            return
        self._validated.append(transfer)
        self._validated_deps.append(())
        if transfer.destination == self.account:
            self.deps.add(transfer)
        # Freshly minted funds can unblock announcements that were waiting on
        # the credited balance.
        self._validation_pass()

    # -- settlement-lifecycle compaction ----------------------------------------------------------

    def retire_settled(self, transfers: List[Transfer]) -> None:
        """Drop fully-acknowledged outbound records behind the watermark.

        The caller (a :class:`repro.cluster.settlement.CompactionGate`) has
        verified a ``2f+1`` destination-replica acknowledgement quorum for
        each of these transfers, so the money provably exists — spendable —
        at its destination shard and the local ``x{d}:a`` record is pure
        history.  Retiring removes the record from ``hist`` under both
        accounts and folds its debit into a per-account baseline offset, so
        every other balance this replica reports is unchanged while the
        outbound account shrinks by exactly the retired amount.  A record
        this replica has not validated yet is parked and retired the moment
        its validation lands, keeping slow replicas consistent.
        """
        for transfer in transfers:
            if transfer in self.book:
                self._retire_now(transfer)
            else:
                self._pending_retirements.add(transfer)
        # Sweep entries whose issuer stream has moved past them: if
        # ``seq[issuer]`` reached the parked sequence number and the record
        # is still not in ``hist``, the slot validated (or retired) a
        # *different* transfer — this one can never validate (line 24 admits
        # only the exact next sequence), so holding its retirement forever
        # just leaks memory on e.g. a crashed-source stream.
        if self._pending_retirements:
            stale = [
                parked
                for parked in self._pending_retirements
                if self.seq.get(parked.issuer, 0) >= parked.sequence
            ]
            for parked in stale:
                self._pending_retirements.discard(parked)
                self.stale_retirements_dropped += 1

    def _retire_now(self, transfer: Transfer) -> None:
        # Keep the source account's debit: the offset replaces the removed
        # record's contribution to every balance except the retired credit.
        # Leaving ``deps`` too keeps ``deps ⊆ hist[self.account]``: a record
        # that is gone can no longer be declared, and lines 2 and 7 need no
        # ``∪ deps``.
        self.book.discard(transfer)
        self.deps.discard(transfer)
        self._retired_outbound[transfer.destination] = (
            self._retired_outbound.get(transfer.destination, 0) + transfer.amount
        )
        self.retired_records += 1

    def retired_outbound_total(self) -> Amount:
        """Outbound settlement money compacted out of this replica's ledger."""
        return sum(self._retired_outbound.values())

    def _complete_in_flight(self) -> None:
        """Complete the oldest in-flight transfer; past the last, issue the next batch.

        Validation releases a batch's transfers in sequence order, so the
        transfer that just validated is always the head of the list.
        """
        if not self._in_flight:
            return
        pending = self._in_flight.pop(0)
        self._respond(pending.transfer, pending.submitted_at, success=True)
        if not self._in_flight:
            self._try_issue_next()

    # -- balances and observations -----------------------------------------------------------------

    def balance_of(self, account: AccountId) -> Amount:
        """Balance of ``account`` according to this node's validated history."""
        return self.book.balance(account)

    def all_known_balances(self) -> Dict[AccountId, Amount]:
        """Balances of every account this node knows about."""
        accounts = set(self._initial_balances) | set(self.hist) | {self.account}
        return {account: self.balance_of(account) for account in sorted(accounts)}

    def observation(self) -> ProcessObservation:
        """Everything the Definition 1 checker needs about this node."""
        return ProcessObservation(
            process=self.node_id,
            validated=list(self._validated),
            dependencies=list(self._validated_deps),
            operations=list(self._client_operations),
            submitted=self.submitted,
        )

    @property
    def validated_count(self) -> int:
        return len(self._validated)

    @property
    def has_pending_transfer(self) -> bool:
        return bool(self._in_flight) or bool(self._submit_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConsensuslessTransferNode(p{self.node_id}, batch={self.batch_size}, "
            f"validated={self.validated_count})"
        )
