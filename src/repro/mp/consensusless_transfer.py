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

The node exposes a small client API (:meth:`submit_transfer`, :meth:`read`)
driven by the workload layer, and records everything the
Definition 1 checker (:mod:`repro.spec.byzantine_spec`) needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import AbstractSet, Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.broadcast.messages import FinalMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastDelivery, BroadcastLayer
from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, Amount, ProcessId, Transfer, rebuilt_by_constructor
from repro.core.accounts import AccountBook
from repro.mp.messages import TransferAnnouncement
from repro.network.node import Node
from repro.spec.byzantine_spec import ClientOperation, ProcessObservation, ValidatedTransfer

# Factory building a broadcast layer for a node: (channel, own_id, all_nodes,
# send, send_to_all, deliver) -> BroadcastLayer.  The system façade binds the concrete
# implementation (Bracha, echo, ...) and its parameters.
BroadcastFactory = Callable[..., BroadcastLayer]


def account_of(process: ProcessId) -> AccountId:
    """The account owned by ``process`` (one account per process)."""
    return str(process)


@dataclass
class PendingTransfer:
    """A client transfer submitted locally and not yet completed."""

    transfer: Transfer
    submitted_at: float
    announced: bool = False


@rebuilt_by_constructor
@dataclass
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
    """

    def __init__(
        self,
        node_id: ProcessId,
        initial_balances: Dict[AccountId, Amount],
        broadcast_factory: BroadcastFactory,
        on_complete: Optional[Callable[[TransferRecord], None]] = None,
    ) -> None:
        super().__init__(node_id)
        self.account = account_of(node_id)
        self._initial_balances = dict(initial_balances)
        self._broadcast_factory = broadcast_factory
        self._on_complete = on_complete

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

        # Local-history compaction (opt-in; the cluster's checkpoint seam
        # enables it per shard).  When on, an ordinary local transfer record
        # is dropped from ``hist`` the moment the announcement *consuming* it
        # as a dependency validates — past that point a benign issuer can
        # never declare it again (dependencies are cleared when declared,
        # line 5), so the record is pure history; its amount folds into the
        # same ``book.offsets`` baseline the settlement lifecycle uses,
        # leaving every balance bit-identical.  The rule is sound for benign
        # issuers only: a Byzantine *replica* declaring another account's
        # credit could observe the record compact at different times on
        # different replicas, so the knob stays off outside the cluster's
        # benign-replica-group deployments.
        self.compact_consumed = False
        self.compacted_local_records = 0

        # Client bookkeeping.
        self._pending: Optional[PendingTransfer] = None
        self._submit_queue: List[Tuple[AccountId, Amount]] = []
        self._next_client_sequence = 0
        self.completed: List[TransferRecord] = []
        self.failed_immediately: List[TransferRecord] = []

        # Observation log for the Definition 1 checker.
        self._validated_log: List[ValidatedTransfer] = []
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
        votes.
        """
        config = self._network.config
        base = config.processing_time
        if isinstance(message, SendMessage):
            return base + config.signature_verification_time
        if isinstance(message, FinalMessage):
            # Verify the issuer's signature and the quorum certificate
            # (modelled as one aggregate verification).
            return base + 2 * config.signature_verification_time
        return base

    # -- client API (lines 1-7) ---------------------------------------------------------------

    def submit_transfer(self, destination: AccountId, amount: Amount) -> None:
        """Queue ``transfer(own-account, destination, amount)``.

        Processes are sequential (Section 2.1): if a transfer is already in
        flight the new one is queued and issued once the current one
        completes.
        """
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
        if self._pending is not None or not self._submit_queue:
            return
        destination, amount = self._submit_queue.pop(0)
        self._issue_transfer(destination, amount)

    def _issue_transfer(self, destination: AccountId, amount: Amount) -> None:
        submitted_at = self.now
        balance = self.book.balance(self.account)
        sequence = self.seq.get(self.node_id, 0) + 1
        transfer = Transfer(
            source=self.account,
            destination=destination,
            amount=amount,
            issuer=self.node_id,
            sequence=sequence,
        )
        if balance < amount:                                             # lines 2-3
            record = TransferRecord(
                transfer=transfer,
                submitted_at=submitted_at,
                completed_at=self.now,
                success=False,
            )
            self.failed_immediately.append(record)
            self._client_operations.append(
                ClientOperation(
                    process=self.node_id,
                    kind="transfer",
                    invoked_at=submitted_at,
                    responded_at=self.now,
                    response=False,
                    transfer=transfer,
                )
            )
            if self._on_complete is not None:
                self._on_complete(record)
            self._try_issue_next()
            return

        announcement = TransferAnnouncement(                             # line 4
            transfer=transfer, dependencies=tuple(sorted(self.deps, key=lambda t: (t.issuer, t.sequence)))
        )
        self.deps = set()                                                # line 5
        self._pending = PendingTransfer(transfer=transfer, submitted_at=submitted_at, announced=True)
        assert self.broadcast_layer is not None, "node not started"
        self.broadcast_layer.broadcast(announcement)

    # -- delivery and validation (lines 8-20) -----------------------------------------------------

    def _on_deliver(self, delivery: BroadcastDelivery) -> None:
        payload = delivery.payload
        if not isinstance(payload, TransferAnnouncement):
            return
        if self._receive_announcement(delivery.origin, payload):
            self._validation_pass()

    def _receive_announcement(self, issuer: ProcessId, payload: TransferAnnouncement) -> bool:
        """Well-formedness gate (lines 9-12) for one delivered announcement.

        The broadcast sequence number must be the next one we have *received*
        from this issuer; source order of the secure broadcast makes gaps
        impossible among benign issuers.  Returns ``True`` if the announcement
        was queued for validation (callers then run a validation pass; batch
        deliveries queue several announcements before a single pass).
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
        self._validated_log.append(
            ValidatedTransfer(
                transfer=transfer,
                dependencies=tuple(d.transfer_id for d in announcement.dependencies),
                position=len(self._validated_log),
            )
        )
        if transfer.destination == self.account:                             # lines 17-18
            self.deps.add(transfer)
        if self.on_validated is not None:
            self.on_validated(transfer)
        if self._pending_retirements and transfer in self._pending_retirements:
            # The retirement certificate outran this replica's validation of
            # the record; now that the record exists locally, compact it.
            self._pending_retirements.discard(transfer)
            self._retire_now(transfer)
        if self.compact_consumed and announcement.dependencies:
            for dependency in announcement.dependencies:
                self._compact_consumed_record(transfer.source, dependency)
        if issuer == self.node_id:                                           # lines 19-20
            self._complete_pending(success=True)

    def _compact_consumed_record(self, consuming_account: AccountId, dependency: Transfer) -> None:
        """Drop an ordinary local record its owner just spent (see ``compact_consumed``).

        Only the canonical benign consumption pattern compacts: a credit to
        the consuming account, issued by the owner of its source account,
        between two ordinary local accounts (settlement mints and ``x{d}:a``
        outbound records belong to the settlement lifecycle's own retirement
        path and are left alone).  Both sides fold into
        ``book.offsets`` — net zero, so the supply audit is unmoved.
        """
        if dependency.destination != consuming_account:
            return
        if dependency.source != account_of(dependency.issuer):
            return
        if (
            dependency.source not in self._initial_balances
            or dependency.destination not in self._initial_balances
        ):
            return
        if dependency not in self.book:
            return
        self._discard(dependency, keep_credit=True)
        self.compacted_local_records += 1

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

        The mint is recorded in the validated log so the Definition 1 checker
        sees it; the cluster-level audit provisions the settlement source
        account with the certified amount, making an uncertified mint show up
        as a balance violation.  Minting is idempotent: a credit already in
        the book is not logged, credited or declared a second time.
        """
        if not self.book.record(transfer):
            return
        self._validated_log.append(
            ValidatedTransfer(
                transfer=transfer, dependencies=(), position=len(self._validated_log)
            )
        )
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
        self._discard(transfer, keep_credit=False)
        self._retired_outbound[transfer.destination] = (
            self._retired_outbound.get(transfer.destination, 0) + transfer.amount
        )
        self.retired_records += 1

    def _discard(self, transfer: Transfer, keep_credit: bool) -> None:
        """Drop a record from the book, and from ``deps``.

        That keeps ``deps ⊆ hist[self.account]``: a record that is gone can
        no longer be declared, and lines 2 and 7 need no ``∪ deps``.
        """
        self.book.discard(transfer, keep_credit)
        self.deps.discard(transfer)

    def retired_outbound_total(self) -> Amount:
        """Outbound settlement money compacted out of this replica's ledger."""
        return sum(self._retired_outbound.values())

    def _complete_pending(self, success: bool) -> None:
        if self._pending is None:
            return
        pending = self._pending
        self._pending = None
        record = TransferRecord(
            transfer=pending.transfer,
            submitted_at=pending.submitted_at,
            completed_at=self.now,
            success=success,
        )
        self.completed.append(record)
        self._client_operations.append(
            ClientOperation(
                process=self.node_id,
                kind="transfer",
                invoked_at=pending.submitted_at,
                responded_at=self.now,
                response=success,
                transfer=pending.transfer,
            )
        )
        if self._on_complete is not None:
            self._on_complete(record)
        self._try_issue_next()

    # -- checkpointing -----------------------------------------------------------------------------

    def capture_live_state(self) -> Dict[str, Any]:
        """Plain-data snapshot of the state a :class:`NodeSnapshot` omits.

        ``NodeSnapshot`` carries the *settled* protocol state (histories,
        logs, counters); this captures the in-flight remainder — the
        validation queue, the client pipeline and the broadcast layer's
        instance tables — so a checkpoint can rehydrate a mid-run node
        exactly.  Everything returned is picklable plain data.
        """
        return {
            "to_validate": list(self.to_validate),
            "pending": None
            if self._pending is None
            else (self._pending.transfer, self._pending.submitted_at, self._pending.announced),
            "submit_queue": list(self._submit_queue),
            "layer": None if self.broadcast_layer is None else self.broadcast_layer.capture_state(),
        }

    def restore_live_state(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`capture_live_state` snapshot onto a started twin."""
        self.to_validate = [(issuer, announcement) for issuer, announcement in state["to_validate"]]
        pending = state["pending"]
        self._pending = (
            None
            if pending is None
            else PendingTransfer(transfer=pending[0], submitted_at=pending[1], announced=pending[2])
        )
        self._submit_queue = [(destination, amount) for destination, amount in state["submit_queue"]]
        if state["layer"] is not None:
            assert self.broadcast_layer is not None, "node not started"
            self.broadcast_layer.restore_state(state["layer"])

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
            validated=list(self._validated_log),
            operations=list(self._client_operations),
        )

    @property
    def validated_count(self) -> int:
        return len(self._validated_log)

    @property
    def has_pending_transfer(self) -> bool:
        return self._pending is not None or bool(self._submit_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConsensuslessTransferNode(p{self.node_id}, validated={self.validated_count})"
