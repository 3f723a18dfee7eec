"""Per-source transfer batching over the unchanged secure broadcast.

One secure-broadcast instance is the expensive unit of the Figure 4 protocol:
Bracha costs O(N²) messages per instance, the echo broadcast costs one
signature generation plus a quorum of acknowledgement signatures.  Because
the broadcast payload is generic, a batch of transfers from one issuer can
ride a *single* instance: the per-shard protocol (and its safety argument)
is untouched, while the signature and echo-quorum cost is amortised over the
whole batch.

:class:`BatchAnnouncement` is that composite payload and
:class:`BatchingTransferNode` is a :class:`ConsensuslessTransferNode` that
coalesces its queued client submissions into batches.  Delivery unpacks the
batch into the ordinary per-announcement path (sequence-gap check, ``Valid``
predicate, history application), so receivers validate each transfer exactly
as they would have unbatched — the paper's per-account agreement argument
carries over verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broadcast.messages import FinalMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastDelivery, payload_item_count
from repro.common.errors import ConfigurationError
from repro.common.types import (
    AccountId,
    Amount,
    HashOnce,
    ProcessId,
    Transfer,
    rebuilt_by_constructor,
)
from repro.mp.consensusless_transfer import (
    BroadcastFactory,
    ConsensuslessTransferNode,
    PendingTransfer,
    TransferRecord,
)
from repro.mp.messages import TransferAnnouncement
from repro.spec.byzantine_spec import ClientOperation


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
class BatchAnnouncement(HashOnce):
    """Several announcements from one issuer carried by one broadcast.

    The inner announcements hold consecutive per-issuer sequence numbers;
    the first one carries the issuer's dependency set (Figure 4 line 5 resets
    it), the rest are dependency-free.  ``item_count`` feeds the generic
    payload accounting of :mod:`repro.broadcast.secure_broadcast`; it is
    memoised at construction (a stored slot, fixed in ``__post_init__``) so
    the per-delivery stats path and the per-hop processing-cost model read
    it in O(1) instead of re-walking the batch.  The field is excluded from
    ``repr`` and comparisons: it is derived accounting, so equality, hashing
    and the repr-based content hash see exactly the announcements tuple.
    """

    announcements: Tuple[TransferAnnouncement, ...]
    item_count: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.announcements:
            raise ConfigurationError("a batch needs at least one announcement")
        if self.item_count != len(self.announcements):
            object.__setattr__(self, "item_count", len(self.announcements))
        self._hash_once((self.announcements,))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        first = self.announcements[0].transfer
        return f"batch[{self.item_count}] from p{first.issuer} @seq{first.sequence}"


class BatchingTransferNode(ConsensuslessTransferNode):
    """A Figure 4 node that issues its queued transfers in signed batches.

    The node keeps the sequential-client discipline of the base class at
    batch granularity: at most one batch is in flight, and the next batch is
    formed from whatever has queued up by the time the current one fully
    validates.  Under heavy load the queue is always non-empty, batches fill
    to ``batch_size`` and the broadcast cost per transfer drops by ~that
    factor; when idle, batches degenerate to size 1 and behaviour matches
    the unbatched node.
    """

    def __init__(
        self,
        node_id: ProcessId,
        initial_balances: Dict[AccountId, Amount],
        broadcast_factory: BroadcastFactory,
        on_complete: Optional[Callable[[TransferRecord], None]] = None,
        batch_size: int = 8,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        super().__init__(
            node_id=node_id,
            initial_balances=initial_balances,
            broadcast_factory=broadcast_factory,
            on_complete=on_complete,
        )
        self.batch_size = batch_size
        self._pending_batch: List[PendingTransfer] = []
        self.batches_issued = 0

    # -- issuing ------------------------------------------------------------------------------

    def _try_issue_next(self) -> None:
        if self._pending_batch or not self._submit_queue:
            return
        submitted_at = self.now
        balance = self.book.balance(self.account)
        sequence = self.seq.get(self.node_id, 0)
        announcements: List[TransferAnnouncement] = []
        # FIFO drain: each queued submission is admitted against the balance
        # remaining after the ones already in the batch (the receivers'
        # ``Valid`` predicate will see exactly the same running balance) or
        # fails immediately, matching the base node's check-at-issue rule.
        while self._submit_queue and len(announcements) < self.batch_size:
            destination, amount = self._submit_queue.pop(0)
            transfer = Transfer(
                source=self.account,
                destination=destination,
                amount=amount,
                issuer=self.node_id,
                sequence=sequence + 1,
            )
            if amount > balance:
                self._fail_immediately(transfer, submitted_at)
                continue
            sequence += 1
            balance -= amount
            dependencies: Tuple[Transfer, ...] = ()
            if not announcements:
                dependencies = tuple(
                    sorted(self.deps, key=lambda t: (t.issuer, t.sequence))
                )
            announcements.append(
                TransferAnnouncement(transfer=transfer, dependencies=dependencies)
            )
        if not announcements:
            return
        self.deps = set()
        self._pending_batch = [
            PendingTransfer(
                transfer=announcement.transfer,
                submitted_at=submitted_at,
                announced=True,
            )
            for announcement in announcements
        ]
        self.batches_issued += 1
        assert self.broadcast_layer is not None, "node not started"
        self.broadcast_layer.broadcast(BatchAnnouncement(tuple(announcements)))

    def _fail_immediately(self, transfer: Transfer, submitted_at: float) -> None:
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

    # -- delivery -----------------------------------------------------------------------------

    def _on_deliver(self, delivery: BroadcastDelivery) -> None:
        payload = delivery.payload
        if isinstance(payload, BatchAnnouncement):
            progress = False
            for announcement in payload.announcements:
                progress = self._receive_announcement(delivery.origin, announcement) or progress
            if progress:
                self._validation_pass()
            return
        super()._on_deliver(delivery)

    def processing_cost(self, message: Any) -> Optional[float]:
        """One signature verification per *batch*, flat cost per extra item.

        This is the amortisation point: the certificate / issuer signature is
        checked once however many transfers the batch carries, and each extra
        transfer only costs the flat per-message deserialization time.
        """
        config = self._network.config
        base = super().processing_cost(message)
        if base is None:
            return None
        if isinstance(message, (SendMessage, FinalMessage)):
            extra_items = payload_item_count(message.payload) - 1
            return base + extra_items * config.processing_time
        return base

    # -- checkpointing ------------------------------------------------------------------------

    def capture_live_state(self) -> Dict[str, Any]:
        state = super().capture_live_state()
        state["pending_batch"] = [
            (pending.transfer, pending.submitted_at, pending.announced)
            for pending in self._pending_batch
        ]
        state["batches_issued"] = self.batches_issued
        return state

    def restore_live_state(self, state: Dict[str, Any]) -> None:
        super().restore_live_state(state)
        self._pending_batch = [
            PendingTransfer(transfer=transfer, submitted_at=submitted_at, announced=announced)
            for transfer, submitted_at, announced in state["pending_batch"]
        ]
        self.batches_issued = state["batches_issued"]

    # -- completion ---------------------------------------------------------------------------

    def _complete_pending(self, success: bool) -> None:
        """Complete the oldest in-flight batch entry.

        Validation releases a batch's transfers in sequence order, so the
        completion that triggered this call always belongs to the head of the
        pending batch.  Only once the whole batch has validated does the node
        form the next one.
        """
        if not self._pending_batch:
            return
        pending = self._pending_batch.pop(0)
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
        if not self._pending_batch:
            self._try_issue_next()

    @property
    def has_pending_transfer(self) -> bool:
        return bool(self._pending_batch) or bool(self._submit_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchingTransferNode(p{self.node_id}, batch={self.batch_size}, "
            f"validated={self.validated_count})"
        )
