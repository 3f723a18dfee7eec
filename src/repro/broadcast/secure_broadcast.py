"""The secure-broadcast abstraction (Section 5.2) and shared plumbing.

The consensusless protocol of Figure 4 is written against an abstract
*secure broadcast* primitive with four properties:

* **Integrity** — a benign process delivers a message from ``p`` at most once
  and, if ``p`` is benign, only if ``p`` broadcast it.
* **Agreement** — if two correct processes exist and one delivers ``m``, the
  other delivers ``m`` as well.
* **Validity** — a correct broadcaster eventually delivers its own message.
* **Source order** — benign processes deliver messages from the same origin
  in the same order.

This module provides:

* :class:`BroadcastLayer` — the abstract interface the protocol nodes use,
  plus statistics common to all implementations,
* :class:`SourceOrderBuffer` — per-origin sequence-number buffering that
  turns "delivered in any order" into "handed to the application in source
  order", shared by the concrete layers, and
* :class:`BroadcastDelivery` — the record handed to the application.

The hosting node routes a message by its ``channel``; the layer dispatches it
once, on its exact type, through its ``_handlers`` table (``type -> bound
handler``) and ignores a type the table does not name.  An all-to-all send is
one call to the node's all-to-all callable.  Payloads are immutable: nothing
changes a payload object once it is broadcast, so a digest computed for an
object holds for as long as the object lives.

Concrete implementations live in :mod:`repro.broadcast.bracha` (the
"naive quadratic" primitive the paper's deployment used) and
:mod:`repro.broadcast.echo_broadcast` (the signature-based linear variant),
with the Section 6 account-order extension in
:mod:`repro.broadcast.account_order_broadcast`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ProcessId


@dataclass(frozen=True, slots=True)
class BroadcastDelivery:
    """One delivered broadcast: who originated it, its sequence, the payload."""

    origin: ProcessId
    sequence: int
    payload: Any


#: Callback invoked by a layer whenever a broadcast is delivered.
DeliverCallback = Callable[[BroadcastDelivery], None]

#: Callback used by a layer to put a message on the wire: (recipient, message).
SendCallback = Callable[[ProcessId, Any], None]

#: Callback used by a layer to send one message to its whole membership.
SendToAllCallback = Callable[[Any], None]


@dataclass(slots=True)
class BroadcastStats:
    """Message accounting shared by every layer implementation."""

    broadcasts_started: int = 0
    messages_sent: int = 0
    delivered: int = 0
    payload_items: int = 0

    @property
    def items_per_broadcast(self) -> float:
        """Application items per broadcast instance (> 1 under batching)."""
        if self.delivered == 0:
            return 0.0
        return self.payload_items / self.delivered

    def record_to(self, metrics, prefix: str = "broadcast") -> None:
        """Sample this accounting into a :class:`repro.obs.MetricsRegistry`.

        Gauges, not counters: the stats object is already cumulative, so the
        telemetry capture samples the level once rather than re-counting the
        hot path.
        """
        metrics.set_gauge(f"{prefix}.started", self.broadcasts_started)
        metrics.set_gauge(f"{prefix}.messages_sent", self.messages_sent)
        metrics.set_gauge(f"{prefix}.delivered", self.delivered)
        metrics.set_gauge(f"{prefix}.payload_items", self.payload_items)


def payload_item_count(payload: Any) -> int:
    """Number of application-level items carried by a broadcast payload.

    Plain payloads count as one item; composite payloads (e.g. the cluster
    layer's transfer batches) advertise their size through an ``item_count``
    attribute.  The layers use this to report how much application traffic a
    broadcast instance amortises, without knowing any payload type.

    This sits on the per-delivery stats path and on every per-hop processing
    cost, so it must stay O(1): composite payloads memoise their count at
    construction (``BatchAnnouncement.item_count`` is a stored slot, not a
    recomputation over the batch).
    """
    count = getattr(payload, "item_count", 1)
    return count if isinstance(count, int) and count > 0 else 1


class SourceOrderBuffer:
    """Reorders deliveries so each origin's messages come out in sequence order.

    Layers call :meth:`offer` whenever their protocol logic decides a message
    is deliverable; the buffer releases it (and any buffered successors) only
    when all lower sequence numbers from the same origin have been released.
    Sequence numbers start at 1, matching Figure 4's ``seq[q] + 1``
    convention.
    """

    def __init__(self, deliver: DeliverCallback) -> None:
        self._deliver = deliver
        self._next_sequence: Dict[ProcessId, int] = {}
        self._pending: Dict[ProcessId, Dict[int, Any]] = {}
        self.reordered = 0

    def offer(self, origin: ProcessId, sequence: int, payload: Any) -> None:
        expected = self._next_sequence.get(origin, 1)
        if sequence < expected:
            # Duplicate or already-released sequence number: integrity says
            # deliver at most once, so drop it silently.
            return
        pending = self._pending.setdefault(origin, {})
        if sequence in pending:
            return
        pending[sequence] = payload
        if sequence != expected:
            self.reordered += 1
        self._flush(origin)

    def _flush(self, origin: ProcessId) -> None:
        pending = self._pending.get(origin, {})
        expected = self._next_sequence.get(origin, 1)
        while expected in pending:
            payload = pending.pop(expected)
            self._deliver(BroadcastDelivery(origin=origin, sequence=expected, payload=payload))
            expected += 1
        self._next_sequence[origin] = expected

    def delivered_up_to(self, origin: ProcessId) -> int:
        """Highest sequence number released for ``origin`` (0 if none)."""
        return self._next_sequence.get(origin, 1) - 1


class BroadcastLayer(abc.ABC):
    """Abstract secure-broadcast layer hosted inside a node.

    A layer is bound to one node (``own_id``), knows the full membership
    (``all_nodes``), sends through the :class:`SendCallback` and
    :class:`SendToAllCallback` provided by the node and reports deliveries
    through a :class:`DeliverCallback`.

    Layers are *sans-I/O*: they never talk to the simulator directly, which
    makes them unit-testable by feeding messages by hand and reusable under
    any transport.
    """

    def __init__(
        self,
        channel: str,
        own_id: ProcessId,
        all_nodes: Tuple[ProcessId, ...],
        send: SendCallback,
        send_to_all: SendToAllCallback,
        deliver: DeliverCallback,
    ) -> None:
        if own_id not in all_nodes:
            raise ConfigurationError(f"node {own_id} is not a member of {all_nodes}")
        self.channel = channel
        self.own_id = own_id
        self.all_nodes = tuple(all_nodes)
        self._send = send
        self._send_to_all = send_to_all
        self._deliver_upward = deliver
        self.stats = BroadcastStats()
        self._order_buffer = SourceOrderBuffer(self._deliver_in_order)
        self._next_own_sequence = 1
        self._handlers: Dict[type, Callable[[ProcessId, Any], None]] = {}  # subclasses fill it

    # -- helpers for subclasses ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.all_nodes)

    def next_sequence(self) -> int:
        """Allocate the next sequence number for this node's own broadcasts."""
        sequence = self._next_own_sequence
        self._next_own_sequence += 1
        return sequence

    def _transmit(self, recipient: ProcessId, message: Any) -> None:
        self.stats.messages_sent += 1
        self._send(recipient, message)

    def _transmit_to_all(self, message: Any) -> None:
        self.stats.messages_sent += len(self.all_nodes)
        self._send_to_all(message)

    def _accept(self, origin: ProcessId, sequence: int, payload: Any) -> None:
        """Called by subclasses when their protocol decides to deliver."""
        self._order_buffer.offer(origin, sequence, payload)

    def _deliver_in_order(self, delivery: BroadcastDelivery) -> None:
        self.stats.delivered += 1
        self.stats.payload_items += payload_item_count(delivery.payload)
        self._deliver_upward(delivery)

    # -- checkpointing ---------------------------------------------------------------------
    #
    # Layers are sans-I/O (no simulator handles, no timers), so their whole
    # state is plain data: capture/restore exist so a shard checkpoint can
    # rehydrate a mid-run layer — including in-flight instances — onto a
    # freshly built twin.  Subclasses extend ``_capture_impl_state`` /
    # ``_restore_impl_state`` with their per-protocol instance tables.

    def capture_state(self) -> Dict[str, Any]:
        """Plain-data snapshot of the layer, including in-flight instances."""
        return {
            "stats": (
                self.stats.broadcasts_started,
                self.stats.messages_sent,
                self.stats.delivered,
                self.stats.payload_items,
            ),
            "next_own_sequence": self._next_own_sequence,
            "order_next": dict(self._order_buffer._next_sequence),
            "order_pending": {
                origin: dict(pending)
                for origin, pending in self._order_buffer._pending.items()
            },
            "order_reordered": self._order_buffer.reordered,
            "impl": self._capture_impl_state(),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`capture_state` snapshot onto a freshly built layer."""
        started, sent, delivered, items = state["stats"]
        self.stats.broadcasts_started = started
        self.stats.messages_sent = sent
        self.stats.delivered = delivered
        self.stats.payload_items = items
        self._next_own_sequence = state["next_own_sequence"]
        self._order_buffer._next_sequence = dict(state["order_next"])
        self._order_buffer._pending = {
            origin: dict(pending) for origin, pending in state["order_pending"].items()
        }
        self._order_buffer.reordered = state["order_reordered"]
        self._restore_impl_state(state["impl"])

    def _capture_impl_state(self) -> Any:
        """Implementation-specific state (instance tables); plain data only."""
        return None

    def _restore_impl_state(self, state: Any) -> None:
        if state is not None:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"{type(self).__name__} cannot restore implementation state {state!r}"
            )

    # -- the interface used by nodes -------------------------------------------------------

    @abc.abstractmethod
    def broadcast(self, payload: Any) -> int:
        """Securely broadcast ``payload``; returns the sequence number used."""

    def on_message(self, sender: ProcessId, message: Any) -> None:
        """Process a broadcast-layer message received from ``sender``."""
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(sender, message)
