"""Bracha's reliable broadcast — the paper's "naive quadratic secure broadcast".

The deployment reported in Section 5 of the paper uses a quadratic secure
broadcast in the style of Bracha & Toueg [10].  For each broadcast instance
``(origin, sequence)`` the protocol runs three phases:

* the origin sends ``SEND`` to everyone;
* on the first ``SEND``, every process sends ``ECHO`` to everyone;
* once a process has seen a Byzantine quorum (``⌈(N+f+1)/2⌉``) of matching
  ``ECHO``s — or ``f+1`` matching ``READY``s (amplification) — it sends
  ``READY`` to everyone;
* once it has seen ``2f+1`` matching ``READY``s it delivers the payload.

With ``f < N/3`` Byzantine processes this guarantees integrity, agreement
(totality) and validity; together with the per-origin sequence numbers and
the :class:`~repro.broadcast.secure_broadcast.SourceOrderBuffer` it yields
the *secure broadcast* of Section 5.2.  Message complexity is
``O(N²)`` per broadcast — 1 SEND + N ECHOs + N READYs from each process —
which is exactly the cost profile the paper's throughput numbers are based
on.

The ``_handlers`` table calls each handler directly; the handler looks its
instance up itself.  Witnesses are tallied per payload digest, so an
equivocating origin's payloads are counted apart.  Payloads are immutable and
an instance's ECHOs and READYs almost always carry the origin's very object,
so each instance keeps the last payload object it hashed with its digest and
hashes only a *different* object.

An instance's state lives from its first message until the source-order
buffer releases it.  By then this process has sent READY to everyone (it
delivered on ``2f+1`` READYs, and ``f+1`` already made it send its own), and
it has sent ECHO if the origin's SEND arrived.  A later ECHO or READY can
only add a witness to a set whose thresholds are spent, so the state is
forgotten at release and a message for an instance at or below the
origin's release watermark with no state is dropped.

The one exception is the *late SEND*: an instance delivered through
``2f+1`` READYs before the origin's SEND arrived has not echoed yet.  It is
kept past release, the late SEND triggers its one ECHO fan-out, and the
state is forgotten right after that fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.broadcast.messages import EchoMessage, ReadyMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastDelivery, BroadcastLayer
from repro.byzantine.faults import max_tolerated_faults
from repro.common.errors import ConfigurationError
from repro.common.types import ProcessId
from repro.crypto.hashing import content_hash

# A broadcast instance is identified by its origin and per-origin sequence.
InstanceKey = Tuple[ProcessId, int]
_NOTHING = object()


@dataclass(slots=True)
class _InstanceState:
    """Per-instance bookkeeping at one process."""

    payload_by_hash: Dict[str, Any] = field(default_factory=dict)
    echoed: bool = False
    readied: bool = False
    delivered: bool = False
    echoes: Dict[str, Set[ProcessId]] = field(default_factory=dict)
    readies: Dict[str, Set[ProcessId]] = field(default_factory=dict)
    # The payload object last hashed here (already in ``payload_by_hash``)
    # and its digest.
    hashed_payload: Any = _NOTHING
    hashed_digest: str = ""


class BrachaBroadcast(BroadcastLayer):
    """The quadratic reliable-broadcast layer.

    Parameters
    ----------
    fault_tolerance:
        Maximum number of Byzantine processes to tolerate.  Defaults to the
        optimal ``⌊(N−1)/3⌋``.
    """

    def __init__(
        self,
        channel,
        own_id,
        all_nodes,
        send,
        send_to_all,
        deliver,
        fault_tolerance: Optional[int] = None,
    ) -> None:
        super().__init__(channel, own_id, all_nodes, send, send_to_all, deliver)
        n = self.node_count
        # ``type(...) is int`` keeps out ``True`` and floats: a negative, NaN or
        # fractional f would give thresholds no quorum argument covers.
        if fault_tolerance is not None and not (
            type(fault_tolerance) is int and fault_tolerance >= 0
        ):
            raise ConfigurationError(
                f"fault_tolerance must be an int >= 0, not {fault_tolerance!r}"
            )
        self.f = max_tolerated_faults(n) if fault_tolerance is None else fault_tolerance
        if n <= 3 * self.f and self.f > 0:
            raise ConfigurationError(
                f"Bracha broadcast needs N > 3f (got N={n}, f={self.f})"
            )
        # Quorum of echoes guaranteeing no two correct processes deliver
        # different payloads for the same instance.
        self.echo_quorum = (n + self.f + 2) // 2
        self.ready_amplify = self.f + 1
        self.ready_deliver = 2 * self.f + 1
        self._instances: Dict[InstanceKey, _InstanceState] = {}
        self._handlers = {
            SendMessage: self._on_send,
            EchoMessage: self._on_echo,
            ReadyMessage: self._on_ready,
        }

    # -- sending -----------------------------------------------------------------------

    def broadcast(self, payload: Any) -> int:
        sequence = self.next_sequence()
        self.stats.broadcasts_started += 1
        message = SendMessage(
            channel=self.channel, origin=self.own_id, sequence=sequence, payload=payload
        )
        self._transmit_to_all(message)
        return sequence

    # -- receiving ---------------------------------------------------------------------

    # Unknown message types have no handler and are ignored (Byzantine
    # senders may inject garbage).

    def _on_send(self, sender: ProcessId, message: SendMessage) -> None:
        # Integrity: only the origin itself may introduce its SEND.  A relayed
        # SEND from a different sender is ignored (signatures are modelled by
        # the authenticated-channel assumption).
        if sender != message.origin:
            return
        key = (message.origin, message.sequence)
        state = self._instances.get(key)
        if state is None:
            if self._order_buffer.released(*key):
                return
            state = self._instances[key] = _InstanceState()
        elif state.echoed:
            return
        state.echoed = True
        payload = message.payload
        digest = state.hashed_digest = content_hash(payload)
        state.hashed_payload = payload
        state.payload_by_hash[digest] = payload
        echo = EchoMessage(
            channel=self.channel,
            origin=message.origin,
            sequence=message.sequence,
            payload=payload,
        )
        self._transmit_to_all(echo)
        if state.delivered and self._order_buffer.released(*key):
            # The late SEND: its ECHO was the last thing this instance owed.
            del self._instances[key]

    def _on_echo(self, sender: ProcessId, message: EchoMessage) -> None:
        key = (message.origin, message.sequence)
        state = self._instances.get(key)
        if state is None:
            if self._order_buffer.released(*key):
                return
            state = self._instances[key] = _InstanceState()
        payload = message.payload
        if payload is state.hashed_payload:
            digest = state.hashed_digest
        else:
            digest = state.hashed_digest = content_hash(payload)
            state.hashed_payload = payload
            state.payload_by_hash.setdefault(digest, payload)
        witnesses = state.echoes.setdefault(digest, set())
        witnesses.add(sender)
        if len(witnesses) >= self.echo_quorum and not state.readied:
            self._send_ready(state, key, digest)

    def _on_ready(self, sender: ProcessId, message: ReadyMessage) -> None:
        key = (message.origin, message.sequence)
        state = self._instances.get(key)
        if state is None:
            if self._order_buffer.released(*key):
                return
            state = self._instances[key] = _InstanceState()
        payload = message.payload
        if payload is state.hashed_payload:
            digest = state.hashed_digest
        else:
            digest = state.hashed_digest = content_hash(payload)
            state.hashed_payload = payload
            state.payload_by_hash.setdefault(digest, payload)
        witnesses = state.readies.setdefault(digest, set())
        witnesses.add(sender)
        if len(witnesses) >= self.ready_amplify and not state.readied:
            self._send_ready(state, key, digest)
        if len(witnesses) >= self.ready_deliver and not state.delivered:
            state.delivered = True
            self._accept(key[0], key[1], state.payload_by_hash[digest])

    def _send_ready(self, state: _InstanceState, key: InstanceKey, digest: str) -> None:
        state.readied = True
        ready = ReadyMessage(
            channel=self.channel,
            origin=key[0],
            sequence=key[1],
            payload=state.payload_by_hash[digest],
        )
        self._transmit_to_all(ready)

    def _deliver_in_order(self, delivery: BroadcastDelivery) -> None:
        key = (delivery.origin, delivery.sequence)
        if self._instances[key].echoed:
            del self._instances[key]
        super()._deliver_in_order(delivery)
