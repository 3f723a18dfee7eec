"""Malkhi–Reiter echo broadcast: the signature-based secure broadcast.

Section 5.2 cites the high-throughput secure reliable multicast of Malkhi and
Reiter [36] as the primitive whose properties (integrity, agreement,
validity, source order) the transfer protocol needs, and Section 6 sketches
its quorum-acknowledgement structure.  This module implements that protocol:

* the origin sends ``INIT`` with the payload to all processes;
* every benign process signs an acknowledgement for *at most one* payload per
  ``(origin, sequence)`` instance and returns it to the origin;
* having collected a Byzantine quorum (``⌈(N+f+1)/2⌉``) of distinct
  signatures, the origin assembles a *quorum certificate* and sends a
  ``FINAL`` message carrying payload + certificate to all processes;
* a process that verifies the certificate delivers the payload and relays
  the origin's ``FINAL`` once to all processes, which upgrades consistency
  into agreement (totality) at the cost of one extra all-to-all round.

The relay makes message complexity ``O(N²)`` per broadcast (the INIT, ACK
and FINAL rounds alone are ``O(N)``); latency is three message delays on the
critical path (INIT → ACK → FINAL).  The quorum-intersection argument gives
*consistency*: two certificates for the same instance would need two quorums,
which intersect in a correct process, and a correct process acknowledges only
one payload per instance — so no two correct processes ever deliver different
payloads for the same instance, which is exactly what makes double-spending
impossible.

The origin keeps an instance's acknowledgements until it finalises; after
that every ACK would be ignored, so the entry is dropped there.  A receiver
keeps an instance until the source-order buffer releases it: by then it has
delivered, and it has relayed FINAL if it ever will (only on the first
verified FINAL, from the origin).  Past release a FINAL is ignored and an
INIT to an acknowledged instance is refused, so the state is forgotten and
a message at or below the origin's release watermark with no state is
dropped.  An instance delivered before this process acknowledged it is kept
past release: a late INIT must still be acknowledged, and under
:class:`~repro.broadcast.account_order_broadcast.AccountOrderBroadcast` it
must still pass the account-order gate.  Such an entry is forgotten once
that late acknowledgement goes out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.broadcast.messages import EchoSignatureMessage, FinalMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastDelivery, BroadcastLayer
from repro.byzantine.faults import max_tolerated_faults
from repro.common.errors import ConfigurationError
from repro.common.types import ProcessId
from repro.crypto.hashing import content_hash
from repro.crypto.signatures import KeyPair, Signature, SignatureScheme

InstanceKey = Tuple[ProcessId, int]


def _ack_payload(origin: ProcessId, sequence: int, payload: Any) -> Tuple:
    """The value that acknowledgement signatures bind to."""
    return ("ack", origin, sequence, content_hash(payload))


@dataclass(slots=True)
class _OriginState:
    """State kept by the origin while collecting acknowledgements."""

    payload: Any
    signatures: Dict[ProcessId, Signature] = field(default_factory=dict)


@dataclass(slots=True)
class _ReceiverState:
    """State kept by every process about one instance."""

    acknowledged_hash: Optional[str] = None
    delivered: bool = False
    relayed: bool = False


class EchoBroadcast(BroadcastLayer):
    """The signature-based secure broadcast layer.

    Parameters
    ----------
    scheme:
        The signature scheme (key directory) shared by all processes.
    keypair:
        This process's signing key.
    fault_tolerance:
        Number of Byzantine processes tolerated (default ``⌊(N−1)/3⌋``).
    """

    def __init__(
        self,
        channel,
        own_id,
        all_nodes,
        send,
        send_to_all,
        deliver,
        scheme: SignatureScheme,
        keypair: Optional[KeyPair] = None,
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
                f"echo broadcast needs N > 3f (got N={n}, f={self.f})"
            )
        self.quorum = (n + self.f + 2) // 2
        self.scheme = scheme
        self.keypair = keypair or scheme.keypair_for(own_id)
        if self.keypair.process != own_id:
            raise ConfigurationError("keypair does not belong to this node")
        # The membership as a frozenset, built once: origin-side assembly
        # (certify) and receiver-side FINAL checks admit the same signers.
        self._members = frozenset(self.all_nodes)
        self._as_origin: Dict[int, _OriginState] = {}
        self._as_receiver: Dict[InstanceKey, _ReceiverState] = {}
        self._handlers = {
            SendMessage: self._on_init,
            EchoSignatureMessage: self._on_ack,
            FinalMessage: self._on_final,
        }

    # -- sending ----------------------------------------------------------------------------

    def broadcast(self, payload: Any) -> int:
        sequence = self.next_sequence()
        self.stats.broadcasts_started += 1
        self._as_origin[sequence] = _OriginState(payload=payload)
        message = SendMessage(
            channel=self.channel, origin=self.own_id, sequence=sequence, payload=payload
        )
        self._transmit_to_all(message)
        return sequence

    # -- receiving ---------------------------------------------------------------------------

    def _receiver_state(self, key: InstanceKey) -> Optional[_ReceiverState]:
        """The instance's receiver state; ``None`` once it has been forgotten."""
        state = self._as_receiver.get(key)
        if state is None:
            if self._order_buffer.released(*key):
                return None
            state = self._as_receiver[key] = _ReceiverState()
        return state

    # The INIT phase: acknowledge at most one payload per instance.

    def _on_init(self, sender: ProcessId, message: SendMessage) -> None:
        if sender != message.origin:
            return
        key = (message.origin, message.sequence)
        state = self._receiver_state(key)
        if state is None:
            return
        digest = content_hash(message.payload)
        if state.acknowledged_hash is not None:
            # Already acknowledged (possibly a different payload — the origin
            # is equivocating).  Benign processes never sign twice.
            return
        if not self._may_acknowledge(message):
            return
        state.acknowledged_hash = digest
        signature = self.keypair.sign(_ack_payload(message.origin, message.sequence, message.payload))
        ack = EchoSignatureMessage(
            channel=self.channel,
            origin=message.origin,
            sequence=message.sequence,
            payload=message.payload,
            signature=signature,
        )
        self._transmit(message.origin, ack)
        if state.delivered and self._order_buffer.released(*key):
            # A late INIT: the acknowledgement was the last thing owed.
            del self._as_receiver[key]

    def _may_acknowledge(self, message: SendMessage) -> bool:
        """Hook for subclasses (account-order broadcast) to gate acknowledgements."""
        return True

    # The ACK phase (origin only): collect a quorum and finalise.

    def _on_ack(self, sender: ProcessId, message: EchoSignatureMessage) -> None:
        if message.origin != self.own_id or message.signature is None:
            return
        state = self._as_origin.get(message.sequence)
        if state is None:
            return
        expected = _ack_payload(self.own_id, message.sequence, state.payload)
        if content_hash(message.payload) != content_hash(state.payload):
            return
        if message.signature.signer != sender or not self.scheme.verify(expected, message.signature):
            return
        state.signatures[sender] = message.signature
        if len(state.signatures) >= self.quorum:
            # One-check assembly: a single quorum verdict over the collected
            # acknowledgement signatures; the receivers' FINAL checks re-run
            # it, each signature answered by the verdict it carries from this
            # check.
            certificate = self.scheme.certify(
                expected,
                tuple(state.signatures.values()),
                quorum_size=self.quorum,
                allowed_signers=self._members,
            )
            if certificate is None:
                # Divergence: the batch failed even though every ack
                # verified on arrival.  Fall back to per-signature checks
                # and keep collecting with the forged members dropped.
                state.signatures = {
                    signer: signature
                    for signer, signature in state.signatures.items()
                    if signer in self._members
                    and self.scheme.verify(expected, signature)
                }
                return
            del self._as_origin[message.sequence]
            final = FinalMessage(
                channel=self.channel,
                origin=self.own_id,
                sequence=message.sequence,
                payload=state.payload,
                certificate=certificate,
            )
            self._transmit_to_all(final)

    # The FINAL phase: verify the certificate, deliver, relay the origin's FINAL.

    def _on_final(self, sender: ProcessId, message: FinalMessage) -> None:
        if message.certificate is None:
            return
        key = (message.origin, message.sequence)
        state = self._receiver_state(key)
        if state is None or state.delivered:
            return
        expected = _ack_payload(message.origin, message.sequence, message.payload)
        if not self.scheme.verify_certificate(
            expected,
            message.certificate,
            quorum_size=self.quorum,
            allowed_signers=self._members,
        ):
            return
        state.delivered = True
        self._accept(message.origin, message.sequence, message.payload)
        if not state.relayed and sender == message.origin:
            state.relayed = True
            self._transmit_to_all(message)

    def _deliver_in_order(self, delivery: BroadcastDelivery) -> None:
        key = (delivery.origin, delivery.sequence)
        if self._as_receiver[key].acknowledged_hash is not None:
            del self._as_receiver[key]
        super()._deliver_in_order(delivery)
