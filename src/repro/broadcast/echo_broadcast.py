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
* a process that verifies the certificate delivers the payload and — when
  ``relay_final`` is enabled — relays the ``FINAL`` once to all processes,
  which upgrades consistency into agreement (totality) at the cost of one
  extra all-to-all round.

Message complexity is ``O(N)`` per broadcast without relaying and ``O(N²)``
with relaying; latency is three message delays on the critical path (INIT →
ACK → FINAL).  The quorum-intersection argument gives *consistency*: two
certificates for the same instance would need two quorums, which intersect in
a correct process, and a correct process acknowledges only one payload per
instance — so no two correct processes ever deliver different payloads for
the same instance, which is exactly what makes double-spending impossible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.broadcast.messages import EchoSignatureMessage, FinalMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastLayer
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
    finalised: bool = False


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
    relay_final:
        Relay verified ``FINAL`` messages once, upgrading consistency to
        agreement even if the origin crashes mid-protocol.  Enabled by
        default; the ablation benchmark switches it off to measure the cost.
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
        relay_final: bool = True,
    ) -> None:
        super().__init__(channel, own_id, all_nodes, send, send_to_all, deliver)
        n = self.node_count
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
        self.relay_final = relay_final
        # The membership as a frozenset, built once: it keys the certificate
        # verdict cache, so origin-side assembly (certify) and receiver-side
        # FINAL checks must form the identical allowed-signer set.
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

    def _receiver_state(self, key: InstanceKey) -> _ReceiverState:
        state = self._as_receiver.get(key)
        if state is None:
            state = self._as_receiver[key] = _ReceiverState()
        return state

    # The INIT phase: acknowledge at most one payload per instance.

    def _on_init(self, sender: ProcessId, message: SendMessage) -> None:
        if sender != message.origin:
            return
        key = (message.origin, message.sequence)
        state = self._receiver_state(key)
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

    def _may_acknowledge(self, message: SendMessage) -> bool:
        """Hook for subclasses (account-order broadcast) to gate acknowledgements."""
        return True

    # The ACK phase (origin only): collect a quorum and finalise.

    def _on_ack(self, sender: ProcessId, message: EchoSignatureMessage) -> None:
        if message.origin != self.own_id or message.signature is None:
            return
        state = self._as_origin.get(message.sequence)
        if state is None or state.finalised:
            return
        expected = _ack_payload(self.own_id, message.sequence, state.payload)
        if content_hash(message.payload) != content_hash(state.payload):
            return
        if message.signature.signer != sender or not self.scheme.verify(expected, message.signature):
            return
        state.signatures[sender] = message.signature
        if len(state.signatures) >= self.quorum:
            # One-check assembly: a single batch verdict over the collected
            # acknowledgement signatures, priming the certificate cache the
            # receivers' FINAL checks read — every _on_final across the
            # shard's shared scheme is O(1) from here.
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
            state.finalised = True
            final = FinalMessage(
                channel=self.channel,
                origin=self.own_id,
                sequence=message.sequence,
                payload=state.payload,
                certificate=certificate,
            )
            self._transmit_to_all(final)

    # The FINAL phase: verify the certificate, deliver, optionally relay.

    def _on_final(self, sender: ProcessId, message: FinalMessage) -> None:
        if message.certificate is None:
            return
        key = (message.origin, message.sequence)
        state = self._receiver_state(key)
        if state.delivered:
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
        if self.relay_final and not state.relayed and sender == message.origin:
            state.relayed = True
            self._transmit_to_all(message)

    # -- checkpointing ----------------------------------------------------------------------------

    def _capture_impl_state(self) -> Any:
        return {
            "as_origin": {
                sequence: (state.payload, dict(state.signatures), state.finalised)
                for sequence, state in self._as_origin.items()
            },
            "as_receiver": {
                key: (state.acknowledged_hash, state.delivered, state.relayed)
                for key, state in self._as_receiver.items()
            },
        }

    def _restore_impl_state(self, state: Any) -> None:
        self._as_origin = {
            sequence: _OriginState(
                payload=payload, signatures=dict(signatures), finalised=finalised
            )
            for sequence, (payload, signatures, finalised) in state["as_origin"].items()
        }
        self._as_receiver = {
            tuple(key): _ReceiverState(
                acknowledged_hash=acknowledged, delivered=delivered, relayed=relayed
            )
            for key, (acknowledged, delivered, relayed) in state["as_receiver"].items()
        }
