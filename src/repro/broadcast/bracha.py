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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.broadcast.messages import EchoMessage, ReadyMessage, SendMessage
from repro.broadcast.secure_broadcast import BroadcastLayer
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
    # and its digest; not checkpointed.
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

    def _on_echo(self, sender: ProcessId, message: EchoMessage) -> None:
        key = (message.origin, message.sequence)
        state = self._instances.get(key)
        if state is None:
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

    # -- checkpointing --------------------------------------------------------------------

    def _capture_impl_state(self) -> Any:
        return {
            "instances": {
                key: (
                    dict(state.payload_by_hash),
                    state.echoed,
                    state.readied,
                    state.delivered,
                    {digest: set(witnesses) for digest, witnesses in state.echoes.items()},
                    {digest: set(witnesses) for digest, witnesses in state.readies.items()},
                )
                for key, state in self._instances.items()
            }
        }

    def _restore_impl_state(self, state: Any) -> None:
        self._instances = {}
        for key, packed in state["instances"].items():
            payloads, echoed, readied, delivered, echoes, readies = packed
            self._instances[tuple(key)] = _InstanceState(
                payload_by_hash=dict(payloads),
                echoed=echoed,
                readied=readied,
                delivered=delivered,
                echoes={digest: set(witnesses) for digest, witnesses in echoes.items()},
                readies={digest: set(witnesses) for digest, witnesses in readies.items()},
            )
