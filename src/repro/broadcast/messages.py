"""Wire messages of the broadcast primitives.

All broadcast-layer messages are frozen dataclasses tagged with the layer's
``channel`` string, so a node hosting several layers (e.g. the k-shared node,
which runs both an account-order broadcast and a BFT sequencer) can route
incoming messages unambiguously.

Every message carries the broadcast *instance* identity ``(origin, sequence)``
— the sending process and its per-sender sequence number — plus the payload.

The envelopes are slotted (``slots=True``): a shard's fan-out creates ~36 of
them per commit (INIT/ACK/FINAL to every replica, echoes and readies under
Bracha), and ``__slots__`` removes the per-instance ``__dict__`` from that
hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.common.types import ProcessId
from repro.crypto.signatures import QuorumCertificate, Signature


@dataclass(frozen=True, slots=True)
class BroadcastMessage:
    """Base class of all broadcast-layer messages."""

    channel: str
    origin: ProcessId
    sequence: int


@dataclass(frozen=True, slots=True)
class SendMessage(BroadcastMessage):
    """Bracha SEND / echo-broadcast INIT: the origin disseminates the payload."""

    payload: Any = None


@dataclass(frozen=True, slots=True)
class EchoMessage(BroadcastMessage):
    """Bracha ECHO: a witness re-broadcasts the payload it saw from the origin."""

    payload: Any = None


@dataclass(frozen=True, slots=True)
class ReadyMessage(BroadcastMessage):
    """Bracha READY: a witness vouches that delivery is safe."""

    payload: Any = None


@dataclass(frozen=True, slots=True)
class EchoSignatureMessage(BroadcastMessage):
    """Echo broadcast: a signed acknowledgement returned to the origin."""

    payload: Any = None
    signature: Optional[Signature] = None


@dataclass(frozen=True, slots=True)
class FinalMessage(BroadcastMessage):
    """Echo broadcast: the origin's payload plus its quorum certificate."""

    payload: Any = None
    certificate: Optional[QuorumCertificate] = None


@dataclass(frozen=True, slots=True)
class AccountTaggedPayload:
    """Payload wrapper used by the account-order broadcast (Section 6).

    ``account`` is the account the payload concerns and ``account_sequence``
    the BFT-assigned per-account sequence number; benign processes only
    acknowledge the message if it is the next one for that account.
    """

    account: str
    account_sequence: int
    body: Any = None
