"""Application-level payloads exchanged by the transfer protocols.

The consensusless protocol of Figure 4 broadcasts, per transfer, a single
message ``[(a, b, x, s), h]``: the transfer arguments, the issuer's sequence
number ``s`` and the dependency set ``h`` (the incoming transfers the issuer
applied since its previous outgoing transfer).  :class:`TransferAnnouncement`
is that message; the k-shared variant extends it with the owner-quorum
certificate produced by the per-account sequencing service (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.types import AccountId, HashOnce, Transfer, rebuilt_by_constructor
from repro.crypto.signatures import QuorumCertificate


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
class TransferAnnouncement(HashOnce):
    """The broadcast payload of one transfer (Figure 4, line 4).

    ``transfer.sequence`` carries the per-issuer sequence number ``s``;
    ``dependencies`` is the set ``h`` of incoming transfers the issuer applied
    since its last successful outgoing transfer (sent as full records so that
    receivers can install them into the right account histories).
    """

    transfer: Transfer
    dependencies: Tuple[Transfer, ...] = ()

    def __post_init__(self) -> None:
        self._hash_once((self.transfer, self.dependencies))

    # Every broadcast hop looks the payload up in the content-hash memo.
    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"announce({self.transfer}, deps={len(self.dependencies)})"


@dataclass(frozen=True, slots=True)
class SequencedAnnouncement:
    """A transfer announcement sequenced by a per-account BFT service (§6).

    ``account_sequence`` is the sequence number the owners' BFT service
    assigned to the transfer for its source account, and ``certificate`` is
    the owner-quorum certificate vouching for that assignment.  Receivers
    verify the certificate before treating the sequence number as authentic.
    """

    announcement: TransferAnnouncement
    account: AccountId
    account_sequence: int
    certificate: Optional[QuorumCertificate] = None
