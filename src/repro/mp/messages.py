"""Application-level payloads exchanged by the transfer protocols.

The consensusless protocol of Figure 4 broadcasts, per transfer, a single
message ``[(a, b, x, s), h]``: the transfer arguments, the issuer's sequence
number ``s`` and the dependency set ``h`` (the incoming transfers the issuer
applied since its previous outgoing transfer).  :class:`TransferAnnouncement`
is that message; the k-shared variant extends it with the owner-quorum
certificate produced by the per-account sequencing service (Section 6).

The broadcast payload is generic, so a batch of one issuer's announcements is
just a bigger payload: :class:`BatchAnnouncement` rides one secure-broadcast
instance, and receivers unpack it into the per-announcement path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, HashOnce, Transfer, rebuilt_by_constructor
from repro.crypto.signatures import QuorumCertificate


class _DependencyIds(HashOnce):
    """The ``dependency_ids`` slot of a :class:`TransferAnnouncement`.

    A non-field slot, like ``_hash``: in no ``fields()``, ``repr``, ``==``
    or pickle, and set again by the constructor wherever the announcement
    is rebuilt.
    """

    __slots__ = ("dependency_ids",)


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
class TransferAnnouncement(_DependencyIds):
    """The broadcast payload of one transfer (Figure 4, line 4).

    ``transfer.sequence`` carries the per-issuer sequence number ``s``;
    ``dependencies`` is the set ``h`` of incoming transfers the issuer applied
    since its last successful outgoing transfer (sent as full records so that
    receivers can install them into the right account histories).
    ``dependency_ids`` is their identities, built once at construction: every
    replica of the group receives the same announcement object, and each
    one's dependency column keeps this one tuple.
    """

    transfer: Transfer
    dependencies: Tuple[Transfer, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "dependency_ids", tuple(d.transfer_id for d in self.dependencies)
        )
        self._hash_once((self.transfer, self.dependencies))

    # Computed once, at construction (``HashOnce``).
    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"announce({self.transfer}, deps={len(self.dependencies)})"


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
