"""Per-account sequencing service for k-shared accounts (Section 6).

Section 6 associates every shared account with a BFT service, run by the
account's owners, that assigns monotonically increasing sequence numbers to
the owners' outgoing transfers; the decided ``(account, transfer, sequence)``
tuple must be "signed by a quorum of owners" so that the rest of the system
can verify the assignment.

This module implements that service as an *owner-quorum endorsement*
protocol, the minimal construction with the properties the paper requires:

* an owner wanting to issue a transfer proposes it for the next sequence
  number of the account;
* every owner endorses (signs) **at most one** transfer per
  ``(account, sequence)`` slot, and only if that sequence number is the next
  one it has seen delivered for the account;
* a proposal backed by more than two thirds of the owners forms a
  :class:`SequencedTransfer` certificate.

Safety (no two different transfers certified for the same slot) follows from
quorum intersection exactly as in the paper: two quorums of size
``⌈(2k+1)/3⌉ + …`` share a correct owner, and a correct owner endorses one
transfer per slot.  If more than a third of the owners misbehave the account
may block or conflicting certificates may become possible — but the
account-order broadcast still prevents double spending system-wide, and other
accounts are unaffected (experiment E7).

The :class:`OwnerQuorumSequencer` is sans-I/O: the hosting node feeds it
messages and it returns messages to send, so it is unit-testable without the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, ProcessId, Transfer
from repro.crypto.hashing import content_hash
from repro.crypto.signatures import KeyPair, QuorumCertificate, Signature, SignatureScheme


def owner_quorum_size(owner_count: int) -> int:
    """Smallest quorum guaranteeing intersection in a correct owner.

    With ``k`` owners and at most ``f = ⌊(k-1)/3⌋`` Byzantine among them, a
    quorum of ``q = ⌈2k/3⌉`` owners suffices: any two quorums share
    ``2q - k >= f + 1`` owners, so at least one correct owner, and ``q <= k - f``,
    so the correct owners form a quorum while ``f`` stay silent.  At ``k = 3``
    that is 2; for ``k = 1`` it degenerates to 1 (the owner sequences its own
    transfers, as in the single-owner protocol).
    """
    if owner_count <= 0:
        raise ConfigurationError("owner_count must be positive")
    return (2 * owner_count + 2) // 3


def _endorsement_payload(account: AccountId, sequence: int, transfer: Transfer) -> Tuple:
    """The value owner endorsement signatures bind to."""
    return ("seq-assign", account, sequence, content_hash(transfer))


@dataclass(frozen=True)
class SequenceRequest:
    """Proposer -> owners: please endorse ``transfer`` as number ``sequence``."""

    channel: str
    account: AccountId
    sequence: int
    transfer: Transfer
    proposer: ProcessId


@dataclass(frozen=True)
class SequenceEndorsement:
    """Owner -> proposer: signed endorsement of one (account, sequence, transfer)."""

    channel: str
    account: AccountId
    sequence: int
    transfer: Transfer
    endorser: ProcessId
    signature: Signature


@dataclass(frozen=True)
class SequencedTransfer:
    """A transfer with a certified per-account sequence number."""

    account: AccountId
    sequence: int
    transfer: Transfer
    certificate: QuorumCertificate

    def verify(
        self, scheme: SignatureScheme, owners: frozenset, quorum: Optional[int] = None
    ) -> bool:
        """Check the owner-quorum certificate."""
        needed = owner_quorum_size(len(owners)) if quorum is None else quorum
        return scheme.verify_certificate(
            _endorsement_payload(self.account, self.sequence, self.transfer),
            self.certificate,
            quorum_size=needed,
            allowed_signers=owners,
        )


@dataclass
class _ProposalState:
    """Proposer-side state for one in-flight sequencing attempt."""

    request: SequenceRequest
    endorsements: Dict[ProcessId, Signature] = field(default_factory=dict)
    certified: bool = False


class OwnerQuorumSequencer:
    """The sequencing service as seen from one owner of one or more accounts.

    Parameters
    ----------
    own_id:
        This owner's process id.
    owners_of:
        Map from account to the frozen set of its owners (only shared
        accounts this process owns or endorses for need to be present).
    scheme / keypair:
        Signature scheme and this owner's signing key.
    """

    def __init__(
        self,
        own_id: ProcessId,
        owners_of: Dict[AccountId, frozenset],
        scheme: SignatureScheme,
        keypair: Optional[KeyPair] = None,
        channel: str = "sequencer",
    ) -> None:
        self.own_id = own_id
        self.owners_of = dict(owners_of)
        self.scheme = scheme
        self.keypair = keypair or scheme.keypair_for(own_id)
        self.channel = channel
        # Endorser side: one endorsement per (account, sequence) slot, and the
        # highest sequence number this owner has observed delivered per account.
        self._endorsed_slots: Dict[Tuple[AccountId, int], str] = {}
        self._delivered_sequence: Dict[AccountId, int] = {}
        # Proposer side.
        self._proposals: Dict[Tuple[AccountId, int], _ProposalState] = {}

    # -- endorser side -------------------------------------------------------------------------------

    def note_delivered(self, account: AccountId, sequence: int) -> None:
        """Record that the sequenced transfer ``sequence`` of ``account`` was delivered."""
        current = self._delivered_sequence.get(account, 0)
        if sequence > current:
            self._delivered_sequence[account] = sequence

    def next_sequence(self, account: AccountId) -> int:
        """The sequence number this owner would endorse next for ``account``."""
        return self._delivered_sequence.get(account, 0) + 1

    def handle_request(self, request: SequenceRequest) -> Optional[SequenceEndorsement]:
        """Endorse a proposal if it is acceptable; return the endorsement message."""
        owners = self.owners_of.get(request.account)
        if owners is None or request.proposer not in owners or self.own_id not in owners:
            return None
        if request.transfer.source != request.account:
            return None
        if request.sequence != self.next_sequence(request.account):
            return None
        slot = (request.account, request.sequence)
        digest = content_hash(request.transfer)
        previously = self._endorsed_slots.get(slot)
        if previously is not None and previously != digest:
            return None  # never endorse two transfers for the same slot
        self._endorsed_slots[slot] = digest
        signature = self.keypair.sign(
            _endorsement_payload(request.account, request.sequence, request.transfer)
        )
        return SequenceEndorsement(
            channel=self.channel,
            account=request.account,
            sequence=request.sequence,
            transfer=request.transfer,
            endorser=self.own_id,
            signature=signature,
        )

    # -- proposer side -------------------------------------------------------------------------------------

    def make_request(self, account: AccountId, transfer: Transfer) -> SequenceRequest:
        """Start (or restart) a sequencing attempt for ``transfer``."""
        owners = self.owners_of.get(account)
        if owners is None or self.own_id not in owners:
            raise ConfigurationError(f"process {self.own_id} does not own account {account!r}")
        sequence = self.next_sequence(account)
        request = SequenceRequest(
            channel=self.channel,
            account=account,
            sequence=sequence,
            transfer=transfer,
            proposer=self.own_id,
        )
        self._proposals[(account, sequence)] = _ProposalState(request=request)
        return request

    def handle_endorsement(self, endorsement: SequenceEndorsement) -> Optional[SequencedTransfer]:
        """Collect an endorsement; return the certificate once a quorum is reached."""
        key = (endorsement.account, endorsement.sequence)
        state = self._proposals.get(key)
        if state is None or state.certified:
            return None
        if content_hash(endorsement.transfer) != content_hash(state.request.transfer):
            return None
        owners = self.owners_of.get(endorsement.account, frozenset())
        if endorsement.endorser not in owners or endorsement.signature.signer != endorsement.endorser:
            return None
        payload = _endorsement_payload(
            endorsement.account, endorsement.sequence, state.request.transfer
        )
        if not self.scheme.verify(payload, endorsement.signature):
            return None
        state.endorsements[endorsement.endorser] = endorsement.signature
        if len(state.endorsements) < owner_quorum_size(len(owners)):
            return None
        state.certified = True
        certificate = self.scheme.make_certificate(payload, state.endorsements.values())
        return SequencedTransfer(
            account=endorsement.account,
            sequence=endorsement.sequence,
            transfer=state.request.transfer,
            certificate=certificate,
        )

    # -- routing helper ----------------------------------------------------------------------------------------

    def handles(self, message: object) -> bool:
        return getattr(message, "channel", None) == self.channel
