"""Cross-shard settlement: the full lifecycle of a quorum-certified credit.

A transfer from shard *s* to shard *d* debits the source account and credits
an external settlement account ``x{d}:a`` in the *source* shard's ledger.
This module carries the credit across *and then closes the books*.  Because
single-owner asset transfer has consensus number 1, settlement needs no
cross-shard consensus, only *reliable transfer of a quorum-certified credit*
(the set-constrained delivery substrate of arXiv:1706.05267).  Each
per-``(source, destination, issuer)`` stream walks one state machine::

    vouchered -> certified -> minted -> acknowledged -> retired

Both of its legs are one quorum-acknowledged broadcast of a per-issuer
watermark, so one sans-I/O :class:`QuorumStream` type runs both, and each
shard pair's :class:`SettlementRelay` holds two of them:

1. ``relay.vouchers`` (source-shard keys).  A source replica that validates
   a cross-shard transfer signs a :class:`SettlementClaim`, in its own shard;
   the sequence is per ``(issuer, destination shard)`` and every correct
   replica assigns the same one, because Figure 4 validates each issuer's
   transfers in source order.  ``2f+1`` matching vouchers make a
   :class:`SettlementCertificate`, which every destination replica's
   :class:`SettlementInbox` verifies against the source shard's keys and
   mints **exactly once**, in per-stream sequence order.
2. ``relay.acks`` (destination-shard keys).  Every mint makes the replica
   sign a :class:`SettlementAckClaim` over the stream's new watermark.
   ``2f+1`` acks make a :class:`RetirementCertificate`; the source shard's
   :class:`CompactionGate` — mirror image of the inbox — verifies it against
   the destination shard's keys, enforces watermark monotonicity, and only
   then retires the ``x{d}:a`` records it acknowledges.  Certifying a
   watermark also makes both streams forget what it subsumes.

As in the paper's model, every replica signs its own messages, and both
trust boundaries live in the shards they protect
(:class:`~repro.cluster.shard.Shard`); the driver keeps only what lies
between shards (:class:`SettlementFabric`).

``f`` Byzantine replicas can neither forge a certificate on either leg (they
lack ``f+1`` honest keys) nor stall one (``2f+1`` honest replicas sign every
item).  Any ack quorum contains a correct destination replica, which only
acknowledges what it minted: **no unsettled record is ever retired**.

The mint is applied through
:meth:`~repro.mp.consensusless_transfer.ConsensuslessTransferNode.mint_certified_credit`
as a transfer from the provision account ``settle:{s}:{p}``, which makes the
credit spendable and keeps the two-ledger identity exact: ``local +
unretired outbound - (minted - retired)`` equals the initial supply at every
instant (:meth:`repro.cluster.system.ClusterSystem.supply_audit`).
Retirement keeps long runs compact: resident ledger records are bounded by
the in-flight window, not by history, and a certificate stays resident only
while it is queued for delivery or buffered in an inbox.

Settlement traffic rides the barrier scheduler's queues with fixed link
delays: :data:`VOUCHER_DELAY` (1 ms) from a source replica to its relay,
:data:`DELIVERY_DELAY` (2 ms) from a relay to the shards it delivers a
certificate to, and :data:`ACK_DELAY` (1 ms) from a destination replica back
to its relay.

**What a credit costs.**  The work a credit must do is signatures, and on a
fault-free run it does exactly this much, with ``N`` replicas per shard and
quorum ``q = 2⌊(N−1)/3⌋+1`` (``tests/cluster/test_settlement_formulas.py``
pins it)::

    signs                  2N              N vouchers + N acks
    verifications          2N + (N+3)q     each voucher and ack once on arrival,
      of which reused      (N+3)q          then certify (q) and N inbox checks
                                           (Nq) on the voucher leg, certify (q)
                                           and the gate's check (q) on the ack leg
    certifies              2               one certificate per leg
    certificate checks     N+1             N destination inboxes + 1 gate
    messages               N + N + N + 1   vouchers, certificate deliveries,
                                           acks, one retirement delivery

— 8 / 29 / 21 / 2 / 5 at ``N = 4``; on the process pool ``(N+1)q`` are
reused, since a certificate crosses a pipe to its shard and a copied
signature starts unchecked.  Around those calls: a relay and its streams are
data with no callbacks (a claim names its pair), each shard's certificate
check is bound once, a slot's claim, mint transfer and ack claim are built
once for every replica, and each barrier drains each queue once, handing
its certificates to the shards before it assembles vouchers and acks, so on
the pool that work overlaps the shards' next epoch
(:class:`~repro.cluster.backends.EpochScheduler`).

Fault injection rides the transport behaviours of
:mod:`repro.byzantine.behaviors`: a voucher or ack behaviour per replica can
silence, delay or substitute what it sends, on either leg.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.byzantine.behaviors import Behavior
from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, Amount, EncodedOnce, ProcessId, Transfer
from repro.common.types import rebuilt_by_constructor
from repro.crypto.signatures import QuorumCertificate, Signature

# Recency window of the fabric's p95 settlement-latency report; bounds the
# only remaining per-mint memory in the driver to a constant.
LATENCY_P95_WINDOW = 4096

# Recent rejections an inbox or gate keeps beside its exact count: what a
# flood of forged certificates keeps resident is a constant.
REJECTED_WINDOW = 32

# The settlement links' delays, in simulated seconds: slower than the
# intra-shard network defaults because settlement crosses shard boundaries.
VOUCHER_DELAY = 0.001
DELIVERY_DELAY = 0.002
ACK_DELAY = 0.001


def p95(samples: Sequence[float]) -> float:
    """The 95th-percentile sample (nearest-rank; deterministic)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[index]


# -- wire format ------------------------------------------------------------------------------


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
class SettlementClaim(EncodedOnce):
    """The payload source replicas sign: one cross-shard credit, uniquely keyed.

    ``sequence`` numbers the issuer's cross-shard transfers *towards this
    destination shard* densely (1, 2, ...).  All correct source replicas
    derive the same sequence because they validate the issuer's transfers in
    source order, so their vouchers agree byte-for-byte and a quorum
    certificate over the claim can form.  The claim keeps its canonical
    encoding on itself (:class:`~repro.common.types.EncodedOnce`), so every
    signature and check over the same claim object encodes it once.
    """

    source_shard: int
    destination_shard: int
    issuer: ProcessId
    sequence: int
    account: AccountId
    amount: Amount

    def __repr__(self) -> str:
        # The generated repr's exact text (it is the canonical encoding every
        # voucher signs), without the ``reprlib.recursive_repr`` wrapper the
        # generated method carries: a claim holds no containers to recurse on.
        return (
            f"{type(self).__qualname__}(source_shard={self.source_shard!r}, "
            f"destination_shard={self.destination_shard!r}, issuer={self.issuer!r}, "
            f"sequence={self.sequence!r}, account={self.account!r}, amount={self.amount!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"claim[s{self.source_shard}->s{self.destination_shard} "
            f"p{self.issuer}#{self.sequence} {self.account}+{self.amount}]"
        )


class SettlementVoucher(NamedTuple):
    """One source replica's signature over a settlement claim (the wire
    containers are named tuples: never signed themselves, built per item)."""

    claim: SettlementClaim
    signature: Signature


class SettlementCertificate(NamedTuple):
    """A claim plus a quorum certificate of source-replica signatures."""

    claim: SettlementClaim
    certificate: QuorumCertificate


@rebuilt_by_constructor
@dataclass(frozen=True, slots=True)
class SettlementAckClaim(EncodedOnce):
    """What a destination replica signs after minting: a stream watermark.

    ``sequence`` is cumulative: acknowledging it asserts that every claim of
    the ``(source_shard, destination_shard, issuer)`` stream up to and
    including ``sequence`` has been minted.  Inboxes mint strictly in stream
    order, so the watermark is exactly the last minted sequence and all
    correct destination replicas sign byte-identical ack claims.
    """

    source_shard: int
    destination_shard: int
    issuer: ProcessId
    sequence: int

    def __repr__(self) -> str:
        # The generated repr's exact text, unwrapped (see SettlementClaim).
        return (
            f"{type(self).__qualname__}(source_shard={self.source_shard!r}, "
            f"destination_shard={self.destination_shard!r}, issuer={self.issuer!r}, "
            f"sequence={self.sequence!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ack[s{self.source_shard}->s{self.destination_shard} "
            f"p{self.issuer}<={self.sequence}]"
        )


class SettlementAck(NamedTuple):
    """One destination replica's signature over a stream watermark."""

    claim: SettlementAckClaim
    signature: Signature


class RetirementCertificate(NamedTuple):
    """An ack claim plus a quorum certificate of destination signatures.

    The source-side licence to compact: ``2f+1`` destination replicas
    asserting the stream is minted through ``claim.sequence``.  Quorum
    intersection puts a correct replica in every certificate, so the
    watermark can never exceed what was genuinely minted.
    """

    claim: SettlementAckClaim
    certificate: QuorumCertificate


# A delivered claim's signature entry: its fields in order (its ``__slots__``).
_CLAIM_FIELDS = {
    claim_type: attrgetter(*claim_type.__slots__)
    for claim_type in (SettlementClaim, SettlementAckClaim)
}


# -- account naming ---------------------------------------------------------------------------

_SETTLEMENT_PREFIX = "settle:"
# Virtual issuer ids for mint transfers: negative so they can never collide
# with real replica ids, strided so every (source shard, issuer) stream gets
# its own identity.
_SETTLEMENT_ISSUER_STRIDE = 4096


def settlement_account(source_shard: int, issuer: ProcessId) -> AccountId:
    """The provision account a mint from ``(source_shard, issuer)`` debits.

    It lives in the destination shard's ledger and runs *negative* there: the
    matching positive balance is the ``x{d}:a`` account in the source shard's
    ledger, and the cluster-level supply audit nets the two.
    """
    return f"{_SETTLEMENT_PREFIX}{source_shard}:{issuer}"


def is_settlement_account(account: AccountId) -> bool:
    """True for inbound provision accounts (``settle:{s}:{p}``)."""
    return account.startswith(_SETTLEMENT_PREFIX)


def settlement_issuer(source_shard: int, issuer: ProcessId) -> ProcessId:
    """The virtual process id under which a stream's mints are recorded."""
    return -(1 + source_shard * _SETTLEMENT_ISSUER_STRIDE + issuer)


def mint_transfer(claim: SettlementClaim) -> Transfer:
    """The ledger transfer a verified certificate mints at the destination."""
    return Transfer(
        source=settlement_account(claim.source_shard, claim.issuer),
        destination=claim.account,
        amount=claim.amount,
        issuer=settlement_issuer(claim.source_shard, claim.issuer),
        sequence=claim.sequence,
    )


# -- the quorum stream and the relay ----------------------------------------------------------


class QuorumStream:
    """One lifecycle leg of a shard pair: signed items in, certificates out.

    Sans-I/O, and everything a leg differs in is constructor data: the shard
    ``pair``, the signing shard's key directory (``scheme``, ``quorum_size``,
    ``allowed_signers``) and the wire type ``wrap`` a certificate travels
    in.  ``sink.on_certified(certificate)`` takes each fresh certificate —
    every stream of a cluster shares its fabric as the sink — and the
    barrier brings it back through :meth:`deliver`, which counts it.

    Items are checked on arrival, which keeps *impersonation* out of the
    pending table.  A Byzantine replica signing fabricated claims under its
    own key still gets entries in there, but each is capped at the ``f``
    Byzantine signers and can never reach the ``2f+1`` quorum: fabrication
    costs table memory, not money (:attr:`pending` counts genuinely withheld
    items and attacker junk alike).  The stream holds no certificate: its
    state is per issuer (claims collecting signatures, claims certified
    above the floor, the floor), an item touches only its issuer's entries,
    and a stream drained back to its floor keeps only that integer.  The
    totals and :meth:`signature` answer for the full history.
    """

    __slots__ = (
        "pair", "scheme", "quorum_size", "allowed_signers", "_wrap", "_sink", "_pending",
        "_assembled", "_floors", "certified_total", "delivered_total", "_signature",
        "accepted", "rejected",
    )

    def __init__(
        self,
        pair: Tuple[int, int],
        scheme,
        quorum_size: int,
        allowed_signers: frozenset,
        wrap: type,
        sink,
    ) -> None:
        if quorum_size <= 0:
            raise ConfigurationError("quorum_size must be positive")
        self.pair = pair
        self.scheme = scheme
        self.quorum_size = quorum_size
        self.allowed_signers = allowed_signers
        self._wrap = wrap
        self._sink = sink
        # ``issuer -> claim -> signer -> signature``: claims short of quorum.
        self._pending: Dict[ProcessId, Dict[object, Dict[ProcessId, Signature]]] = {}
        # ``issuer -> claims`` certified above the issuer's floor.
        self._assembled: Dict[ProcessId, Set[object]] = {}
        self._floors: Dict[ProcessId, int] = {}
        self.certified_total = 0
        self.delivered_total = 0
        self._signature: List[tuple] = []
        self.accepted = 0
        self.rejected = 0

    def submit(self, item) -> bool:
        """Accept one signed voucher or ack; certify its claim at quorum.

        Anything misrouted, unsequenced, signed outside ``allowed_signers``
        or badly signed is rejected; anything at or below its issuer's floor
        (see :meth:`forget`), or for a claim already certified, is absorbed.
        """
        claim = item.claim
        if (
            (claim.source_shard, claim.destination_shard) != self.pair
            or claim.sequence <= 0
            or item.signature.signer not in self.allowed_signers
            or not self.scheme.verify(claim, item.signature)
        ):
            self.rejected += 1
            return False
        self.accepted += 1
        issuer = claim.issuer
        if claim.sequence <= self._floors.get(issuer, 0):
            return True  # late: retired and forgotten
        signatures = (self._pending.get(issuer) or {}).get(claim)
        if signatures is None:  # a claim leaves the pending table as it certifies
            if claim in self._assembled.get(issuer, ()):
                return True  # late: already certified
            signatures = self._pending.setdefault(issuer, {})[claim] = {}
        signatures[item.signature.signer] = item.signature
        if len(signatures) >= self.quorum_size:
            self._assemble(claim)
        return True

    def _assemble(self, claim) -> None:
        issuer = claim.issuer
        pending = self._pending[issuer]
        signatures = pending.pop(claim)
        if not pending:
            del self._pending[issuer]
        ordered = tuple([signatures[signer] for signer in sorted(signatures)])
        # One-check quorum verification at construction: a single verdict
        # covers the whole signer set.  The inbox and the gate re-run the
        # full certificate check, each signature answered by the verdict it
        # carries from this check.
        bundle = self.scheme.certify(claim, ordered, self.quorum_size, self.allowed_signers)
        if bundle is None:
            # Divergence: the batch failed even though every member verified
            # on arrival.  Fall back to per-signature checks, drop the
            # forged members, and keep the honest remainder pending.
            survivors = {
                signer: signature
                for signer, signature in signatures.items()
                if signer in self.allowed_signers and self.scheme.verify(claim, signature)
            }
            self.rejected += len(signatures) - len(survivors)
            if survivors:
                self._pending.setdefault(issuer, {})[claim] = survivors
                if len(survivors) >= self.quorum_size:
                    self._assemble(claim)  # the honest members already form a quorum
            return
        # Marked before the sink sees the certificate: a retirement
        # watermark makes the sink forget what it subsumes, this claim too.
        self._assembled.setdefault(issuer, set()).add(claim)
        self.certified_total += 1
        self._sink.on_certified(self._wrap(claim=claim, certificate=bundle))

    def deliver(self, certificate) -> None:
        """Count one delivered certificate and append its claim's fields to
        :meth:`signature`; called by the fabric as the barrier delivers it."""
        claim = certificate.claim
        self.delivered_total += 1
        self._signature.append(_CLAIM_FIELDS[type(claim)](claim))

    def forget(self, issuer: ProcessId, watermark: int) -> None:
        """Raise ``issuer``'s floor to ``watermark``; drop what it subsumes.

        Called on both of a pair's streams when the ack stream certifies
        ``watermark``: everything of the issuer's stream at or below it is
        settled *and acknowledged*.  Its pending entries are dead (a Byzantine
        variant can no longer reach quorum) and its assembled claims can
        never re-assemble (at most ``f`` late items are outstanding): the
        floor absorbs both, and the issuer's emptied containers go.  Replay
        protection does not regress: the inbox's and the gate's own
        per-stream floors still reject any re-delivered certificate.
        """
        self._floors[issuer] = watermark
        pending = self._pending.pop(issuer, {})
        pending = {claim: s for claim, s in pending.items() if claim.sequence > watermark}
        if pending:
            self._pending[issuer] = pending
        assembled = self._assembled.pop(issuer, ())
        assembled = {claim for claim in assembled if claim.sequence > watermark}
        if assembled:
            self._assembled[issuer] = assembled

    def floor(self, issuer: ProcessId) -> int:
        """The highest retirement watermark certified for ``issuer`` (0 = none)."""
        return self._floors.get(issuer, 0)

    @property
    def pending(self) -> int:
        """Claims with some signatures but no quorum yet (withheld items)."""
        return sum(len(claims) for claims in self._pending.values())

    def signature(self) -> List[tuple]:
        """Every delivered claim's fields, in delivery order (never compacted)."""
        return list(self._signature)


class SettlementRelay:
    """Both lifecycle legs of one ``source -> destination`` shard pair.

    ``vouchers`` certifies claims with the *source* shard's keys into
    :class:`SettlementCertificate` s for the destination inboxes; ``acks``
    certifies watermarks with the *destination* shard's keys (``ack_*``)
    into :class:`RetirementCertificate` s for the source's compaction gate.
    The relay is untrusted like a network: inbox and gate re-verify
    everything, so a faulty relay can at worst withhold settlement or
    compaction, never mint money or retire an unsettled record.

    A relay is data: the pair and its two streams.  Both streams hand fresh
    certificates to ``sink`` (see :class:`QuorumStream`); the fabric, the
    sink of every relay it makes, routes by the claim's pair what a relay
    would otherwise have to hold.
    """

    __slots__ = ("pair", "vouchers", "acks")

    def __init__(
        self,
        source_shard: int,
        destination_shard: int,
        scheme,
        quorum_size: int,
        allowed_signers: frozenset,
        ack_scheme,
        ack_quorum_size: int,
        ack_allowed_signers: frozenset,
        sink,
    ) -> None:
        self.pair = (source_shard, destination_shard)
        self.vouchers = QuorumStream(
            self.pair, scheme, quorum_size, allowed_signers, SettlementCertificate, sink
        )
        self.acks = QuorumStream(
            self.pair, ack_scheme, ack_quorum_size, ack_allowed_signers, RetirementCertificate, sink
        )


# -- the trust boundaries: the destination inbox and the source gate --------------------------


class _TrustBoundary:
    """An inbox's and a gate's shared part: exact rejection counts, the last
    :data:`REJECTED_WINDOW` rejections with reasons, and their state."""

    #: The attributes that wire the boundary to its shard, not its state.
    _WIRING: Tuple[str, ...] = ("_verifiers",)

    def __init__(self, shard_index: int, verifiers: Dict[int, Callable[..., bool]]) -> None:
        self.shard_index = shard_index
        # The key directory: one bound certificate check per signing shard.
        self._verifiers = verifiers
        self.accepted = 0
        self.rejected: Deque[tuple] = deque(maxlen=REJECTED_WINDOW)
        self.rejected_count = 0

    def _reject(self, certificate, reason: str) -> bool:
        self.rejected.append((certificate, reason))
        self.rejected_count += 1
        return False

    def state(self) -> Dict[str, object]:
        """What the boundary decided — counts, rejection window, buffers,
        watermarks — copied out as plain data."""
        wiring = self._WIRING
        return {name: _copied(value) for name, value in vars(self).items() if name not in wiring}

    def restore(self, state: Dict[str, object]) -> None:
        """Install a :meth:`state` (a driver-side twin's boundary)."""
        vars(self).update(_copied(state))


def _copied(value):
    """``value`` with every dict and deque in it copied, their items shared:
    a boundary's state is containers of immutable records."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    if isinstance(value, deque):
        return deque(value, maxlen=value.maxlen)
    return value


class SettlementInbox(_TrustBoundary):
    """Per-destination-replica verification and exactly-once minting.

    The inbox is the trust boundary: everything upstream is adversarial
    input.  A certificate mints if and only if it carries ``quorum_size``
    valid signatures from the source shard's replica set and is *next in its
    stream*, so replays are detectable and minting stays in order.

    Ahead-of-sequence certificates are *buffered*, not dropped: a Byzantine
    source replica withholding its voucher for claim ``k`` while vouchering
    ``k+1`` can make the relay certify ``k+1`` first, and settlement
    liveness under ``f`` faults requires holding it until the gap fills.
    Only *verified* certificates are buffered, and quorum intersection allows
    at most one per stream slot, so forgeries can neither poison nor grow
    the buffer, and a stream's buffer goes once its gap fills.  Accepted
    certificates are counted, not kept: ``mint_sink(claim)`` takes each
    claim to mint, in stream order.  Rejected ones are counted
    (``rejected_count``), and only the last :data:`REJECTED_WINDOW` stay in
    ``rejected`` with their reasons.  ``verifiers`` is the key directory,
    one bound certificate check per source shard; a certificate naming any
    other source is invalid.
    """

    _WIRING = ("_verifiers", "_mint_sink")

    def __init__(
        self,
        shard_index: int,
        verifiers: Dict[int, Callable[[SettlementClaim, QuorumCertificate], bool]],
        mint_sink: Callable[[SettlementClaim], None],
    ) -> None:
        super().__init__(shard_index, verifiers)
        self._mint_sink = mint_sink
        self._next_sequence: Dict[Tuple[int, ProcessId], int] = {}
        self._buffered: Dict[Tuple[int, ProcessId], Dict[int, SettlementCertificate]] = {}
        self._minted: Amount = 0

    def receive(self, certificate: SettlementCertificate) -> bool:
        claim = certificate.claim
        if claim.destination_shard != self.shard_index:
            return self._reject(certificate, "misrouted certificate")
        if claim.amount < 0:
            return self._reject(certificate, "negative amount")
        stream = (claim.source_shard, claim.issuer)
        expected = self._next_sequence.get(stream, 0) + 1
        if claim.sequence < expected:
            return self._reject(certificate, "replayed certificate")
        verify = self._verifiers.get(claim.source_shard)
        if verify is None or not verify(claim, certificate.certificate):
            return self._reject(certificate, "invalid quorum certificate")
        if claim.sequence > expected:
            buffered = self._buffered.setdefault(stream, {})
            if claim.sequence in buffered:
                return self._reject(certificate, "replayed certificate")
            buffered[claim.sequence] = certificate
            return True
        self._mint(stream, claim)
        # The gap just filled: drain buffered successors in order; an emptied buffer goes.
        buffered = self._buffered.pop(stream, None)
        while buffered and self._next_sequence[stream] + 1 in buffered:
            self._mint(stream, buffered.pop(self._next_sequence[stream] + 1).claim)
        if buffered:
            self._buffered[stream] = buffered
        return True

    def _mint(self, stream: Tuple[int, ProcessId], claim: SettlementClaim) -> None:
        self._next_sequence[stream] = claim.sequence
        self.accepted += 1
        self._minted += claim.amount
        self._mint_sink(claim)

    @property
    def buffered_count(self) -> int:
        """Verified certificates waiting for an earlier stream slot."""
        return sum(len(pending) for pending in self._buffered.values())

    def minted_amount(self) -> Amount:
        return self._minted


class CompactionGate(_TrustBoundary):
    """Per-source-shard verification of retirement certificates.

    The mirror image of :class:`SettlementInbox`: a record is only retired
    once a valid ``2f+1``-destination-replica quorum certificate advances
    its stream's watermark.  Monotonicity makes replays no-ops, and quorum
    intersection (a correct replica only acknowledges what it minted) keeps
    every accepted certificate off unsettled records.  Withheld acks merely
    leave one stream's records resident.  ``verifiers`` is the key
    directory, one bound certificate check per destination shard.
    ``lookup(claim, first)`` retires the source shard's recorded slots
    ``first..claim.sequence`` of the claim's stream and returns their
    amount, or returns ``None`` and retires nothing if one is missing (a
    genuine quorum never names one).  Like the inbox, the gate counts
    rejections exactly and keeps the last :data:`REJECTED_WINDOW` in
    ``rejected``.
    """

    _WIRING = ("_verifiers", "_lookup")

    def __init__(
        self,
        shard_index: int,
        verifiers: Dict[int, Callable[[SettlementAckClaim, QuorumCertificate], bool]],
        lookup: Callable[[SettlementAckClaim, int], Optional[Amount]],
    ) -> None:
        super().__init__(shard_index, verifiers)
        self._lookup = lookup
        self._watermarks: Dict[Tuple[int, ProcessId], int] = {}
        self.retired_amount: Amount = 0
        self.retired_claims = 0

    def receive(self, certificate: RetirementCertificate) -> bool:
        claim = certificate.claim
        if claim.source_shard != self.shard_index:
            return self._reject(certificate, "misrouted retirement certificate")
        stream = (claim.destination_shard, claim.issuer)
        watermark = self._watermarks.get(stream, 0)
        if claim.sequence <= watermark:
            return self._reject(certificate, "stale retirement watermark")
        verify = self._verifiers.get(claim.destination_shard)
        if verify is None or not verify(claim, certificate.certificate):
            return self._reject(certificate, "invalid ack quorum certificate")
        amount = self._lookup(claim, watermark + 1)
        if amount is None:
            return self._reject(certificate, "unknown settlement records")
        self._watermarks[stream] = claim.sequence
        self.accepted += 1
        self.retired_claims += claim.sequence - watermark
        self.retired_amount += amount
        return True

    def watermark(self, destination_shard: int, issuer: ProcessId) -> int:
        """The stream's retirement watermark (0 = nothing retired yet)."""
        return self._watermarks.get((destination_shard, issuer), 0)


# -- the fabric -------------------------------------------------------------------------------


def _voucher_pair(shard: int, recipient: int, voucher: SettlementVoucher) -> Tuple[int, int]:
    """A voucher rides the pair its sender addressed: ``recipient`` is the
    destination shard a (possibly Byzantine) behaviour sent it to."""
    return shard, recipient


def _ack_pair(shard: int, recipient: int, ack: SettlementAck) -> Tuple[int, int]:
    """An ack rides the pair its (possibly substituted) claim names."""
    return ack.claim.source_shard, ack.claim.destination_shard


class SettlementFabric:
    """What lies between shards: every pair's relay and the transport to it.

    One fabric per cluster.  It sends the vouchers and acks the shards'
    replicas signed (:meth:`dispatch_voucher`, :meth:`dispatch_ack`) to the
    pair's :class:`SettlementRelay`, created on first use, and hands each
    certificate a relay assembles to the shard it licenses.  It decides and
    signs nothing: the shards' inboxes decide the mints and their gates the
    retirements.  Relays hold no wiring: the fabric is every stream's sink,
    and a certificate's claim names the pair it goes back to.  A
    :class:`~repro.byzantine.behaviors.Behavior` per sending replica can
    filter either leg's traffic — the adversarial tests' Byzantine model.
    Beside the relays it keeps the audit's provisions and each in-flight
    slot's first validation time, which each of its acks samples latency
    from until the slot's ack stream certifies past it.
    """

    def __init__(self, shards, scheduler) -> None:
        # The barrier scheduler (``repro.cluster.backends.EpochScheduler``)
        # carries all settlement traffic between barriers.
        self.scheduler = scheduler
        self._shards = {shard.index: shard for shard in shards}
        # Each shard's replica ids: the signers its certificates may carry.
        self._signers = {shard.index: frozenset(range(shard.replicas)) for shard in shards}
        self._relays: Dict[Tuple[int, int], SettlementRelay] = {}
        # ``(leg, shard, replica) -> behaviour`` for ``leg`` "vouchers"/"acks".
        self._behaviors: Dict[Tuple[str, int, ProcessId], Behavior] = {}
        # ``(source, destination, issuer) -> sequence -> time`` of each
        # in-flight slot's first validation, on the source shard's clock.
        self._validated_at: Dict[Tuple[int, int, ProcessId], Dict[int, float]] = {}
        # ``leg -> (source, destination) -> stream``: where an unfiltered
        # voucher or ack goes, resolved on a pair's first use.
        self._routes: Dict[str, Dict[Tuple[int, int], QuorumStream]] = {"vouchers": {}, "acks": {}}
        # The settlement leg's full-history accounting, folded in as
        # certificates assemble and deliver: the audit reads these totals,
        # never a certificate.  Provisions are per destination shard; a
        # ``settle:{s}:{p}`` account names its source.
        self._certified_amount: Amount = 0
        self._provisions: Dict[int, Dict[AccountId, Amount]] = {}
        self.vouchers_dispatched = 0
        self.acks_dispatched = 0
        # Validation-to-mint latency, one sample per ack: O(1) aggregates and
        # a bounded p95 window.
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_max = 0.0
        self._latency_window: deque = deque(maxlen=LATENCY_P95_WINDOW)

    # -- fault injection ----------------------------------------------------------------------

    def set_voucher_behavior(self, shard: int, replica: ProcessId, behavior: Behavior) -> None:
        """Route ``(shard, replica)``'s outgoing vouchers through ``behavior``."""
        self._behaviors[("vouchers", shard, replica)] = behavior

    def set_ack_behavior(self, shard: int, replica: ProcessId, behavior: Behavior) -> None:
        """Route ``(shard, replica)``'s outgoing settlement acks through ``behavior``."""
        self._behaviors[("acks", shard, replica)] = behavior

    # -- voucher and acknowledgement dispatch -------------------------------------------------

    def dispatch_voucher(self, row: tuple) -> None:
        """Send a source shard's voucher row ``(time, shard, index, replica,
        claim, tag)``; a slot's first records its time, unless its stream is
        acknowledged past it (the relay absorbs it at the floor) or its
        destination does not exist."""
        at, shard, _, replica, claim, tag = row
        destination = claim.destination_shard
        relay = self._relays.get((shard, destination))
        if destination in self._shards and claim.sequence > (
            0 if relay is None else relay.acks.floor(claim.issuer)
        ):
            slots = self._validated_at.setdefault((shard, destination, claim.issuer), {})
            slots.setdefault(claim.sequence, at)
        voucher = SettlementVoucher(claim, Signature(replica, tag))
        self.vouchers_dispatched += self._send(
            "vouchers", VOUCHER_DELAY, shard, replica, voucher, at, destination, _voucher_pair,
        )

    def dispatch_ack(self, row: tuple) -> None:
        """Sample the latency of a destination shard's ack row ``(time,
        position, shard, replica, claim, tag)`` and send its ack, as of
        ``time``, the barrier that minted the slot."""
        at, _, shard, replica, claim, tag = row
        slots = self._validated_at.get(
            (claim.source_shard, claim.destination_shard, claim.issuer)
        )
        validated_at = None if slots is None else slots.get(claim.sequence)
        if validated_at is not None:
            self._record_latency(max(0.0, at - validated_at))
        ack = SettlementAck(claim, Signature(replica, tag))
        self.acks_dispatched += self._send(
            "acks", ACK_DELAY, shard, replica, ack, at, claim.source_shard, _ack_pair,
        )

    def _send(
        self,
        leg: str,
        delay: float,
        shard: int,
        replica: ProcessId,
        item,
        emitted_at: float,
        recipient: int,
        pair_of: Callable[[int, int, object], Tuple[int, int]],
    ) -> int:
        """Pass ``item`` from ``(shard, replica)`` through the sender's
        behaviour, if any, and queue what comes out on the ``leg`` stream
        ("vouchers" or "acks") of the pair ``pair_of(shard, recipient,
        message)`` names; returns how many messages were queued.  A message
        for a nonexistent or same-shard pair is dropped on the floor, like
        misaddressed network traffic.
        """
        behavior = self._behaviors.get((leg, shard, replica)) if self._behaviors else None
        if behavior is None:
            pair = pair_of(shard, recipient, item)
            stream = self._routes[leg].get(pair) or self._route(leg, pair)
            if stream is None:
                return 0
            self.scheduler.enqueue(leg, emitted_at + delay, stream.submit, item)
            return 1
        sent = 0
        for out in behavior.transform(replica, recipient, item):
            stream = self._route(leg, pair_of(shard, out.recipient, out.message))
            if stream is not None:
                ready = emitted_at + delay + out.extra_delay
                self.scheduler.enqueue(leg, ready, stream.submit, out.message)
                sent += 1
        return sent

    def _route(self, leg: str, pair: Tuple[int, int]) -> Optional[QuorumStream]:
        """The ``leg`` stream of shard pair ``pair``, indexed on first use;
        ``None`` for a same-shard or nonexistent pair."""
        routes = self._routes[leg]
        stream = routes.get(pair)
        if stream is None:
            source, destination = pair
            shards = self._shards
            if source == destination or source not in shards or destination not in shards:
                return None
            stream = routes[pair] = getattr(self.relay(source, destination), leg)
        return stream

    def _record_latency(self, latency: float) -> None:
        self._latency_count += 1
        self._latency_total += latency
        self._latency_max = max(self._latency_max, latency)
        self._latency_window.append(latency)

    # -- relays and delivery ------------------------------------------------------------------

    def relay(self, source_shard: int, destination_shard: int) -> SettlementRelay:
        """The pair's relay, created on first use."""
        key = (source_shard, destination_shard)
        relay = self._relays.get(key)
        if relay is None:
            source = self._shards[source_shard]
            destination = self._shards[destination_shard]
            relay = self._relays[key] = SettlementRelay(
                source_shard, destination_shard,
                source.scheme, source.quorum_size, self._signers[source_shard],
                destination.scheme, destination.quorum_size, self._signers[destination_shard],
                sink=self,
            )
        return relay

    def on_certified(self, certificate) -> None:
        """Every stream's sink: queue a fresh certificate for delivery one
        relay-to-shard link later.  A retirement watermark first makes both
        streams of its pair, and the slots' validation times, forget what it
        subsumes."""
        claim = certificate.claim
        if type(certificate) is RetirementCertificate:
            relay = self._relays[(claim.source_shard, claim.destination_shard)]
            relay.vouchers.forget(claim.issuer, claim.sequence)
            relay.acks.forget(claim.issuer, claim.sequence)
            key = (claim.source_shard, claim.destination_shard, claim.issuer)
            slots = self._validated_at.pop(key, {})
            slots = {sequence: at for sequence, at in slots.items() if sequence > claim.sequence}
            if slots:
                self._validated_at[key] = slots
            queue = "retirement_certificates"
        else:
            self._certified_amount += claim.amount
            queue = "certificates"
        ready = self.scheduler.now + DELIVERY_DELAY
        self.scheduler.enqueue(queue, ready, self._deliver, certificate)

    def _deliver(self, certificate) -> None:
        """Deliver a matured certificate: count it on its stream (and its
        provision total) and hand it to the shard it licenses."""
        claim = certificate.claim
        relay = self._relays[(claim.source_shard, claim.destination_shard)]
        if type(certificate) is RetirementCertificate:
            relay.acks.deliver(certificate)
            self.scheduler.hand_over(claim.source_shard, certificate)
            return
        relay.vouchers.deliver(certificate)
        provisions = self._provisions.setdefault(claim.destination_shard, {})
        account = settlement_account(claim.source_shard, claim.issuer)
        provisions[account] = provisions.get(account, 0) + claim.amount
        self.scheduler.hand_over(claim.destination_shard, certificate)

    # -- audit views --------------------------------------------------------------------------

    @property
    def relays(self) -> List[SettlementRelay]:
        return [self._relays[key] for key in sorted(self._relays)]

    def provisions_for(self, destination_shard: int) -> Dict[AccountId, Amount]:
        """Initial balances of the destination shard's provision accounts:
        cumulative delivered amounts, the full history, compaction
        notwithstanding.

        The per-shard checker uses these as augmented initial balances, so a
        replica that minted without a delivered certificate shows up as a C2
        balance violation.
        """
        return dict(self._provisions.get(destination_shard, {}))

    def certified_amount(self) -> Amount:
        return self._certified_amount

    def delivered_amount(self) -> Amount:
        return sum(sum(provisions.values()) for provisions in self._provisions.values())

    def certificates_delivered(self) -> int:
        return sum(relay.vouchers.delivered_total for relay in self.relays)

    def resident_journal_records(self) -> int:
        """Certificate objects the settlement layer still holds: those queued
        for delivery plus those buffered in inboxes, each object once however
        many of its shard's inboxes buffer it."""
        buffered = {
            id(certificate)
            for shard in self._shards.values()
            for inbox in shard.inboxes
            for certificates in inbox._buffered.values()
            for certificate in certificates.values()
        }
        queued = self.scheduler.queued
        return queued("certificates") + queued("retirement_certificates") + len(buffered)

    def journal_records_total(self) -> int:
        """Certificates assembled over the run, on both legs: the history
        :meth:`resident_journal_records` is a window of."""
        return sum(
            relay.vouchers.certified_total + relay.acks.certified_total for relay in self.relays
        )

    def pending_claims(self) -> int:
        """Claims stuck below quorum across all relays (withheld vouchers)."""
        return sum(relay.vouchers.pending for relay in self.relays)

    def pending_acks(self) -> int:
        """Ack watermarks stuck below quorum across all relays."""
        return sum(relay.acks.pending for relay in self.relays)

    def retired_claims(self) -> int:
        """Outbound records the shards' gates retired behind their watermarks."""
        return sum(shard.gate.retired_claims for shard in self._shards.values())

    def settlement_latency(self) -> Tuple[int, float, float]:
        """``(samples, average, max)`` source-validation-to-mint latency,
        one sample per ack (each inbox mint), over the whole run."""
        if self._latency_count == 0:
            return (0, 0.0, 0.0)
        return (
            self._latency_count,
            self._latency_total / self._latency_count,
            self._latency_max,
        )

    def settlement_latency_p95(self) -> float:
        """Nearest-rank p95 over the last :data:`LATENCY_P95_WINDOW` latency
        samples (0.0 if none) — the whole-run p95 for shorter runs, bounded
        memory for soaks."""
        return p95(list(self._latency_window))

    def telemetry_sample(self, metrics) -> None:
        """Sample lifecycle volumes, resident certificates and latencies as gauges,
        once at result capture (the hot path carries no extra work)."""
        metrics.set_gauge("settle.vouchers_dispatched", self.vouchers_dispatched)
        metrics.set_gauge("settle.certificates_delivered", self.certificates_delivered())
        metrics.set_gauge("settle.acks_dispatched", self.acks_dispatched)
        metrics.set_gauge("settle.retired_claims", self.retired_claims())
        metrics.set_gauge("settle.resident_journal_records", self.resident_journal_records())
        metrics.set_gauge("settle.journal_records_total", self.journal_records_total())
        metrics.set_gauge("settle.in_flight", self.scheduler.in_flight)
        count, average, maximum = self.settlement_latency()
        metrics.set_gauge("settle.latency_samples", count)
        metrics.set_gauge("settle.latency_avg_s", average)
        metrics.set_gauge("settle.latency_max_s", maximum)
        metrics.set_gauge("settle.latency_p95_s", self.settlement_latency_p95())

    def settlement_messages(self) -> int:
        """Vouchers and acks dispatched plus certificate deliveries."""
        deliveries = sum(
            relay.vouchers.delivered_total * len(self._signers[relay.pair[1]])
            + relay.acks.delivered_total
            for relay in self.relays
        )
        return self.vouchers_dispatched + self.acks_dispatched + deliveries

    def settlement_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the delivered-certificate sequence
        (the full history: signature streams are never compacted)."""
        return [entry for relay in self.relays for entry in relay.vouchers.signature()]

    def retirement_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the delivered retirement watermarks."""
        return [entry for relay in self.relays for entry in relay.acks.signature()]
