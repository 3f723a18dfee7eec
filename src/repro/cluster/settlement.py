"""Cross-shard settlement: the full lifecycle of a quorum-certified credit.

PR 1 left cross-shard payments parked: a transfer from shard *s* to shard *d*
debits the source account and credits an external settlement account
``x{d}:a`` inside the *source* shard's ledger — conserved and auditable, but
not spendable at the destination.  This module closes the loop *and then
closes the books*.  Because single-owner asset transfer has consensus
number 1, settlement needs no cross-shard consensus, only *reliable transfer
of a quorum-certified credit* (the set-constrained delivery substrate of
arXiv:1706.05267).  Each per-``(source, destination, issuer)`` stream walks
an explicit state machine::

    vouchered -> certified -> minted -> acknowledged -> retired

1. When a source-shard replica validates a cross-shard transfer, it signs a
   :class:`SettlementClaim` — ``(source shard, destination shard, issuer,
   settlement sequence, account, amount)`` — and submits the resulting
   :class:`SettlementVoucher` to the pair's :class:`SettlementRelay`.  The
   settlement sequence is *per (issuer, destination shard) stream* and every
   correct replica assigns the same one, because Figure 4 validates each
   issuer's transfers in source order.
2. The relay assembles ``2f+1`` matching voucher signatures into a
   :class:`SettlementCertificate` and delivers it to every destination-shard
   replica at the next settlement barrier.  ``f`` Byzantine source replicas
   can neither forge a certificate (they lack ``f+1`` honest keys) nor stall
   one (``2f+1`` honest replicas voucher every validated transfer).
3. Each destination replica's :class:`SettlementInbox` verifies the
   certificate against the source shard's key directory and mints the credit
   into the real account **exactly once**: certificates must arrive in
   per-stream sequence order, so replays and gaps are rejected cold.
4. Every mint makes the destination replica sign a :class:`SettlementAck`
   over the stream's new watermark.  The relay's return leg assembles
   ``2f+1`` *destination*-replica ack signatures into a
   :class:`RetirementCertificate` and hands it to the source shard's
   :class:`CompactionGate`.
5. The gate — the source-side trust boundary, mirror image of the inbox —
   verifies the ack quorum against the destination shard's key directory,
   enforces per-stream watermark monotonicity, and only then lets the source
   replicas *retire* the fully-acknowledged ``x{d}:a`` records behind the
   compaction watermark.  Any ack quorum contains a correct destination
   replica, which only acknowledges what it actually minted, so an
   acknowledged watermark can never run ahead of the minted one: **no
   unsettled record is ever retired**, whatever ``f`` Byzantine replicas do.

The mint is applied through
:meth:`~repro.mp.consensusless_transfer.ConsensuslessTransferNode.mint_certified_credit`
as a transfer from the provision account ``settle:{s}:{p}``, which makes the
credit spendable (it enters the owner's dependency set) and keeps the
two-ledger accounting identity exact: unretired outbound ``x{d}:a`` credits
in source ledgers and negative ``settle:{s}:{p}`` provisions in destination
ledgers net against the retired amount, so ``local + unretired outbound -
(minted - retired)`` equals the initial supply at every instant (see
:meth:`repro.cluster.system.ClusterSystem.supply_audit`).  Retirement is what
keeps long-running ledgers compact: without it the outbound record set grows
with every cross-shard payment ever made; with it the resident records are
bounded by the settlement in-flight window.

Fault injection for tests rides the generic transport behaviours of
:mod:`repro.byzantine.behaviors`: a voucher (or ack) behaviour installed per
replica can silence, delay or substitute its vouchers/acks, which is how the
adversarial settlement suite models withheld and equivocated participants on
both legs of the lifecycle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.byzantine.behaviors import Behavior, OutgoingMessage
from repro.cluster.routing import parse_external_account
from repro.common.errors import ConfigurationError
from repro.common.types import AccountId, Amount, ProcessId, Transfer
from repro.crypto.signatures import KeyPair, QuorumCertificate, Signature

# Recency window of the fabric's p95 settlement-latency report; bounds the
# only remaining per-mint memory in the driver to a constant.
LATENCY_P95_WINDOW = 4096


def p95(samples: Sequence[float]) -> float:
    """The 95th-percentile sample (nearest-rank; deterministic).

    The one definition both consumers share: the fabric's reported
    settlement-latency p95 and the
    :class:`~repro.cluster.backends.LatencyTargetEpochPolicy`'s control
    signal — the benchmark judges the latter against the former, so they
    must never diverge.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[index]


# -- wire format ------------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SettlementClaim:
    """The payload source replicas sign: one cross-shard credit, uniquely keyed.

    ``sequence`` numbers the issuer's cross-shard transfers *towards this
    destination shard* densely (1, 2, ...).  All correct source replicas
    derive the same sequence because they validate the issuer's transfers in
    source order, so their vouchers agree byte-for-byte and a quorum
    certificate over the claim can form.
    """

    source_shard: int
    destination_shard: int
    issuer: ProcessId
    sequence: int
    account: AccountId
    amount: Amount

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"claim[s{self.source_shard}->s{self.destination_shard} "
            f"p{self.issuer}#{self.sequence} {self.account}+{self.amount}]"
        )


@dataclass(frozen=True, slots=True)
class SettlementVoucher:
    """One source replica's signature over a settlement claim."""

    claim: SettlementClaim
    signature: Signature


@dataclass(frozen=True, slots=True)
class SettlementCertificate:
    """A claim plus a quorum certificate of source-replica signatures."""

    claim: SettlementClaim
    certificate: QuorumCertificate


@dataclass(frozen=True, slots=True)
class SettlementAckClaim:
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

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ack[s{self.source_shard}->s{self.destination_shard} "
            f"p{self.issuer}<={self.sequence}]"
        )


@dataclass(frozen=True, slots=True)
class SettlementAck:
    """One destination replica's signature over a stream watermark."""

    claim: SettlementAckClaim
    signature: Signature


@dataclass(frozen=True, slots=True)
class RetirementCertificate:
    """An ack claim plus a quorum certificate of destination signatures.

    The source-side licence to compact: ``2f+1`` destination replicas
    asserting the stream is minted through ``claim.sequence``.  Quorum
    intersection puts a correct replica in every certificate, so the
    watermark can never exceed what was genuinely minted.
    """

    claim: SettlementAckClaim
    certificate: QuorumCertificate


@dataclass
class SettlementConfig:
    """Timing and lifecycle knobs of the settlement fabric.

    ``voucher_delay`` models the replica-to-relay link, ``delivery_delay``
    the relay-to-destination-shard link; both are slower than the intra-shard
    defaults because settlement crosses shard boundaries.  ``ack_delay``
    models the return leg (destination replica back to the relay).
    ``compaction`` switches the acknowledgement/retirement lifecycle; with it
    off, outbound ``x{d}:a`` records accumulate forever (the pre-lifecycle
    behaviour, kept for negative controls and growth measurements).

    ``latency_window`` sizes the fabric's p95 settlement-latency estimator
    (:meth:`SettlementFabric.settlement_latency_p95`).  The estimator is a
    *recency window*: a bounded deque of the most recent ``latency_window``
    source-validation-to-mint samples, over which the nearest-rank p95 is
    computed.  Windowed rather than whole-run so the fabric's per-mint
    memory stays O(window) however long the run soaks; the reported figure
    is therefore "p95 of the last ``latency_window`` mints", which
    coincides with the whole-run p95 for runs shorter than the window and
    ages out old samples on longer ones.  The count/average/max figures
    (:meth:`SettlementFabric.settlement_latency`) remain whole-run O(1)
    aggregates and are unaffected by the window.  Defaults to
    :data:`LATENCY_P95_WINDOW`.
    """

    voucher_delay: float = 0.001
    delivery_delay: float = 0.002
    ack_delay: float = 0.001
    compaction: bool = True
    latency_window: int = LATENCY_P95_WINDOW

    def validate(self) -> None:
        if self.voucher_delay < 0 or self.delivery_delay < 0 or self.ack_delay < 0:
            raise ConfigurationError("settlement delays must be non-negative")
        if self.latency_window < 1:
            raise ConfigurationError("latency_window must be at least 1 sample")


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


# -- the relay --------------------------------------------------------------------------------


class SettlementRelay:
    """Certificate assembly and delivery for one ``source -> destination`` pair.

    The relay is untrusted in the same sense a network is: destination
    replicas re-verify every certificate, so a faulty relay can at worst
    withhold settlement (liveness), never mint money (safety).  Voucher
    signatures are verified on arrival, which keeps *impersonation* out of
    the pending-claim table; a Byzantine source replica signing fabricated
    claims under its own key still gets entries in there, but each such
    claim is capped at the ``f`` Byzantine signers and can never reach the
    ``2f+1`` quorum, so fabrication costs table memory, not money (and
    :attr:`pending_claims` counts genuine withheld settlement and attacker
    junk alike).

    The relay also runs the lifecycle's *return leg*: destination replicas
    submit signed :class:`SettlementAck` watermarks after minting, and a
    ``2f+1`` quorum of them (``ack_quorum_size`` signatures from
    ``ack_allowed_signers``, verified against the destination shard's key
    directory) assembles into a :class:`RetirementCertificate` delivered back
    to the source shard's :class:`CompactionGate`.  The same trust argument
    applies in reverse: the relay can at worst withhold acknowledgements
    (records stay resident — a liveness loss for *compaction* only, never for
    settlement), it can never retire an unsettled record.  The ack table is
    self-compacting: assembling watermark ``w`` drops every pending ack entry
    of that stream at or below ``w``, so relay memory tracks the in-flight
    window, not history.
    """

    def __init__(
        self,
        source_shard: int,
        destination_shard: int,
        scheme,
        quorum_size: int,
        allowed_signers: frozenset,
        dispatch: Callable[["SettlementCertificate"], None],
        retirement_dispatch: Callable[["RetirementCertificate"], None],
        config: Optional[SettlementConfig] = None,
        ack_scheme=None,
        ack_quorum_size: int = 0,
        ack_allowed_signers: frozenset = frozenset(),
    ) -> None:
        if quorum_size <= 0:
            raise ConfigurationError("quorum_size must be positive")
        self.source_shard = source_shard
        self.destination_shard = destination_shard
        self.scheme = scheme
        self.quorum_size = quorum_size
        self.allowed_signers = allowed_signers
        self.config = config or SettlementConfig()
        self.config.validate()
        # How an assembled certificate (and, on the return leg, a retirement
        # certificate) leaves the relay: a hand-off to the barrier scheduler,
        # which brings it back through ``deliver`` / ``deliver_retirement``
        # at the settlement barrier where it matures.
        self._dispatch = dispatch
        self._retirement_dispatch = retirement_dispatch
        self._pending: Dict[SettlementClaim, Dict[ProcessId, Signature]] = {}
        self._assembled: Set[SettlementClaim] = set()
        self._subscribers: List[Callable[[SettlementCertificate], None]] = []
        # ``certificates``/``delivered`` are *journals* of resident
        # certificate objects, not the run's history: once a stream's
        # retirement watermark certifies, every entry at or below it is
        # compacted away (see ``_compact_stream``) — like the ledgers, relay
        # memory tracks the in-flight window.  Everything the audit and
        # fingerprint surfaces need from the full history is accumulated
        # incrementally below: per-account provision totals, delivered
        # amounts/counts, and the deterministic signature streams.
        self.certificates: List[SettlementCertificate] = []
        self.delivered: List[SettlementCertificate] = []
        self.certificates_total = 0
        self.certified_amount_total: Amount = 0
        self.delivered_total = 0
        self.delivered_amount_total: Amount = 0
        self.retirements_delivered_total = 0
        self._provisions: Dict[AccountId, Amount] = {}
        self._delivered_signature: List[tuple] = []
        self._retirement_signature: List[tuple] = []
        self.vouchers_accepted = 0
        self.vouchers_rejected = 0
        # The ack return leg: verification parameters of the *destination*
        # shard (its replicas sign the acks), pending signatures per ack
        # claim, and the per-stream watermark already certified (ack claims
        # at or below it are absorbed as no-ops).
        self.ack_scheme = ack_scheme if ack_scheme is not None else scheme
        self.ack_quorum_size = ack_quorum_size or quorum_size
        self.ack_allowed_signers = ack_allowed_signers or allowed_signers
        self._ack_pending: Dict[SettlementAckClaim, Dict[ProcessId, Signature]] = {}
        self._ack_certified: Dict[ProcessId, int] = {}
        self._retirement_subscribers: List[Callable[[RetirementCertificate], None]] = []
        self.retirement_certificates: List[RetirementCertificate] = []
        self.retirements_delivered: List[RetirementCertificate] = []
        self.acks_accepted = 0
        self.acks_rejected = 0

    def subscribe(self, deliver: Callable[[SettlementCertificate], None]) -> None:
        """Register one destination replica's inbox for certificate delivery."""
        self._subscribers.append(deliver)

    def subscribe_retirement(
        self, deliver: Callable[[RetirementCertificate], None]
    ) -> None:
        """Register the source shard's compaction gate for the return leg."""
        self._retirement_subscribers.append(deliver)

    def submit_voucher(self, voucher: SettlementVoucher) -> bool:
        """Accept one voucher; assemble and ship a certificate at quorum."""
        claim = voucher.claim
        if (
            claim.source_shard != self.source_shard
            or claim.destination_shard != self.destination_shard
            or voucher.signature.signer not in self.allowed_signers
            or not self.scheme.verify(claim, voucher.signature)
        ):
            self.vouchers_rejected += 1
            return False
        self.vouchers_accepted += 1
        if claim.sequence <= self._ack_certified.get(claim.issuer, 0):
            # At or below the stream's certified retirement watermark: the
            # claim was certified, minted, acknowledged and compacted out of
            # ``_assembled`` long ago.  Absorb it like any late voucher —
            # opening a ``_pending`` entry here would both re-grow memory
            # with the run's history (a Byzantine re-signer could park one
            # dead entry per retired claim) and misreport the dead claims as
            # withheld settlement via ``pending_claims``.
            return True
        if claim in self._assembled:
            return True  # late voucher for an already-certified claim
        signatures = self._pending.setdefault(claim, {})
        signatures[voucher.signature.signer] = voucher.signature
        if len(signatures) >= self.quorum_size:
            self._assemble(claim)
        return True

    def _assemble(self, claim: SettlementClaim) -> None:
        signatures = self._pending.pop(claim)
        ordered = tuple(signature for _, signature in sorted(signatures.items()))
        # One-check quorum verification at construction: a single batch
        # verdict covers the whole signer set and primes the certificate
        # cache, so the downstream relay -> inbox -> gate re-checks are
        # O(1) from here on.
        bundle = self.scheme.certify(
            claim, ordered, self.quorum_size, self.allowed_signers
        )
        if bundle is None:
            # Divergence: the batch failed even though every member verified
            # on arrival.  Fall back to per-signature checks, drop the
            # forged members, and keep the honest remainder pending.
            survivors = {
                signer: signature
                for signer, signature in signatures.items()
                if signer in self.allowed_signers
                and self.scheme.verify(claim, signature)
            }
            self.vouchers_rejected += len(signatures) - len(survivors)
            if survivors:
                self._pending[claim] = survivors
                if len(survivors) >= self.quorum_size:
                    self._assemble(claim)  # the honest members already form a quorum
            return
        certificate = SettlementCertificate(claim=claim, certificate=bundle)
        self._assembled.add(claim)
        self.certificates.append(certificate)
        self.certificates_total += 1
        self.certified_amount_total += claim.amount
        self._dispatch(certificate)

    def deliver(self, certificate: SettlementCertificate) -> None:
        """Deliver one assembled certificate to every subscribed inbox.

        Called by the settlement barrier; the certificate lands on the
        relay's ``delivered`` record and on each destination replica's
        inbox, in subscription (replica-id) order.
        """
        claim = certificate.claim
        self.delivered.append(certificate)
        self.delivered_total += 1
        self.delivered_amount_total += claim.amount
        account = settlement_account(claim.source_shard, claim.issuer)
        self._provisions[account] = self._provisions.get(account, 0) + claim.amount
        self._delivered_signature.append(
            (
                claim.source_shard,
                claim.destination_shard,
                claim.issuer,
                claim.sequence,
                claim.account,
                claim.amount,
            )
        )
        for deliver in self._subscribers:
            deliver(certificate)

    # -- the acknowledgement return leg --------------------------------------------------------

    def submit_ack(self, ack: SettlementAck) -> bool:
        """Accept one destination-replica ack; certify retirement at quorum.

        Acks are verified against the *destination* shard's key directory —
        only the replicas that actually mint can acknowledge.  An ack at or
        below the stream's already-certified watermark is absorbed as a no-op
        (late and replayed acks are indistinguishable and equally harmless);
        anything forged, misrouted or signed outside the destination replica
        set is rejected.
        """
        claim = ack.claim
        if (
            claim.source_shard != self.source_shard
            or claim.destination_shard != self.destination_shard
            or claim.sequence <= 0
            or ack.signature.signer not in self.ack_allowed_signers
            or not self.ack_scheme.verify(claim, ack.signature)
        ):
            self.acks_rejected += 1
            return False
        self.acks_accepted += 1
        if claim.sequence <= self._ack_certified.get(claim.issuer, 0):
            return True  # late ack for an already-certified watermark
        signatures = self._ack_pending.setdefault(claim, {})
        signatures[ack.signature.signer] = ack.signature
        if len(signatures) >= self.ack_quorum_size:
            self._assemble_retirement(claim)
        return True

    def _assemble_retirement(self, claim: SettlementAckClaim) -> None:
        signatures = self._ack_pending.pop(claim)
        ordered = tuple(signature for _, signature in sorted(signatures.items()))
        # Same one-check discipline as the settlement leg: one batch verdict
        # at construction, compaction-gate re-checks primed to O(1).
        bundle = self.ack_scheme.certify(
            claim, ordered, self.ack_quorum_size, self.ack_allowed_signers
        )
        if bundle is None:
            survivors = {
                signer: signature
                for signer, signature in signatures.items()
                if signer in self.ack_allowed_signers
                and self.ack_scheme.verify(claim, signature)
            }
            self.acks_rejected += len(signatures) - len(survivors)
            if survivors:
                self._ack_pending[claim] = survivors
                if len(survivors) >= self.ack_quorum_size:
                    self._assemble_retirement(claim)
            return
        certificate = RetirementCertificate(claim=claim, certificate=bundle)
        self._ack_certified[claim.issuer] = claim.sequence
        # Self-compaction: pending acks the new watermark subsumes are dead.
        self._ack_pending = {
            pending: signatures
            for pending, signatures in self._ack_pending.items()
            if pending.issuer != claim.issuer or pending.sequence > claim.sequence
        }
        if self.config.compaction:
            self._compact_stream(claim.issuer, claim.sequence)
        self.retirement_certificates.append(certificate)
        self._retirement_dispatch(certificate)

    def deliver_retirement(self, certificate: RetirementCertificate) -> None:
        """Deliver one retirement certificate to the source's compaction gate.

        Called by the settlement barrier, mirroring :meth:`deliver`.
        """
        claim = certificate.claim
        if self.config.compaction:
            # A stream's watermarks deliver in assembly order, so this
            # delivery subsumes every older one still journaled (several can
            # assemble between barriers and deliver in a burst after the
            # stream's last assembly — assembly-time compaction alone would
            # strand them).
            self.retirements_delivered = [
                r
                for r in self.retirements_delivered
                if r.claim.issuer != claim.issuer or r.claim.sequence >= claim.sequence
            ]
        self.retirements_delivered.append(certificate)
        self.retirements_delivered_total += 1
        self._retirement_signature.append(
            (
                claim.source_shard,
                claim.destination_shard,
                claim.issuer,
                claim.sequence,
            )
        )
        for deliver in self._retirement_subscribers:
            deliver(certificate)

    def _compact_stream(self, issuer: ProcessId, watermark: int) -> None:
        """Drop journal entries the certified watermark subsumes.

        Everything of ``issuer``'s stream at or below ``watermark`` is
        settled *and acknowledged*: the outbound ledger records are about to
        retire, so the matching driver-side certificate objects are pure
        history and leave the ``certificates``/``delivered`` journals (their
        amounts/provisions/signatures were folded into the cumulative
        accumulators at assembly/delivery time).  Replay protection does not
        regress: the inbox's per-stream sequence floor — the actual trust
        boundary — still rejects any re-delivered certificate, and the
        ``_assembled`` entries dropped here can never re-assemble, because
        post-retirement at most ``f`` vouchers (stragglers plus Byzantine
        re-signers) are still outstanding, short of the ``2f+1`` quorum.
        Retirement certificates are watermarks, so only each stream's newest
        one stays resident; journal memory is bounded by the in-flight
        window plus one watermark per stream.
        """
        self.certificates = [
            c
            for c in self.certificates
            if c.claim.issuer != issuer or c.claim.sequence > watermark
        ]
        self.delivered = [
            c
            for c in self.delivered
            if c.claim.issuer != issuer or c.claim.sequence > watermark
        ]
        self._assembled = {
            c for c in self._assembled if c.issuer != issuer or c.sequence > watermark
        }
        # Under-quorum pending entries below the watermark are dead too: a
        # Byzantine variant claim (same stream slot, different content) can
        # never quorum once the genuine claim is retired, and new vouchers
        # for the slot are absorbed by submit_voucher's watermark guard —
        # mirror of the ack-side self-compaction.
        self._pending = {
            claim: signatures
            for claim, signatures in self._pending.items()
            if claim.issuer != issuer or claim.sequence > watermark
        }
        self.retirement_certificates = [
            r
            for r in self.retirement_certificates
            if r.claim.issuer != issuer or r.claim.sequence >= watermark
        ]
        self.retirements_delivered = [
            r
            for r in self.retirements_delivered
            if r.claim.issuer != issuer or r.claim.sequence >= watermark
        ]

    def provisions(self) -> Dict[AccountId, Amount]:
        """Cumulative provision totals per destination ``settle:{s}:{p}``
        account — the full history, compaction notwithstanding."""
        return dict(self._provisions)

    def delivered_signature(self) -> List[tuple]:
        """The full delivered-certificate signature stream (never compacted)."""
        return list(self._delivered_signature)

    def retirement_delivery_signature(self) -> List[tuple]:
        """The full retirement-delivery signature stream (never compacted)."""
        return list(self._retirement_signature)

    @property
    def resident_journal_records(self) -> int:
        """Certificate objects still resident in this relay's journals."""
        return (
            len(self.certificates)
            + len(self.delivered)
            + len(self.retirement_certificates)
            + len(self.retirements_delivered)
        )

    @property
    def pending_claims(self) -> int:
        """Claims with some vouchers but no quorum yet (withheld settlement)."""
        return len(self._pending)

    @property
    def pending_acks(self) -> int:
        """Ack watermarks with some signatures but no quorum yet."""
        return len(self._ack_pending)

    def certified_watermark(self, issuer: ProcessId) -> int:
        """The highest retirement watermark certified for ``issuer``'s stream."""
        return self._ack_certified.get(issuer, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SettlementRelay(s{self.source_shard}->s{self.destination_shard}, "
            f"delivered={len(self.delivered)}, pending={self.pending_claims}, "
            f"retired={len(self.retirements_delivered)})"
        )


# -- the destination inbox --------------------------------------------------------------------


class SettlementInbox:
    """Per-destination-replica verification and exactly-once minting.

    The inbox is the trust boundary: everything upstream (vouchers, relay,
    certificate) is treated as adversarial input.  A certificate mints if and
    only if it carries ``quorum_size`` valid signatures from the source
    shard's replica set and is *next in its stream*: per-source-shard-and-
    issuer sequence numbers make replays detectable and keep minting in
    order.

    Ahead-of-sequence certificates are *buffered*, not dropped.  A Byzantine
    source replica that withholds its voucher for claim ``k`` while
    vouchering ``k+1`` can make the pair's relay certify ``k+1`` first
    (``k`` needs all the honest vouchers, ``k+1`` completes its quorum with
    the Byzantine one); delivery order across one stream is then not
    sequence order, and rejecting the early certificate would lose it
    forever — settlement liveness under ``f`` faults requires holding it
    until the gap fills, exactly like the broadcast layer's source-order
    buffer.  Only *verified* certificates are buffered, and quorum
    intersection guarantees at most one certificate per stream slot, so the
    buffer cannot be poisoned or grown by forgeries.
    """

    def __init__(
        self,
        shard_index: int,
        verify: Callable[[SettlementClaim, QuorumCertificate], bool],
        mint_sink: Callable[[Transfer], None],
        on_minted: Optional[Callable[[SettlementClaim], None]] = None,
    ) -> None:
        self.shard_index = shard_index
        # Where an accepted mint goes: the barrier's mint queue, which ships
        # it to wherever the replica actually executes.  The accept/replay/
        # buffer *decisions* always happen right here, so adversarial tests
        # poke one and the same trust boundary on every backend.
        self._mint_sink = mint_sink
        # Lifecycle hook: fired once per accepted mint, in stream order, so
        # the fabric can emit this replica's signed acknowledgement.
        self._on_minted = on_minted
        self._verify = verify
        self._next_sequence: Dict[Tuple[int, ProcessId], int] = {}
        self._buffered: Dict[Tuple[int, ProcessId], Dict[int, SettlementCertificate]] = {}
        self.accepted: List[SettlementCertificate] = []
        self.rejected: List[Tuple[SettlementCertificate, str]] = []

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
        if not self._verify(claim, certificate.certificate):
            return self._reject(certificate, "invalid quorum certificate")
        buffered = self._buffered.setdefault(stream, {})
        if claim.sequence > expected:
            if claim.sequence in buffered:
                return self._reject(certificate, "replayed certificate")
            buffered[claim.sequence] = certificate
            return True
        self._mint(stream, certificate)
        # The gap just filled: drain any buffered successors in order.
        while self._next_sequence[stream] + 1 in buffered:
            self._mint(stream, buffered.pop(self._next_sequence[stream] + 1))
        return True

    def _mint(self, stream: Tuple[int, ProcessId], certificate: SettlementCertificate) -> None:
        self._next_sequence[stream] = certificate.claim.sequence
        self.accepted.append(certificate)
        self._mint_sink(mint_transfer(certificate.claim))
        if self._on_minted is not None:
            self._on_minted(certificate.claim)

    def _reject(self, certificate: SettlementCertificate, reason: str) -> bool:
        self.rejected.append((certificate, reason))
        return False

    @property
    def buffered_count(self) -> int:
        """Verified certificates waiting for an earlier stream slot."""
        return sum(len(pending) for pending in self._buffered.values())

    def minted_amount(self) -> Amount:
        return sum(certificate.claim.amount for certificate in self.accepted)


# -- the source-side compaction gate ----------------------------------------------------------


class CompactionGate:
    """Per-source-shard verification of retirement certificates.

    The mirror image of :class:`SettlementInbox`: everything upstream — the
    acks, the relay's assembly, the certificate itself — is treated as
    adversarial input, and a record is only retired once a valid
    ``2f+1``-destination-replica quorum certificate advances the stream's
    watermark.  Monotonicity makes replays no-ops; the quorum-intersection
    argument (a correct destination replica only acknowledges what it
    minted) makes it impossible for any certificate accepted here to cover
    an unsettled record.  Withheld or under-quorum acks merely leave records
    resident: compaction loses liveness per stream, settlement and every
    other stream continue untouched.
    """

    def __init__(
        self,
        shard_index: int,
        verify: Callable[[SettlementAckClaim, QuorumCertificate], bool],
        lookup: Callable[[SettlementAckClaim, int], Optional[List[Transfer]]],
        retire_sink: Callable[[List[Transfer]], None],
    ) -> None:
        self.shard_index = shard_index
        self._verify = verify
        # Resolves an accepted watermark advance to the recorded outbound
        # transfers it retires (and prunes them from the fabric's stream
        # tables); returns None when records are missing, which a genuine
        # quorum can never cause (minted implies vouchered implies recorded).
        self._lookup = lookup
        self._retire_sink = retire_sink
        self._watermarks: Dict[Tuple[int, ProcessId], int] = {}
        self.accepted: List[RetirementCertificate] = []
        self.rejected: List[Tuple[RetirementCertificate, str]] = []
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
        if not self._verify(claim, certificate.certificate):
            return self._reject(certificate, "invalid ack quorum certificate")
        transfers = self._lookup(claim, watermark + 1)
        if transfers is None:
            return self._reject(certificate, "unknown settlement records")
        self._watermarks[stream] = claim.sequence
        self.accepted.append(certificate)
        self.retired_claims += len(transfers)
        self.retired_amount += sum(transfer.amount for transfer in transfers)
        self._retire_sink(transfers)
        return True

    def watermark(self, destination_shard: int, issuer: ProcessId) -> int:
        """The stream's retirement watermark (0 = nothing retired yet)."""
        return self._watermarks.get((destination_shard, issuer), 0)

    def _reject(self, certificate: RetirementCertificate, reason: str) -> bool:
        self.rejected.append((certificate, reason))
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactionGate(s{self.shard_index}, retired={self.retired_claims}, "
            f"amount={self.retired_amount})"
        )


# -- the fabric -------------------------------------------------------------------------------


class SettlementFabric:
    """Wires every shard pair's relay, voucher emission and inboxes together.

    One fabric per cluster.  It turns the validation events the barrier
    scheduler replays into ``observe_validation`` into signed vouchers for
    cross-shard credits, lazily creates the :class:`SettlementRelay` per
    ``(source, destination)`` pair, and owns the per-replica
    :class:`SettlementInbox` objects.  Voucher traffic can be filtered
    through a :class:`~repro.byzantine.behaviors.Behavior` per source
    replica, which is how the adversarial tests model Byzantine settlement
    participants without touching the protocol code.
    """

    def __init__(self, shards, scheduler, config: Optional[SettlementConfig] = None) -> None:
        self.config = config or SettlementConfig()
        self.config.validate()
        # The barrier scheduler (``repro.cluster.backends.EpochScheduler``)
        # carries vouchers, certificates, acks, mints and retirements between
        # barriers; signing, behaviours, relays and inbox decisions run here,
        # in the driver, whichever process executes the shards.
        self.scheduler = scheduler
        self._shards = {shard.index: shard for shard in shards}
        self._relays: Dict[Tuple[int, int], SettlementRelay] = {}
        self._out_sequences: Dict[Tuple[int, ProcessId], Dict[Tuple[int, ProcessId], int]] = {}
        self._keypairs: Dict[Tuple[int, ProcessId], KeyPair] = {}
        self._behaviors: Dict[Tuple[int, ProcessId], Behavior] = {}
        self._ack_behaviors: Dict[Tuple[int, ProcessId], Behavior] = {}
        self.inboxes: Dict[Tuple[int, ProcessId], SettlementInbox] = {}
        # Canonical per-stream record of outbound transfers keyed by their
        # settlement sequence: ``(source, destination, issuer) -> sequence ->
        # (transfer, validated_at)``.  Written once per claim (every source
        # replica derives the same stream sequence), read and *pruned* by the
        # compaction gates — driver-side memory therefore tracks the
        # in-flight window, not the run's history, exactly like the ledgers.
        self._stream_records: Dict[
            Tuple[int, int, ProcessId], Dict[int, Tuple[Transfer, float]]
        ] = {}
        self.gates: Dict[int, CompactionGate] = {
            shard.index: CompactionGate(
                shard.index,
                self._verify_ack_certificate,
                self._take_stream_records,
                self._retire_sink(shard.index),
            )
            for shard in shards
        }
        self.vouchers_dispatched = 0
        self.acks_dispatched = 0
        # Settlement-latency accounting (validation at the source to inbox
        # accept at the destination), one sample per mint decision — kept
        # bounded like every other per-delivery structure in the fabric:
        # O(1) aggregates for count/average/max, a bounded recency window
        # for the p95 report, and a small buffer the epoch scheduler drains
        # into latency-aware epoch policies once per barrier.
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_max = 0.0
        self._latency_window: deque = deque(maxlen=self.config.latency_window)
        self._latency_pending: List[float] = []
        for shard in shards:
            for pid in sorted(shard.nodes):
                on_minted = (
                    self._ack_emitter(shard.index, pid) if self.config.compaction else None
                )
                self.inboxes[(shard.index, pid)] = SettlementInbox(
                    shard.index,
                    self._verify_certificate,
                    mint_sink=self._mint_sink(shard.index, pid),
                    on_minted=on_minted,
                )

    def _mint_sink(self, shard_index: int, replica: ProcessId) -> Callable[[Transfer], None]:
        def sink(transfer: Transfer) -> None:
            self.scheduler.enqueue_mint(shard_index, replica, transfer)

        return sink

    def _retire_sink(self, shard_index: int) -> Callable[[List[Transfer]], None]:
        """How an accepted retirement reaches the source shard's replicas:
        queued for the barrier, which ships it to wherever the shard
        executes — same route as the mint sink."""

        def sink(transfers: List[Transfer]) -> None:
            for transfer in transfers:
                self.scheduler.enqueue_retirement(shard_index, transfer)

        return sink

    # -- fault injection ----------------------------------------------------------------------

    def set_voucher_behavior(self, shard: int, replica: ProcessId, behavior: Behavior) -> None:
        """Route ``(shard, replica)``'s outgoing vouchers through ``behavior``."""
        self._behaviors[(shard, replica)] = behavior

    def set_ack_behavior(self, shard: int, replica: ProcessId, behavior: Behavior) -> None:
        """Route ``(shard, replica)``'s outgoing settlement acks through ``behavior``."""
        self._ack_behaviors[(shard, replica)] = behavior

    # -- voucher emission ---------------------------------------------------------------------

    def observe_validation(
        self, shard_index: int, replica: ProcessId, transfer: Transfer, at: float
    ) -> None:
        """Emit a signed voucher if ``transfer`` credits another shard.

        ``at`` is the validation's timestamp on the validating shard's clock,
        as the barrier scheduler replays the collected event.
        """
        parsed = parse_external_account(transfer.destination)
        if parsed is None:
            return
        destination_shard, account = parsed
        if destination_shard == shard_index or destination_shard not in self._shards:
            return
        counters = self._out_sequences.setdefault((shard_index, replica), {})
        stream = (destination_shard, transfer.issuer)
        sequence = counters.get(stream, 0) + 1
        counters[stream] = sequence
        claim = SettlementClaim(
            source_shard=shard_index,
            destination_shard=destination_shard,
            issuer=transfer.issuer,
            sequence=sequence,
            account=account,
            amount=transfer.amount,
        )
        voucher = SettlementVoucher(claim=claim, signature=self._keypair(shard_index, replica).sign(claim))
        # Record the outbound ledger record behind its stream sequence (all
        # replicas derive the same sequence, so the first observer wins); the
        # compaction gate consumes these when the ack quorum retires them.
        self._stream_records.setdefault(
            (shard_index, destination_shard, transfer.issuer), {}
        ).setdefault(sequence, (transfer, at))
        self._dispatch(shard_index, replica, destination_shard, voucher, at)

    def _dispatch(
        self,
        shard_index: int,
        replica: ProcessId,
        destination_shard: int,
        voucher: SettlementVoucher,
        emitted_at: float,
    ) -> None:
        behavior = self._behaviors.get((shard_index, replica))
        if behavior is None:
            outgoing = [OutgoingMessage(recipient=destination_shard, message=voucher)]
        else:
            outgoing = behavior.transform(replica, destination_shard, voucher)
        for out in outgoing:
            if out.recipient == shard_index or out.recipient not in self._shards:
                continue
            relay = self.relay(shard_index, out.recipient)
            self.vouchers_dispatched += 1
            self.scheduler.enqueue_voucher(
                emitted_at + self.config.voucher_delay + out.extra_delay,
                relay,
                out.message,
            )

    def _keypair(self, shard_index: int, replica: ProcessId) -> KeyPair:
        keypair = self._keypairs.get((shard_index, replica))
        if keypair is None:
            keypair = self._shards[shard_index].scheme.keypair_for(replica)
            self._keypairs[(shard_index, replica)] = keypair
        return keypair

    # -- acknowledgement emission -------------------------------------------------------------

    def _ack_emitter(
        self, shard_index: int, replica: ProcessId
    ) -> Callable[[SettlementClaim], None]:
        """The inbox's post-mint hook: sign and dispatch this replica's ack.

        Fired at the inbox's accept decision — the authoritative point of the
        mint on every backend — so acknowledgement timing is identical
        whether the ledger application runs in-process or in a worker.
        """

        def emit(claim: SettlementClaim) -> None:
            ack_claim = SettlementAckClaim(
                source_shard=claim.source_shard,
                destination_shard=claim.destination_shard,
                issuer=claim.issuer,
                sequence=claim.sequence,
            )
            ack = SettlementAck(
                claim=ack_claim,
                signature=self._keypair(shard_index, replica).sign(ack_claim),
            )
            emitted_at = self.scheduler.now
            self._record_latency(claim, emitted_at)
            self._dispatch_ack(shard_index, replica, ack, emitted_at)

        return emit

    def _record_latency(self, claim: SettlementClaim, accepted_at: float) -> None:
        records = self._stream_records.get(
            (claim.source_shard, claim.destination_shard, claim.issuer), {}
        )
        entry = records.get(claim.sequence)
        if entry is None:
            return
        latency = max(0.0, accepted_at - entry[1])
        self._latency_count += 1
        self._latency_total += latency
        self._latency_max = max(self._latency_max, latency)
        self._latency_window.append(latency)
        self._latency_pending.append(latency)

    def _dispatch_ack(
        self,
        shard_index: int,
        replica: ProcessId,
        ack: SettlementAck,
        emitted_at: float,
    ) -> None:
        behavior = self._ack_behaviors.get((shard_index, replica))
        if behavior is None:
            outgoing = [OutgoingMessage(recipient=ack.claim.source_shard, message=ack)]
        else:
            outgoing = behavior.transform(replica, ack.claim.source_shard, ack)
        for out in outgoing:
            claim = out.message.claim
            # Acks ride their stream's own relay pair; anything aimed at a
            # nonexistent pair (or claiming a same-shard stream) is dropped
            # on the floor, like misaddressed network traffic.
            if (
                claim.source_shard == claim.destination_shard
                or claim.source_shard not in self._shards
                or claim.destination_shard not in self._shards
            ):
                continue
            relay = self.relay(claim.source_shard, claim.destination_shard)
            self.acks_dispatched += 1
            self.scheduler.enqueue_ack(
                emitted_at + self.config.ack_delay + out.extra_delay,
                relay,
                out.message,
            )

    # -- relays and verification --------------------------------------------------------------

    def relay(self, source_shard: int, destination_shard: int) -> SettlementRelay:
        """The pair's relay, created (and subscribed) on first use."""
        key = (source_shard, destination_shard)
        relay = self._relays.get(key)
        if relay is None:
            source = self._shards[source_shard]
            destination = self._shards[destination_shard]
            scheduler = self.scheduler

            def dispatch(certificate, _pair=key):
                scheduler.enqueue_certificate(self._relays[_pair], certificate)

            def retirement_dispatch(certificate, _pair=key):
                scheduler.enqueue_retirement_certificate(self._relays[_pair], certificate)

            relay = SettlementRelay(
                source_shard=source_shard,
                destination_shard=destination_shard,
                scheme=source.scheme,
                quorum_size=source.quorum_size,
                allowed_signers=frozenset(range(source.replicas)),
                dispatch=dispatch,
                retirement_dispatch=retirement_dispatch,
                config=self.config,
                ack_scheme=destination.scheme,
                ack_quorum_size=destination.quorum_size,
                ack_allowed_signers=frozenset(range(destination.replicas)),
            )
            for pid in sorted(self._shards[destination_shard].nodes):
                relay.subscribe(self.inboxes[(destination_shard, pid)].receive)
            relay.subscribe_retirement(self.gates[source_shard].receive)
            self._relays[key] = relay
        return relay

    def _verify_certificate(self, claim: SettlementClaim, certificate: QuorumCertificate) -> bool:
        source = self._shards.get(claim.source_shard)
        if source is None:
            return False
        return source.scheme.verify_certificate(
            claim,
            certificate,
            quorum_size=source.quorum_size,
            allowed_signers=frozenset(range(source.replicas)),
        )

    def _verify_ack_certificate(
        self, claim: SettlementAckClaim, certificate: QuorumCertificate
    ) -> bool:
        """Retirement certificates carry *destination*-shard signatures."""
        destination = self._shards.get(claim.destination_shard)
        if destination is None:
            return False
        return destination.scheme.verify_certificate(
            claim,
            certificate,
            quorum_size=destination.quorum_size,
            allowed_signers=frozenset(range(destination.replicas)),
        )

    def _take_stream_records(
        self, claim: SettlementAckClaim, first_sequence: int
    ) -> Optional[List[Transfer]]:
        """Pop the recorded transfers a watermark advance retires, in order.

        Returns ``None`` (and consumes nothing) if any sequence in
        ``[first_sequence, claim.sequence]`` was never recorded — impossible
        for a genuinely quorum-backed watermark, since minting presupposes
        vouchering, which is what records the stream entry.
        """
        records = self._stream_records.get(
            (claim.source_shard, claim.destination_shard, claim.issuer), {}
        )
        span = range(first_sequence, claim.sequence + 1)
        if any(sequence not in records for sequence in span):
            return None
        return [records.pop(sequence)[0] for sequence in span]

    # -- audit views --------------------------------------------------------------------------

    @property
    def relays(self) -> List[SettlementRelay]:
        return [self._relays[key] for key in sorted(self._relays)]

    def provisions_for(self, destination_shard: int) -> Dict[AccountId, Amount]:
        """Initial balances of the destination shard's provision accounts.

        Each delivered certificate provisions its stream's ``settle:{s}:{p}``
        account with the certified amount — the money whose debit the *source*
        shard's Definition 1 check already audits.  The per-shard checker uses
        these as augmented initial balances, so a replica that minted without
        a relay-delivered certificate shows up as a C2 balance violation.
        """
        provisions: Dict[AccountId, Amount] = {}
        for relay in self.relays:
            if relay.destination_shard != destination_shard:
                continue
            for account, amount in relay.provisions().items():
                provisions[account] = provisions.get(account, 0) + amount
        return provisions

    def certified_amount(self) -> Amount:
        return sum(relay.certified_amount_total for relay in self.relays)

    def delivered_amount(self) -> Amount:
        return sum(relay.delivered_amount_total for relay in self.relays)

    def certificates_delivered(self) -> int:
        return sum(relay.delivered_total for relay in self.relays)

    def resident_journal_records(self) -> int:
        """Certificate objects still resident across all relay journals.

        The figure the relay-journal compaction bounds: without it this
        grows with every certificate ever delivered (the pre-compaction
        behaviour, preserved under ``compaction=False``); with it, it tracks
        the settlement in-flight window plus one retirement watermark per
        active stream.
        """
        return sum(relay.resident_journal_records for relay in self.relays)

    def journal_records_total(self) -> int:
        """Cumulative certificate deliveries (the history the journals shed)."""
        return sum(
            relay.certificates_total
            + relay.delivered_total
            + relay.retirements_delivered_total
            for relay in self.relays
        )

    def pending_claims(self) -> int:
        """Claims stuck below quorum across all relays (withheld vouchers)."""
        return sum(relay.pending_claims for relay in self.relays)

    def pending_acks(self) -> int:
        """Ack watermarks stuck below quorum across all relays."""
        return sum(relay.pending_acks for relay in self.relays)

    def retired_amount(self) -> Amount:
        """Money whose outbound records the gates have retired."""
        return sum(gate.retired_amount for gate in self.gates.values())

    def retired_claims(self) -> int:
        """Outbound records retired behind the compaction watermarks."""
        return sum(gate.retired_claims for gate in self.gates.values())

    def settlement_latency(self) -> Tuple[int, float, float]:
        """``(samples, average, max)`` source-validation-to-mint latency.

        One sample per inbox accept decision; the figure the epoch policies
        trade against barrier overhead (wider epochs batch more exchanges
        per barrier but hold vouchers and certificates longer).
        """
        if self._latency_count == 0:
            return (0, 0.0, 0.0)
        return (
            self._latency_count,
            self._latency_total / self._latency_count,
            self._latency_max,
        )

    def settlement_latency_p95(self) -> float:
        """Nearest-rank p95 over the most recent latency samples (0.0 if
        none; window of :data:`LATENCY_P95_WINDOW`).

        The figure :class:`~repro.cluster.backends.LatencyTargetEpochPolicy`
        drives toward its goal; reported next to the average/max so the
        epoch-policy benchmark can show the trade.  Windowed rather than
        whole-run so the fabric's memory stays bounded; for runs shorter
        than the window the two coincide.  The window size is
        :attr:`SettlementConfig.latency_window` (see its docstring for the
        estimator's exact semantics).
        """
        return p95(list(self._latency_window))

    def telemetry_sample(self, metrics) -> None:
        """Sample lifecycle depths and latencies into an obs registry.

        Gauges over the fabric's own cumulative accounting — the
        voucher -> certificate -> mint -> ack -> retire stages each report
        their volume, the journals their resident depth, and the latency
        aggregates land next to them.  Sampled once at result capture, so
        the settlement hot path carries no extra work.
        """
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

    def take_latency_samples(self) -> List[float]:
        """Drain the latency samples recorded since the last call.

        The epoch scheduler feeds these to latency-aware epoch policies
        exactly once each; the samples are differences of barrier times and
        shard-local validation times, so the stream is identical on every
        backend — which keeps latency-driven barrier grids fingerprint-safe.
        """
        fresh = self._latency_pending
        self._latency_pending = []
        return fresh

    def settlement_messages(self) -> int:
        """Vouchers and acks dispatched plus certificate deliveries."""
        deliveries = sum(
            relay.delivered_total * len(self._shards[relay.destination_shard].nodes)
            for relay in self.relays
        )
        retirements = sum(relay.retirements_delivered_total for relay in self.relays)
        return self.vouchers_dispatched + deliveries + self.acks_dispatched + retirements

    def settlement_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the delivered-certificate sequence.

        Read from the relays' incrementally accumulated signature streams,
        which survive journal compaction — the fingerprint always covers the
        full history, however compact the resident journals are.
        """
        signature = []
        for relay in self.relays:
            signature.extend(relay.delivered_signature())
        return signature

    def retirement_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the delivered retirement watermarks.

        Asserted by the equivalence harness next to
        :meth:`settlement_signature`: same seed, same compaction decisions,
        same order — on every backend.
        """
        signature = []
        for key in sorted(self._relays):
            signature.extend(self._relays[key].retirement_delivery_signature())
        return signature

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SettlementFabric(shards={len(self._shards)}, "
            f"relays={len(self._relays)}, delivered={self.certificates_delivered()}, "
            f"retired={self.retired_claims()})"
        )
