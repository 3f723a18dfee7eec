"""Adversarial settlement tests: forged, under-quorum, replayed, withheld.

The settlement inbox is the destination shard's trust boundary, so every
test injects adversarial input there (or upstream of it, via the voucher
behaviours of :mod:`repro.byzantine.behaviors`) and asserts the same three
things the paper's fault-containment framing demands: the bogus input is
rejected, destination balances are untouched, and the cluster audits —
per-shard Definition 1 plus the cross-ledger supply identity — stay clean.

The whole suite is parametrized over the execution backends: every fault
scenario runs under Serial/ProcessPool epoch execution — the pool with its
default workers and with one worker hosting both shards — so fault
containment is exercised under real parallelism, not just serially.  The relay, inbox and voucher
behaviours live in the driver process on every backend (that is the
backends' design: the trust boundary is poked identically everywhere), while
the shard protocol reacting to the faults runs wherever the backend puts it.
"""

import dataclasses
from functools import partial

import pytest

from repro.byzantine.behaviors import (
    Behavior,
    CrashBehavior,
    DelayBehavior,
    DropBehavior,
    EquivocationPlan,
    OutgoingMessage,
    ScriptedBehavior,
)
from repro.cluster.backends import BACKEND_NAMES
from repro.cluster.system import ClusterSystem
from repro.cluster.settlement import (
    REJECTED_WINDOW,
    CompactionGate,
    RetirementCertificate,
    SettlementAck,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
    SettlementInbox,
    SettlementVoucher,
    mint_transfer,
)
from repro.common.rng import SeededRng
from repro.crypto.hashing import content_hash
from repro.crypto.signatures import QuorumCertificate, Signature, SignatureScheme
from repro.workloads.cluster_driver import ClusterSubmission

# Each backend by name, plus "one-worker": the process pool shrunk to a
# single worker that hosts both shards.
DEPLOYMENTS = BACKEND_NAMES + ("one-worker",)


@pytest.fixture(params=DEPLOYMENTS)
def make_system(request, fast_network):
    """A factory for 2-shard systems on the parametrized deployment.

    Created systems are closed at teardown so process-pool workers never
    outlive their test.
    """
    created = []
    if request.param == "one-worker":
        backend, max_workers = "process", 1
    else:
        backend, max_workers = request.param, None

    def factory(seed=3, **kwargs):
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            broadcast="bracha",
            network_config=fast_network,
            backend=backend,
            max_workers=max_workers,
            seed=seed,
            **kwargs,
        )
        created.append(system)
        return system

    yield factory
    for system in created:
        system.close()


def _user_on_shard(router, shard):
    return next(u for u in range(100_000) if router.shard_of(u) == shard)


def _destination_balances(system, shard=1):
    return {
        pid: node.all_known_balances()
        for pid, node in system.shards[shard].nodes.items()
    }


def _claim(system, amount=1_000_000, sequence=1, account="0"):
    return SettlementClaim(
        source_shard=0,
        destination_shard=1,
        issuer=0,
        sequence=sequence,
        account=account,
        amount=amount,
    )


class TestForgedCertificates:
    def test_forged_signatures_mint_nothing(self, make_system):
        """A certificate signed by keys outside the source shard is rejected."""
        system = make_system()
        system.start()
        claim = _claim(system)
        rogue = SignatureScheme(seed=999)  # the attacker's own key universe
        signatures = tuple(rogue.keypair_for(pid).sign(claim) for pid in range(3))
        forged = SettlementCertificate(
            claim=claim, certificate=rogue.make_certificate(claim, signatures)
        )
        before = _destination_balances(system)
        for pid in range(4):
            inbox = system.settlement.inboxes[(1, pid)]
            assert not inbox.receive(forged)
            assert inbox.rejected[-1][1] == "invalid quorum certificate"
            assert inbox.accepted == 0
        assert _destination_balances(system) == before
        report = system.check_definition1()
        assert report.ok, report.violations
        assert report.conservation.minted == 0

    def test_misrouted_certificate_is_rejected(self, make_system):
        system = make_system()
        system.start()
        claim = SettlementClaim(
            source_shard=0, destination_shard=5, issuer=0, sequence=1, account="0", amount=9
        )
        scheme = system.shards[0].scheme
        signatures = tuple(scheme.keypair_for(pid).sign(claim) for pid in range(3))
        certificate = SettlementCertificate(
            claim=claim, certificate=scheme.make_certificate(claim, signatures)
        )
        inbox = system.settlement.inboxes[(1, 0)]
        assert not inbox.receive(certificate)
        assert inbox.rejected[-1][1] == "misrouted certificate"


class TestUnderQuorumCertificates:
    def test_fewer_than_2f_plus_1_signatures_mint_nothing(self, make_system):
        """f+1 = 2 genuine signatures are not a quorum (2f+1 = 3 needed)."""
        system = make_system()
        system.start()
        claim = _claim(system, amount=50)
        scheme = system.shards[0].scheme  # genuine keys, too few of them
        signatures = tuple(scheme.keypair_for(pid).sign(claim) for pid in range(2))
        under = SettlementCertificate(
            claim=claim, certificate=scheme.make_certificate(claim, signatures)
        )
        before = _destination_balances(system)
        for pid in range(4):
            inbox = system.settlement.inboxes[(1, pid)]
            assert not inbox.receive(under)
            assert inbox.rejected[-1][1] == "invalid quorum certificate"
        assert _destination_balances(system) == before
        assert system.check_definition1().ok

    def test_duplicated_signer_does_not_fake_a_quorum(self, make_system):
        """Three signatures from one replica are one signer, not a quorum."""
        system = make_system()
        system.start()
        claim = _claim(system, amount=50)
        scheme = system.shards[0].scheme
        one_signer = tuple(scheme.keypair_for(0).sign(claim) for _ in range(3))
        padded = SettlementCertificate(
            claim=claim, certificate=scheme.make_certificate(claim, one_signer)
        )
        inbox = system.settlement.inboxes[(1, 0)]
        assert not inbox.receive(padded)
        assert inbox.rejected[-1][1] == "invalid quorum certificate"


class TestRejectionFlood:
    """The relay is untrusted like a network, so what an inbox or a gate
    keeps of the certificates it rejects must not grow with the flood: the
    last ``REJECTED_WINDOW`` stay for inspection, the count stays exact."""

    FLOOD = 10_000

    @staticmethod
    def _forged(wrap, claim):
        """``claim`` under a quorum of made-up tags from genuine signer ids."""
        tags = tuple(Signature(signer=pid, tag=f"{pid:x}" * 64) for pid in range(3))
        return wrap(claim=claim, certificate=QuorumCertificate(content_hash(claim), tags))

    def test_a_flood_of_forged_certificates_keeps_a_constant_window(self):
        scheme = SignatureScheme(seed=7)
        verifiers = {
            0: partial(
                scheme.verify_certificate, quorum_size=3, allowed_signers=frozenset(range(4))
            )
        }
        minted = []
        inbox = SettlementInbox(
            1, verifiers, mint_sink=minted.append, on_minted=minted.append, mint_of=mint_transfer
        )
        for sequence in range(1, self.FLOOD + 1):
            claim = SettlementClaim(0, 1, issuer=0, sequence=sequence, account="0", amount=9)
            assert not inbox.receive(self._forged(SettlementCertificate, claim))
        assert inbox.rejected_count == self.FLOOD
        assert len(inbox.rejected) == REJECTED_WINDOW
        assert inbox.rejected[-1][1] == "invalid quorum certificate"
        assert inbox.rejected[-1][0].claim.sequence == self.FLOOD
        assert inbox.rejected[0][0].claim.sequence == self.FLOOD - REJECTED_WINDOW + 1
        assert inbox.accepted == 0 and inbox.buffered_count == 0 and not minted

        gate = CompactionGate(0, verifiers={1: verifiers[0]}, lookup=None, retire_sink=None)
        for sequence in range(1, 2 * REJECTED_WINDOW + 1):
            claim = SettlementAckClaim(0, 1, issuer=0, sequence=sequence)
            assert not gate.receive(self._forged(RetirementCertificate, claim))
        assert gate.rejected_count == 2 * REJECTED_WINDOW
        assert len(gate.rejected) == REJECTED_WINDOW
        assert gate.rejected[-1][1] == "invalid ack quorum certificate"
        assert gate.accepted == 0 and gate.watermark(1, 0) == 0


class TestReplayedCertificates:
    def test_replayed_certificate_mints_exactly_once(self, make_system):
        # The genuine certificate is taken from the delivery queue at a pause
        # after the barrier that assembles it (0.005) and before the one
        # that delivers it (0.010): this test needs the byte-identical
        # original to replay it against the inboxes.
        system = make_system()
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        system.run(until=0.007)
        [genuine] = _queued(system, "certificates")
        assert system.settlement.resident_journal_records() == 1
        system.run()
        vouchers = system.settlement.relay(0, 1).vouchers
        assert vouchers.delivered_total == 1
        assert vouchers.signature() == [dataclasses.astuple(genuine.claim)]
        assert system.settlement.resident_journal_records() == 0
        after_first = _destination_balances(system)
        for pid in range(4):
            inbox = system.settlement.inboxes[(1, pid)]
            assert not inbox.receive(genuine)  # byte-identical replay
            assert inbox.rejected[-1][1] == "replayed certificate"
        assert _destination_balances(system) == after_first
        report = system.check_definition1()
        assert report.ok, report.violations
        assert report.conservation.minted == 9  # once, not twice

    def test_ahead_of_sequence_certificates_wait_for_the_gap_to_fill(self, make_system):
        """A verified certificate that skips ahead is buffered, not minted —
        and mints in order once the missing slot arrives."""
        system = make_system()
        system.start()
        scheme = system.shards[0].scheme

        def certify(claim):
            signatures = tuple(scheme.keypair_for(pid).sign(claim) for pid in range(3))
            return SettlementCertificate(
                claim=claim, certificate=scheme.make_certificate(claim, signatures)
            )

        first = certify(_claim(system, amount=5, sequence=1))
        second = certify(_claim(system, amount=7, sequence=2))
        inbox = system.settlement.inboxes[(1, 0)]
        assert inbox.receive(second)  # accepted but held: stream starts at 1
        assert inbox.buffered_count == 1
        assert inbox.accepted == 0 and not system.scheduler._mints
        assert not inbox.receive(second)  # same slot again is a replay
        assert inbox.rejected[-1][1] == "replayed certificate"
        assert inbox.receive(first)  # the gap fills: both mint, in order
        # The mint sink (the barrier's per-shard mint queue) received both,
        # in order, each as its own transfer.
        assert list(system.scheduler._mints) == [1]
        minted = [transfer for _, transfer in system.scheduler._mints[1]]
        assert [transfer.sequence for transfer in minted] == [1, 2]
        assert inbox.accepted == 2
        assert inbox.buffered_count == 0
        assert inbox.minted_amount() == 12

    def test_unverified_certificates_are_never_buffered(self, make_system):
        """The ahead-of-sequence buffer only holds quorum-verified input, so
        an attacker cannot park forgeries in it."""
        system = make_system()
        system.start()
        rogue = SignatureScheme(seed=999)
        ahead = _claim(system, amount=5, sequence=2)
        signatures = tuple(rogue.keypair_for(pid).sign(ahead) for pid in range(3))
        forged = SettlementCertificate(
            claim=ahead, certificate=rogue.make_certificate(ahead, signatures)
        )
        inbox = system.settlement.inboxes[(1, 0)]
        assert not inbox.receive(forged)
        assert inbox.rejected[-1][1] == "invalid quorum certificate"
        assert inbox.buffered_count == 0


class TestWithheldAndEquivocatedVouchers:
    def test_f_silent_replicas_cannot_block_settlement(self, make_system):
        """With f = 1 silent source replica, the other 3 still form a quorum."""
        system = make_system()
        system.settlement.set_voucher_behavior(0, 3, CrashBehavior(send_limit=0))
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        system.run()
        audit = system.supply_audit()
        assert audit.minted == 9
        assert audit.fully_settled
        assert system.check_definition1().ok

    def test_more_than_f_withheld_vouchers_park_the_credit_safely(self, make_system):
        """Beyond f faults settlement loses liveness but never conservation."""
        system = make_system()
        # EquivocationPlan machinery picks which half of the replica set the
        # adversary controls; we silence that half's vouchers.
        plan = EquivocationPlan.split_evenly(range(4))
        for replica in plan.partition_a:  # 2 of 4 silenced: quorum of 3 is dead
            system.settlement.set_voucher_behavior(0, replica, CrashBehavior(send_limit=0))
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        system.run()
        audit = system.supply_audit()
        assert audit.minted == 0
        assert audit.in_flight == 9  # parked in the source ledger, not lost
        assert audit.conserved
        assert not audit.fully_settled
        assert system.settlement.pending_claims() == 1
        b_account = system.router.local_account_of(b)
        initial = system.shards[1].initial_balances()[b_account]
        assert system.shards[1].nodes[0].balance_of(b_account) == initial
        report = system.check_definition1()
        assert report.ok, report.violations  # Definition 1 is untouched

    def test_equivocating_voucher_cannot_inflate_the_amount(self, make_system):
        """One replica vouching an inflated claim changes nothing: its bogus
        claim never reaches quorum, the honest claim still does."""
        system = make_system()
        bogus_claim = _claim(system, amount=1_000_000, account="0")
        keypair = system.shards[0].scheme.keypair_for(3)
        bogus_voucher = SettlementVoucher(
            claim=bogus_claim, signature=keypair.sign(bogus_claim)
        )
        system.settlement.set_voucher_behavior(
            0, 3, ScriptedBehavior(substitutions={1: bogus_voucher})
        )
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        system.run()
        audit = system.supply_audit()
        assert audit.minted == 9  # the honest amount, not the inflated one
        assert system.settlement.pending_claims() == 1  # the bogus claim, starved
        assert system.check_definition1().ok

    def test_a_malformed_voucher_tag_is_rejected_not_raised(self, make_system):
        """One replica re-sends each voucher with its tag as bytes: the relay
        rejects it like any bad signature, and the honest quorum settles
        every credit — a malformed tag can neither crash the exchange nor
        block a settlement."""

        class BytesTag(Behavior):
            def transform(self, sender, recipient, voucher):
                tag = voucher.signature.tag.encode("ascii")
                signature = Signature(signer=voucher.signature.signer, tag=tag)
                malformed = SettlementVoucher(claim=voucher.claim, signature=signature)
                return [OutgoingMessage(recipient=recipient, message=malformed)]

        system = make_system()
        system.settlement.set_voucher_behavior(0, 3, BytesTag())
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [
                ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=4),
                ClusterSubmission(time=0.002, source_user=a, destination_user=b, amount=6),
            ]
        )
        system.run()
        assert system.settlement.relay(0, 1).vouchers.rejected == 2
        audit = system.supply_audit()
        assert audit.minted == 10
        assert audit.fully_settled
        assert audit.fully_retired
        report = system.check_definition1()
        assert report.ok, report.violations


class TestOutOfOrderCertification:
    def test_certificates_assembled_out_of_order_still_mint_in_order(self, make_system):
        """A Byzantine replica withholding its voucher for claim 1 while
        vouchering claim 2 makes the relay certify 2 before 1; the inboxes
        must hold certificate 2 and mint both once 1 arrives."""
        system = make_system()
        system.start()
        scheme = system.shards[0].scheme
        relay = system.settlement.relay(0, 1)
        first = _claim(system, amount=5, sequence=1)
        second = _claim(system, amount=7, sequence=2)

        def voucher(signer, claim):
            return SettlementVoucher(
                claim=claim, signature=scheme.keypair_for(signer).sign(claim)
            )

        # Claim 2 completes its quorum first (Byzantine replica 3 vouchers it
        # but withholds claim 1, which needs the slower honest replicas).
        for signer in (3, 0, 1):
            relay.vouchers.submit(voucher(signer, second))
        for signer in (0, 1, 2):
            relay.vouchers.submit(voucher(signer, first))
        assert relay.vouchers.certified_total == 2
        system.run()
        # Certified 2 first, so delivered 2 first: the delivery queue keeps
        # certification order.
        assert [entry[3] for entry in relay.vouchers.signature()] == [2, 1]
        account_initial = system.shards[1].initial_balances()["0"]
        # A quorum of destination replicas acknowledged the stream through
        # sequence 2; each ack follows its inbox's in-order mint.
        assert relay.acks.floor(0) == 2
        for pid, node in system.shards[1].nodes.items():
            inbox = system.settlement.inboxes[(1, pid)]
            assert inbox.accepted == 2
            assert inbox.buffered_count == 0
            assert inbox._buffered == {}  # no emptied per-stream buffer left behind
            assert node.balance_of("0") == account_initial + 5 + 7

    def test_selective_voucher_withholding_cannot_wedge_a_stream(self, make_system):
        """End to end: one source replica drops only its *first* voucher;
        every credit of the stream still settles."""

        class DropFirstVoucher(CrashBehavior):
            """Inverse of a crash: silent for the first send, honest after."""

            def transform(self, sender, recipient, message):
                outgoing = super().transform(sender, recipient, message)
                self.send_limit += 1  # re-arm: only the first send is lost
                return outgoing

        system = make_system()
        system.settlement.set_voucher_behavior(0, 3, DropFirstVoucher(send_limit=0))
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [
                ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=4),
                ClusterSubmission(time=0.002, source_user=a, destination_user=b, amount=6),
            ]
        )
        system.run()
        audit = system.supply_audit()
        assert audit.minted == 10
        assert audit.fully_settled
        report = system.check_definition1()
        assert report.ok, report.violations


class TestUncertifiedMints:
    def test_a_mint_without_a_certificate_fails_the_audit(self, make_system):
        """A Byzantine destination replica minting out of thin air is caught:
        its provision account has no certificate backing, so the per-shard
        checker flags the unbacked debit (C2)."""
        system = make_system()
        system.start()
        rogue_mint = mint_transfer(_claim(system, amount=777))
        system.shards[1].nodes[2].mint_certified_credit(rogue_mint)
        report = system.check_definition1()
        assert not report.ok
        assert any("C2" in violation for violation in report.violations)

    def test_a_repeated_mint_is_a_no_op_at_the_node(self, make_system):
        """The inbox replay-protects, so a node never sees the same mint
        twice — but the node must not depend on that: balances are a running
        sum, and a repeat that re-credited (or re-logged, or re-declared the
        credit as a fresh dependency) would mint money the audit cannot see."""
        system = make_system()
        system.start()
        mint = mint_transfer(_claim(system, amount=777))
        def visible(node):
            records = {account: set(held) for account, held in node.hist.items()}
            return node.observation(), node.all_known_balances(), records

        for node in system.shards[1].nodes.values():
            node.mint_certified_credit(mint)
            assert node.balance_of(mint.destination) == 1_000_000 + 777
            once = visible(node)
            node.deps.discard(mint)  # as if a later transfer had already declared it
            node.mint_certified_credit(mint)
            assert visible(node) == once
            assert mint not in node.deps


def _run_one_settled_payment(system, amount=9, pause=None):
    a = _user_on_shard(system.router, 0)
    b = _user_on_shard(system.router, 1)
    system.schedule_submissions(
        [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=amount)]
    )
    system.run(until=pause)
    return system.supply_audit()


def _queued(system, queue):
    """The certificates waiting on one of the scheduler's delivery queues."""
    return [payload for _, _, _, payload in system.scheduler._queues[queue]]


class TestByzantineAcks:
    """The retirement leg under attack: forged, under-quorum, replayed and
    withheld acknowledgements must never retire an unsettled record — and
    must never wedge settlement or the other streams' compaction either."""

    def test_forged_acks_retire_nothing(self, make_system):
        """Acks signed outside the destination replica set (including by the
        *source* shard's own keys) are rejected at the relay and can never
        assemble a retirement certificate."""
        system = make_system()
        system.start()
        relay = system.settlement.relay(0, 1)
        claim = SettlementAckClaim(
            source_shard=0, destination_shard=1, issuer=0, sequence=1
        )
        rogue = SignatureScheme(seed=999)
        source_scheme = system.shards[0].scheme
        for scheme in (rogue, source_scheme):
            for signer in range(4):
                ack = SettlementAck(
                    claim=claim, signature=scheme.keypair_for(signer).sign(claim)
                )
                assert not relay.acks.submit(ack)
        assert relay.acks.pending == 0
        assert relay.acks.certified_total == 0
        assert system.retired_records() == 0

    def test_forged_retirement_certificates_never_reach_the_ledger(self, make_system):
        """Even a certificate injected straight at the compaction gate (as if
        the relay were compromised) is re-verified and rejected."""
        system = make_system()
        audit = _run_one_settled_payment(system)
        assert audit.fully_retired  # the honest lifecycle completed
        retired_before = system.retired_records()
        claim = SettlementAckClaim(
            source_shard=0, destination_shard=1, issuer=0, sequence=50
        )
        rogue = SignatureScheme(seed=999)
        forged = RetirementCertificate(
            claim=claim,
            certificate=rogue.make_certificate(
                claim, tuple(rogue.keypair_for(pid).sign(claim) for pid in range(3))
            ),
        )
        gate = system.settlement.gates[0]
        assert not gate.receive(forged)
        assert gate.rejected[-1][1] == "invalid ack quorum certificate"
        assert system.retired_records() == retired_before
        assert system.check_definition1().ok

    def test_under_quorum_acks_never_retire(self, make_system):
        """With 2 of 4 destination replicas withholding acks, the 2 remaining
        signatures are below the 2f+1 = 3 quorum: the record stays resident,
        settlement itself is untouched, and every audit stays clean."""
        system = make_system()
        for replica in (2, 3):
            system.settlement.set_ack_behavior(1, replica, CrashBehavior(send_limit=0))
        audit = _run_one_settled_payment(system)
        assert audit.minted == 9  # settlement completed regardless
        assert audit.fully_settled
        assert audit.retired == 0  # but nothing could retire
        assert not audit.fully_retired
        assert system.resident_settlement_records() > 0
        assert system.settlement.pending_acks() > 0
        assert audit.conserved and audit.retirement_backed
        assert system.check_definition1().ok

    def test_f_withheld_acks_cannot_block_compaction(self, make_system):
        """One silent destination replica (f = 1) leaves 3 ackers — exactly a
        quorum — so compaction completes as if everyone were honest."""
        system = make_system()
        system.settlement.set_ack_behavior(1, 3, CrashBehavior(send_limit=0))
        audit = _run_one_settled_payment(system)
        assert audit.minted == 9
        assert audit.fully_retired
        assert system.resident_settlement_records() == 0
        assert system.check_definition1().ok

    def test_replayed_retirement_certificates_are_stale_noops(self, make_system):
        # The genuine certificate is taken from the delivery queue at a pause
        # after the barrier that assembles it (0.015) and before the one
        # that delivers it to the gate (0.020).
        system = make_system()
        _run_one_settled_payment(system, pause=0.017)
        [genuine] = _queued(system, "retirement_certificates")
        system.run()
        audit = system.supply_audit()
        assert audit.fully_retired
        relay = system.settlement.relay(0, 1)
        assert relay.acks.certified_total == relay.acks.delivered_total == 1
        assert relay.acks.signature() == [dataclasses.astuple(genuine.claim)]
        gate = system.settlement.gates[0]
        retired_before = system.retired_records()
        assert not gate.receive(genuine)  # byte-identical replay
        assert gate.rejected[-1][1] == "stale retirement watermark"
        assert system.retired_records() == retired_before
        assert system.supply_audit().retirement_backed
        assert system.check_definition1().ok

    def test_inflated_ack_watermarks_cannot_outrun_settlement(self, make_system):
        """A Byzantine destination replica acknowledging a *future* sequence
        gets its bogus claim parked below quorum forever: the honest
        replicas only acknowledge what they minted."""
        system = make_system()
        bogus = SettlementAckClaim(
            source_shard=0, destination_shard=1, issuer=0, sequence=40
        )
        keypair = system.shards[1].scheme.keypair_for(3)
        bogus_ack = SettlementAck(claim=bogus, signature=keypair.sign(bogus))
        # Acks travel back towards the source shard, so the substitution is
        # keyed by recipient shard 0.
        system.settlement.set_ack_behavior(
            1, 3, ScriptedBehavior(substitutions={0: bogus_ack})
        )
        audit = _run_one_settled_payment(system)
        assert audit.minted == 9
        # The honest watermark (sequence 1) still certified with 3 honest
        # acks; the inflated claim is starved below quorum.
        assert audit.fully_retired
        assert system.settlement.pending_acks() == 1
        issuer = system.router.local_process_of(_user_on_shard(system.router, 0))
        assert system.settlement.gates[0].watermark(1, issuer) == 1
        assert audit.retirement_backed
        assert system.check_definition1().ok

    def test_withheld_acks_wedge_only_their_own_stream(self, make_system):
        """Compaction is per stream: a destination shard that never acks one
        source's stream does not stop the reverse direction's lifecycle."""
        system = make_system()
        # Shard 1 never acks (all four replicas silent on the ack leg)...
        for replica in range(4):
            system.settlement.set_ack_behavior(1, replica, CrashBehavior(send_limit=0))
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [
                # ... so A -> B stays resident at shard 0 ...
                ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9),
                # ... while B -> A retires normally at shard 1.
                ClusterSubmission(time=0.03, source_user=b, destination_user=a, amount=3),
            ]
        )
        system.run()
        audit = system.supply_audit()
        assert audit.minted == 12
        assert audit.fully_settled
        assert audit.retired == 3  # only the acked stream compacted
        assert system.shards[0].resident_settlement_records() == 1
        assert system.shards[1].resident_settlement_records() == 0
        assert audit.conserved and audit.retirement_backed
        assert system.check_definition1().ok


class TestVerificationCacheUnderForgery:
    """The verify cache must be un-poisonable: its key covers payload,
    signer set and tags, so warming it with a genuine certificate can never
    make a forged or mutated one pass (nor vice versa)."""

    def _scheme_claim_certificate(self):
        scheme = SignatureScheme(seed=9)
        claim = SettlementClaim(
            source_shard=0, destination_shard=1, issuer=2,
            sequence=1, account="x1:2", amount=25,
        )
        signatures = [scheme.keypair_for(p).sign(claim) for p in range(3)]
        return scheme, claim, scheme.make_certificate(claim, signatures)

    def _warm(self, scheme, claim, certificate):
        for _ in range(3):  # relay -> inbox -> gate
            assert scheme.verify_certificate(claim, certificate, quorum_size=3)

    def test_mutated_claim_misses_the_warm_cache(self):
        import dataclasses

        scheme, claim, certificate = self._scheme_claim_certificate()
        self._warm(scheme, claim, certificate)
        inflated = dataclasses.replace(claim, amount=2_500)
        assert not scheme.verify_certificate(inflated, certificate, quorum_size=3)
        # The genuine verdict is still intact afterwards.
        assert scheme.verify_certificate(claim, certificate, quorum_size=3)

    def test_swapped_tag_misses_the_warm_cache(self):
        from repro.crypto.signatures import QuorumCertificate, Signature

        scheme, claim, certificate = self._scheme_claim_certificate()
        self._warm(scheme, claim, certificate)
        first, second, third = certificate.signatures
        forged = QuorumCertificate(
            payload_hash=certificate.payload_hash,
            signatures=(first, Signature(signer=second.signer, tag=third.tag), third),
        )
        assert not scheme.verify_certificate(claim, forged, quorum_size=3)

    def test_forged_signer_identity_misses_the_warm_cache(self):
        from repro.crypto.signatures import QuorumCertificate, Signature

        scheme, claim, certificate = self._scheme_claim_certificate()
        self._warm(scheme, claim, certificate)
        first, second, third = certificate.signatures
        # A Byzantine relay relabels one honest signature as a fourth signer
        # to fake quorum breadth.
        forged = QuorumCertificate(
            payload_hash=certificate.payload_hash,
            signatures=(first, second, Signature(signer=3, tag=third.tag)),
        )
        assert not scheme.verify_certificate(claim, forged, quorum_size=3)

    def test_replayed_certificate_for_the_next_sequence_is_rejected(self):
        import dataclasses

        scheme, claim, certificate = self._scheme_claim_certificate()
        self._warm(scheme, claim, certificate)
        replay_target = dataclasses.replace(claim, sequence=2)
        assert not scheme.verify_certificate(replay_target, certificate, quorum_size=3)


class _Equivocate(Behavior):
    """Sends every voucher or ack honestly and, a moment later, a conflicting
    one for the same stream slot — an inflated amount, or a watermark past
    anything minted — under the sender's own key."""

    def __init__(self, keypair):
        self._keypair = keypair

    def transform(self, sender, recipient, item):
        claim = item.claim
        if isinstance(item, SettlementVoucher):
            forged = dataclasses.replace(claim, amount=claim.amount + 1_000)
        else:
            forged = dataclasses.replace(claim, sequence=claim.sequence + 5)
        conflicting = type(item)(claim=forged, signature=self._keypair.sign(forged))
        return [
            OutgoingMessage(recipient=recipient, message=item),
            OutgoingMessage(recipient=recipient, message=conflicting, extra_delay=0.0005),
        ]


def _behaviour(kind, system, shard):
    if kind == "delay-0":
        return DelayBehavior(0.0)
    if kind == "delay-50ms":
        return DelayBehavior(0.05)
    if kind == "drop":
        return DropBehavior(0.5, SeededRng(17 + shard))
    return _Equivocate(system.shards[shard].scheme.keypair_for(3))


def _install_on_both_legs(system, kind):
    """Replica 3 of each shard runs ``kind`` on its vouchers and its acks."""
    for shard in (0, 1):
        system.settlement.set_voucher_behavior(shard, 3, _behaviour(kind, system, shard))
        system.settlement.set_ack_behavior(shard, 3, _behaviour(kind, system, shard))


def _pay_back_and_forth(system):
    """Eight cross-shard payments, alternating direction, amounts 1..8."""
    users = [_user_on_shard(system.router, shard) for shard in (0, 1)]
    system.schedule_submissions(
        [
            ClusterSubmission(
                time=0.001 * (1 + index),
                source_user=users[index % 2],
                destination_user=users[1 - index % 2],
                amount=1 + index,
            )
            for index in range(8)
        ]
    )


class TestOnePassExchange:
    """Every settlement delay is positive, so each queue draining once per
    barrier leaves nothing matured behind: after a barrier's two halves
    (deliveries and commands, then vouchers and acks — whether the second
    half ran in the exchange or overlapped the next epoch), no queue holds
    an entry with ``ready <= now`` and no decided ack is left unsigned —
    under delayed, dropped and equivocated vouchers and acks too."""

    @pytest.mark.parametrize("kind", ["delay-0", "delay-50ms", "drop", "equivocate"])
    def test_no_matured_entry_survives_an_exchange(self, make_system, kind, monkeypatch):
        system = make_system()
        _install_on_both_legs(system, kind)
        scheduler = system.scheduler
        settle = scheduler._settle
        barriers = []
        left_behind = []

        def checked(fabric):
            settle(fabric)
            barriers.append(scheduler.now)
            left_behind.extend(
                (name, entry[0], scheduler.now)
                for name, queue in scheduler._queues.items()
                for entry in queue
                if entry[0] <= scheduler.now
            )
            left_behind.extend(("decided acks", ack) for ack in fabric._decided_acks)

        monkeypatch.setattr(scheduler, "_settle", checked)
        _pay_back_and_forth(system)
        system.run()
        assert len(barriers) > 3
        # One second half per barrier, each at its own barrier.
        assert barriers == sorted(set(barriers))
        assert len(barriers) == scheduler.barriers + 1
        assert left_behind == []
        assert scheduler.in_flight == 0
        audit = system.supply_audit()
        assert audit.conserved
        assert audit.minted == sum(range(1, 9))
        assert audit.fully_settled
        report = system.check_definition1()
        assert report.ok, report.violations


class TestAgreementUnderSettlementFaults:
    """A Byzantine settlement replica (within f) on the voucher and the ack
    leg leaves no agreement gap: every shard's replicas validate one set,
    every mint included, and answer every submission."""

    @pytest.mark.parametrize("kind", ["delay-0", "delay-50ms", "drop", "equivocate"])
    def test_agreement_holds_at_quiescence(self, make_system, kind):
        system = make_system()
        _install_on_both_legs(system, kind)
        _pay_back_and_forth(system)
        system.run()
        reports = system.check_agreement()
        assert sorted(reports) == [0, 1]
        for shard, report in reports.items():
            assert report.ok, (shard, report.violations)
        # Each shard validated its four debits and minted the other's four credits.
        assert all(report.checked_transfers == 4 * 8 for report in reports.values())
