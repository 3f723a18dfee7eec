"""Adversarial settlement tests: forged, under-quorum, replayed, withheld.

The settlement inbox is the destination shard's trust boundary, so every
test injects adversarial input there (or upstream of it, via the voucher
behaviours of :mod:`repro.byzantine.behaviors`) and asserts the same three
things the paper's fault-containment framing demands: the bogus input is
rejected, destination balances are untouched, and the cluster audits —
per-shard Definition 1 plus the cross-ledger supply identity — stay clean.

The whole suite is parametrized over the execution backends: every fault
scenario runs under Serial/Thread/ProcessPool epoch execution, so fault
containment is exercised under real parallelism, not just serially.  The relay, inbox and voucher
behaviours live in the driver process on every backend (that is the
backends' design: the trust boundary is poked identically everywhere), while
the shard protocol reacting to the faults runs wherever the backend puts it.
"""

import pytest

from repro.byzantine.behaviors import CrashBehavior, EquivocationPlan, ScriptedBehavior
from repro.cluster import BACKEND_NAMES, ClusterSystem
from repro.cluster.settlement import (
    RetirementCertificate,
    SettlementAck,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
    SettlementConfig,
    SettlementVoucher,
    mint_transfer,
)
from repro.crypto.signatures import SignatureScheme
from repro.workloads.cluster_driver import ClusterSubmission

@pytest.fixture(params=BACKEND_NAMES)
def make_system(request, fast_network):
    """A factory for 2-shard systems on the parametrized backend.

    Created systems are closed at teardown so process-pool workers never
    outlive their test.
    """
    created = []

    def factory(seed=3, **kwargs):
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            broadcast="bracha",
            network_config=fast_network,
            backend=request.param,
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
            assert not inbox.accepted
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


class TestReplayedCertificates:
    def test_replayed_certificate_mints_exactly_once(self, make_system):
        # Compaction off so the genuine certificate stays resident in the
        # relay journal after quiescence (with the lifecycle on it would be
        # compacted behind the retirement watermark) — this test needs the
        # byte-identical original to replay it against the inboxes.
        system = make_system(settlement_config=SettlementConfig(compaction=False))
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        system.run()
        relay = system.settlement.relay(0, 1)
        assert len(relay.delivered) == 1
        genuine = relay.delivered[0]
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
        assert inbox.accepted == []
        assert not inbox.receive(second)  # same slot again is a replay
        assert inbox.rejected[-1][1] == "replayed certificate"
        assert inbox.receive(first)  # the gap fills: both mint, in order
        assert [c.claim.sequence for c in inbox.accepted] == [1, 2]
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
            relay.submit_voucher(voucher(signer, second))
        for signer in (0, 1, 2):
            relay.submit_voucher(voucher(signer, first))
        assert [c.claim.sequence for c in relay.certificates] == [2, 1]
        system.run()
        account_initial = system.shards[1].initial_balances()["0"]
        for pid, node in system.shards[1].nodes.items():
            inbox = system.settlement.inboxes[(1, pid)]
            assert [c.claim.sequence for c in inbox.accepted] == [1, 2]
            assert inbox.buffered_count == 0
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


def _run_one_settled_payment(system, amount=9):
    a = _user_on_shard(system.router, 0)
    b = _user_on_shard(system.router, 1)
    system.schedule_submissions(
        [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=amount)]
    )
    system.run()
    return system.supply_audit()


class TestByzantineAcks:
    """The retirement leg under attack: forged, under-quorum, replayed and
    withheld acknowledgements must never retire an unsettled record — and
    must never wedge settlement or the other streams' compaction either."""

    def test_forged_acks_retire_nothing(self, make_system):
        """Acks signed outside the destination replica set (including by the
        *source* shard's own keys) are rejected at the relay and can never
        assemble a retirement certificate."""
        system = make_system(settlement_config=SettlementConfig(compaction=False))
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
                assert not relay.submit_ack(ack)
        assert relay.pending_acks == 0
        assert not relay.retirement_certificates
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
        system = make_system()
        audit = _run_one_settled_payment(system)
        assert audit.fully_retired
        relay = system.settlement.relay(0, 1)
        assert len(relay.retirement_certificates) == 1
        genuine = relay.retirement_certificates[0]
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

    def test_forgeries_never_register_as_cache_hits(self):
        from repro.obs import MetricsRegistry

        scheme, claim, certificate = self._scheme_claim_certificate()
        registry = MetricsRegistry()
        scheme.metrics = registry
        self._warm(scheme, claim, certificate)
        hits_after_warm = registry.counter("sig.verify_certificate_cached").value
        import dataclasses

        assert not scheme.verify_certificate(
            dataclasses.replace(claim, amount=1), certificate, quorum_size=3
        )
        # The forgery took the full verification path, not the cache.
        assert (
            registry.counter("sig.verify_certificate_cached").value == hits_after_warm
        )


class TestOneCheckAssemblyFallback:
    """Certificate assembly runs one batch verdict; when it fails, the relay
    falls back to per-signature checks, drops exactly the divergent members
    and keeps the honest remainder — so a forged entry that somehow reached
    the pending table can delay a certificate but never corrupt one."""

    def _relay(self, **kwargs):
        """A relay whose dispatched certificates land in ``dispatched``."""
        from repro.cluster.settlement import SettlementRelay

        dispatched = []
        scheme = SignatureScheme(seed=11)
        relay = SettlementRelay(
            source_shard=0,
            destination_shard=1,
            scheme=scheme,
            quorum_size=3,
            allowed_signers=frozenset(range(4)),
            dispatch=dispatched.append,
            retirement_dispatch=dispatched.append,
            config=SettlementConfig(),
            **kwargs,
        )
        return relay, dispatched, scheme

    def _claim(self, sequence=1):
        return SettlementClaim(
            source_shard=0, destination_shard=1, issuer=0,
            sequence=sequence, account="2", amount=5,
        )

    def test_forged_pending_entry_is_dropped_and_honest_quorum_assembles(self):
        from repro.crypto.signatures import Signature

        relay, dispatched, scheme = self._relay()
        claim = self._claim()
        for signer in (0, 1):
            assert relay.submit_voucher(
                SettlementVoucher(claim=claim, signature=scheme.keypair_for(signer).sign(claim))
            )
        # A forged signature lands in the pending table *past* the arrival
        # check (a compromised relay store, not a submitted voucher).
        relay._pending[claim][9] = Signature(signer=9, tag="f" * 64)
        rejected_before = relay.vouchers_rejected
        # The third honest voucher completes a 4-entry set: the batch verdict
        # fails, the fallback drops the forgery, and the honest three still
        # form the certificate in the same step.
        assert relay.submit_voucher(
            SettlementVoucher(claim=claim, signature=scheme.keypair_for(2).sign(claim))
        )
        assert dispatched == relay.certificates and len(dispatched) == 1
        certificate = relay.certificates[0].certificate
        assert {s.signer for s in certificate.signatures} == {0, 1, 2}
        assert relay.vouchers_rejected == rejected_before + 1
        assert scheme.verify_certificate(
            claim, certificate, quorum_size=3, allowed_signers=frozenset(range(4))
        )

    def test_forged_entry_below_quorum_keeps_the_claim_pending(self):
        from repro.crypto.signatures import Signature

        relay, dispatched, scheme = self._relay()
        claim = self._claim()
        assert relay.submit_voucher(
            SettlementVoucher(claim=claim, signature=scheme.keypair_for(0).sign(claim))
        )
        relay._pending[claim][9] = Signature(signer=9, tag="f" * 64)
        # The next honest voucher brings the set to apparent quorum; the
        # batch verdict fails, the forgery is dropped, and the two honest
        # signatures stay pending — no certificate from a fake quorum.
        assert relay.submit_voucher(
            SettlementVoucher(claim=claim, signature=scheme.keypair_for(1).sign(claim))
        )
        assert not relay.certificates and not dispatched
        assert relay.pending_claims == 1
        assert set(relay._pending[claim]) == {0, 1}
        # The genuine third voucher completes the honest quorum.
        assert relay.submit_voucher(
            SettlementVoucher(claim=claim, signature=scheme.keypair_for(2).sign(claim))
        )
        assert len(relay.certificates) == 1

    def test_forged_ack_pending_entry_cannot_certify_retirement(self):
        from repro.crypto.signatures import Signature

        ack_scheme = SignatureScheme(seed=12)
        relay, dispatched, _ = self._relay(
            ack_scheme=ack_scheme,
            ack_quorum_size=3,
            ack_allowed_signers=frozenset(range(4)),
        )
        ack_claim = SettlementAckClaim(
            source_shard=0, destination_shard=1, issuer=0, sequence=1
        )
        for signer in (0, 1):
            assert relay.submit_ack(
                SettlementAck(
                    claim=ack_claim,
                    signature=ack_scheme.keypair_for(signer).sign(ack_claim),
                )
            )
        relay._ack_pending[ack_claim][9] = Signature(signer=9, tag="f" * 64)
        rejected_before = relay.acks_rejected
        assert relay.submit_ack(
            SettlementAck(
                claim=ack_claim,
                signature=ack_scheme.keypair_for(2).sign(ack_claim),
            )
        )
        # Fallback dropped the forgery and the honest quorum still certified
        # the watermark.
        assert relay.acks_rejected == rejected_before + 1
        assert relay.certified_watermark(0) == 1
        certificate = relay.retirement_certificates[-1]
        assert dispatched == [certificate]
        assert {s.signer for s in certificate.certificate.signatures} == {0, 1, 2}
