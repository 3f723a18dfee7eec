"""Unit and integration tests for the cross-shard settlement fabric."""

import pytest

from repro.cluster import ClusterSystem
from repro.cluster.routing import parse_external_account
from repro.cluster.shard import Shard
from repro.cluster.settlement import (
    SettlementClaim,
    SettlementConfig,
    SettlementRelay,
    SettlementVoucher,
    is_settlement_account,
    mint_transfer,
    settlement_account,
    settlement_issuer,
)
from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
from repro.crypto.signatures import SignatureScheme
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)


def _workload(seed=5, rate=3_000.0, duration=0.03, users=400, **kwargs):
    return cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=users,
            aggregate_rate=rate,
            duration=duration,
            zipf_skew=1.0,
            seed=seed,
            **kwargs,
        )
    )


def _system(fast_network, shards=2, batch=1, seed=11, **kwargs):
    return ClusterSystem(
        shard_count=shards,
        replicas_per_shard=4,
        batch_size=batch,
        broadcast="bracha",
        network_config=fast_network,
        seed=seed,
        **kwargs,
    )


def _user_on_shard(router, shard, exclude=()):
    excluded = {(router.shard_of(u), router.local_account_of(u)) for u in exclude}
    for user in range(100_000):
        if router.shard_of(user) != shard:
            continue
        if (shard, router.local_account_of(user)) in excluded:
            continue
        return user
    raise AssertionError(f"no user found on shard {shard}")


class TestAccountNaming:
    def test_external_account_round_trips_through_parse(self):
        assert parse_external_account("x3:1") == (3, "1")
        assert parse_external_account("x10:alice") == (10, "alice")

    def test_parse_rejects_non_external_names(self):
        for name in ("0", "alice", "x", "x:", "x3", "xa:1", "x-1:0", "settle:1:0"):
            assert parse_external_account(name) is None, name

    def test_settlement_account_naming_and_classification(self):
        account = settlement_account(2, 3)
        assert account == "settle:2:3"
        assert is_settlement_account(account)
        assert not is_settlement_account("x2:3")
        assert not is_settlement_account("0")

    def test_settlement_issuers_are_negative_and_distinct(self):
        issuers = {
            settlement_issuer(shard, pid) for shard in range(8) for pid in range(16)
        }
        assert len(issuers) == 8 * 16
        assert all(issuer < 0 for issuer in issuers)

    def test_mint_transfer_carries_the_claim(self):
        claim = SettlementClaim(
            source_shard=0, destination_shard=1, issuer=2, sequence=4, account="3", amount=7
        )
        transfer = mint_transfer(claim)
        assert transfer.source == settlement_account(0, 2)
        assert transfer.destination == "3"
        assert transfer.amount == 7
        assert transfer.sequence == 4
        assert transfer.issuer == settlement_issuer(0, 2)


class TestSettlementRelay:
    def _relay(self, quorum=3):
        """A relay whose dispatched certificates land in ``dispatched``."""
        dispatched = []
        scheme = SignatureScheme(seed=7)
        relay = SettlementRelay(
            source_shard=0,
            destination_shard=1,
            scheme=scheme,
            quorum_size=quorum,
            allowed_signers=frozenset(range(4)),
            dispatch=dispatched.append,
            retirement_dispatch=dispatched.append,
            config=SettlementConfig(),
        )
        return relay, dispatched, scheme

    def _voucher(self, scheme, signer, claim):
        return SettlementVoucher(claim=claim, signature=scheme.keypair_for(signer).sign(claim))

    def _claim(self, sequence=1, amount=5):
        return SettlementClaim(
            source_shard=0, destination_shard=1, issuer=0, sequence=sequence,
            account="2", amount=amount,
        )

    def test_certificate_assembles_exactly_at_quorum(self):
        relay, dispatched, scheme = self._relay()
        claim = self._claim()
        delivered = []
        relay.subscribe(delivered.append)
        for signer in (0, 1):
            assert relay.submit_voucher(self._voucher(scheme, signer, claim))
        assert not relay.certificates and relay.pending_claims == 1
        assert relay.submit_voucher(self._voucher(scheme, 2, claim))
        assert len(relay.certificates) == 1
        assert relay.pending_claims == 0
        assert dispatched == relay.certificates and not delivered
        for certificate in dispatched:
            relay.deliver(certificate)
        assert [c.claim for c in delivered] == [claim]
        assert relay.delivered == relay.certificates

    def test_late_and_duplicate_vouchers_are_noops(self):
        relay, _, scheme = self._relay()
        claim = self._claim()
        for signer in (0, 0, 1, 2):  # duplicate signer does not count twice
            relay.submit_voucher(self._voucher(scheme, signer, claim))
        assert len(relay.certificates) == 1
        relay.submit_voucher(self._voucher(scheme, 3, claim))  # late
        assert len(relay.certificates) == 1

    def test_rejects_foreign_pairs_signers_and_bad_signatures(self):
        relay, _, scheme = self._relay()
        claim = self._claim()
        wrong_pair = SettlementClaim(
            source_shard=1, destination_shard=0, issuer=0, sequence=1, account="2", amount=5
        )
        assert not relay.submit_voucher(self._voucher(scheme, 0, wrong_pair))
        assert not relay.submit_voucher(self._voucher(scheme, 9, claim))  # not a replica
        rogue = SignatureScheme(seed=999)
        assert not relay.submit_voucher(self._voucher(rogue, 0, claim))
        assert relay.vouchers_rejected == 3
        assert relay.vouchers_accepted == 0

    def test_rejects_degenerate_configuration(self):
        with pytest.raises(ConfigurationError):
            SettlementRelay(0, 1, SignatureScheme(), 0, frozenset(), [].append, [].append)
        with pytest.raises(ConfigurationError):
            SettlementConfig(voucher_delay=-1.0).validate()


class TestValidationReplay:
    """Validation reaches the fabric one way: the shard collects it, the
    barrier replays it into ``observe_validation``, and the voucher waits
    on the scheduler for the next exchange."""

    def test_a_shard_reports_each_cross_shard_validation_once(self, fast_network):
        shard = Shard(index=0, replicas=4, initial_balance=50, network_config=fast_network, seed=1)
        shard.install_validation_collector()
        shard.start()
        shard.submit(0.001, 0, "x1:2", 5)
        shard.submit(0.002, 1, "3", 5)  # a local credit is never reported
        events = shard.advance(None).events
        assert sorted(event.replica for event in events) == [0, 1, 2, 3]
        assert all(event.shard == 0 for event in events)
        assert {event.transfer.destination for event in events} == {"x1:2"}
        assert [event.time for event in events] == sorted(event.time for event in events)
        assert shard.advance(None).events == []

    def test_observe_validation_vouchers_only_cross_shard_credits(self, fast_network):
        system = _system(fast_network)
        fabric = system.settlement
        try:
            for destination in ("2", "x0:2", "x7:2"):  # local, same shard, no such shard
                fabric.observe_validation(
                    0, 0, Transfer("0", destination, 5, issuer=0, sequence=1), at=0.002
                )
            assert fabric.vouchers_dispatched == 0
            assert system.scheduler.in_flight == 0
            credit = Transfer("0", "x1:2", 5, issuer=0, sequence=1)
            for replica in range(4):
                fabric.observe_validation(0, replica, credit, at=0.002)
            assert fabric.vouchers_dispatched == 4
            assert system.scheduler.in_flight == 4
            assert not fabric.relay(0, 1).certificates  # nothing assembles before a barrier
        finally:
            system.close()


class TestSettlementEndToEnd:
    def test_cross_shard_credit_is_minted_at_every_destination_replica(self, fast_network):
        system = _system(fast_network)
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        system.run()
        b_account = system.router.local_account_of(b)
        initial = system.shards[1].initial_balances()[b_account]
        for node in system.shards[1].nodes.values():
            assert node.balance_of(b_account) == initial + 9
        # The provision account runs negative at the destination by the
        # minted amount; the source's outbound record, fully acknowledged by
        # quiescence, has been retired behind the compaction watermark.
        audit = system.supply_audit()
        assert audit.minted == 9
        assert audit.retired == 9
        assert audit.outbound == 0
        assert audit.fully_settled
        assert audit.fully_retired

    def test_minted_funds_are_spendable_beyond_initial_balance(self, fast_network):
        system = _system(fast_network, initial_balance=10, seed=3)
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        c = _user_on_shard(system.router, 1, exclude=(b,))
        system.schedule_submissions(
            [
                ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9),
                # 15 > B's initial 10: only spendable thanks to the mint.
                ClusterSubmission(time=0.05, source_user=b, destination_user=c, amount=15),
            ]
        )
        result = system.run()
        assert result.committed_count == 2
        assert not result.rejected
        report = system.check_definition1()
        assert report.ok, report.violations

    def test_without_settlement_the_credit_stays_parked(self, fast_network):
        """The negative control: PR 1 behaviour is preserved behind the flag."""
        system = _system(fast_network, initial_balance=10, seed=3, settlement=False)
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        c = _user_on_shard(system.router, 1, exclude=(b,))
        system.schedule_submissions(
            [
                ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9),
                ClusterSubmission(time=0.05, source_user=b, destination_user=c, amount=15),
            ]
        )
        result = system.run()
        assert result.committed_count == 1  # the 15-unit spend fails: no mint
        audit = system.supply_audit()
        assert audit.minted == 0
        assert audit.in_flight == 9
        assert not audit.fully_settled
        assert audit.conserved  # the identity holds even unsettled
        assert system.settlement_signature() == []


class TestSupplyAccountingIdentity:
    """The two-ledger accounting identity, asserted rather than prosed.

    ``local + outbound - (minted - retired) == initial_supply`` at every
    instant: mid-flight (outbound credits validated, certificates not yet
    delivered), at quiescence (everything minted, acknowledged and retired,
    in-flight zero), and with settlement disabled (nothing ever minted).
    ``ClusterSystem.total_supply`` sums the same ledgers directly, so it must
    agree with the audit's total at all three points.
    """

    def test_identity_holds_mid_flight_and_at_quiescence(self, fast_network):
        initial = 5_000
        system = _system(fast_network, shards=3, initial_balance=initial)
        system.schedule_submissions(_workload())
        expected = 3 * 4 * initial

        # Stop early: commits have happened but settlement is still in flight
        # for at least some credits (the delivery leg alone takes 2 ms).
        system.run(until=0.004)
        mid = system.supply_audit()
        assert mid.total == expected
        assert system.total_supply() == expected

        system.run()
        audit = system.supply_audit()
        assert audit.total == expected
        assert audit.conserved and audit.ledger_matches_relay
        assert audit.retirement_backed
        assert audit.fully_settled
        assert audit.local == expected  # all money is spendable again
        # The full lifecycle completed: everything minted was acknowledged
        # and its outbound record retired, so the ledgers carry no
        # settlement history at all.
        assert audit.minted == audit.relay_delivered == audit.retired
        assert audit.minted > 0  # the workload did cross shards
        assert audit.outbound == 0
        assert audit.fully_retired
        assert system.resident_settlement_records() == 0
        assert system.retired_records() > 0
        assert system.total_supply() == expected

    def test_audit_matches_relay_bookkeeping(self, fast_network):
        system = _system(fast_network, shards=2)
        system.schedule_submissions(_workload())
        system.run()
        audit = system.supply_audit()
        fabric = system.settlement
        assert audit.relay_delivered == fabric.delivered_amount() == fabric.certified_amount()
        assert fabric.pending_claims() == 0
        assert fabric.certificates_delivered() == len(system.settlement_signature())
        assert fabric.settlement_messages() > 0

    def test_check_definition1_carries_the_conservation_verdict(self, fast_network):
        system = _system(fast_network, shards=2)
        system.schedule_submissions(_workload())
        system.run()
        report = system.check_definition1()
        assert report.ok, report.violations
        assert report.conservation is not None
        assert report.conservation.ok
        assert not report.conservation.violations
        assert bool(report)


class TestWorkloadCrossShardFraction:
    def test_fraction_one_makes_every_payment_cross_shard(self, fast_network):
        system = _system(fast_network, shards=2, seed=11)
        workload = _workload(cross_shard_fraction=1.0, router=system.router)
        scheduled = system.schedule_submissions(workload)
        assert scheduled == len(workload) > 0
        assert system.cross_shard_submissions == scheduled

    def test_fraction_zero_keeps_every_payment_local(self, fast_network):
        system = _system(fast_network, shards=2, seed=11)
        workload = _workload(cross_shard_fraction=0.0, router=system.router)
        system.schedule_submissions(workload)
        assert system.cross_shard_submissions == 0

    def test_intermediate_fraction_is_roughly_realised(self, fast_network):
        system = _system(fast_network, shards=4, seed=11)
        workload = _workload(
            cross_shard_fraction=0.5, router=system.router, rate=6_000.0
        )
        system.schedule_submissions(workload)
        realised = system.cross_shard_submissions / len(workload)
        assert 0.3 < realised < 0.7

    def test_single_shard_cross_draw_degrades_gracefully(self):
        from repro.cluster.routing import ShardRouter

        workload = _workload(
            cross_shard_fraction=1.0, router=ShardRouter(1, 4, salt=11), users=50
        )
        assert workload  # nothing to cross into: the knob is best-effort

    def test_fraction_requires_a_router(self):
        with pytest.raises(ConfigurationError):
            _workload(cross_shard_fraction=0.5)
        with pytest.raises(ConfigurationError):
            from repro.cluster.routing import ShardRouter

            _workload(cross_shard_fraction=1.5, router=ShardRouter(2, 4))
