"""Unit and integration tests for the cross-shard settlement fabric."""

import dataclasses
import functools
import gc
import types

import pytest

from repro.cluster.system import ClusterSystem
from repro.cluster.backends import BACKEND_NAMES, EpochScheduler
from repro.cluster.routing import parse_external_account
from repro.cluster.shard import Shard, ShardSpec
from repro.cluster.settlement import (
    CompactionGate,
    QuorumStream,
    RetirementCertificate,
    SettlementAck,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
    SettlementFabric,
    SettlementInbox,
    SettlementRelay,
    SettlementVoucher,
    is_settlement_account,
    mint_transfer,
    settlement_account,
    settlement_issuer,
)
from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
from repro.crypto.hashing import canonical_bytes
from repro.crypto.signatures import QuorumCertificate, Signature, SignatureScheme
from repro.obs import MetricsRegistry
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


class TestClaimEncodingIsPinned:
    """The two settlement claims carry an explicit ``__repr__`` (the
    generated one is wrapped in ``reprlib.recursive_repr``).  Their repr is
    the canonical encoding every voucher and ack signs, so the bytes and a
    tag under a fixed seed are pinned to the values of the generated repr."""

    def test_a_claims_bytes_and_tag_are_unchanged(self):
        claim = SettlementClaim(
            source_shard=3, destination_shard=1, issuer=2, sequence=17, account="u'7\"é", amount=42
        )
        assert canonical_bytes(claim) == (
            b"o:SettlementClaim(source_shard=3, destination_shard=1, issuer=2, sequence=17, "
            b"account='u\\'7\"\xc3\xa9', amount=42)"
        )
        tag = SignatureScheme(seed=2019).keypair_for(1).sign(claim).tag
        assert tag == "6909dbf466d69fc6dc3ec95e839217cc8696a4876eee728d55ed3bbdd7b41f95"

    def test_an_ack_claims_bytes_and_tag_are_unchanged(self):
        claim = SettlementAckClaim(source_shard=3, destination_shard=1, issuer=2, sequence=17)
        assert canonical_bytes(claim) == (
            b"o:SettlementAckClaim(source_shard=3, destination_shard=1, issuer=2, sequence=17)"
        )
        tag = SignatureScheme(seed=2019).keypair_for(1).sign(claim).tag
        assert tag == "5a49f635b3b3a5262d78b554c1a33d8c6796d6b93cade497eca553d25eea0ea0"


class HandFedLeg:
    """One hand-fed lifecycle leg of a ``0 -> 1`` relay.

    The leg is its relay's sink: fresh certificates collect in
    ``dispatched`` through ``on_certified``, and ``flush()`` hands them back
    to the stream's ``deliver`` in dispatch order — the fabric's and the
    barrier's job.  The voucher leg signs with the source shard's keys, the
    ack leg with the destination shard's.
    """

    def __init__(self, name):
        self.name = name
        self.keys = {"vouchers": SignatureScheme(seed=7), "acks": SignatureScheme(seed=8)}
        self.dispatched = []
        self.relay = SettlementRelay(
            source_shard=0,
            destination_shard=1,
            scheme=self.keys["vouchers"],
            quorum_size=3,
            allowed_signers=frozenset(range(4)),
            ack_scheme=self.keys["acks"],
            ack_quorum_size=3,
            ack_allowed_signers=frozenset(range(4)),
            sink=self,
        )
        self.stream = getattr(self.relay, name)
        self.scheme = self.keys[name]

    def on_certified(self, certificate):
        self.dispatched.append(certificate)

    def flush(self):
        while self.dispatched:
            self.stream.deliver(self.dispatched.pop(0))

    def claim(self, sequence=1, pair=(0, 1), issuer=0):
        if self.name == "vouchers":
            return SettlementClaim(*pair, issuer=issuer, sequence=sequence, account="2", amount=5)
        return SettlementAckClaim(*pair, issuer=issuer, sequence=sequence)

    def certify(self, claim):
        for signer in range(self.stream.quorum_size):
            self.stream.submit(self.item(signer, claim))

    def item(self, signer, claim, scheme=None):
        wrap = SettlementVoucher if self.name == "vouchers" else SettlementAck
        signature = (scheme or self.scheme).keypair_for(signer).sign(claim)
        return wrap(claim=claim, signature=signature)


@pytest.fixture(params=["vouchers", "acks"])
def leg(request):
    return HandFedLeg(request.param)


class TestQuorumStream:
    """The exactness suite of the one quorum-stream type, on both legs."""

    def test_certificate_assembles_exactly_at_quorum(self, leg):
        claim = leg.claim()
        for signer in (0, 1):
            assert leg.stream.submit(leg.item(signer, claim))
        assert leg.stream.certified_total == 0 and leg.stream.pending == 1
        assert leg.stream.submit(leg.item(2, claim))
        assert leg.stream.certified_total == 1
        assert [c.claim for c in leg.dispatched] == [claim]
        assert leg.stream.pending == 0
        assert leg.stream.delivered_total == 0 and leg.stream.signature() == []
        [certificate] = leg.dispatched
        leg.flush()
        assert leg.stream.delivered_total == leg.stream.certified_total == 1
        assert leg.stream.signature() == [dataclasses.astuple(claim)]
        assert {s.signer for s in certificate.certificate.signatures} == {0, 1, 2}

    def test_under_quorum_stays_pending(self, leg):
        claim = leg.claim()
        for signer in (0, 0, 1):  # a duplicate signer does not count twice
            assert leg.stream.submit(leg.item(signer, claim))
        assert leg.stream.pending == 1
        assert not leg.dispatched
        assert leg.stream.certified_total == 0

    def test_late_items_at_or_below_the_floor_are_absorbed(self, leg):
        claim = leg.claim(sequence=1)
        for signer in (0, 1, 2):
            leg.stream.submit(leg.item(signer, claim))
        assert leg.stream.submit(leg.item(3, claim))  # late straggler
        leg.stream.forget(0, 2)  # a retirement watermark through sequence 2
        assert leg.stream.floor(0) == 2
        for signer in range(4):
            assert leg.stream.submit(leg.item(signer, leg.claim(sequence=2)))
        assert leg.stream.certified_total == 1 and leg.stream.pending == 0
        assert (leg.stream.accepted, leg.stream.rejected) == (8, 0)
        assert leg.stream.submit(leg.item(0, leg.claim(sequence=3)))
        assert leg.stream.pending == 1  # above the floor: collected as usual

    def test_rejects_misrouted_foreign_and_non_positive_items(self, leg):
        claim = leg.claim()
        other_leg = next(s for name, s in leg.keys.items() if name != leg.name)
        for item in (
            leg.item(0, leg.claim(pair=(1, 0))),  # misrouted pair
            leg.item(9, claim),  # not a replica
            leg.item(0, claim, scheme=SignatureScheme(seed=999)),  # rogue keys
            leg.item(0, claim, scheme=other_leg),  # the other shard's keys
            leg.item(0, leg.claim(sequence=0)),
            leg.item(0, leg.claim(sequence=-1)),
        ):
            assert not leg.stream.submit(item)
        assert (leg.stream.accepted, leg.stream.rejected) == (0, 6)
        assert leg.stream.pending == 0

    def test_a_forged_pending_member_is_dropped_and_never_certifies(self, leg):
        """Assembly runs one batch verdict; when it fails, the stream falls
        back to per-signature checks, drops exactly the divergent members and
        keeps the honest remainder — so a forged entry that somehow reached
        the pending table (a compromised relay store, not a submitted item)
        can delay a certificate but never corrupt one."""
        claim = leg.claim()
        forged = Signature(signer=9, tag="f" * 64)
        assert leg.stream.submit(leg.item(0, claim))
        leg.stream._pending[claim.issuer][claim][9] = forged
        # Apparent quorum: the batch fails, the forgery goes, and the two
        # honest signatures stay pending — no certificate from a fake quorum.
        assert leg.stream.submit(leg.item(1, claim))
        assert leg.stream.certified_total == 0 and not leg.dispatched
        assert set(leg.stream._pending[claim.issuer][claim]) == {0, 1}
        assert leg.stream.rejected == 1
        # With a forgery planted again, the third honest signature makes a
        # four-entry set: the fallback drops it and the honest three certify
        # in the same step.
        leg.stream._pending[claim.issuer][claim][9] = forged
        assert leg.stream.submit(leg.item(2, claim))
        assert leg.stream.rejected == 2
        [certificate] = leg.dispatched
        assert leg.stream.certified_total == 1
        assert {s.signer for s in certificate.certificate.signatures} == {0, 1, 2}
        assert leg.scheme.verify_certificate(
            claim, certificate.certificate, quorum_size=3, allowed_signers=frozenset(range(4))
        )

    def test_forget_touches_only_its_own_issuer(self, leg):
        """Stream state is per issuer: a watermark for issuer 0 prunes issuer
        0's entries and leaves issuer 1's pending and assembled containers
        as the very same objects, contents unchanged."""
        for issuer in (0, 1):
            leg.certify(leg.claim(sequence=1, issuer=issuer))
            leg.stream.submit(leg.item(0, leg.claim(sequence=2, issuer=issuer)))
        pending, assembled = leg.stream._pending[1], leg.stream._assembled[1]
        pending_before, assembled_before = dict(pending), set(assembled)
        leg.stream.forget(0, 2)
        assert leg.stream._pending[1] is pending and pending == pending_before
        assert leg.stream._assembled[1] is assembled and assembled == assembled_before
        assert 0 not in leg.stream._pending and 0 not in leg.stream._assembled
        assert (leg.stream.floor(0), leg.stream.floor(1)) == (2, 0)
        assert leg.stream.pending == 1

    def test_a_drained_issuer_keeps_only_its_floor(self, leg):
        """An issuer's containers go once nothing of its stream is left
        above the floor: the pending table's when its last claim assembles,
        both when a watermark subsumes what remains."""
        leg.certify(leg.claim(sequence=1))
        assert 0 not in leg.stream._pending  # nothing else was pending
        assert leg.stream._assembled == {0: {leg.claim(sequence=1)}}
        leg.certify(leg.claim(sequence=2))
        leg.stream.submit(leg.item(0, leg.claim(sequence=3)))
        leg.stream.forget(0, 1)  # claim 2 and the pending claim 3 stay
        assert leg.stream._assembled == {0: {leg.claim(sequence=2)}}
        assert set(leg.stream._pending[0]) == {leg.claim(sequence=3)}
        leg.stream.forget(0, 3)
        assert leg.stream._pending == {} and leg.stream._assembled == {}
        assert leg.stream._floors == {0: 3}


class TestSettlementRelay:
    def test_rejects_degenerate_configuration(self):
        """A zero quorum on either leg is refused (the ack leg has no default)."""
        signers = frozenset(range(4))
        for voucher_quorum, ack_quorum in ((0, 3), (3, 0)):
            with pytest.raises(ConfigurationError):
                SettlementRelay(
                    0, 1, SignatureScheme(), voucher_quorum, signers,
                    SignatureScheme(), ack_quorum, signers, sink=None,
                )


# Shared objects a relay may name but does not own: walked into, they lead
# to every method of the cluster.
_SHARED_WITH_A_RELAY = (
    SettlementCertificate, RetirementCertificate, SettlementClaim, SettlementAckClaim,
    SignatureScheme, SettlementInbox, CompactionGate, SettlementFabric, type,
)


def _reachable_from(root, shared=_SHARED_WITH_A_RELAY):
    """Every object reachable from ``root`` short of the ``shared`` ones."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _live(kinds):
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) in kinds]


class TestRelaysAreData:
    """The fabric dispatches by shard pair, so a relay and its two streams
    hold data: no closure, bound method or subscriber list per relay."""

    def test_no_callable_is_reachable_from_a_relay(self, fast_network):
        system = _system(fast_network, shards=3)
        system.schedule_submissions(_workload(cross_shard_fraction=0.5, router=system.router))
        system.run()
        relays = system.settlement.relays
        assert len(relays) == 6 and system.supply_audit().fully_retired
        callables = (
            types.FunctionType, types.MethodType, types.BuiltinMethodType, types.CellType,
            functools.partial,
        )
        for relay in relays:
            for obj in _reachable_from(relay):
                assert not isinstance(obj, callables), obj
        for relay in relays:
            for obj in (relay, relay.vouchers, relay.acks):
                assert not hasattr(obj, "__dict__")
        assert isinstance(relays[0].vouchers, QuorumStream)

    def test_a_quiescent_run_keeps_small_relays_and_no_certificate(self, fast_network):
        """After a fault-free run drains, every relay reaches at most 6
        GC-tracked objects (itself, its two streams and their signature
        lists; per-issuer containers go as the streams drain), and no
        certificate made during the run is still alive: the streams keep
        floors, totals and claim fields, never a certificate."""
        certificates = (QuorumCertificate, SettlementCertificate, RetirementCertificate)
        before = _live(certificates)
        earlier = {id(obj) for obj in before}
        system = _system(fast_network, shards=16, seed=7)
        try:
            system.schedule_submissions(
                _workload(seed=7, rate=20_000.0, cross_shard_fraction=0.25, router=system.router)
            )
            system.run()
            assert system.supply_audit().fully_retired
            fabric = system.settlement
            assert fabric.certificates_delivered() > 100 and len(fabric.relays) > 50
            assert fabric.resident_journal_records() == 0
            fresh = [obj for obj in _live(certificates) if id(obj) not in earlier]
            assert fresh == []
            # A stream's signer set is its shard's: one frozenset the fabric
            # hands every relay of that shard.
            shared = _SHARED_WITH_A_RELAY + (frozenset,)
            tracked = max(
                sum(gc.is_tracked(obj) for obj in _reachable_from(relay, shared))
                for relay in fabric.relays
            )
            assert tracked <= 6
        finally:
            system.close()


class TestValidationReplay:
    """Validation reaches the fabric one way: the shard collects it, the
    barrier replays it into ``observe_validation``, and the voucher waits
    on the scheduler for the next exchange."""

    def test_a_shard_reports_each_cross_shard_validation_once(self, fast_network):
        shard = Shard(
            ShardSpec(index=0, replicas=4, initial_balance=50, network_config=fast_network, seed=1)
        )
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

    def test_advancing_to_quiescence_equals_advancing_past_the_last_event(
        self, fast_network
    ):
        """``advance(None)`` is ``advance`` to a horizon beyond every event:
        one simulator call, the same report either way."""
        spec = ShardSpec(
            index=0, replicas=4, initial_balance=50, network_config=fast_network, seed=1
        )
        reports = []
        for horizon in (None, 10.0):
            shard = Shard(spec)
            shard.install_validation_collector()
            shard.start()
            shard.submit(0.001, 0, "x1:2", 5)
            shard.submit(0.002, 1, "3", 5)
            reports.append(shard.advance(horizon))
        assert reports[0] == reports[1]
        assert reports[0].events and reports[0].pending_events == 0
        assert reports[0].next_event_time is None

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
            assert fabric.relay(0, 1).vouchers.certified_total == 0  # nothing assembles before a barrier
        finally:
            system.close()

    def test_a_late_validation_of_a_retired_slot_records_nothing(self, fast_network):
        """A replica that validates a slot after the gate retired its stream
        through it still signs and sends its voucher — the relay absorbs it
        at the floor — but the fabric makes no record of the slot: nothing
        would ever pop one at or below the watermark."""
        system = _system(fast_network)
        fabric = system.settlement
        try:
            credit = Transfer("0", "x1:2", 5, issuer=0, sequence=1)
            for replica in range(3):  # a quorum; replica 3 lags behind
                fabric.observe_validation(0, replica, credit, at=0.002)
            system.run()
            assert fabric.gates[0].watermark(1, 0) == 1
            assert fabric._stream_records.get((0, 1, 0), {}) == {}
            vouchers = fabric.relay(0, 1).vouchers
            accepted = vouchers.accepted
            fabric.observe_validation(0, 3, credit, at=system.scheduler.now)
            assert fabric.vouchers_dispatched == 4
            assert fabric._stream_records.get((0, 1, 0), {}) == {}
            system.run()
            assert vouchers.accepted == accepted + 1  # absorbed at the floor
            assert vouchers.certified_total == 1 and vouchers._pending == {}
            assert (0, 1, 0) not in fabric._stream_records
        finally:
            system.close()

    def test_a_quiescent_run_leaves_no_stream_record(self, fast_network):
        """Every slot record is popped as its stream retires, and a stream's
        dict goes with its last record: 16 shards, 25 % cross-shard, 3 000
        payments/s per shard for 0.1 s, drained, keep none."""
        system = _system(fast_network, shards=16, batch=8, seed=7)
        try:
            system.schedule_submissions(
                _workload(
                    seed=7, rate=16 * 3_000.0, duration=0.1,
                    cross_shard_fraction=0.25, router=system.router,
                )
            )
            system.run()
            assert system.supply_audit().fully_retired
            assert system.settlement.retired_claims() > 500
            assert system.settlement._stream_records == {}
        finally:
            system.close()


class TestConflictingClaims:
    """Two claims for one ``(issuer, sequence)`` slot, as replicas that
    validated different transfers at it would voucher them: the voucher
    quorum lets at most one certify, whichever replica observed first."""

    def _vouch(self, fabric, winners):
        """Replicas below ``winners`` validate one credit at slot 1, the rest
        a conflicting one; returns both claims' fields."""
        credit = Transfer("0", "x1:2", 5, issuer=0, sequence=1)
        conflicting = Transfer("0", "x1:3", 7, issuer=0, sequence=1)
        for replica in range(4):
            fabric.observe_validation(
                0, replica, credit if replica < winners else conflicting, at=0.002
            )
        return (0, 1, 0, 1, "2", 5), (0, 1, 0, 1, "3", 7)

    def test_a_two_two_split_certifies_neither(self, fast_network):
        system = _system(fast_network)
        try:
            fabric = system.settlement
            self._vouch(fabric, winners=2)
            system.run()
            vouchers = fabric.relay(0, 1).vouchers
            assert vouchers.certified_total == vouchers.delivered_total == 0
            assert vouchers.pending == 2 and vouchers.signature() == []
            assert all(inbox.accepted == 0 for inbox in fabric.inboxes.values())
        finally:
            system.close()

    def test_a_three_one_split_certifies_one_and_forgets_the_loser(self, fast_network):
        system = _system(fast_network)
        try:
            fabric = system.settlement
            winner, loser = self._vouch(fabric, winners=3)
            vouchers = fabric.relay(0, 1).vouchers
            system.run(until=0.005)  # the barrier that drains the vouchers
            assert vouchers.certified_total == 1
            [pending] = vouchers._pending[0]
            assert dataclasses.astuple(pending) == loser
            system.run()
            assert vouchers.certified_total == 1 and vouchers.signature() == [winner]
            assert [fabric.inboxes[(1, pid)].accepted for pid in range(4)] == [1, 1, 1, 1]
            # The winner's ack watermark forgot the slot, the loser with it.
            assert vouchers.floor(0) == 1
            assert vouchers.pending == 0 and vouchers._pending == {}
        finally:
            system.close()


class TestSettlementQueues:
    def test_one_pass_drains_the_queues_in_lifecycle_order(self):
        """Every queue entry carries its handler.  A barrier drains each
        queue once, each by ``(ready, order)``: certificates and retirement
        certificates in its first half; vouchers, the decided acks' dispatch
        and acks in its second.  Work a handler queues waits for a later
        barrier — on a queue this barrier already drained, or maturing after
        ``now`` on one it has yet to drain — and each queue is counted under
        its own name."""
        metrics = MetricsRegistry()
        scheduler = EpochScheduler(epoch=0.005, metrics=metrics)
        ran = []

        class Fabric:
            def dispatch_acks(self):
                ran.append("acks dispatched")

        def certify(name):
            ran.append(name)
            scheduler.enqueue("acks", scheduler.now + 0.001, ran.append, "ack queued by a certificate")

        def retire(name):
            ran.append(name)
            scheduler.enqueue("certificates", 0.0, ran.append, "certificate queued by a retirement")

        def acknowledge(name):
            ran.append(name)
            scheduler.enqueue("vouchers", 0.0, ran.append, "voucher queued by an ack")

        scheduler.enqueue("acks", 0.0, acknowledge, "ack")
        scheduler.enqueue("retirement_certificates", 0.0, retire, "retirement certificate")
        scheduler.enqueue("certificates", 0.0, certify, "certificate")
        scheduler.enqueue("vouchers", 0.0005, ran.append, "not yet matured")
        scheduler.enqueue("vouchers", 0.0, ran.append, "second voucher")
        scheduler.enqueue("vouchers", -0.001, ran.append, "first voucher")
        assert scheduler.in_flight == 6
        assert scheduler._release(backend=None) == 0  # no commands
        assert ran == ["certificate", "retirement certificate"]
        scheduler._settle(Fabric())
        assert ran[2:] == ["first voucher", "second voucher", "acks dispatched", "ack"]
        assert scheduler.in_flight == 4
        counts = {
            name: metrics.counter(f"exchange.{name}").value
            for name in ("vouchers", "certificates", "acks", "retirement_certificates")
        }
        assert counts == {
            "vouchers": 2, "certificates": 1, "acks": 1, "retirement_certificates": 1,
        }
        # The next barrier runs what waited, still by (ready, order).
        scheduler.now = 0.005
        scheduler._release(backend=None)
        scheduler._settle(Fabric())
        assert ran[6:] == [
            "certificate queued by a retirement",
            "voucher queued by an ack",
            "not yet matured",
            "acks dispatched",
            "ack queued by a certificate",
        ]
        assert scheduler.in_flight == 0


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

    def test_a_delivered_certificate_mints_one_shared_transfer(self, fast_network):
        """Every destination replica verifies the certificate, and the mints
        of one delivery share one ledger transfer, equal to the claim's."""
        system = _system(fast_network)
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        system.run()
        nodes = system.shards[1].nodes.values()
        mints = [
            entry.transfer for node in nodes for entry in node._validated_log
            if entry.transfer.issuer < 0
        ]
        assert len(mints) == len(nodes)
        assert all(mint is mints[0] for mint in mints)
        certificate = system.settlement.relay(0, 1).vouchers.signature()
        assert len(certificate) == 1
        assert mints[0] == mint_transfer(SettlementClaim(*certificate[0]))
        assert [inbox.accepted for (shard, _), inbox in system.settlement.inboxes.items()
                if shard == 1] == [1] * len(nodes)

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

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_before_its_mint_the_credit_stays_parked(self, fast_network, backend):
        """Paused before the barrier that mints it, A's payment sits in the
        source shard's ``x{d}:a`` account: B cannot spend it yet, and the
        identity holds unsettled.  Resumed, the mint lands and B's
        over-balance spend commits — on either backend."""
        with _system(fast_network, initial_balance=10, seed=3, backend=backend) as system:
            a = _user_on_shard(system.router, 0)
            b = _user_on_shard(system.router, 1)
            c = _user_on_shard(system.router, 1, exclude=(b,))
            system.schedule_submissions(
                [
                    ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9),
                    ClusterSubmission(time=0.05, source_user=b, destination_user=c, amount=15),
                ]
            )
            # The payment commits by the 5 ms barrier; its voucher (1 ms) and
            # certificate (2 ms) legs put the mint on the 10 ms barrier.
            paused = system.run(until=0.006)
            assert paused.committed_count == 1
            audit = system.supply_audit()
            assert audit.minted == 0
            assert audit.in_flight == 9
            assert audit.conserved  # the identity holds even unsettled
            assert not audit.fully_settled
            assert system.settlement_signature() == []

            result = system.run()
            assert result.committed_count == 2
            assert not result.rejected
            assert system.supply_audit().fully_settled


class TestSupplyAccountingIdentity:
    """The two-ledger accounting identity, asserted rather than prosed.

    ``local + outbound - (minted - retired) == initial_supply`` at every
    instant: mid-flight (outbound credits validated, certificates not yet
    delivered) and at quiescence (everything minted, acknowledged and
    retired, in-flight zero).  ``ClusterSystem.total_supply`` sums the same
    ledgers directly, so it must agree with the audit's total at both points.
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
