"""The settlement lifecycle: acks, retirement certificates, ledger compaction.

Unit tests of the lifecycle pieces (the relay's ack return leg, the
:class:`CompactionGate` watermark machine, node-level record retirement) plus
the end-to-end contracts: fully-acknowledged outbound records leave the
ledgers while every balance stays intact, the extended supply identity holds
at every instant, resident certificate objects track the in-flight window,
the extended spec/snapshot state pickles and rehydrates, pause/resume
equals a continuous run with compaction active, and a parked retirement the
issuer's stream has moved past is swept.
"""

import gc
import inspect
import pickle

import pytest

from repro.cluster.shard import Shard, ShardSpec
from repro.cluster.system import ClusterSystem
from repro.cluster.settlement import (
    CompactionGate,
    QuorumStream,
    RetirementCertificate,
    SettlementAck,
    SettlementAckClaim,
    SettlementCertificate,
    SettlementClaim,
    SettlementRelay,
    SettlementVoucher,
)
from repro.common.types import Transfer
from repro.crypto import hashing
from repro.crypto.signatures import SignatureScheme
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)


def _system(fast_network, shards=2, seed=11, **kwargs):
    return ClusterSystem(
        shard_count=shards,
        replicas_per_shard=4,
        network_config=fast_network,
        seed=seed,
        **kwargs,
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


def _user_on_shard(router, shard):
    return next(u for u in range(100_000) if router.shard_of(u) == shard)


def _ack_claim(sequence=1):
    return SettlementAckClaim(
        source_shard=0, destination_shard=1, issuer=0, sequence=sequence
    )


class _Sink:
    """A hand-fed relay's sink, doing the fabric's part of each leg: a
    certified retirement watermark makes both streams forget what it
    subsumes, then every fresh certificate waits in ``dispatched`` until
    ``flush()`` delivers it on its stream, in dispatch order — the barrier's
    delivery."""

    def __init__(self):
        self.relay = None
        self.dispatched = []

    def on_certified(self, certificate):
        if isinstance(certificate, RetirementCertificate):
            claim = certificate.claim
            self.relay.vouchers.forget(claim.issuer, claim.sequence)
            self.relay.acks.forget(claim.issuer, claim.sequence)
        self.dispatched.append(certificate)

    def flush(self):
        while self.dispatched:
            certificate = self.dispatched.pop(0)
            leg = "acks" if isinstance(certificate, RetirementCertificate) else "vouchers"
            getattr(self.relay, leg).deliver(certificate)


def _relay(source_scheme=None, dest_scheme=None):
    """A relay plus ``flush()``, which delivers every certificate it
    dispatched in dispatch order (see :class:`_Sink`)."""
    dest_scheme = dest_scheme or SignatureScheme(seed=8)
    sink = _Sink()
    sink.relay = SettlementRelay(
        source_shard=0,
        destination_shard=1,
        scheme=source_scheme or SignatureScheme(seed=7),
        quorum_size=3,
        allowed_signers=frozenset(range(4)),
        ack_scheme=dest_scheme,
        ack_quorum_size=3,
        ack_allowed_signers=frozenset(range(4)),
        sink=sink,
    )
    return sink.relay, sink.flush, dest_scheme


def _ack(scheme, signer, claim):
    return SettlementAck(claim=claim, signature=scheme.keypair_for(signer).sign(claim))


class TestRelayAckLeg:
    """Ack-leg behaviour beyond the shared quorum-stream suite
    (``tests/cluster/test_settlement.py::TestQuorumStream``)."""

    def test_a_certified_watermark_subsumes_lower_pending_acks(self):
        """Replica acks trickle out of order; certifying watermark 2 drops
        the now-dead pending entries for watermark 1 (self-compaction)."""
        relay, _, scheme = _relay()
        first, second = _ack_claim(1), _ack_claim(2)
        relay.acks.submit(_ack(scheme, 0, first))
        relay.acks.submit(_ack(scheme, 1, first))
        for signer in (0, 1, 2):
            relay.acks.submit(_ack(scheme, signer, second))
        assert relay.acks.floor(0) == 2
        assert relay.acks.pending == 0  # watermark-1 entries were dropped


class TestCompactionGate:
    """The gate's lookup retires the source shard's own records, one
    ``(destination, issuer, first, last)`` span per accepted watermark."""

    def _gate(self):
        scheme = SignatureScheme(seed=8)
        retired = []
        # The recorded slots of stream (destination 1, issuer 0): their amounts.
        records = dict.fromkeys(range(1, 6), 5)

        def verify(claim, certificate):
            return scheme.verify_certificate(
                claim, certificate, quorum_size=3, allowed_signers=frozenset(range(4))
            )

        def lookup(claim, first_sequence):
            span = range(first_sequence, claim.sequence + 1)
            if any(sequence not in records for sequence in span):
                return None
            retired.append((claim.destination_shard, claim.issuer, first_sequence, claim.sequence))
            return sum(records.pop(sequence) for sequence in span)

        # The key directory: destination shard 1's bound certificate check.
        gate = CompactionGate(0, {1: verify}, lookup)
        return gate, scheme, records, retired

    def _certificate(self, scheme, claim):
        signatures = tuple(scheme.keypair_for(pid).sign(claim) for pid in range(3))
        return RetirementCertificate(
            claim=claim, certificate=scheme.make_certificate(claim, signatures)
        )

    def test_watermark_advance_retires_the_covered_prefix(self):
        gate, scheme, records, retired = self._gate()
        assert gate.receive(self._certificate(scheme, _ack_claim(2)))
        assert retired == [(1, 0, 1, 2)]
        assert gate.watermark(1, 0) == 2
        assert gate.retired_claims == 2
        assert gate.retired_amount == 10
        # A later watermark only retires the *new* span.
        assert gate.receive(self._certificate(scheme, _ack_claim(4)))
        assert retired == [(1, 0, 1, 2), (1, 0, 3, 4)]
        assert gate.retired_claims == 4 and gate.retired_amount == 20
        assert sorted(records) == [5]

    def test_stale_watermarks_are_rejected_and_retire_nothing(self):
        gate, scheme, _, retired = self._gate()
        assert gate.receive(self._certificate(scheme, _ack_claim(3)))
        before = list(retired)
        for stale in (1, 2, 3):
            assert not gate.receive(self._certificate(scheme, _ack_claim(stale)))
            assert gate.rejected[-1][1] == "stale retirement watermark"
        assert retired == before

    def test_forged_and_under_quorum_certificates_are_rejected(self):
        gate, scheme, _, retired = self._gate()
        claim = _ack_claim(2)
        rogue = SignatureScheme(seed=999)
        forged = RetirementCertificate(
            claim=claim,
            certificate=rogue.make_certificate(
                claim, tuple(rogue.keypair_for(pid).sign(claim) for pid in range(3))
            ),
        )
        under = RetirementCertificate(
            claim=claim,
            certificate=scheme.make_certificate(
                claim, tuple(scheme.keypair_for(pid).sign(claim) for pid in range(2))
            ),
        )
        for bogus in (forged, under):
            assert not gate.receive(bogus)
            assert gate.rejected[-1][1] == "invalid ack quorum certificate"
        assert retired == []
        assert gate.watermark(1, 0) == 0

    def test_misrouted_certificates_are_rejected(self):
        gate, scheme, _, retired = self._gate()
        foreign = SettlementAckClaim(
            source_shard=7, destination_shard=1, issuer=0, sequence=1
        )
        assert not gate.receive(self._certificate(scheme, foreign))
        assert gate.rejected[-1][1] == "misrouted retirement certificate"
        assert retired == []

    def test_a_destination_outside_the_key_directory_is_invalid(self):
        """A watermark certified by a shard the gate holds no keys for fails
        the certificate check, however well it is signed."""
        gate, scheme, _, retired = self._gate()
        stranger = SettlementAckClaim(source_shard=0, destination_shard=5, issuer=0, sequence=1)
        assert not gate.receive(self._certificate(scheme, stranger))
        assert gate.rejected[-1][1] == "invalid ack quorum certificate"
        assert retired == []

    def test_unknown_records_refuse_to_retire(self):
        """A watermark beyond anything recorded consumes nothing — the
        defensive guard behind the quorum argument."""
        gate, scheme, records, retired = self._gate()
        assert not gate.receive(self._certificate(scheme, _ack_claim(9)))
        assert gate.rejected[-1][1] == "unknown settlement records"
        assert retired == []
        assert len(records) == 5  # lookup consumed nothing
        assert gate.watermark(1, 0) == 0


class TestNodeRetirement:
    def _node(self, fast_network):
        system = _system(fast_network, seed=3)
        system.start()
        return system, system.shards[0].nodes[0]

    def test_retiring_a_validated_record_compacts_and_preserves_balances(
        self, fast_network
    ):
        # A bare shard has no settlement fabric: the record is never
        # acknowledged, so it stays resident and we can retire it by hand.
        shard = Shard(ShardSpec(index=0, network_config=fast_network, seed=3))
        shard.start()
        shard.submit(0.001, 0, "x1:2", 9)
        shard.advance(None)
        node = shard.nodes[0]
        outbound_account = next(
            account for account in node.hist if account.startswith("x")
        )
        record = next(iter(node.hist[outbound_account]))
        balances_before = node.all_known_balances()
        node.retire_settled([record])
        assert node.retired_records == 1
        assert shard.resident_settlement_records() == 0
        assert node.retired_outbound_total() == 9
        balances_after = node.all_known_balances()
        # The outbound account vanished; every other balance is untouched.
        assert outbound_account not in balances_after
        balances_before.pop(outbound_account)
        assert balances_after == balances_before

    def test_retirement_of_an_unvalidated_record_waits_for_validation(
        self, fast_network
    ):
        system, node = self._node(fast_network)
        ghost = Transfer("0", "x1:2", 5, issuer=0, sequence=1)
        node.retire_settled([ghost])
        assert node.retired_records == 0
        assert ghost in node._pending_retirements
        # Balances are untouched while the retirement is parked.
        assert node.balance_of("0") == 1_000_000

    def test_retirement_is_idempotent_per_record(self, fast_network):
        system, node = self._node(fast_network)
        record = Transfer("0", "x1:2", 5, issuer=0, sequence=1)
        node.book.record(record)
        assert (node.balance_of("0"), node.balance_of("x1:2")) == (999_995, 5)
        node.retire_settled([record])
        assert node.retired_records == 1
        # A duplicate retire command parks (the record is gone from hist)
        # rather than double-compacting the balance.
        node.retire_settled([record])
        assert node.retired_records == 1
        assert node.retired_outbound_total() == 5
        assert (node.balance_of("0"), node.balance_of("x1:2")) == (999_995, 0)


class TestLifecycleEndToEnd:
    def test_quiescent_ledgers_carry_no_settlement_history(self, fast_network):
        system = _system(fast_network)
        system.schedule_submissions(_workload())
        system.run()
        audit = system.supply_audit()
        assert audit.minted > 0
        assert audit.fully_retired
        assert system.resident_settlement_records() == 0
        assert system.retired_records() > 0
        # Every replica of every source shard compacted identically.
        for shard in system.shards:
            counts = {pid: node.retired_records for pid, node in shard.nodes.items()}
            assert len(set(counts.values())) == 1
        report = system.check_definition1()
        assert report.ok, report.violations

    def test_identity_holds_at_every_sampled_instant(self, fast_network):
        system = _system(fast_network, shards=3)
        system.schedule_submissions(_workload())
        expected = 3 * 4 * 1_000_000
        for step in range(1, 13):
            system.run(until=step * 0.004)
            audit = system.supply_audit()
            assert audit.total == expected, f"identity broken at step {step}"
            assert audit.retirement_backed
        system.run()
        assert system.supply_audit().fully_retired

    def test_retirement_stream_is_deterministic_per_seed(self, fast_network):
        def run_once():
            system = _system(fast_network)
            system.schedule_submissions(_workload())
            system.run()
            return system.retirement_signature()

        first, second = run_once(), run_once()
        assert first == second
        assert first  # the lifecycle actually ran

    def test_settlement_latency_stats_accumulate(self, fast_network):
        system = _system(fast_network)
        system.schedule_submissions(_workload())
        system.run()
        samples, average, worst = system.settlement.settlement_latency()
        assert samples > 0
        assert 0 < average <= worst


class TestOneClaimPerSlot:
    """Replicas that agree on a stream slot sign one claim object: the
    source shard records the slot's :class:`SettlementClaim` with its first
    observer, and the fabric its :class:`SettlementAckClaim`, so each is
    encoded once however many replicas sign it, while every replica still
    signs with its own key and the relay checks every item."""

    def _quiescent_run(self, fast_network, monkeypatch):
        """A fully cross-shard toy run to quiescence; returns the system,
        every voucher and ack the relays were handed, and the payload types
        of every canonical encoding made during the run."""
        system = _system(fast_network)
        system.schedule_submissions(
            _workload(cross_shard_fraction=1.0, router=system.router)
        )
        submitted = []
        submit = QuorumStream.submit

        def recording_submit(stream, item):
            submitted.append(item)
            return submit(stream, item)

        encoded = []
        encode = hashing._canonical_bytes
        depth = [0]

        def counting_encode(payload):
            # The encoder recurses through this module global: count only the
            # outermost call, one per encoded payload.
            if depth[0] == 0:
                encoded.append(type(payload))
            depth[0] += 1
            try:
                return encode(payload)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(QuorumStream, "submit", recording_submit)
        monkeypatch.setattr(hashing, "_canonical_bytes", counting_encode)
        system.run()
        vouchers = [item for item in submitted if isinstance(item, SettlementVoucher)]
        acks = [item for item in submitted if isinstance(item, SettlementAck)]
        return system, vouchers, acks, encoded

    @staticmethod
    def _by_slot(items):
        slots = {}
        for item in items:
            claim = item.claim
            key = (claim.source_shard, claim.destination_shard, claim.issuer, claim.sequence)
            slots.setdefault(key, []).append(item)
        return slots

    def test_a_slots_vouchers_share_one_claim_but_not_a_signer(
        self, fast_network, monkeypatch
    ):
        system, vouchers, _, _ = self._quiescent_run(fast_network, monkeypatch)
        slots = self._by_slot(vouchers)
        assert len(slots) == system.settlement.certificates_delivered() > 0
        replicas = len(system.shards[0].nodes)
        for items in slots.values():
            assert len({id(item.claim) for item in items}) == 1
            assert len({item.signature.signer for item in items}) == replicas
            assert len({item.signature.tag for item in items}) == replicas
        assert system.supply_audit().fully_retired

    def test_a_watermarks_acks_share_one_ack_claim(self, fast_network, monkeypatch):
        system, _, acks, _ = self._quiescent_run(fast_network, monkeypatch)
        slots = self._by_slot(acks)
        assert len(slots) == system.settlement.certificates_delivered()
        replicas = len(system.shards[1].nodes)
        for items in slots.values():
            assert len({id(item.claim) for item in items}) == 1
            assert len({item.signature.signer for item in items}) == replicas

    def test_at_most_two_encodings_per_slot_plus_the_broadcast_payloads(
        self, fast_network, monkeypatch
    ):
        system, _, _, encoded = self._quiescent_run(fast_network, monkeypatch)
        slots = system.settlement.certificates_delivered()
        claims = sum(kind in (SettlementClaim, SettlementAckClaim) for kind in encoded)
        assert claims <= 2 * slots
        assert len(encoded) <= 2 * slots + system.broadcast_instances()
        report = system.check_definition1()
        assert report.ok, report.violations


class TestLifecycleStateTravel:
    """Satellite: the extended spec/snapshot state crosses process boundaries."""

    def test_extended_snapshot_round_trips_through_pickle(self, fast_network):
        system = _system(fast_network, seed=7, backend="serial")
        workload = _workload(seed=7, users=60, rate=1_500.0, duration=0.02)
        system.schedule_submissions(workload)
        system.run()
        shard = system.shards[0]
        snapshot = shard.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.index == snapshot.index
        for pid, node_snapshot in snapshot.nodes.items():
            assert clone.nodes[pid].retired_offsets == node_snapshot.retired_offsets
            assert clone.nodes[pid].retired_outbound == node_snapshot.retired_outbound
            assert (
                clone.nodes[pid].pending_retirements
                == node_snapshot.pending_retirements
            )
            assert clone.nodes[pid].retired_records == node_snapshot.retired_records
        system.close()

    def test_spec_round_trips_and_rebuilds_lifecycle_capable_shards(
        self, fast_network
    ):
        spec = ShardSpec(index=1, replicas=4, initial_balance=100,
                         network_config=fast_network, seed=17)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        shard = Shard(clone)
        assert shard.nodes[0].retired_records == 0
        assert shard.resident_settlement_records() == 0

    def test_restore_rehydrates_retirement_state(self, fast_network):
        source = _system(fast_network, seed=7, backend="serial")
        workload = _workload(seed=7, users=60, rate=1_500.0, duration=0.02)
        source.schedule_submissions(workload)
        source.run()
        assert source.retired_records() > 0
        snapshot = source.shards[0].snapshot()
        source.close()

        twin_system = _system(fast_network, seed=7, backend="serial")
        twin = twin_system.shards[0]
        twin.restore(snapshot)
        assert twin.retired_record_count() == snapshot.nodes[0].retired_records
        expected_resident = sum(
            len(records)
            for account, records in snapshot.nodes[0].hist.items()
            if account.startswith("x")
        )
        assert twin.resident_settlement_records() == expected_resident
        assert (
            twin.nodes[0].retired_outbound_total()
            == sum(snapshot.nodes[0].retired_outbound.values())
        )
        twin_system.close()

    def test_pause_after_the_final_exchange_does_not_strand_commands(
        self, fast_network
    ):
        """Regression: pausing right after a barrier exchange that applied
        mint/retirement commands used to strand them — the resumed run's
        quiescence check read pre-application reports and exited with the
        retirement (or worse, the mint) never executed."""

        def run_paused(until):
            system = ClusterSystem(
                shard_count=2, replicas_per_shard=4, initial_balance=500,
                network_config=fast_network, backend="serial", seed=3,
            )
            a = _user_on_shard(system.router, 0)
            b = _user_on_shard(system.router, 1)
            system.schedule_submissions(
                [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
            )
            system.run(until=until)
            result = system.run()
            return system, result

        continuous_system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        a = _user_on_shard(continuous_system.router, 0)
        b = _user_on_shard(continuous_system.router, 1)
        continuous_system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        continuous = continuous_system.run()
        continuous_system.close()
        assert continuous.retired_records == 1

        # Sweep pause points across the whole lifecycle window, including the
        # instants right after the mint and retirement exchanges.
        for until in (0.005, 0.01, 0.015, 0.02, 0.025, 0.03):
            system, resumed = run_paused(until)
            try:
                audit = system.supply_audit()
                assert audit.fully_settled, f"mint stranded at until={until}"
                assert audit.fully_retired, f"retirement stranded at until={until}"
                assert resumed.fingerprint() == continuous.fingerprint(), (
                    f"pause at until={until} diverged from the continuous run"
                )
            finally:
                system.close()

    def test_pause_resume_equals_continuous_run_with_compaction(self, fast_network):
        """Satellite regression: the epoch grid pauses and resumes without
        perturbing the compaction lifecycle."""

        def build():
            system = ClusterSystem(
                shard_count=2, replicas_per_shard=4, initial_balance=500,
                network_config=fast_network, backend="serial", seed=3,
            )
            workload = cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=60, aggregate_rate=1_500.0, duration=0.02,
                    cross_shard_fraction=1.0, router=system.router, seed=3,
                )
            )
            system.schedule_submissions(workload)
            return system

        paused = build()
        paused.run(until=0.008)
        paused.run(until=0.015)
        resumed = paused.run()
        continuous_system = build()
        continuous = continuous_system.run()
        try:
            assert resumed.comparable_payload() == continuous.comparable_payload()
            assert resumed.fingerprint() == continuous.fingerprint()
            assert resumed.retired_records and resumed.retired_records > 0
            assert resumed.retirement_stream == continuous.retirement_stream
        finally:
            paused.close()
            continuous_system.close()


class TestLifecycleConfiguration:
    def test_the_link_delays_are_fixed(self):
        """The settlement links run on three constants, 1 / 2 / 1 ms; the
        fabric takes no timing (or any other) configuration."""
        import repro.cluster.settlement as settlement

        assert (settlement.VOUCHER_DELAY, settlement.DELIVERY_DELAY, settlement.ACK_DELAY) == (
            0.001, 0.002, 0.001,
        )
        assert list(inspect.signature(settlement.SettlementFabric).parameters) == [
            "shards", "scheduler",
        ]

    def test_lifecycle_exports_are_public(self):
        """Public from the defining module (package ``__init__``s re-export nothing)."""
        import repro.cluster.settlement as settlement

        for name in (
            "SettlementAck",
            "SettlementAckClaim",
            "RetirementCertificate",
            "CompactionGate",
        ):
            assert hasattr(settlement, name)


class TestRelayJournalCompaction:
    """Driver-side relay state compacts behind the retirement watermark.

    The streams keep no certificate journal at all: a certified retirement
    watermark drops every claim it subsumes from the issuer's per-issuer
    state, while the cumulative accumulators — amounts, counts, provisions,
    signature streams — keep answering for the full history.
    """

    def _claim(self, sequence, amount=5):
        return SettlementClaim(
            source_shard=0, destination_shard=1, issuer=0,
            sequence=sequence, account="2", amount=amount,
        )

    def _voucher(self, relay, signer, claim):
        return SettlementVoucher(
            claim=claim, signature=relay.vouchers.scheme.keypair_for(signer).sign(claim)
        )

    def _deliver_claims(self, relay, flush, sequences):
        for sequence in sequences:
            claim = self._claim(sequence)
            for signer in (0, 1, 2):
                relay.vouchers.submit(self._voucher(relay, signer, claim))
        flush()

    def test_watermark_evicts_subsumed_certificates(self):
        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2, 3))
        vouchers = relay.vouchers
        assert vouchers.certified_total == vouchers.delivered_total == 3
        assert vouchers._assembled == {0: {self._claim(s) for s in (1, 2, 3)}}
        # Acknowledge through sequence 2: entries 1 and 2 are pure history.
        claim = _ack_claim(sequence=2)
        for signer in (0, 1, 2):
            relay.acks.submit(_ack(dest_scheme, signer, claim))
        assert vouchers.floor(0) == 2
        assert vouchers._assembled == {0: {self._claim(3)}}
        # The cumulative surfaces still answer for the full history (the
        # fabric's amount totals: test_end_to_end_journals_track_the_in_flight_window).
        assert vouchers.certified_total == vouchers.delivered_total == 3
        assert len(vouchers.signature()) == 3

    def test_newer_watermark_keeps_only_itself_per_stream(self):
        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2, 3))
        for sequence in (1, 2, 3):
            claim = _ack_claim(sequence=sequence)
            for signer in (0, 1, 2):
                relay.acks.submit(_ack(dest_scheme, signer, claim))
        flush()
        # All three watermarks certified and delivered; the stream keeps
        # the newest as its integer floor and holds nothing else for the
        # issuer — no certificate, no container.
        assert relay.acks.floor(0) == relay.vouchers.floor(0) == 3
        assert relay.acks.certified_total == relay.acks.delivered_total == 3
        assert [entry[3] for entry in relay.acks.signature()] == [1, 2, 3]
        for stream in (relay.vouchers, relay.acks):
            assert stream._pending == {} and stream._assembled == {}

    def test_vouchers_below_the_retirement_watermark_are_absorbed(self):
        """A straggler (or Byzantine re-signer) vouchering a claim whose
        stream already retired past it must not re-open a pending entry:
        compaction dropped the claim from ``_assembled``, and without the
        floor each such voucher would park one dead dict in ``_pending``
        forever — history-proportional growth and phantom 'withheld
        settlement' in the metrics."""
        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2))
        claim = _ack_claim(sequence=2)
        for signer in (0, 1, 2):
            relay.acks.submit(_ack(dest_scheme, signer, claim))
        assert relay.vouchers.floor(0) == relay.acks.floor(0) == 2
        assert relay.vouchers.delivered_total == 2
        assert relay.vouchers._assembled == {}  # compacted behind the watermark
        # Every replica re-vouchers the retired claim 1: absorbed, no
        # pending entry, no new certificate.
        retired_claim = self._claim(1)
        for signer in range(4):
            assert relay.vouchers.submit(self._voucher(relay, signer, retired_claim))
        assert relay.vouchers.pending == 0
        assert relay.vouchers.certified_total == 2  # nothing re-assembled
        assert relay.vouchers._pending == relay.vouchers._assembled == {}

    def test_compaction_purges_dead_under_quorum_pending_entries(self):
        """A Byzantine variant claim (same stream slot, different content)
        parks below quorum while the genuine claim settles; once the stream
        retires past the slot the variant can never certify — compaction
        must drop it from ``_pending`` or one dead dict per retired claim
        accumulates for the run's lifetime."""
        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2))
        variant = self._claim(1, amount=999)  # same slot, inflated amount
        assert relay.vouchers.submit(self._voucher(relay, 3, variant))
        assert relay.vouchers.pending == 1
        claim = _ack_claim(sequence=2)
        for signer in (0, 1, 2):
            relay.acks.submit(_ack(dest_scheme, signer, claim))
        assert relay.acks.floor(0) == 2
        assert relay.vouchers.pending == 0  # the dead variant went with the stream

    def test_the_latency_figures_report_after_a_run(self, fast_network):
        """The whole-run aggregates and the windowed p95 report one
        cross-shard credit's settlement latency."""
        system = _system(fast_network)
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=3)]
        )
        system.run()
        try:
            samples, average, worst = system.settlement.settlement_latency()
            assert samples > 0 and worst >= average > 0
            assert system.settlement.settlement_latency_p95() > 0
        finally:
            system.close()

    @pytest.mark.parametrize("epoch", [0.005, 0.0001])
    def test_a_credit_settles_no_sooner_than_the_link_delays(self, fast_network, epoch):
        """A mint needs the voucher leg and the delivery leg behind it, each a
        fixed link delay, so no grid — however fine — settles faster."""
        import repro.cluster.settlement as settlement

        system = _system(fast_network, epoch=epoch)
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=3)]
        )
        system.run()
        try:
            samples = list(system.settlement._latency_window)
            assert samples
            assert min(samples) >= settlement.VOUCHER_DELAY + settlement.DELIVERY_DELAY
        finally:
            system.close()

    def test_the_p95_window_forgets_old_samples_the_aggregates_do_not(self, fast_network):
        """The p95 reads the last ``LATENCY_P95_WINDOW`` samples; the sample
        count, average and maximum cover the whole run."""
        from repro.cluster.settlement import LATENCY_P95_WINDOW

        system = _system(fast_network)
        try:
            fabric = system.settlement
            fabric._record_latency(1.0)
            assert fabric.settlement_latency_p95() == 1.0
            for _ in range(LATENCY_P95_WINDOW):
                fabric._record_latency(0.25)
            assert fabric.settlement_latency_p95() == 0.25
            samples, average, worst = fabric.settlement_latency()
            assert samples == LATENCY_P95_WINDOW + 1 and worst == 1.0
            assert average == pytest.approx((1.0 + 0.25 * LATENCY_P95_WINDOW) / samples)
        finally:
            system.close()

    def test_end_to_end_journals_track_the_in_flight_window(self, fast_network):
        """A full cross-shard run compacts every delivered certificate by
        quiescence; only the per-stream retirement watermarks stay."""
        system = _system(fast_network, backend="serial")
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [
                ClusterSubmission(time=0.001 * k, source_user=a, destination_user=b, amount=1)
                for k in range(1, 6)
            ]
        )
        system.run()
        try:
            fabric = system.settlement
            assert fabric.certificates_delivered() > 0
            assert fabric.resident_journal_records() == 0
            for relay in fabric.relays:
                for stream in (relay.vouchers, relay.acks):
                    assert stream._pending == {} and stream._assembled == {}
                # One stream here, retired through its fifth credit.
                assert list(relay.acks._floors.values()) == [5]
                assert relay.vouchers._floors == relay.acks._floors
            # The audit surfaces survived compaction: the fabric's certified
            # and provisioned totals hold all five credits, delivered amounts
            # match minted balances, signatures cover the full history.
            assert fabric.certified_amount() == fabric.delivered_amount() == 5
            assert sum(fabric.provisions_for(1).values()) == 5
            assert fabric.provisions_for(0) == {}
            audit = system.supply_audit()
            assert audit.ledger_matches_relay
            assert len(system.settlement_signature()) == fabric.certificates_delivered()
            assert system.check_definition1().ok
        finally:
            system.close()

    def test_live_certificates_track_the_resident_journals(self, fast_network):
        """Streams, inboxes and gates count what they certify or accept
        rather than keeping it: after a quiescent run no more certificate
        objects are alive than the settlement layer still holds (queued for
        delivery or buffered in an inbox)."""

        def live_certificates():
            gc.collect()
            return sum(
                type(obj) in (SettlementCertificate, RetirementCertificate)
                for obj in gc.get_objects()
            )

        before = live_certificates()
        system = _system(fast_network, backend="serial")
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        system.schedule_submissions(
            [
                ClusterSubmission(time=0.001 * k, source_user=a, destination_user=b, amount=1)
                for k in range(1, 6)
            ]
        )
        system.run()
        try:
            fabric = system.settlement
            assert fabric.certificates_delivered() == 5
            assert system.supply_audit().fully_retired
            resident = fabric.resident_journal_records()
            assert live_certificates() - before <= resident
        finally:
            system.close()


class TestPendingRetirementSweep:
    """The `_pending_retirements` leak: parked entries whose issuer stream
    moved past them can never validate and must be swept."""

    def _system_with_local_pair(self, fast_network):
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            network_config=fast_network,
            seed=3,
        )
        users = iter(range(100_000))
        a = next(u for u in users if system.router.shard_of(u) == 0)
        b = next(u for u in users if system.router.shard_of(u) == 0)
        # The router remaps user ids onto shard-local issuer ids and account
        # names; the ledger-level assertions below need the mapped identities.
        route = system.router.route(a, b)
        return system, a, b, route

    def test_stale_parked_retirement_is_swept_when_the_stream_passes(
        self, fast_network
    ):
        system, a, b, route = self._system_with_local_pair(fast_network)
        system.start()
        node = system.shards[0].nodes[0]
        # A retirement for a transfer this replica will never validate: the
        # issuer's slot 1 goes to a *different* (real) transfer below.
        ghost = Transfer(str(route.issuer), "x1:2", 5, issuer=route.issuer, sequence=1)
        node.retire_settled([ghost])
        assert ghost in node._pending_retirements
        assert node.stale_retirements_dropped == 0
        system.schedule_submissions(
            [
                ClusterSubmission(
                    time=0.001, source_user=a, destination_user=b, amount=9
                )
            ]
        )
        system.run()
        # The stream really moved past slot 1...
        assert node.seq.get(route.issuer, 0) >= 1
        node.retire_settled([])
        assert ghost not in node._pending_retirements
        assert node.stale_retirements_dropped == 1
        # ...and the real record is untouched: only the unreachable parking
        # was cut.
        assert node.balance_of(route.destination_account) == 1_000_000 + 9

    def test_future_parked_retirements_survive_the_sweep(self, fast_network):
        system, a, b, route = self._system_with_local_pair(fast_network)
        system.schedule_submissions(
            [
                ClusterSubmission(
                    time=0.001, source_user=a, destination_user=b, amount=9
                )
            ]
        )
        system.run()
        node = system.shards[0].nodes[0]
        # Slot 5 is still ahead of the stream: the certificate merely
        # outran validation, so the parking must persist.
        early = Transfer(str(route.issuer), "x1:2", 5, issuer=route.issuer, sequence=5)
        node.retire_settled([early])
        assert early in node._pending_retirements
        assert node.stale_retirements_dropped == 0

    def test_parking_behind_the_watermark_is_swept_immediately(
        self, fast_network
    ):
        system, a, b, route = self._system_with_local_pair(fast_network)
        system.schedule_submissions(
            [
                ClusterSubmission(
                    time=0.001, source_user=a, destination_user=b, amount=9
                )
            ]
        )
        system.run()
        node = system.shards[0].nodes[0]
        ghost = Transfer(str(route.issuer), "x1:2", 5, issuer=route.issuer, sequence=1)
        node.retire_settled([ghost])  # parks, then the same call sweeps
        assert ghost not in node._pending_retirements
        assert node.stale_retirements_dropped == 1
