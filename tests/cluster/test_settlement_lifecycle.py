"""The settlement lifecycle: acks, retirement certificates, ledger compaction.

Unit tests of the new lifecycle pieces (the relay's ack return leg, the
:class:`CompactionGate` watermark machine, node-level record retirement) plus
the end-to-end contracts: fully-acknowledged outbound records leave the
ledgers while every balance stays intact, the extended supply identity holds
at every instant, compaction can be switched off (the negative control), the
extended spec/snapshot state pickles and rehydrates, and pause/resume equals
a continuous run with compaction active.
"""

import pickle

import pytest

from repro.cluster import ClusterSystem, ShardSpec
from repro.cluster.settlement import (
    CompactionGate,
    RetirementCertificate,
    SettlementAck,
    SettlementAckClaim,
    SettlementConfig,
    SettlementRelay,
)
from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
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
        broadcast="bracha",
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


def _relay(source_scheme=None, dest_scheme=None):
    """A relay plus ``flush()``, which hands every certificate it dispatched
    back to its delivery method in dispatch order — the barrier's job."""
    source_scheme = source_scheme or SignatureScheme(seed=7)
    dest_scheme = dest_scheme or SignatureScheme(seed=8)
    dispatched = []
    relay = SettlementRelay(
        source_shard=0,
        destination_shard=1,
        scheme=source_scheme,
        quorum_size=3,
        allowed_signers=frozenset(range(4)),
        dispatch=lambda certificate: dispatched.append((relay.deliver, certificate)),
        retirement_dispatch=lambda certificate: dispatched.append(
            (relay.deliver_retirement, certificate)
        ),
        config=SettlementConfig(),
        ack_scheme=dest_scheme,
        ack_quorum_size=3,
        ack_allowed_signers=frozenset(range(4)),
    )

    def flush():
        while dispatched:
            deliver, certificate = dispatched.pop(0)
            deliver(certificate)

    return relay, flush, dest_scheme


def _ack(scheme, signer, claim):
    return SettlementAck(claim=claim, signature=scheme.keypair_for(signer).sign(claim))


class TestRelayAckLeg:
    def test_retirement_certificate_assembles_exactly_at_ack_quorum(self):
        relay, flush, scheme = _relay()
        delivered = []
        relay.subscribe_retirement(delivered.append)
        claim = _ack_claim()
        for signer in (0, 1):
            assert relay.submit_ack(_ack(scheme, signer, claim))
        assert not relay.retirement_certificates and relay.pending_acks == 1
        assert relay.submit_ack(_ack(scheme, 2, claim))
        assert len(relay.retirement_certificates) == 1
        assert relay.pending_acks == 0
        assert relay.certified_watermark(0) == 1
        assert not delivered
        flush()
        assert [c.claim for c in delivered] == [claim]

    def test_acks_verify_against_the_destination_shards_keys(self):
        """The source shard's own keys (or any rogue keys) cannot acknowledge."""
        relay, _, _ = _relay()
        source_scheme = relay.scheme
        rogue = SignatureScheme(seed=999)
        claim = _ack_claim()
        for scheme in (source_scheme, rogue):
            for signer in range(3):
                assert not relay.submit_ack(_ack(scheme, signer, claim))
        assert relay.acks_rejected == 6
        assert relay.pending_acks == 0
        assert not relay.retirement_certificates

    def test_misrouted_and_foreign_signer_acks_are_rejected(self):
        relay, _, scheme = _relay()
        wrong_pair = SettlementAckClaim(
            source_shard=1, destination_shard=0, issuer=0, sequence=1
        )
        assert not relay.submit_ack(_ack(scheme, 0, wrong_pair))
        assert not relay.submit_ack(_ack(scheme, 9, _ack_claim()))  # not a replica
        assert not relay.submit_ack(_ack(scheme, 0, _ack_claim(sequence=0)))
        assert relay.acks_rejected == 3

    def test_late_acks_for_certified_watermarks_are_noops(self):
        relay, _, scheme = _relay()
        claim = _ack_claim()
        for signer in (0, 1, 2):
            relay.submit_ack(_ack(scheme, signer, claim))
        assert len(relay.retirement_certificates) == 1
        assert relay.submit_ack(_ack(scheme, 3, claim))  # late straggler
        assert len(relay.retirement_certificates) == 1
        assert relay.pending_acks == 0

    def test_a_certified_watermark_subsumes_lower_pending_acks(self):
        """Replica acks trickle out of order; certifying watermark 2 drops
        the now-dead pending entries for watermark 1 (self-compaction)."""
        relay, _, scheme = _relay()
        first, second = _ack_claim(1), _ack_claim(2)
        relay.submit_ack(_ack(scheme, 0, first))
        relay.submit_ack(_ack(scheme, 1, first))
        for signer in (0, 1, 2):
            relay.submit_ack(_ack(scheme, signer, second))
        assert relay.certified_watermark(0) == 2
        assert relay.pending_acks == 0  # watermark-1 entries were dropped


class TestCompactionGate:
    def _gate(self, records=None, retired=None):
        scheme = SignatureScheme(seed=8)
        retired = retired if retired is not None else []
        records = records or {
            sequence: Transfer("0", "x1:2", 5, issuer=0, sequence=sequence)
            for sequence in range(1, 6)
        }

        def verify(claim, certificate):
            return scheme.verify_certificate(
                claim, certificate, quorum_size=3, allowed_signers=frozenset(range(4))
            )

        def lookup(claim, first_sequence):
            span = range(first_sequence, claim.sequence + 1)
            if any(sequence not in records for sequence in span):
                return None
            return [records.pop(sequence) for sequence in span]

        gate = CompactionGate(0, verify, lookup, retired.extend)
        return gate, scheme, records, retired

    def _certificate(self, scheme, claim):
        signatures = tuple(scheme.keypair_for(pid).sign(claim) for pid in range(3))
        return RetirementCertificate(
            claim=claim, certificate=scheme.make_certificate(claim, signatures)
        )

    def test_watermark_advance_retires_the_covered_prefix(self):
        gate, scheme, records, retired = self._gate()
        assert gate.receive(self._certificate(scheme, _ack_claim(2)))
        assert [t.sequence for t in retired] == [1, 2]
        assert gate.watermark(1, 0) == 2
        assert gate.retired_claims == 2
        assert gate.retired_amount == 10
        # A later watermark only retires the *new* span.
        assert gate.receive(self._certificate(scheme, _ack_claim(4)))
        assert [t.sequence for t in retired] == [1, 2, 3, 4]
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
        system = _system(fast_network, seed=3)
        a = _user_on_shard(system.router, 0)
        b = _user_on_shard(system.router, 1)
        # Compaction off: the record stays resident so we can retire by hand.
        parked = _system(
            fast_network, seed=3, settlement_config=SettlementConfig(compaction=False)
        )
        parked.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9)]
        )
        parked.run()
        node = parked.shards[0].nodes[0]
        outbound_account = next(
            account for account in node.hist if account.startswith("x")
        )
        record = next(iter(node.hist[outbound_account]))
        balances_before = node.all_known_balances()
        node.retire_settled([record])
        assert node.retired_records == 1
        assert parked.shards[0].resident_settlement_records() == 0
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

    def test_compaction_off_keeps_every_outbound_record(self, fast_network):
        """The negative control: without the lifecycle, history accumulates."""
        system = _system(
            fast_network, settlement_config=SettlementConfig(compaction=False)
        )
        system.schedule_submissions(_workload())
        system.run()
        audit = system.supply_audit()
        assert audit.minted > 0
        assert audit.fully_settled  # settlement itself is untouched
        assert audit.retired == 0
        assert audit.outbound == audit.minted
        assert system.retired_records() == 0
        assert system.resident_settlement_records() > 0
        assert system.settlement.acks_dispatched == 0
        assert system.check_definition1().ok

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
        shard = clone.build()
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
    def test_negative_ack_delay_is_rejected(self):
        with pytest.raises(ConfigurationError):
            SettlementConfig(ack_delay=-0.5).validate()

    def test_lifecycle_exports_are_public(self):
        import repro.cluster as cluster

        for name in (
            "SettlementAck",
            "SettlementAckClaim",
            "RetirementCertificate",
            "CompactionGate",
        ):
            assert hasattr(cluster, name)


class TestRelayJournalCompaction:
    """Driver-side relay journals compact behind the retirement watermark.

    Before this layer the ``certificates``/``delivered`` journals grew with
    every certificate ever delivered (audit metadata, unbounded exactly like
    the pre-lifecycle ledgers).  Now a certified retirement watermark
    evicts everything it subsumes, while the cumulative accumulators —
    amounts, counts, provisions, signature streams — keep answering for the
    full history.
    """

    def _claim(self, sequence, amount=5):
        from repro.cluster.settlement import SettlementClaim

        return SettlementClaim(
            source_shard=0, destination_shard=1, issuer=0,
            sequence=sequence, account="2", amount=amount,
        )

    def _deliver_claims(self, relay, flush, sequences):
        from repro.cluster.settlement import SettlementVoucher

        for sequence in sequences:
            claim = self._claim(sequence)
            for signer in (0, 1, 2):
                relay.submit_voucher(
                    SettlementVoucher(
                        claim=claim,
                        signature=relay.scheme.keypair_for(signer).sign(claim),
                    )
                )
        flush()

    def test_watermark_evicts_subsumed_certificates(self):
        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2, 3))
        assert len(relay.certificates) == len(relay.delivered) == 3
        # Acknowledge through sequence 2: entries 1 and 2 are pure history.
        claim = _ack_claim(sequence=2)
        for signer in (0, 1, 2):
            relay.submit_ack(_ack(dest_scheme, signer, claim))
        assert [c.claim.sequence for c in relay.certificates] == [3]
        assert [c.claim.sequence for c in relay.delivered] == [3]
        # The cumulative surfaces still answer for the full history.
        assert relay.certificates_total == relay.delivered_total == 3
        assert relay.delivered_amount_total == 15
        assert len(relay.delivered_signature()) == 3
        assert sum(relay.provisions().values()) == 15

    def test_newer_watermark_keeps_only_itself_per_stream(self):
        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2, 3))
        for sequence in (1, 2, 3):
            claim = _ack_claim(sequence=sequence)
            for signer in (0, 1, 2):
                relay.submit_ack(_ack(dest_scheme, signer, claim))
        flush()
        # All three watermarks certified and delivered; only the newest
        # stays journaled — journal residency is one watermark per stream.
        assert [r.claim.sequence for r in relay.retirement_certificates] == [3]
        assert [r.claim.sequence for r in relay.retirements_delivered] == [3]
        assert relay.retirements_delivered_total == 3
        assert len(relay.retirement_delivery_signature()) == 3
        assert relay.resident_journal_records == 2  # assembled + delivered

    def test_vouchers_below_the_retirement_watermark_are_absorbed(self):
        """A straggler (or Byzantine re-signer) vouchering a claim whose
        stream already retired past it must not re-open a pending entry:
        compaction dropped the claim from ``_assembled``, and without the
        watermark guard each such voucher would park one dead dict in
        ``_pending`` forever — history-proportional growth and phantom
        'withheld settlement' in the metrics."""
        from repro.cluster.settlement import SettlementVoucher

        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2))
        claim = _ack_claim(sequence=2)
        for signer in (0, 1, 2):
            relay.submit_ack(_ack(dest_scheme, signer, claim))
        assert relay.certified_watermark(0) == 2
        assert relay.delivered == []  # compacted behind the watermark
        # Every replica re-vouchers the retired claim 1: absorbed, no
        # pending entry, no new certificate, journals untouched.
        retired_claim = self._claim(1)
        for signer in range(4):
            assert relay.submit_voucher(
                SettlementVoucher(
                    claim=retired_claim,
                    signature=relay.scheme.keypair_for(signer).sign(retired_claim),
                )
            )
        assert relay.pending_claims == 0
        assert relay.certificates_total == 2  # nothing re-assembled
        assert relay.certificates == []

    def test_compaction_purges_dead_under_quorum_pending_entries(self):
        """A Byzantine variant claim (same stream slot, different content)
        parks below quorum while the genuine claim settles; once the stream
        retires past the slot the variant can never certify — compaction
        must drop it from ``_pending`` or one dead dict per retired claim
        accumulates for the run's lifetime."""
        from repro.cluster.settlement import SettlementVoucher

        relay, flush, dest_scheme = _relay()
        self._deliver_claims(relay, flush, (1, 2))
        variant = self._claim(1, amount=999)  # same slot, inflated amount
        assert relay.submit_voucher(
            SettlementVoucher(
                claim=variant, signature=relay.scheme.keypair_for(3).sign(variant)
            )
        )
        assert relay.pending_claims == 1
        claim = _ack_claim(sequence=2)
        for signer in (0, 1, 2):
            relay.submit_ack(_ack(dest_scheme, signer, claim))
        assert relay.certified_watermark(0) == 2
        assert relay.pending_claims == 0  # the dead variant went with the stream

    def test_the_scheduler_drains_every_latency_sample(self, fast_network):
        """The pending-sample buffer feeds the epoch scheduler's drain, so
        nothing is left in it after a run, while the aggregate latency
        figures still report."""
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
            assert system.settlement._latency_pending == []
        finally:
            system.close()

    def test_compaction_off_preserves_the_full_journals(self):
        relay, flush, dest_scheme = _relay()
        relay.config.compaction = False
        self._deliver_claims(relay, flush, (1, 2, 3))
        for sequence in (1, 2, 3):
            claim = _ack_claim(sequence=sequence)
            for signer in (0, 1, 2):
                relay.submit_ack(_ack(dest_scheme, signer, claim))
        flush()
        # The negative control: journals keep the whole history.
        assert len(relay.certificates) == len(relay.delivered) == 3
        assert len(relay.retirement_certificates) == 3
        assert len(relay.retirements_delivered) == 3

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
            for relay in fabric.relays:
                assert relay.certificates == []
                assert relay.delivered == []
                assert len(relay.retirements_delivered) <= 1  # one stream here
            # The audit surfaces survived compaction: delivered amounts match
            # minted balances, signatures cover the full history.
            audit = system.supply_audit()
            assert audit.ledger_matches_relay
            assert len(system.settlement_signature()) == fabric.certificates_delivered()
            assert system.check_definition1().ok
        finally:
            system.close()

    def test_fingerprint_is_identical_with_and_without_resident_journals(
        self, fast_network
    ):
        """Compaction is memory management, not behaviour: the canonical
        fingerprint (which reads the signature streams, never the resident
        journals) is unchanged by it."""
        def run(compaction):
            system = _system(
                fast_network,
                backend="serial",
                settlement_config=SettlementConfig(compaction=compaction),
            )
            workload = _workload(cross_shard_fraction=0.8, router=system.router)
            system.schedule_submissions(workload)
            result = system.run()
            stream = list(result.settlement_stream)
            resident = system.settlement.resident_journal_records()
            system.close()
            return stream, resident

        with_compaction, resident_on = run(True)
        without, resident_off = run(False)
        assert with_compaction == without
        assert resident_on < resident_off
