"""Tests for the Figure 4 protocol over the simulated network (experiment E4)."""

import pytest

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.settlement import settlement_account, settlement_issuer
from repro.common.types import OwnershipMap, Transfer
from repro.mp.consensusless_transfer import account_of
from repro.mp.k_shared import KSharedSystem
from repro.mp.messages import TransferAnnouncement
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.network.node import NetworkConfig
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker


def build_system(n=5, broadcast="bracha", fast_network=None, **kwargs):
    return ConsensuslessSystem(
        process_count=n,
        initial_balance=100,
        broadcast=broadcast,
        network_config=fast_network,
        seed=9,
        **kwargs,
    )


def ring_workload(n, per_process=2, amount=3):
    submissions = []
    for issuer in range(n):
        for index in range(per_process):
            submissions.append(
                ClientSubmission(
                    time=0.0001 * (issuer + 1),
                    issuer=issuer,
                    destination=account_of((issuer + 1 + index) % n),
                    amount=amount,
                )
            )
    return submissions


class TestHappyPath:
    @pytest.mark.parametrize("broadcast", ["bracha", "echo"])
    def test_all_transfers_commit(self, broadcast, fast_network):
        system = build_system(broadcast=broadcast, fast_network=fast_network)
        submissions = ring_workload(5)
        system.schedule_submissions(submissions)
        result = system.run()
        assert result.committed_count == len(submissions)
        assert not result.rejected

    def test_correct_views_agree_on_balances(self, fast_network):
        system = build_system(fast_network=fast_network)
        system.schedule_submissions(ring_workload(5, per_process=3))
        system.run()
        views = [system.balances_at(pid) for pid in range(5)]
        assert all(view == views[0] for view in views)

    def test_total_supply_conserved(self, fast_network):
        system = build_system(fast_network=fast_network)
        system.schedule_submissions(ring_workload(5, per_process=3))
        system.run()
        assert system.total_supply_at(0) == 5 * 100

    def test_definition_1_holds(self, fast_network):
        system = build_system(fast_network=fast_network)
        system.schedule_submissions(ring_workload(5, per_process=3))
        system.run()
        checker = ByzantineAssetTransferChecker(system.initial_balances())
        report = checker.check(system.observations())
        assert report.ok, report.violations

    def test_replicas_share_one_dependency_tuple_per_announcement(self, fast_network):
        """Every replica receives the same announcement object, so their
        dependency columns hold its one ``dependency_ids`` tuple, not a copy each."""
        system = build_system(fast_network=fast_network)
        system.schedule_submissions(ring_workload(5, per_process=3))
        system.run()
        observations = [node.observation() for node in system.correct_nodes()]
        logs = [obs.validated for obs in observations]
        by_transfer = {}
        for obs in observations:
            for transfer, dependencies in zip(obs.validated, obs.dependencies):
                by_transfer.setdefault(transfer, []).append(dependencies)
        declared = [tuples for tuples in by_transfer.values() if tuples[0]]
        assert declared, "the ring workload declares no dependency"
        for tuples in by_transfer.values():
            assert len(tuples) == len(logs)
            assert all(dependencies is tuples[0] for dependencies in tuples)
        checker = ByzantineAssetTransferChecker(system.initial_balances())
        report = checker.check(system.observations())
        assert report.ok, report.violations
        assert report.checked_transfers == len(by_transfer) * len(logs)

    def test_latencies_recorded(self, fast_network):
        system = build_system(fast_network=fast_network)
        system.schedule_submissions(ring_workload(5))
        result = system.run()
        assert len(result.latencies) == result.committed_count
        assert all(latency > 0 for latency in result.latencies)
        assert result.average_latency > 0

    def test_exactly_one_broadcast_per_transfer(self, fast_network):
        # The protocol's complexity claim: one secure-broadcast instance per
        # transfer and no extra protocol messages.
        system = build_system(fast_network=fast_network)
        submissions = ring_workload(5, per_process=2)
        system.schedule_submissions(submissions)
        system.run()
        for node in system.correct_nodes():
            assert node.broadcast_layer.stats.broadcasts_started == 2


class TestLocalChecks:
    def test_insufficient_balance_fails_immediately(self, fast_network):
        system = build_system(fast_network=fast_network)
        system.schedule_submissions(
            [ClientSubmission(time=0.001, issuer=0, destination=account_of(1), amount=1_000)]
        )
        result = system.run()
        assert result.committed_count == 0
        assert len(result.rejected) == 1

    def test_spending_received_funds_works_across_nodes(self, fast_network):
        system = build_system(fast_network=fast_network)
        # 0 sends 80 to 1; later 1 sends 150 to 2 (only possible with 0's 80).
        system.schedule_submissions(
            [
                ClientSubmission(time=0.001, issuer=0, destination=account_of(1), amount=80),
                ClientSubmission(time=0.2, issuer=1, destination=account_of(2), amount=150),
            ]
        )
        result = system.run()
        assert result.committed_count == 2
        assert system.balances_at(3)[account_of(2)] == 250

    def test_reads_reflect_validated_history(self, fast_network):
        system = build_system(fast_network=fast_network)
        system.schedule_submissions(
            [ClientSubmission(time=0.001, issuer=0, destination=account_of(1), amount=10)]
        )
        system.run()
        node = system.correct_node(1)
        assert node.read() == 110
        assert node.read(account_of(0)) == 90

    def test_sequential_client_queues_submissions(self, fast_network):
        system = build_system(fast_network=fast_network)
        node = system.correct_node(0)
        system.schedule_submissions(
            [
                ClientSubmission(time=0.001, issuer=0, destination=account_of(1), amount=1),
                ClientSubmission(time=0.001, issuer=0, destination=account_of(2), amount=1),
            ]
        )
        system.run()
        assert len(node.completed) == 2
        first, second = node.completed
        assert first.completed_at <= second.submitted_at or second.submitted_at <= first.completed_at
        assert not node.has_pending_transfer


class TestFigure4Guards:
    """Lines 12 and 24, each pinned by a delivery that only it refuses.

    Announcements are hand-fed to one replica, past the broadcast, so the
    replica's own gates are all that stands between them and ``hist``.
    """

    ISSUER = 3

    def _announcement(self, sequence, destination, amount):
        return TransferAnnouncement(
            transfer=Transfer(
                source=account_of(self.ISSUER),
                destination=account_of(destination),
                amount=amount,
                issuer=self.ISSUER,
                sequence=sequence,
            )
        )

    def test_line_24_holds_a_fitting_transfer_behind_an_earlier_overdraft(self, fast_network):
        """#1 overdraws and #2 fits: #2 must not validate before #1 does."""
        system = build_system(n=4, fast_network=fast_network)
        node = system.correct_node(0)
        overdraft = self._announcement(1, destination=0, amount=150)
        fits = self._announcement(2, destination=1, amount=60)
        for announcement in (overdraft, fits):
            assert node._receive_announcement(self.ISSUER, announcement)
        node._validation_pass()
        assert node.validated_count == 0
        assert node.to_validate == [(self.ISSUER, overdraft), (self.ISSUER, fits)]

        # A mint funding #1 releases both, in sequence order.
        funding = Transfer(
            source=settlement_account(1, 0),
            destination=account_of(self.ISSUER),
            amount=110,
            issuer=settlement_issuer(1, 0),
            sequence=1,
        )
        node.mint_certified_credit(funding)
        assert node.observation().validated == [
            funding,
            overdraft.transfer,
            fits.transfer,
        ]
        assert node.to_validate == []
        assert node.seq[self.ISSUER] == 2
        assert node.balance_of(account_of(self.ISSUER)) == 100 + 110 - 150 - 60

    def test_line_12_drops_an_announcement_past_a_gap(self, fast_network):
        """Sequence 2 from an issuer with ``rec`` 0 is not queued and moves
        nothing; the announcement that closes the gap is."""
        system = build_system(n=4, fast_network=fast_network)
        node = system.correct_node(0)
        early = self._announcement(2, destination=1, amount=5)
        assert not node._receive_announcement(self.ISSUER, early)
        assert node.to_validate == []
        assert node.rec.get(self.ISSUER, 0) == 0

        first = self._announcement(1, destination=1, amount=5)
        assert node._receive_announcement(self.ISSUER, first)
        assert node.to_validate == [(self.ISSUER, first)]
        assert node.rec[self.ISSUER] == 1


class TestFaults:
    def test_silent_owner_only_hurts_itself(self, fast_network):
        fault_model = FaultModel(total_processes=5, faults={4: FaultKind.CRASH})
        system = build_system(fast_network=fast_network, fault_model=fault_model)
        submissions = [
            ClientSubmission(time=0.001 * i, issuer=i, destination=account_of((i + 1) % 4), amount=2)
            for i in range(4)
        ]
        system.schedule_submissions(submissions)
        result = system.run()
        assert result.committed_count == 4

    def test_minimum_system_size_enforced(self):
        with pytest.raises(Exception):
            ConsensuslessSystem(process_count=3)

    def test_mismatched_fault_model_rejected(self):
        with pytest.raises(Exception):
            ConsensuslessSystem(process_count=5, fault_model=FaultModel.all_correct(4))


def test_a_network_config_reused_across_seeds_gives_each_system_its_own_seed():
    """The façades read the caller's config without writing to it: one
    ``NetworkConfig()`` (seed 0) under seeds 5 and then 9 seeds the networks
    5 and 9, and is still at seed 0 afterwards."""
    config = NetworkConfig()
    ownership = OwnershipMap.single_owner({str(pid): pid for pid in range(4)})
    systems = [
        ConsensuslessSystem(process_count=4, network_config=config, seed=5),
        ConsensusTransferSystem(process_count=4, network_config=config, seed=9),
        ConsensuslessSystem(process_count=4, network_config=config, seed=9),
        KSharedSystem(
            ownership=ownership,
            process_count=4,
            initial_balances=dict.fromkeys(ownership.accounts, 10),
            network_config=config,
            seed=7,
        ),
    ]
    assert [system.network.config.seed for system in systems] == [5, 9, 9, 7]
    assert config.seed == 0
