"""Agreement and validity at quiescence: the liveness half of the audit.

Definition 1 (C1–C4) is a safety condition, so a run whose correct replicas
silently hold different validated sets, or whose clients wait forever,
passes it.  ``check_agreement`` closes that gap for quiescent runs: every
correct replica validated the same set of transfers, and every process
answered every submission it was given.

The red runs drop messages the way no correct channel may: a test-local
wrapper of ``Network.multicast`` loses every message of one origin's
broadcast instances on the way to one replica.  Definition 1 stays green on
such a run, which is the point.  The green runs are the ones the other
suites make (the §5 claims, the message formulas, cluster scaling, the
settlement behaviours); their agreement tests carry ``agreement`` in their
names, and ``make test-audit`` runs them with this module.
"""

import pytest

from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.system import ClusterSystem
from repro.common.errors import SimulationError
from repro.common.types import Transfer
from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.network.node import NetworkConfig
from repro.spec.byzantine_spec import (
    ByzantineAssetTransferChecker,
    ClientOperation,
    ProcessObservation,
    check_agreement,
)
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload
from repro.workloads.generators import WorkloadConfig, closed_loop_workload


def transfer(issuer, sequence, amount=1):
    return Transfer(
        source=account_of(issuer), destination=account_of((issuer + 1) % 4), amount=amount,
        issuer=issuer, sequence=sequence,
    )


def observation(process, transfers, answered=0, submitted=0):
    operations = [
        ClientOperation(process=process, kind="transfer", invoked_at=0.0, responded_at=1.0,
                        response=True, transfer=transfer(process, index + 1))
        for index in range(answered)
    ]
    return ProcessObservation(
        process, list(transfers), [()] * len(transfers), operations, submitted=submitted
    )


class TestTheCheck:
    def test_equal_sets_in_different_orders_agree(self):
        a, b = transfer(0, 1), transfer(1, 1)
        report = check_agreement([observation(0, [a, b]), observation(1, [b, a])])
        assert report.ok and report.violations == []
        assert (report.checked_transfers, report.checked_processes) == (4, 2)

    def test_a_replica_missing_transfers_is_named(self):
        full = [transfer(0, 1), transfer(0, 2), transfer(1, 1), transfer(2, 1), transfer(3, 1)]
        report = check_agreement([observation(0, full), observation(3, full[:1])])
        assert report.violations == [
            "agreement violation: process 3 validated 1 of the 5 transfers correct "
            "processes validated (missing p0#2, p1#1, p2#1 and 1 more)"
        ]

    def test_an_unanswered_submission_is_a_validity_violation(self):
        report = check_agreement([observation(0, [], answered=1, submitted=2)])
        assert report.violations == [
            "validity violation: process 0 answered 1 of the 2 transfer submissions it was given"
        ]

    def test_reads_are_not_answers(self):
        read = ClientOperation(process=0, kind="read", invoked_at=0.0, responded_at=0.0,
                               response=5, account="0")
        report = check_agreement([ProcessObservation(0, [], [], [read], submitted=1)])
        assert not report.ok

    def test_no_observations_agree(self):
        assert check_agreement([]).ok


def group(process_count=4, seed=11, **kwargs):
    return ConsensuslessSystem(
        process_count=process_count, network_config=NetworkConfig(seed=seed), seed=seed, **kwargs
    )


def submit_round_robin(system, process_count=4, count=8, spacing=0.0001):
    return system.schedule_submissions(
        ClientSubmission(
            time=spacing * i, issuer=i % process_count,
            destination=account_of((i + 1) % process_count), amount=5,
        )
        for i in range(count)
    )


def lose_one_origin_at_one_replica(network, origin, replica):
    """Wrap ``network.multicast``: drop every message of ``origin``'s broadcast
    instances (its SEND, and every ECHO and READY about them) sent to
    ``replica``.  Install before the nodes start: a layer binds the method."""
    multicast = network.multicast

    def lossy(sender, recipients, message):
        if getattr(message, "origin", None) == origin:
            recipients = tuple(r for r in recipients if r != replica)
        multicast(sender, recipients, message)

    network.multicast = lossy


class TestALossyLinkIsCaught:
    """Red after the deletion: the wrapper is the only way left to lose a message."""

    @pytest.mark.parametrize("broadcast", ["bracha", "echo"])
    def test_definition1_is_green_and_agreement_red(self, broadcast):
        system = group(broadcast=broadcast)
        lose_one_origin_at_one_replica(system.network, origin=0, replica=3)
        submit_round_robin(system)
        system.run()
        assert system.simulator.pending_events == 0
        definition1 = ByzantineAssetTransferChecker(system.initial_balances()).check(
            system.observations()
        )
        assert definition1.ok, definition1.violations
        report = system.check_agreement()
        assert not report.ok
        assert report.violations[0].startswith("agreement violation: process 3 validated")
        assert all("process 3" in violation for violation in report.violations)

    def test_the_same_run_without_the_wrapper_is_green(self):
        system = group()
        submit_round_robin(system)
        system.run()
        assert system.check_agreement().ok


class TestOnlyQuiescentRunsAreAudited:
    def test_a_paused_group_is_refused(self):
        system = group()
        submit_round_robin(system)
        system.run(until=0.0002)
        assert system.simulator.pending_events
        with pytest.raises(SimulationError, match="quiescent"):
            system.check_agreement()
        system.run()
        assert system.check_agreement().ok

    def test_a_paused_or_unrun_cluster_is_refused(self, fast_network):
        system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=60, aggregate_rate=1_500.0, duration=0.02,
                    cross_shard_fraction=0.5, router=system.router, seed=3,
                )
            )
        )
        with pytest.raises(SimulationError, match="quiescent"):
            system.check_agreement()
        system.run(until=0.01)
        with pytest.raises(SimulationError, match="quiescent"):
            system.check_agreement()
        system.run()
        reports = system.check_agreement()
        assert sorted(reports) == [0, 1]
        assert all(report.ok and report.checked_transfers for report in reports.values())
        system.close()


@pytest.mark.parametrize("broadcast", ["bracha", "echo"])
def test_agreement_holds_with_a_double_spender_and_a_silent_replica(broadcast):
    """Within f, omission and equivocation leave no agreement gap: N = 7, one
    double-spender and one silent process (the fig4-byzantine shape, small)."""
    count, attacker = 7, 6
    fault_model = FaultModel(
        total_processes=count,
        faults={attacker: FaultKind.DOUBLE_SPEND, attacker - 1: FaultKind.SILENT},
    )
    system = ConsensuslessSystem(
        process_count=count, broadcast=broadcast, network_config=NetworkConfig(seed=7),
        fault_model=fault_model, seed=7,
    )
    system.schedule_submissions(
        s
        for s in closed_loop_workload(count, WorkloadConfig(transfers_per_process=3, seed=7))
        if fault_model.is_correct(s.issuer) and s.destination != account_of(attacker)
    )
    system.trigger_attacks(at_time=0.0005)
    system.run()
    report = system.check_agreement()
    assert report.ok, report.violations
    assert report.checked_processes == count - 2
