"""Tests for the PBFT substrate and the consensus-based baseline."""

import pytest

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.bft.messages import ClientRequest, Commit, PrePrepare, Prepare
from repro.bft.pbft import PbftConfig
from repro.bft.smr import LedgerStateMachine
from repro.common.errors import ConfigurationError
from repro.common.types import OwnershipMap, Transfer
from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ClientSubmission


def build(fast_network, n=4, batch_size=4, initial_balance=100):
    return ConsensusTransferSystem(
        process_count=n,
        initial_balance=initial_balance,
        network_config=fast_network,
        pbft_config=PbftConfig(batch_size=batch_size),
        seed=3,
    )


def ring_workload(n, per_process=2, amount=3):
    return [
        ClientSubmission(
            time=0.0001 * (issuer + 1),
            issuer=issuer,
            destination=account_of((issuer + 1) % n),
            amount=amount,
        )
        for issuer in range(n)
        for _ in range(per_process)
    ]


class TestLedgerStateMachine:
    def _request(self, issuer, sequence, amount, source=None, destination="1"):
        transfer = Transfer(source or str(issuer), destination, amount, issuer=issuer, sequence=sequence)
        return ClientRequest(issuer=issuer, client_sequence=sequence, transfer=transfer, submitted_at=0.0)

    def test_execution_applies_valid_transfers(self):
        ownership = OwnershipMap.one_account_per_process(3)
        machine = LedgerStateMachine(ownership, {"0": 10, "1": 0, "2": 0})
        ordered = machine.execute(self._request(0, 1, 4))
        assert ordered.success
        assert machine.balance("1") == 4

    def test_execution_rejects_overdraft_deterministically(self):
        ownership = OwnershipMap.one_account_per_process(3)
        machine = LedgerStateMachine(ownership, {"0": 10, "1": 0, "2": 0})
        assert machine.execute(self._request(0, 1, 8)).success
        assert not machine.execute(self._request(0, 2, 8)).success
        assert machine.total_supply() == 10

    def test_execution_digest_captures_order_and_outcome(self):
        ownership = OwnershipMap.one_account_per_process(3)
        machine = LedgerStateMachine(ownership, {"0": 10, "1": 0, "2": 0})
        machine.execute(self._request(0, 1, 4))
        assert machine.execution_digest() == ((0, 1, True),)


class TestPbftOrdering:
    def test_all_requests_execute_and_replicas_agree(self, fast_network):
        system = build(fast_network)
        submissions = ring_workload(4, per_process=3)
        system.schedule_submissions(submissions)
        result = system.run()
        assert result.committed_count == len(submissions)
        assert system.replicas_agree()

    def test_every_replica_executes_every_request(self, fast_network):
        system = build(fast_network)
        submissions = ring_workload(4, per_process=2)
        system.schedule_submissions(submissions)
        system.run()
        for replica in system.replicas.values():
            assert replica.executed_count == len(submissions)

    def test_total_supply_conserved(self, fast_network):
        system = build(fast_network)
        system.schedule_submissions(ring_workload(4, per_process=3))
        system.run()
        assert system.total_supply_at(0) == 4 * 100

    def test_overdraft_requests_fail_but_complete(self, fast_network):
        system = build(fast_network, initial_balance=5)
        system.schedule_submissions(
            [
                ClientSubmission(time=0.001, issuer=0, destination=account_of(1), amount=4),
                ClientSubmission(time=0.01, issuer=0, destination=account_of(1), amount=4),
            ]
        )
        result = system.run()
        assert result.committed_count == 1
        assert len(result.rejected) == 1

    def test_batching_respects_batch_size(self, fast_network):
        system = build(fast_network, batch_size=2)
        system.schedule_submissions(ring_workload(4, per_process=2))
        system.run()
        leader = system.replicas[0]
        assert leader._next_batch_sequence - 1 >= 4  # at least 8 requests / batch_size 2

    def test_client_is_sequential(self, fast_network):
        system = build(fast_network)
        system.schedule_submissions(
            [ClientSubmission(time=0.001, issuer=1, destination=account_of(2), amount=1)] * 3
        )
        system.run()
        replica = system.replicas[1]
        completions = [record.completed_at for record in replica.completed]
        submissions = [record.submitted_at for record in replica.completed]
        assert len(completions) == 3
        # Each request is only issued after the previous one completed.
        assert submissions == sorted(submissions)

    def test_minimum_replica_count(self):
        with pytest.raises(ConfigurationError):
            ConsensusTransferSystem(process_count=3)

    def test_invalid_batch_config_rejected(self):
        with pytest.raises(ConfigurationError):
            PbftConfig(batch_size=0).validate()

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -0.001])
    def test_refuses_a_batch_timeout_that_is_not_finite_and_non_negative(self, timeout):
        """A NaN or infinite timeout used to be accepted and then raise a
        ``SimulationError`` from the leader's flush timer mid-run."""
        with pytest.raises(ConfigurationError, match="batch_timeout"):
            ConsensusTransferSystem(4, pbft_config=PbftConfig(batch_timeout=timeout))

    def test_a_zero_batch_timeout_flushes_every_request_at_once(self, fast_network):
        """Zero is finite and non-negative: the leader flushes a partial batch
        at the instant it queues, and every request still commits."""
        system = ConsensusTransferSystem(
            process_count=4,
            initial_balance=100,
            network_config=fast_network,
            pbft_config=PbftConfig(batch_size=8, batch_timeout=0.0),
            seed=3,
        )
        workload = ring_workload(4)
        system.schedule_submissions(workload)
        result = system.run()
        assert result.committed_count == len(workload)
        assert not result.rejected

    def test_latency_includes_ordering_delay(self, fast_network):
        system = build(fast_network)
        system.schedule_submissions(ring_workload(4, per_process=1))
        result = system.run()
        # At least three one-way delays (pre-prepare, prepare, commit).
        assert result.average_latency >= 3 * fast_network.latency_base


class TestExecutedSlotsAreForgotten:
    """Replica 1 of four, fed by hand (quorum 3); its sends stay queued."""

    def _replica_with_slot_one(self, fast_network):
        system = build(fast_network)
        replica = system.replicas[1]
        transfer = Transfer("2", "3", 1, issuer=2, sequence=1)
        request = ClientRequest(issuer=2, client_sequence=1, transfer=transfer, submitted_at=0.0)
        replica.on_message(0, PrePrepare(view=0, sequence=1, batch=(request,), digest="d"))
        return replica

    @staticmethod
    def _vote(kind, replica):
        return kind(view=0, sequence=1, digest="d", replica=replica)

    def test_a_prepared_slot_is_forgotten_at_execution(self, fast_network):
        replica = self._replica_with_slot_one(fast_network)
        for voter in (0, 2, 3):
            replica.on_message(voter, self._vote(Prepare, voter))
        for voter in (0, 2, 3):
            replica.on_message(voter, self._vote(Commit, voter))
        assert replica.executed_count == 1
        assert replica._instances == {}
        sent = replica.stats.sent
        for voter in (0, 2, 3):
            replica.on_message(voter, self._vote(Prepare, voter))
            replica.on_message(voter, self._vote(Commit, voter))
        assert replica.stats.sent == sent
        assert replica._instances == {}

    def test_a_slot_executed_before_it_prepared_still_sends_its_commit_once(self, fast_network):
        replica = self._replica_with_slot_one(fast_network)
        for voter in (0, 2, 3):
            replica.on_message(voter, self._vote(Commit, voter))
        assert replica.executed_count == 1
        assert not replica._instances[1].prepared
        sent = replica.stats.sent
        for voter in (0, 2, 3):
            replica.on_message(voter, self._vote(Prepare, voter))
        assert replica.stats.sent == sent + 4  # one COMMIT to each replica
        assert replica._instances == {}
        replica.on_message(3, self._vote(Prepare, 3))
        assert replica.stats.sent == sent + 4
        assert replica._instances == {}
