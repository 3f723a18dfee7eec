"""Integration tests crossing module boundaries.

These tie the layers together: workloads drive both message-passing systems,
the Definition 1 checker validates the consensusless runs, and the
double-spend attack (experiment E4) is neutralised end to end.  The E5/E6
comparison lives in ``tests/paper/test_paper_claims.py``.
"""

import pytest

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.bft.pbft import PbftConfig
from repro.eval.experiments import ExperimentConfig, double_spend_experiment
from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ConsensuslessSystem
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker
from repro.workloads.generators import WorkloadConfig, closed_loop_workload, zipf_workload


class TestWorkloadsAgainstBothSystems:
    @pytest.mark.parametrize("generator", [closed_loop_workload, zipf_workload])
    def test_same_workload_same_final_balances(self, generator, fast_network):
        """Both systems, fed the same workload, converge to the same ledger."""
        n = 5
        submissions = generator(n, WorkloadConfig(transfers_per_process=3, seed=13))

        consensusless = ConsensuslessSystem(
            process_count=n, initial_balance=100, network_config=fast_network, seed=1
        )
        consensusless.schedule_submissions(submissions)
        result_cl = consensusless.run()

        consensus = ConsensusTransferSystem(
            process_count=n, initial_balance=100, network_config=fast_network,
            pbft_config=PbftConfig(batch_size=4), seed=1,
        )
        consensus.schedule_submissions(submissions)
        result_bft = consensus.run()

        # Every transfer is affordable in this workload, so both systems
        # commit all of them and agree on the resulting balances.
        assert result_cl.committed_count == len(submissions)
        assert result_bft.committed_count == len(submissions)
        balances_cl = {
            account_of(p): consensusless.balances_at(0)[account_of(p)] for p in range(n)
        }
        balances_bft = {
            account: consensus.balances_at(0)[account] for account in balances_cl
        }
        assert balances_cl == balances_bft

    def test_consensusless_run_satisfies_definition_1(self, fast_network):
        n = 6
        submissions = closed_loop_workload(n, WorkloadConfig(transfers_per_process=3, seed=21))
        system = ConsensuslessSystem(
            process_count=n, initial_balance=100, network_config=fast_network, seed=2
        )
        system.schedule_submissions(submissions)
        system.run()
        report = ByzantineAssetTransferChecker(system.initial_balances()).check(
            system.observations()
        )
        assert report.ok, report.violations


class TestHeadlineComparison:
    def test_double_spend_attack_is_neutralised_end_to_end(self, fast_network):
        outcome = double_spend_experiment(
            process_count=7,
            config=ExperimentConfig(transfers_per_process=2, network=fast_network),
        )
        assert not outcome.conflicting_validated_anywhere
        assert outcome.definition_1_report.ok
        assert outcome.supply_conserved
        assert outcome.committed_honest_transfers > 0
