"""Protocol state is O(in-flight): the instance tables after whole runs.

A broadcast layer forgets an instance once its source-order buffer releases
it (``repro.broadcast.secure_broadcast``), and a PBFT replica forgets a slot
once it has executed and prepared it.  So a quiescent, fault-free run ends
with every table empty, a Byzantine run keeps only the instances no buffer
has released, and the largest table over a run does not grow with its
horizon.  These are counts, not memory.
"""

import pytest

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.bft.pbft import PbftConfig
from repro.byzantine.faults import FaultKind, FaultModel
from repro.cluster.system import ClusterSystem
from repro.mp.consensusless_transfer import account_of
from repro.mp.system import ConsensuslessSystem
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import ClusterSubmission
from repro.workloads.generators import WorkloadConfig, closed_loop_workload

BROADCASTS = ("bracha", "echo")


def table_size(layer):
    """Instances a layer holds: Bracha's table, or echo's two."""
    if hasattr(layer, "_instances"):
        return len(layer._instances)
    return len(layer._as_receiver) + len(layer._as_origin)


def figure4(process_count, transfers, broadcast="bracha"):
    system = ConsensuslessSystem(process_count=process_count, broadcast=broadcast, seed=7)
    submissions = closed_loop_workload(
        process_count, WorkloadConfig(transfers_per_process=transfers, seed=7)
    )
    assert system.schedule_submissions(submissions) == len(submissions)
    return system, len(submissions)


def peak_while_running(network, tables):
    """Run ``network`` to quiescence; the largest of ``tables()`` after any event."""
    peak = 0

    def probe():
        nonlocal peak
        peak = max(peak, max(tables()))
        return False

    network.run(stop_when=probe)
    return peak


def layer_peak(system):
    """Run a scheduled Figure 4 system; its largest layer table after any event."""
    layers = [node.broadcast_layer for node in system.correct_nodes()]
    return peak_while_running(system.network, lambda: map(table_size, layers))


class TestQuiescentRunsEndEmpty:
    @pytest.mark.parametrize("broadcast", BROADCASTS)
    def test_figure4(self, broadcast):
        system, submitted = figure4(7, 3, broadcast)
        assert system.run().committed_count == submitted
        for node in system.correct_nodes():
            assert table_size(node.broadcast_layer) == 0

    def test_toy_cluster(self, fast_network):
        """Every shard runs Bracha: the cluster has no broadcast knob."""
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            batch_size=2,
            network_config=fast_network,
            seed=3,
        )
        try:
            submissions = [
                ClusterSubmission(
                    time=0.0002 * i, source_user=i % 12, destination_user=(i * 5 + 1) % 12,
                    amount=1 + i % 3,
                )
                for i in range(40)
            ]
            system.schedule_submissions(submissions)
            assert system.run().committed_count == len(submissions)
            layers = [node.broadcast_layer for shard in system.shards for node in shard.nodes.values()]
            assert len(layers) == 8
            assert all(table_size(layer) == 0 for layer in layers)
        finally:
            system.close()

    def test_pbft(self):
        system = ConsensusTransferSystem(
            process_count=7, pbft_config=PbftConfig(batch_size=4), seed=7
        )
        submissions = closed_loop_workload(7, WorkloadConfig(transfers_per_process=3, seed=7))
        system.schedule_submissions(submissions)
        assert system.run().committed_count == len(submissions)
        assert all(replica._instances == {} for replica in system.replicas.values())


@pytest.mark.parametrize("broadcast", BROADCASTS)
def test_under_faults_only_unreleased_instances_remain(broadcast):
    """The ``fig4-byzantine`` toy geometry: N = 7, one double-spender, one silent."""
    count, attacker = 7, 6
    fault_model = FaultModel(
        total_processes=count, faults={attacker: FaultKind.DOUBLE_SPEND, 5: FaultKind.SILENT}
    )
    system = ConsensuslessSystem(
        process_count=count, network_config=NetworkConfig(), fault_model=fault_model,
        broadcast=broadcast, seed=7,
    )
    system.schedule_submissions(
        s
        for s in closed_loop_workload(count, WorkloadConfig(transfers_per_process=2, seed=7))
        if fault_model.is_correct(s.issuer) and s.destination != account_of(attacker)
    )
    system.trigger_attacks(at_time=0.0005)
    system.run()
    for node in system.correct_nodes():
        layer = node.broadcast_layer
        table = layer._instances if broadcast == "bracha" else layer._as_receiver
        # The equivocated instance never gathers a quorum, so it is all that is left.
        assert set(table) == {(attacker, 1)} and table_size(layer) == 1
        assert not layer._order_buffer.released(attacker, 1)


class TestTheLargestTableDoesNotGrowWithTheHorizon:
    @pytest.mark.parametrize("process_count", [4, 7])
    def test_bracha_peak_is_the_same_at_four_times_the_horizon(self, process_count):
        peaks = [layer_peak(figure4(process_count, transfers)[0]) for transfers in (3, 12)]
        assert peaks[0] == peaks[1] <= 2 * process_count

    # Echo and PBFT peaks move by one or two with the schedule, so they are
    # held to a bound well under the 4x run's instance count (48 at N = 4).

    def test_echo_peak_stays_in_flight_sized(self):
        assert layer_peak(figure4(4, 12, "echo")[0]) <= 2 * 4

    def test_pbft_peak_stays_in_flight_sized(self):
        system = ConsensusTransferSystem(
            process_count=4, pbft_config=PbftConfig(batch_size=4), seed=7
        )
        system.schedule_submissions(
            closed_loop_workload(4, WorkloadConfig(transfers_per_process=12, seed=7))
        )
        replicas = list(system.replicas.values())
        peak = peak_while_running(
            system.network, lambda: (len(replica._instances) for replica in replicas)
        )
        assert peak <= 4
