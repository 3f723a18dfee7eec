"""Integration and determinism tests for the cluster façade."""

import dataclasses
import inspect

import pytest

from repro.bft.consensus_transfer import ConsensusTransferSystem
from repro.bft.pbft import PbftConfig
from repro.cluster.shard import Shard, ShardSpec
from repro.cluster.system import ClusterSystem
from repro.common.errors import ConfigurationError
from repro.mp.system import ConsensuslessSystem
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)


def _workload(seed=5, rate=3_000.0, duration=0.03, users=400):
    return cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=users,
            aggregate_rate=rate,
            duration=duration,
            zipf_skew=1.0,
            seed=seed,
        )
    )


# One builder per system that takes an ``initial_balance``: (balance, network).
_BALANCE_BUILDERS = [
    lambda balance, network: ConsensuslessSystem(
        4, initial_balance=balance, network_config=network
    ),
    lambda balance, network: ClusterSystem(
        2, initial_balance=balance, network_config=network
    ),
    lambda balance, network: Shard(
        ShardSpec(0, initial_balance=balance, network_config=network)
    ),
]
_BALANCE_BUILDER_IDS = ["ConsensuslessSystem", "ClusterSystem", "Shard"]

# One factory per system that takes a batch size: (size, network).
_BATCH_BUILDERS = [
    lambda size, network: ConsensuslessSystem(4, batch_size=size, network_config=network),
    lambda size, network: ClusterSystem(2, batch_size=size, network_config=network),
    lambda size, network: Shard(ShardSpec(0, batch_size=size, network_config=network)),
    lambda size, network: ConsensusTransferSystem(
        4, network_config=network, pbft_config=PbftConfig(batch_size=size)
    ),
]
_BATCH_BUILDER_IDS = _BALANCE_BUILDER_IDS + ["ConsensusTransferSystem"]


def _system(fast_network, shards=2, batch=1, seed=11, **kwargs):
    return ClusterSystem(
        shard_count=shards,
        replicas_per_shard=4,
        batch_size=batch,
        network_config=fast_network,
        seed=seed,
        **kwargs,
    )


class TestClusterSystem:
    def test_all_submissions_commit_and_definition_1_holds(self, fast_network):
        system = _system(fast_network, shards=2)
        workload = _workload()
        scheduled = system.schedule_submissions(workload)
        result = system.run()
        assert scheduled == len(workload)
        assert result.committed_count == scheduled
        assert not result.rejected
        report = system.check_definition1()
        assert report.ok, report.violations
        assert report.checked_transfers > 0
        assert len(report.shard_reports) == 2

    def test_money_is_conserved_cluster_wide(self, fast_network):
        initial = 5_000
        system = _system(fast_network, shards=3, initial_balance=initial)
        system.schedule_submissions(_workload())
        system.run()
        expected = 3 * 4 * initial  # shards x replicas x initial balance
        assert system.total_supply() == expected

    def test_every_shard_receives_traffic(self, fast_network):
        system = _system(fast_network, shards=2)
        system.schedule_submissions(_workload())
        result = system.run()
        assert all(count > 0 for count in result.per_shard_committed())
        assert result.shard_count == 2

    def test_batched_cluster_commits_everything_with_fewer_messages(self, fast_network):
        workload = _workload(rate=6_000.0)
        unbatched = _system(fast_network, shards=2, batch=1)
        unbatched.schedule_submissions(workload)
        plain = unbatched.run()
        batched = _system(fast_network, shards=2, batch=8)
        batched.schedule_submissions(workload)
        coalesced = batched.run()
        assert coalesced.committed_count == plain.committed_count == len(workload)
        assert coalesced.messages_sent < plain.messages_sent
        assert batched.check_definition1().ok

    def test_result_mirrors_system_result_api(self, fast_network):
        from repro.eval.metrics import summarize_result

        system = _system(fast_network)
        system.schedule_submissions(_workload())
        result = system.run()
        summary = summarize_result("cluster", 8, result)
        assert summary.committed == result.committed_count
        assert summary.throughput == pytest.approx(result.throughput)
        assert summary.messages_sent == result.messages_sent
        assert result.messages_per_commit > 0
        assert result.average_latency > 0
        assert 1.0 <= result.load_imbalance() < 4.0

    def test_rejects_degenerate_cluster(self, fast_network):
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=0)
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, replicas_per_shard=3)
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, batch_size=0)

    @pytest.mark.parametrize(
        "balance", [float("nan"), -5, 2.5, float("inf"), True, 5.0]
    )
    @pytest.mark.parametrize("system", _BALANCE_BUILDERS, ids=_BALANCE_BUILDER_IDS)
    def test_refuses_a_balance_that_is_not_a_natural(self, fast_network, system, balance):
        """Balances are naturals.  A NaN used to run to completion and only
        then fail Definition 1 and the supply audit; a debt or a fraction was
        accepted silently.  ``True`` and ``5.0`` compare like ints but are not
        an ``Amount``.  A shard builds through ConsensuslessSystem, so one
        check covers every system."""
        with pytest.raises(ConfigurationError, match="initial_balance"):
            system(balance, fast_network)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 2.5, True, 0])
    @pytest.mark.parametrize("system", _BATCH_BUILDERS, ids=_BATCH_BUILDER_IDS)
    def test_refuses_a_batch_size_that_is_not_a_positive_int(
        self, fast_network, system, size
    ):
        """A batch is a count of transfers.  Figure 4 used to run a NaN batch
        to completion with nothing committed and run 2.5 as batch 3; PBFT
        accepted both and raised a ``TypeError`` mid-run.  Every system
        refuses them when it is built."""
        with pytest.raises(ConfigurationError, match="batch_size"):
            system(size, fast_network)

    @pytest.mark.parametrize("size", [1, 8])
    @pytest.mark.parametrize("system", _BATCH_BUILDERS, ids=_BATCH_BUILDER_IDS)
    def test_accepts_a_positive_int_batch_size(self, fast_network, system, size):
        """1 is the lower bound, inclusive, and the size reaches every
        replica unchanged."""
        built = system(size, fast_network)
        try:
            if isinstance(built, ConsensusTransferSystem):
                sizes = [replica.config.batch_size for replica in built.replicas.values()]
            else:
                groups = getattr(built, "shards", [built])
                sizes = [node.batch_size for group in groups for node in group.nodes.values()]
            assert sizes and set(sizes) == {size}
        finally:
            if isinstance(built, ClusterSystem):
                built.close()

    @pytest.mark.parametrize("system", _BALANCE_BUILDERS, ids=_BALANCE_BUILDER_IDS)
    def test_accepts_a_zero_balance(self, fast_network, system):
        """Zero is a natural: the lower bound is inclusive."""
        built = system(0, fast_network)
        try:
            shards = getattr(built, "shards", [built])
            balances = [b for shard in shards for b in shard.initial_balances().values()]
            assert balances and set(balances) == {0}
        finally:
            if isinstance(built, ClusterSystem):
                built.close()


class TestKnobCensus:
    """Every constructor knob is named here, so adding one edits this on purpose."""

    def test_cluster_system_keywords(self):
        assert list(inspect.signature(ClusterSystem.__init__).parameters)[1:] == [
            "shard_count",
            "replicas_per_shard",
            "batch_size",
            "initial_balance",
            "network_config",
            "backend",
            "epoch",
            "max_workers",
            "telemetry",
            "seed",
        ]

    def test_consensusless_system_keywords(self):
        assert list(inspect.signature(ConsensuslessSystem.__init__).parameters)[1:] == [
            "process_count",
            "initial_balance",
            "broadcast",
            "network_config",
            "fault_model",
            "seed",
            "batch_size",
        ]

    def test_shard_spec_fields(self):
        """A shard is built from its recipe alone, and the recipe names each
        shard knob once."""
        assert [field.name for field in dataclasses.fields(ShardSpec)] == [
            "index",
            "replicas",
            "initial_balance",
            "batch_size",
            "network_config",
            "seed",
        ]
        assert list(inspect.signature(Shard.__init__).parameters)[1:] == ["spec"]

    def test_cluster_workload_config_fields(self):
        assert [field.name for field in dataclasses.fields(ClusterWorkloadConfig)] == [
            "user_count",
            "aggregate_rate",
            "duration",
            "zipf_skew",
            "min_amount",
            "max_amount",
            "cross_shard_fraction",
            "hotspot",
            "router",
            "seed",
        ]


class TestCrossShardRoundTrip:
    """A pays B across shards, B spends the received funds onwards and back.

    The amounts are chosen so B's onward spend *exceeds* its initial balance:
    it can only commit because the settlement relay minted A's payment into
    B's account.  This is the end-to-end proof that cross-shard money is
    spendable at the destination, not merely recorded.
    """

    def _users(self, router):
        a = next(u for u in range(100_000) if router.shard_of(u) == 0)
        b = next(u for u in range(100_000) if router.shard_of(u) == 1)
        c = next(
            u
            for u in range(100_000)
            if router.shard_of(u) == 1
            and router.local_account_of(u) != router.local_account_of(b)
        )
        return a, b, c

    def _run_round_trip(self, fast_network, seed=31):
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            initial_balance=10,
            network_config=fast_network,
            seed=seed,
        )
        a, b, c = self._users(system.router)
        system.schedule_submissions(
            [
                # A (shard 0) pays B (shard 1) ...
                ClusterSubmission(time=0.001, source_user=a, destination_user=b, amount=9),
                # ... B spends more than its initial 10 to C (shard 1) ...
                ClusterSubmission(time=0.05, source_user=b, destination_user=c, amount=15),
                # ... and sends the rest back to A (shard 0).
                ClusterSubmission(time=0.09, source_user=b, destination_user=a, amount=3),
            ]
        )
        result = system.run()
        return system, result, (a, b, c)

    def test_received_funds_round_trip_and_audit_clean(self, fast_network):
        system, result, (a, b, c) = self._run_round_trip(fast_network)
        assert result.committed_count == 3
        assert not result.rejected
        router = system.router
        balances = {
            user: system.shards[router.shard_of(user)]
            .nodes[0]
            .balance_of(router.local_account_of(user))
            for user in (a, b, c)
        }
        assert balances[b] == 10 + 9 - 15 - 3  # = 1: B spent what it received
        report = system.check_definition1()
        assert report.ok, report.violations
        assert report.conservation.fully_settled
        # Two settlement legs: A->B (shard 0 -> 1) and B->A (shard 1 -> 0).
        assert len(system.settlement_signature()) == 2

    def test_round_trip_is_deterministic_per_seed(self, fast_network):
        first, first_result, users = self._run_round_trip(fast_network)
        second, second_result, _ = self._run_round_trip(fast_network)
        assert first.committed_signature() == second.committed_signature()
        assert first.settlement_signature() == second.settlement_signature()
        assert first_result.events_processed == second_result.events_processed
        router = first.router
        for user in users:
            shard, account = router.shard_of(user), router.local_account_of(user)
            assert first.shards[shard].nodes[0].balance_of(account) == second.shards[
                shard
            ].nodes[0].balance_of(account)


class TestClusterDeterminism:
    """Same seed => identical execution (the (time, sequence) ordering contract)."""

    def _run_once(self, fast_network, seed=23):
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            batch_size=4,
            network_config=fast_network,
            seed=seed,
        )
        workload = _workload(seed=2, rate=4_000.0)
        system.schedule_submissions(workload)
        result = system.run()
        return system, result

    def test_same_seed_same_committed_sequence_and_message_counts(self, fast_network):
        first_system, first = self._run_once(fast_network)
        second_system, second = self._run_once(fast_network)
        assert first_system.committed_signature() == second_system.committed_signature()
        assert first_system.settlement_signature() == second_system.settlement_signature()
        assert first_system.settlement_signature()  # settlement did run
        assert first.messages_sent == second.messages_sent
        assert first.events_processed == second.events_processed
        assert first.duration == second.duration
        assert [r.messages_sent for r in first.shard_results] == [
            r.messages_sent for r in second.shard_results
        ]

    def test_different_seed_changes_the_schedule(self, fast_network):
        first_system, _ = self._run_once(fast_network, seed=23)
        second_system, _ = self._run_once(fast_network, seed=24)
        # Same workload, different network/shard seeds: the committed set is
        # the same but completion times must differ somewhere.
        assert first_system.committed_signature() != second_system.committed_signature()
