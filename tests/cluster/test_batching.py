"""Tests for the batched transfer node over the unchanged broadcast."""

import pytest

from repro.broadcast.secure_broadcast import payload_item_count
from repro.cluster.batching import BatchAnnouncement, BatchingTransferNode
from repro.cluster.shard import Shard
from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
from repro.mp.messages import TransferAnnouncement
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker


def _shard(batch_size, fast_network, broadcast="bracha", initial_balance=1_000):
    shard = Shard(
        index=0,
        replicas=4,
        initial_balance=initial_balance,
        broadcast=broadcast,
        batch_size=batch_size,
        network_config=fast_network,
        seed=3,
    )
    return shard.simulator, shard


def _submit_burst(shard, per_node=8, amount=1):
    # All submissions land at t=0, so the first batch is formed from a full
    # queue and the batching node exercises its coalescing path.
    for pid in range(4):
        destination = str((pid + 1) % 4)
        for index in range(per_node):
            shard.submit(time=0.0, issuer=pid, destination=destination, amount=amount)


class TestBatchAnnouncement:
    def test_item_count_feeds_generic_payload_accounting(self):
        transfers = tuple(
            TransferAnnouncement(Transfer("0", "1", 1, issuer=0, sequence=s))
            for s in (1, 2, 3)
        )
        batch = BatchAnnouncement(transfers)
        assert batch.item_count == 3
        assert payload_item_count(batch) == 3
        assert payload_item_count(transfers[0]) == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchAnnouncement(())

    def test_item_count_is_memoised_not_recomputed(self):
        # The count is a stored slot fixed at construction — the O(1)
        # contract of the per-delivery stats path — and it is derived
        # accounting: a wrong constructor value is corrected, and equality,
        # hashing and the repr-based content hash see only the announcements.
        transfers = tuple(
            TransferAnnouncement(Transfer("0", "1", 1, issuer=0, sequence=s))
            for s in (1, 2)
        )
        batch = BatchAnnouncement(transfers)
        assert BatchAnnouncement(transfers, item_count=99).item_count == 2
        assert BatchAnnouncement(transfers, item_count=99) == batch
        assert hash(BatchAnnouncement(transfers, item_count=99)) == hash(batch)
        assert "item_count" not in repr(batch)

    def test_stats_count_batch_items_per_delivery(self):
        # Counter correctness end to end: the per-delivery stats path reads
        # the memoised count, so payload_items advances by the batch size.
        from repro.broadcast.secure_broadcast import BroadcastStats

        transfers = tuple(
            TransferAnnouncement(Transfer("0", "1", 1, issuer=0, sequence=s))
            for s in (1, 2, 3)
        )
        stats = BroadcastStats()
        for payload in (BatchAnnouncement(transfers), transfers[0]):
            stats.delivered += 1
            stats.payload_items += payload_item_count(payload)
        assert stats.payload_items == 4
        assert stats.delivered == 2
        assert stats.items_per_broadcast == 2.0


class TestBatchingTransferNode:
    def test_batches_amortise_broadcast_instances(self, fast_network):
        simulator, shard = _shard(batch_size=8, fast_network=fast_network)
        shard.start()
        _submit_burst(shard, per_node=8)
        simulator.run_until_quiescent()
        result = shard.finalize(simulator.now)
        assert result.committed_count == 32
        # 8 transfers per node ride at most 2 broadcast instances each
        # (the first batch forms before any queueing, so it may be short).
        assert shard.broadcast_instances() <= 12
        assert shard.payload_items() == 32

    def test_batched_run_commits_the_same_transfers_as_unbatched(self, fast_network):
        outcomes = {}
        for batch_size in (1, 8):
            simulator, shard = _shard(batch_size=batch_size, fast_network=fast_network)
            shard.start()
            _submit_burst(shard, per_node=6)
            simulator.run_until_quiescent()
            shard.finalize(simulator.now)
            outcomes[batch_size] = sorted(
                (r.transfer.issuer, r.transfer.sequence, r.transfer.destination, r.transfer.amount)
                for r in shard.result.committed
            )
        assert outcomes[1] == outcomes[8]

    def test_batched_shard_satisfies_definition_1(self, fast_network):
        simulator, shard = _shard(batch_size=4, fast_network=fast_network)
        shard.start()
        _submit_burst(shard, per_node=5)
        simulator.run_until_quiescent()
        report = ByzantineAssetTransferChecker(shard.initial_balances()).check(
            shard.observations()
        )
        assert report.ok, report.violations

    def test_unaffordable_submissions_fail_within_a_batch(self, fast_network):
        simulator, shard = _shard(batch_size=4, fast_network=fast_network, initial_balance=10)
        shard.start()
        # 3 affordable + 1 overdraft, all queued before the first batch forms.
        for amount in (4, 4, 2, 5):
            shard.submit(time=0.0, issuer=0, destination="1", amount=amount)
        simulator.run_until_quiescent()
        result = shard.finalize(simulator.now)
        assert result.committed_count == 3
        assert len(result.rejected) == 1
        assert result.rejected[0].transfer.amount == 5

    def test_batching_works_over_echo_broadcast_too(self, fast_network):
        simulator, shard = _shard(batch_size=4, fast_network=fast_network, broadcast="echo")
        shard.start()
        _submit_burst(shard, per_node=4)
        simulator.run_until_quiescent()
        result = shard.finalize(simulator.now)
        assert result.committed_count == 16
        report = ByzantineAssetTransferChecker(shard.initial_balances()).check(
            shard.observations()
        )
        assert report.ok, report.violations

    def test_batch_size_one_matches_base_node_shape(self, fast_network):
        simulator, shard = _shard(batch_size=1, fast_network=fast_network)
        assert all(
            not isinstance(node, BatchingTransferNode) for node in shard.nodes.values()
        )

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ConfigurationError):
            BatchingTransferNode(
                node_id=0,
                initial_balances={"0": 10},
                broadcast_factory=lambda **kwargs: None,
                batch_size=0,
            )
