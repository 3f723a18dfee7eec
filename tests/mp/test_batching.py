"""Batching is a parameter of the Figure 4 node, driven through its façade.

``ConsensuslessSystem(batch_size=b)`` puts up to ``b`` of one issuer's queued
transfers on one secure-broadcast instance; receivers unpack the batch into
the per-announcement path, so each transfer validates as it would unbatched.
"""

import pytest

from repro.broadcast.secure_broadcast import BroadcastStats, payload_item_count
from repro.common.errors import ConfigurationError
from repro.common.types import Transfer
from repro.mp.consensusless_transfer import ConsensuslessTransferNode
from repro.mp.messages import BatchAnnouncement, TransferAnnouncement
from repro.mp.system import ClientSubmission, ConsensuslessSystem
from repro.spec.byzantine_spec import ByzantineAssetTransferChecker


def _system(batch_size, fast_network, broadcast="bracha", initial_balance=1_000):
    return ConsensuslessSystem(
        process_count=4,
        initial_balance=initial_balance,
        broadcast=broadcast,
        network_config=fast_network,
        seed=3,
        batch_size=batch_size,
    )


def _burst(per_node, amount=1):
    # All submissions land at t=0, so every node's first broadcast goes out
    # alone and the rest of its queue is coalesced behind it.
    return [
        ClientSubmission(time=0.0, issuer=pid, destination=str((pid + 1) % 4), amount=amount)
        for pid in range(4)
        for _ in range(per_node)
    ]


def _run(system, submissions):
    system.schedule_submissions(submissions)
    return system.run()


def _definition_1(system):
    return ByzantineAssetTransferChecker(system.initial_balances()).check(system.observations())


def _record_broadcasts(node):
    """Wrap ``node``'s broadcast layer so every payload it broadcasts is kept."""
    layer = node.broadcast_layer
    broadcast, payloads = layer.broadcast, []

    def record(payload):
        payloads.append(payload)
        return broadcast(payload)

    layer.broadcast = record
    return payloads


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


class TestBatchedNode:
    def test_batches_amortise_broadcast_instances(self, fast_network):
        system = _system(batch_size=8, fast_network=fast_network)
        result = _run(system, _burst(per_node=8))
        assert result.committed_count == 32
        # Each node's 8 transfers ride 2 instances: the first goes out alone,
        # the other 7 queue behind it and leave as one batch.
        stats = system.correct_node(0).broadcast_layer.stats
        assert stats.delivered == 8
        assert stats.payload_items == 32

    def test_batched_run_commits_the_same_transfers_as_unbatched(self, fast_network):
        outcomes = {}
        for batch_size in (1, 8):
            result = _run(_system(batch_size, fast_network), _burst(per_node=6))
            outcomes[batch_size] = sorted(
                (r.transfer.issuer, r.transfer.sequence, r.transfer.destination, r.transfer.amount)
                for r in result.committed
            )
        assert outcomes[1] == outcomes[8]

    def test_batched_run_satisfies_definition_1(self, fast_network):
        system = _system(batch_size=4, fast_network=fast_network)
        _run(system, _burst(per_node=5))
        report = _definition_1(system)
        assert report.ok, report.violations

    def test_unaffordable_submissions_fail_within_a_batch(self, fast_network):
        system = _system(batch_size=4, fast_network=fast_network, initial_balance=10)
        # The first transfer goes out alone; 4 + 2 fit the balance left after
        # it and ride one batch, 5 does not and fails on the spot.
        result = _run(
            system,
            [ClientSubmission(0.0, 0, "1", amount) for amount in (4, 4, 2, 5)],
        )
        assert sorted(r.transfer.amount for r in result.committed) == [2, 4, 4]
        assert [r.transfer.amount for r in result.rejected] == [5]
        assert system.correct_node(0).broadcast_layer.stats.delivered == 2

    def test_batching_works_over_echo_broadcast_too(self, fast_network):
        system = _system(batch_size=4, fast_network=fast_network, broadcast="echo")
        result = _run(system, _burst(per_node=4))
        assert result.committed_count == 16
        report = _definition_1(system)
        assert report.ok, report.violations


@pytest.mark.parametrize(
    "batch_size, payload_type",
    [(1, TransferAnnouncement), (8, BatchAnnouncement)],
)
def test_batch_one_broadcasts_an_announcement_and_larger_batches_always_a_batch(
    fast_network, batch_size, payload_type
):
    """One queued transfer: batch 1 sends the paper's plain announcement,
    batch 8 a one-item batch (the payload type the cluster fingerprints pin)."""
    system = _system(batch_size, fast_network)
    system.network.start()
    payloads = _record_broadcasts(system.correct_node(0))
    result = _run(system, [ClientSubmission(0.0, 0, "1", 3)])
    assert result.committed_count == 1
    assert [type(payload) for payload in payloads] == [payload_type]
    assert payload_item_count(payloads[0]) == 1


@pytest.mark.parametrize("batch_size", [0, -1])
def test_a_nonpositive_batch_size_is_rejected(fast_network, batch_size):
    with pytest.raises(ConfigurationError):
        ConsensuslessTransferNode(
            node_id=0,
            initial_balances={"0": 10},
            broadcast_factory=lambda **kwargs: None,
            batch_size=batch_size,
        )
    with pytest.raises(ConfigurationError):
        _system(batch_size, fast_network)
