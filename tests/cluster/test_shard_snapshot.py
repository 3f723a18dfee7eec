"""ShardSnapshot round trips at arbitrary barriers, on every backend.

The snapshot/restore pair was born to rehydrate driver-side twins at the end
of a process-pool run; the live-migration layer leans on it much harder —
the evicted shard's snapshot is the transfer checksum a migrating shard's
deterministic replay must reproduce, at *whatever* barrier the move happens.
This suite pins the contract that makes that safe: a snapshot taken at any
pause barrier (not just quiescence), restored onto a never-run twin built
from the same spec, reproduces every read surface — balances, observations,
result streams, broadcast counters, resident/retired settlement records and
the mid-flight compaction state (offsets, retired-outbound totals, *pending
retirements*) — byte for byte, on Serial, Thread and Process alike.
"""

import pickle

import pytest

from repro.cluster import ClusterSystem
from repro.cluster.settlement import settlement_account, settlement_issuer
from repro.common.types import Transfer
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)

BACKENDS = ("serial", "thread", "process")
# Pause points chosen mid-workload: settlement traffic is in flight at most
# of them (the workload runs to ~0.02 plus settlement tails).
PAUSES = (0.006, 0.011, 0.016, 0.021)


def _build(fast_network, backend, seed=3):
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        seed=seed,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=1_500.0,
            duration=0.02,
            cross_shard_fraction=0.8,
            router=system.router,
            seed=seed,
        )
    )
    system.schedule_submissions(workload)
    return system


def _assert_round_trip(shard):
    """Snapshot -> fresh twin -> restore must reproduce every read surface."""
    snapshot = shard.snapshot()
    twin = shard.spec().build()
    twin.restore(snapshot)
    # The strongest form first: re-snapshotting the twin reproduces the
    # original snapshot exactly (node state, streams, counters, compaction
    # state — pending retirements included).
    assert twin.snapshot() == snapshot
    # And the surfaces callers actually read agree field by field.
    for pid in shard.nodes:
        assert (
            twin.nodes[pid].all_known_balances()
            == shard.nodes[pid].all_known_balances()
        )
    assert twin.observations() == shard.observations()
    assert twin.resident_settlement_records() == shard.resident_settlement_records()
    assert twin.retired_record_count() == shard.retired_record_count()
    assert twin.broadcast_instances() == shard.broadcast_instances()
    assert twin.payload_items() == shard.payload_items()
    assert [r.transfer for r in twin.result.committed] == [
        r.transfer for r in shard.result.committed
    ]
    return snapshot


class TestArbitraryBarrierRoundTrips:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trips_at_every_pause_barrier(self, fast_network, backend):
        """Snapshots taken mid-run — settlement in flight, records already
        retired, ledgers partially compacted — round-trip losslessly."""
        system = _build(fast_network, backend)
        saw_resident = False
        saw_retired_mid_run = False
        try:
            for pause in PAUSES:
                system.run(until=pause)
                for shard in system.shards:
                    snapshot = _assert_round_trip(shard)
                    # Everything that crosses a process boundary pickles.
                    assert pickle.loads(pickle.dumps(snapshot)) == snapshot
                saw_resident = saw_resident or system.resident_settlement_records() > 0
                saw_retired_mid_run = (
                    saw_retired_mid_run or system.retired_records() > 0
                )
            # The pauses must not all be vacuous: the grid catches the run
            # with settlement records resident and with compaction already
            # active — the genuinely mid-flight regimes.
            assert saw_resident
            assert saw_retired_mid_run
            result = system.run()  # drain; final barrier round-trips too
            for shard in system.shards:
                _assert_round_trip(shard)
            assert result.audit["conserved"]
        finally:
            system.close()

    def test_round_trip_preserves_mid_flight_pending_retirements(self, fast_network):
        """A retirement certificate can outrun a slow replica's validation;
        the parked transfer must survive snapshot -> restore and still
        compact when its validation lands (here: applied directly)."""
        system = _build(fast_network, "serial")
        try:
            shard = system.shards[0]
            shard.start()
            node = shard.nodes[0]
            # A retirement for an outbound record this replica has not
            # validated: retire_settled must park it.
            parked = Transfer(
                source="0", destination="x1:0", amount=7, issuer=0, sequence=1
            )
            node.retire_settled([parked])
            assert parked in node._pending_retirements
            snapshot = _assert_round_trip(shard)
            assert snapshot.nodes[0].pending_retirements == {parked}
            # The restored twin behaves like the original: the parked
            # retirement compacts the moment the record appears locally.
            twin = shard.spec().build()
            twin.restore(snapshot)
            twin_node = twin.nodes[0]
            before = twin_node.retired_records
            twin_node.book.record(parked)
            twin_node.retire_settled([parked])  # record now known: retires
            assert twin_node.retired_records == before + 1
        finally:
            system.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pause_snapshots_identical_across_backends(self, fast_network, backend):
        """The snapshot at a barrier is itself backend-invariant: whatever
        executed the epochs, the same pause yields the same state."""
        reference = _build(fast_network, "serial")
        other = _build(fast_network, backend)
        try:
            reference.run(until=PAUSES[1])
            other.run(until=PAUSES[1])
            for shard, twin in zip(reference.shards, other.shards):
                assert shard.snapshot() == twin.snapshot()
        finally:
            reference.close()
            other.close()


class TestSnapshotCarriesTheLifecycle:
    def test_snapshot_fields_cover_compaction_state(self, fast_network):
        """The lifecycle fields (offsets, retired outbound, counters) travel
        with the snapshot — a run with retirements restores them non-empty."""
        system = _build(fast_network, "serial")
        try:
            system.run()
            assert system.retired_records() > 0
            shard = system.shards[0]
            snapshot = shard.snapshot()
            node_snapshot = snapshot.nodes[0]
            assert node_snapshot.retired_records > 0
            assert node_snapshot.retired_outbound
            assert node_snapshot.retired_offsets
            twin = shard.spec().build()
            twin.restore(snapshot)
            assert twin.nodes[0].retired_records == node_snapshot.retired_records
            assert (
                twin.nodes[0].retired_outbound_total()
                == shard.nodes[0].retired_outbound_total()
            )
        finally:
            system.close()

    def test_mint_survives_the_round_trip_spendably(self, fast_network):
        """A certified mint applied before the snapshot is spendable state:
        the restored twin reports the credited balance and the mint in its
        dependency set."""
        system = _build(fast_network, "serial")
        try:
            shard = system.shards[1]
            shard.start()
            mint = Transfer(
                source=settlement_account(0, 2),
                destination="0",
                amount=13,
                issuer=settlement_issuer(0, 2),
                sequence=1,
            )
            for pid in sorted(shard.nodes):
                shard.nodes[pid].mint_certified_credit(mint)
            snapshot = _assert_round_trip(shard)
            twin = shard.spec().build()
            twin.restore(snapshot)
            initial = shard.initial_balances()["0"]
            assert twin.nodes[0].balance_of("0") == initial + 13
            assert mint in twin.nodes[0].deps
        finally:
            system.close()
