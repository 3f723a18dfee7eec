"""ShardSnapshot round trips at arbitrary barriers, on every backend.

The snapshot/restore pair rehydrates the driver-side twins at the end of a
process-pool run (and at every pause of one).  This suite pins the contract
that makes that safe: a snapshot taken at any pause barrier (not just
quiescence), restored onto a never-run twin built from the same spec,
reproduces every read surface — balances, observations, result streams,
broadcast counters, resident/retired settlement records and the mid-flight
retirement state (offsets, retired-outbound totals, *pending retirements*)
— byte for byte, on Serial and Process alike (the pool also shrunk to one
worker that hosts both shards).  Then the validated history's two columns:
they round-trip through a framed snapshot with their sharing intact, a pool
run's twins hold the serial run's columns entry for entry, and the columns
build no object per validation.  Last, a run whose state a restore must
carry: balances that depend on credits validated long before the final
snapshot — also paused mid-run, where the pool restores the twins before
the workers go on.
"""

import dataclasses
import pickle

import pytest

from repro.cluster import codec
from repro.cluster.shard import Shard
from repro.cluster.system import ClusterSystem
from repro.cluster.settlement import settlement_account, settlement_issuer
from repro.common.types import Transfer
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)

# Each backend by name, plus "one-worker": the process pool shrunk to a
# single worker that hosts both shards.
DEPLOYMENTS = ("serial", "process", "one-worker")
# Pause points chosen mid-workload: settlement traffic is in flight at most
# of them (the workload runs to ~0.02 plus settlement tails).
PAUSES = (0.006, 0.011, 0.016, 0.021)


def _build(fast_network, backend, seed=3):
    max_workers = None
    if backend == "one-worker":
        backend, max_workers = "process", 1
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        max_workers=max_workers,
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
    twin = Shard(shard.spec())
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


def _checked_fresh(snapshot, quorum):
    """``snapshot`` as a pool worker reports it: a certificate crosses the
    pipe to its shard as a copy whose signatures carry no verdict, so the
    first check there — the first inbox's, or the gate's — verifies its
    ``quorum`` signatures fresh (``sig.verify``, not ``sig.verify_cached``)."""
    inbox, gate = snapshot.inboxes[0], snapshot.gate
    buffered = sum(len(slots) for slots in inbox["_buffered"].values())
    counters = dict(snapshot.metrics["counters"])
    counters["sig.verify_cached"] -= quorum * (inbox["accepted"] + buffered + gate["accepted"])
    return dataclasses.replace(snapshot, metrics={**snapshot.metrics, "counters": counters})


class TestArbitraryBarrierRoundTrips:
    @pytest.mark.parametrize("backend", DEPLOYMENTS)
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
            twin = Shard(shard.spec())
            twin.restore(snapshot)
            twin_node = twin.nodes[0]
            before = twin_node.retired_records
            twin_node.book.record(parked)
            twin_node.retire_settled([parked])  # record now known: retires
            assert twin_node.retired_records == before + 1
        finally:
            system.close()

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_pause_snapshots_identical_across_backends(self, fast_network, backend):
        """The snapshot at a barrier is itself backend-invariant: whatever
        executed the epochs, the same pause yields the same state.  A
        certificate check counts in the checking shard's registry wherever
        the signer runs; only the verdicts a pipe drops differ, by exactly
        the checks they make fresh."""
        reference = _build(fast_network, "serial")
        other = _build(fast_network, backend)
        try:
            reference.run(until=PAUSES[1])
            other.run(until=PAUSES[1])
            for shard, twin in zip(reference.shards, other.shards):
                expected = shard.snapshot()
                if backend != "serial":
                    expected = _checked_fresh(expected, shard.quorum_size)
                assert twin.snapshot() == expected
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
            twin = Shard(shard.spec())
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
            twin = Shard(shard.spec())
            twin.restore(snapshot)
            initial = shard.initial_balances()["0"]
            assert twin.nodes[0].balance_of("0") == initial + 13
            assert mint in twin.nodes[0].deps
        finally:
            system.close()


def _columns(node):
    return node._validated, node._validated_deps


def _assert_columns_share_the_group_objects(shard):
    """Every replica's dependency entry for a transfer is one tuple object,
    and every validated transfer still in a replica's book is the very object
    its ``hist`` holds: the columns point at what the group already has."""
    declared = {}
    for pid in sorted(shard.nodes):
        node = shard.nodes[pid]
        validated, dependencies = _columns(node)
        assert len(validated) == len(dependencies)
        held = {id(record) for records in node.hist.values() for record in records}
        for transfer, entry in zip(validated, dependencies):
            assert declared.setdefault(transfer, entry) is entry
            if transfer in node.book:
                assert id(transfer) in held
    return declared


class TestTheValidatedColumns:
    """A replica's validated history is two columns: the transfers and, beside
    each, the dependency ids its announcement declared."""

    @pytest.mark.parametrize("pause", PAUSES[1:2] + (None,))
    def test_the_columns_round_trip_through_a_framed_snapshot(self, fast_network, pause):
        """Through the codec, as the pool ships them: equal entry for entry,
        and still sharing one tuple per announcement and the book's
        transfers, because a whole shard is one frame."""
        system = _build(fast_network, "serial")
        try:
            system.run(until=pause)
            for shard in system.shards:
                snapshot = codec.decode(codec.encode(shard.snapshot()))
                twin = Shard(shard.spec())
                twin.restore(snapshot)
                for pid, node in shard.nodes.items():
                    assert _columns(twin.nodes[pid]) == _columns(node)
                    assert snapshot.nodes[pid].validated == node._validated
                    assert snapshot.nodes[pid].dependencies == node._validated_deps
                _assert_columns_share_the_group_objects(twin)
        finally:
            system.close()

    @pytest.mark.parametrize("backend", DEPLOYMENTS[1:])
    def test_pool_twins_hold_the_serial_columns(self, fast_network, backend):
        reference = _build(fast_network, "serial")
        other = _build(fast_network, backend)
        try:
            reference.run()
            other.run()
            for shard, twin in zip(reference.shards, other.shards):
                assert shard.nodes.keys() == twin.nodes.keys()
                for pid, node in shard.nodes.items():
                    validated, dependencies = _columns(twin.nodes[pid])
                    assert validated == node._validated
                    assert dependencies == node._validated_deps
                    assert validated, "a replica validated nothing"
        finally:
            reference.close()
            other.close()

    def test_no_object_is_built_per_validation(self, fast_network):
        """The guard on the columns' cost: replicas of one shard share each
        announcement's dependency tuple, the items of the validated column
        are the ``Transfer`` objects the book holds, and a certificate's
        mints are one transfer across the replicas."""
        system = _build(fast_network, "serial")
        try:
            system.run()
            for shard in system.shards:
                declared = _assert_columns_share_the_group_objects(shard)
                assert any(declared.values()), "no transfer declared a dependency"
                mints = {}
                for node in shard.nodes.values():
                    for transfer in node._validated:
                        if transfer.issuer < 0:
                            assert mints.setdefault(transfer, transfer) is transfer
                assert mints, "no settlement credit was minted"
        finally:
            system.close()


def _three_shards(fast_network, deployment):
    """Three shards, batch 2, seed 3; ``one-worker`` is the pool with one worker."""
    max_workers = 2
    if deployment == "one-worker":
        deployment, max_workers = "process", 1
    return ClusterSystem(
        shard_count=3,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=fast_network,
        backend=deployment,
        max_workers=max_workers,
        seed=3,
    )


class TestRestoredBalancesCarryHistory:
    """A restored node must still afford what its history paid for.

    Balances are a running sum, not a walk over ``hist``: snapshots ship
    ``hist`` + offsets and the sum is rebuilt on restore.  Here one account's
    burst-two spending (1 250) is only affordable thanks to a local credit
    (450) and a cross-shard mint (300) validated in burst one.  On the
    process pool the driver's twins are restored from the workers'
    snapshots.  An under-reporting rebuild rejects or parks the 1 200
    payment; an over-reporting one commits the final overdraft.
    """

    @staticmethod
    def _user(router, shard, process):
        return next(
            user
            for user in range(100_000)
            if router.shard_of(user) == shard and router.local_process_of(user) == process
        )

    def _run(self, fast_network, deployment, pause=None):
        system = _three_shards(fast_network, deployment)
        spender = self._user(system.router, 0, 0)
        local_payer = self._user(system.router, 0, 1)
        remote_payer = self._user(system.router, 1, 2)
        payee = self._user(system.router, 2, 3)
        system.schedule_submissions(
            [
                ClusterSubmission(0.0005, local_payer, spender, 450),
                ClusterSubmission(0.0007, remote_payer, spender, 300),
                # Burst two, after the gap.
                ClusterSubmission(0.1005, spender, payee, 1_200),
                ClusterSubmission(0.1009, spender, local_payer, 50),
                ClusterSubmission(0.1100, spender, payee, 1),  # nothing left
            ]
        )
        if pause is not None:
            system.run(until=pause)
            # Burst one is validated everywhere and burst two not yet begun:
            # the spender's history (restored, on the pool) is all it owns.
            shard = system.shards[0]
            account = system.router.local_account_of(spender)
            for pid in sorted(shard.nodes):
                assert shard.nodes[pid].balance_of(account) == 500 + 450 + 300
        return system, system.run()

    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    def test_plain_run(self, fast_network, deployment):
        reference_system, reference = self._run(fast_network, "serial")
        system, result = self._run(fast_network, deployment)
        try:
            assert sorted(record.transfer.amount for record in reference.committed) == [
                50, 300, 450, 1_200
            ]
            assert [record.transfer.amount for record in reference.rejected] == [1]
            assert result.fingerprint() == reference.fingerprint()
            assert result.committed_count == 4
            assert system.check_definition1().ok
            assert result.audit["conserved"]
        finally:
            reference_system.close()
            system.close()


    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    def test_paused_between_the_bursts(self, fast_network, deployment):
        """Paused in the gap, a pool run restores the driver's twins from
        the workers' snapshots mid-run; the workers keep their own state, so
        the resumed run is still the uninterrupted serial one."""
        reference_system, reference = self._run(fast_network, "serial")
        system, result = self._run(fast_network, deployment, pause=0.05)
        try:
            assert result.fingerprint() == reference.fingerprint()
            assert result.committed_count == 4
            assert system.check_definition1().ok
        finally:
            reference_system.close()
            system.close()

