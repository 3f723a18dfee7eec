"""Incremental checkpoints: the O(delta) migration seam, pinned.

Three layers of contract.  At the bottom, the structural delta codec:
``fold_value(old, diff_value(old, new))`` must reproduce ``new`` with every
container in the same iteration order, append-only lists must ship only
their suffix, and corrupt chains must be refused rather than folded.  In
the middle, the checkpoint itself: a ``ShardCheckpoint`` taken at an
arbitrary quiescent barrier, restored onto a never-run twin, reproduces
the full snapshot exactly, and the delta stream a backend emits folds —
independently, by this test — to the very checkpoints the backend holds,
on Serial and Process alike, one worker or two.  At the top, the invariance
the whole seam exists to preserve: every checkpoint cadence, with or without local
history compaction, with or without live migration, produces the same run
fingerprint as the no-checkpoint reference — while the adopt payloads
actually shrink (delta bytes below full snapshot bytes, replayed events
below genesis replay) and the driver-side replay log stays truncated
behind the newest checkpoint (the unbounded-growth bugfix).

The workload is deliberately *bursty*: two submission bursts separated by
an idle gap, because opportunistic checkpoints only fire at
protocol-quiescent barriers — mid-burst barriers are skipped, gap barriers
are taken, and a shard migrating during burst two therefore replays a
genuinely non-empty tail on top of a genuinely mid-run checkpoint.
"""

import pytest

from repro.cluster import codec
from repro.cluster.system import ClusterSystem
from repro.cluster.checkpoint import (
    CheckpointDelta,
    checkpoint_delta,
    diff_value,
    fold_checkpoint,
    fold_value,
    replayable_suffix,
)
from repro.cluster.migration import MigrationPlan
from repro.cluster.shard import Shard
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import Transfer
from repro.workloads.cluster_driver import ClusterSubmission

BACKENDS = ("serial", "process")
# Each backend by name, plus "one-worker": the process pool shrunk to a
# single worker that hosts every shard.  A move needs a second worker to go
# to, so the migrating tests stay on BACKENDS.
DEPLOYMENTS = BACKENDS + ("one-worker",)

# Burst geometry: 40 arrivals from t=0.0, an idle gap, 40 more from t=0.1.
# With the default 0.005 epoch, barriers inside the gap (~0.04-0.1) are
# protocol-quiescent — checkpoints fire there — while mid-burst barriers
# carry in-flight settlement and are skipped.
_BURST_BASES = (0.0, 0.1)
_PER_BURST = 40
_USERS = 24


def _bursty_submissions():
    submissions = []
    for burst, base in enumerate(_BURST_BASES):
        for i in range(_PER_BURST):
            source = (i * 3 + burst) % _USERS
            destination = (source + 1 + i % 5) % _USERS
            if destination == source:
                destination = (destination + 1) % _USERS
            submissions.append(
                ClusterSubmission(
                    time=base + 0.0001 + 0.0004 * i,
                    source_user=source,
                    destination_user=destination,
                    amount=1 + i % 7,
                )
            )
    return submissions


def _system(fast_network, backend="serial", seed=3, **kwargs):
    max_workers = 2
    if backend == "one-worker":
        backend, max_workers = "process", 1
    return ClusterSystem(
        shard_count=3,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        max_workers=max_workers,
        seed=seed,
        **kwargs,
    )


def _run(fast_network, backend="serial", **kwargs):
    system = _system(fast_network, backend, **kwargs)
    system.schedule_submissions(_bursty_submissions())
    result = system.run()
    return system, result


# The no-checkpoint serial reference every sweep compares against.  The
# workload and network are fully deterministic, so one run serves the
# whole module.
_REFERENCE = {}


def _reference_fingerprint(fast_network):
    if "fingerprint" not in _REFERENCE:
        system, result = _run(fast_network, "serial")
        try:
            _REFERENCE["fingerprint"] = result.fingerprint()
        finally:
            system.close()
    return _REFERENCE["fingerprint"]


class TestDeltaCodec:
    """The structural diff/fold pair under the wire codec."""

    def test_equal_values_produce_no_delta(self):
        for value, twin in (
            (None, None),
            (7, 7),
            ("account", "account"),
            ([1, 2], [1, 2]),
            ({"a": 1}, {"a": 1}),
            ({1, 2}, {1, 2}),
            (
                Transfer("0", "1", 5, issuer=0, sequence=1),
                Transfer("0", "1", 5, issuer=0, sequence=1),
            ),
        ):
            assert diff_value(value, twin) is None

    def test_dict_delta_folds_added_removed_and_changed(self):
        old = {"keep": 1, "change": [1], "drop": 9}
        new = {"keep": 1, "change": [1, 2], "added": 4}
        delta = diff_value(old, new)
        assert delta[0] == "dict"
        assert fold_value(old, delta) == new

    def test_append_only_lists_ship_only_the_suffix(self):
        delta = diff_value([1, 2], [1, 2, 3, 4])
        assert delta == ("append", [3, 4])
        assert fold_value([1, 2], delta) == [1, 2, 3, 4]
        # A rewritten prefix cannot be expressed as an append.
        assert diff_value([1, 2], [9, 2, 3])[0] == "replace"

    def test_set_delta_folds(self):
        old = {1, 2, 3}
        new = {2, 3, 4}
        delta = diff_value(old, new)
        assert delta[0] == "set"
        assert fold_value(old, delta) == new

    def test_dataclass_delta_touches_only_changed_fields(self):
        old = Transfer("0", "1", 5, issuer=0, sequence=1)
        new = Transfer("0", "1", 8, issuer=0, sequence=1)
        delta = diff_value(old, new)
        assert delta[0] == "fields"
        assert set(delta[1]) == {"amount"}
        assert fold_value(old, delta) == new

    def test_fold_is_byte_identical_under_the_codec(self, ordered):
        """Fold preserves container insertion order, so a folded value is
        indistinguishable from the live one to anything that iterates it."""
        old = {
            "log": [("a", 1), ("b", 2)],
            "balances": {"0": 10, "1": 20},
            "seen": {1, 2},
        }
        new = {
            "log": [("a", 1), ("b", 2), ("c", 3)],
            "balances": {"0": 10, "1": 15},
            "seen": {1, 2, 3},
            "watermark": 7,
        }
        folded = fold_value(old, diff_value(old, new))
        assert ordered(folded) == ordered(new)

    def test_unknown_delta_tag_is_refused(self):
        with pytest.raises(SimulationError):
            fold_value(1, ("bogus", 2))

    def test_replayable_suffix_is_strictly_after(self):
        entries = [("mint", 0.01, []), ("mint", 0.02, []), ("retire", 0.03, [])]
        assert replayable_suffix(entries, 0.02) == [("retire", 0.03, [])]
        assert replayable_suffix(entries, 0.0) == entries
        assert replayable_suffix(entries, 0.03) == []


class TestCheckpointDeltaChain:
    """Real ShardCheckpoints: full/incremental encoding and chain safety."""

    def _two_checkpoints(self, fast_network):
        """One shard's checkpoint mid-gap and again at the drained end."""
        system = _system(fast_network, "serial")
        system.schedule_submissions(_bursty_submissions())
        system.run(until=0.08)  # inside the idle gap: quiescent
        shard = system._backend._shards[0]
        first = shard.checkpoint()
        assert first is not None, shard.checkpoint_blockers()
        system.run()  # burst two lands: state and sequence move on
        second = shard.checkpoint()
        assert second is not None, shard.checkpoint_blockers()
        assert second.sequence > first.sequence
        system.close()
        return first, second

    def test_full_delta_carries_the_sentinel_base(self, fast_network, ordered):
        first, _ = self._two_checkpoints(fast_network)
        delta = checkpoint_delta(None, first)
        assert delta.base_sequence == -1
        folded = fold_checkpoint(None, delta)
        assert ordered(folded) == ordered(first)

    def test_incremental_delta_folds_back_to_the_checkpoint(self, fast_network, ordered):
        first, second = self._two_checkpoints(fast_network)
        delta = checkpoint_delta(first, second)
        assert delta.base_sequence == first.sequence
        folded = fold_checkpoint(first, delta)
        assert folded == second
        # Folding is deterministic: two independent folds of the same delta
        # are equal down to container order (the process driver relies on
        # this — its baselines *are* folds, compared across checkpoint rounds).
        assert ordered(folded) == ordered(fold_checkpoint(first, delta))
        # The increment is the transport win: smaller than the checkpoint.
        assert codec.encoded_size(delta) < codec.encoded_size(second)
        # And it survives the pipe intact.
        assert codec.decode(codec.encode(delta)) == delta

    def test_folding_onto_the_wrong_base_is_refused(self, fast_network):
        first, second = self._two_checkpoints(fast_network)
        delta = checkpoint_delta(first, second)
        with pytest.raises(SimulationError):
            fold_checkpoint(None, delta)  # incremental delta, no baseline
        with pytest.raises(SimulationError):
            fold_checkpoint(second, delta)  # baseline from the wrong round

    def test_cross_shard_delta_is_refused(self, fast_network):
        system = _system(fast_network, "serial")
        system.schedule_submissions(_bursty_submissions())
        system.run()
        shards = system._backend._shards
        a, b = shards[0].checkpoint(), shards[1].checkpoint()
        assert a is not None and b is not None
        with pytest.raises(SimulationError):
            checkpoint_delta(a, b)
        system.close()


class TestShardCheckpointRoundTrip:
    """A checkpoint restored onto a never-run twin is the original shard."""

    def test_restore_reproduces_the_full_snapshot_byte_for_byte(
        self, fast_network, ordered
    ):
        system = _system(fast_network, "serial")
        system.schedule_submissions(_bursty_submissions())
        system.run(until=0.08)  # a genuinely mid-run barrier, not the end
        try:
            for shard in system._backend._shards:
                taken = shard.checkpoint()
                assert taken is not None, shard.checkpoint_blockers()
                twin = shard.spec().build()
                twin.install_validation_collector()
                twin.start()
                scheduled = twin.restore_checkpoint(taken, [])
                assert scheduled == 0  # no arrivals strictly after the gap barrier... yet
                assert ordered(twin.snapshot(include_metrics=False)) == ordered(taken.state)
                for pid in shard.nodes:
                    assert (
                        twin.nodes[pid].all_known_balances()
                        == shard.nodes[pid].all_known_balances()
                    )
                # Everything the pipe ships round-trips through the codec.
                assert codec.decode(codec.encode(taken)) == taken
        finally:
            system.close()

    def test_a_quiescent_checkpoint_carries_an_empty_bracha_table(self, fast_network):
        """Every instance of burst one is released by the gap barrier, so
        the layers have forgotten them all and the checkpoint copies none."""
        system = _system(fast_network, "serial")
        system.schedule_submissions(_bursty_submissions())
        system.run(until=0.08)
        try:
            for shard in system._backend._shards:
                taken = shard.checkpoint()
                assert taken is not None, shard.checkpoint_blockers()
                for live in taken.live["nodes"].values():
                    _, _, delivered, _ = live["layer"]["stats"]
                    assert delivered > 0
                    assert live["layer"]["impl"] == {"instances": {}}
        finally:
            system.close()

    def test_restore_refuses_a_foreign_shard_checkpoint(self, fast_network):
        system = _system(fast_network, "serial")
        system.schedule_submissions(_bursty_submissions())
        system.run()
        try:
            taken = system._backend._shards[0].checkpoint()
            assert taken is not None
            twin = system._backend._shards[1].spec().build()
            twin.install_validation_collector()
            twin.start()
            with pytest.raises(ConfigurationError):
                twin.restore_checkpoint(taken, [])
        finally:
            system.close()

    def test_mid_protocol_barriers_decline_the_checkpoint(self, fast_network):
        """Quiescence gating is self-consistent: ``checkpoint()`` returns
        ``None`` exactly when ``checkpoint_blockers()`` names a reason —
        and the mid-burst pauses really do catch shards mid-protocol."""
        system = _system(fast_network, "serial")
        system.schedule_submissions(_bursty_submissions())
        saw_blocked = False
        try:
            for pause in (0.005, 0.01, 0.015):
                system.run(until=pause)
                for shard in system._backend._shards:
                    blockers = shard.checkpoint_blockers()
                    taken = shard.checkpoint()
                    assert (taken is None) == bool(blockers)
                    saw_blocked = saw_blocked or bool(blockers)
            assert saw_blocked  # the gate must not pass vacuously
            system.run()
        finally:
            system.close()


class TestInFlightMessagesBlockCheckpoints:
    """The quiescence gate reads event labels, and a message's two events
    carry the constant labels ``"deliver"`` / ``"process"``: it must still
    tell them from client submissions."""

    @pytest.mark.parametrize("broadcast", ("echo", "bracha"))
    def test_messages_in_flight_are_blockers_and_arrivals_are_not(self, fast_network, broadcast):
        shard = Shard(
            index=0, replicas=4, initial_balance=50,
            network_config=fast_network, seed=1, broadcast=broadcast,
        )
        shard.start()
        shard.submit(0.001, 0, "1", 5)
        shard.submit(0.5, 1, "2", 5)
        # Only client arrivals pending: nothing blocks.
        assert shard.checkpoint_blockers() == []
        assert shard.checkpoint() is not None
        # Just past the first arrival its fan-out is on the wire.
        shard.advance(0.00101)
        blockers = shard.checkpoint_blockers()
        assert blockers and set(blockers) <= {"deliver", "process"}
        assert shard.network.messages_sent > shard.network.messages_delivered
        assert shard.checkpoint() is None
        # Drained up to the second arrival: quiescent again, and resumable.
        shard.advance(0.4)
        assert shard.simulator.pending_events == 1
        assert shard.checkpoint_blockers() == []
        assert shard.checkpoint() is not None


class TestCheckpointStreamFolding:
    """The backend's delta stream, folded independently, is its baseline."""

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_delta_stream_folds_to_the_backend_baseline(
        self, fast_network, backend, ordered
    ):
        system = _system(fast_network, backend)
        system.schedule_submissions(_bursty_submissions())
        folded = {}
        refolded = {}
        saw_incremental = False
        try:
            for pause in (0.05, 0.08, 0.13):
                system.run(until=pause)
                deltas = system._backend.checkpoint(system.scheduler.now)
                for index in sorted(deltas):
                    delta = deltas[index]
                    # Pipe round-trip, then two independent folds.
                    assert codec.decode(codec.encode(delta)) == delta
                    saw_incremental = saw_incremental or delta.base_sequence != -1
                    folded[index] = fold_checkpoint(folded.get(index), delta)
                    refolded[index] = fold_checkpoint(refolded.get(index), delta)
            baselines = system._backend.checkpoints()
            assert folded, "no checkpoint fired at any gap barrier"
            assert saw_incremental, "the stream never went incremental"
            assert set(folded) == set(baselines)
            for index, checkpoint in folded.items():
                # The independent fold reconstructs the backend's baseline
                # exactly (equality is the contract: the serial baselines are
                # live deep copies whose dict insertion order may differ) and
                # folding itself is deterministic down to container order.
                assert checkpoint == baselines[index]
                assert ordered(checkpoint) == ordered(refolded[index])
            stats = system._backend.checkpoint_stats()
            assert stats["taken"] >= len(folded)
            assert 0 < stats["delta_bytes"] < stats["full_bytes"]
            # Checkpoints are observation-only: the drained run still equals
            # the untouched reference.
            result = system.run()
            assert result.fingerprint() == _reference_fingerprint(fast_network)
            assert system.check_definition1().ok
        finally:
            system.close()


class TestFingerprintInvariance:
    """The headline contract: cadence and compaction never change results."""

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    @pytest.mark.parametrize("cadence", (1, 3))
    def test_every_cadence_matches_the_reference(
        self, fast_network, backend, cadence
    ):
        system, result = _run(fast_network, backend, checkpoint_every=cadence)
        try:
            assert result.fingerprint() == _reference_fingerprint(fast_network)
            assert system.check_definition1().ok
            assert result.audit["conserved"]
            stats = system.checkpoint_stats()
            assert stats["taken"] > 0  # the sweep must not pass vacuously
        finally:
            system.close()

    def test_cadence_property_sweep(self, fast_network):
        """Any cadence whatsoever — the property, swept densely on serial."""
        reference = _reference_fingerprint(fast_network)
        for cadence in range(1, 7):
            system, result = _run(
                fast_network, "serial", checkpoint_every=cadence
            )
            try:
                assert result.fingerprint() == reference, cadence
                assert system.checkpoint_stats()["taken"] > 0, cadence
            finally:
                system.close()

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_history_compaction_preserves_the_fingerprint(
        self, fast_network, backend
    ):
        baseline_system, baseline = _run(fast_network, "serial")
        compacted_system, compacted = _run(
            fast_network, backend, compact_history=True, checkpoint_every=2
        )
        try:
            assert compacted.fingerprint() == baseline.fingerprint()
            assert compacted_system.check_definition1().ok
            # The knob must actually bite: consumed ordinary records left
            # the ledgers, and fewer remain resident than without it.
            assert compacted_system.compacted_local_records() > 0
            assert (
                compacted_system.resident_local_records()
                < baseline_system.resident_local_records()
            )
        finally:
            baseline_system.close()
            compacted_system.close()


class TestCheckpointedMigration:
    """Moves after a checkpoint ship the delta, and the log stays bounded."""

    # The first move lands inside the idle gap (checkpoints already taken),
    # the second mid-burst-two (replaying a real arrivals + command tail).
    _PLAN = ((0.05, 0, 1), (0.112, 0, 0))

    def _migrated(self, fast_network, checkpoint_every):
        return _run(
            fast_network,
            "process",
            migration=MigrationPlan(list(self._PLAN)),
            checkpoint_every=checkpoint_every,
        )

    def test_checkpointed_moves_ship_o_delta_payloads(self, fast_network):
        full_system, full = self._migrated(fast_network, None)
        delta_system, incremental = self._migrated(fast_network, 1)
        try:
            # Same moves, same results — the O(delta) path is invisible to
            # the protocol.
            reference = _reference_fingerprint(fast_network)
            assert full.fingerprint() == reference
            assert incremental.fingerprint() == reference
            full_records = full_system.scheduler.migration_log
            delta_records = delta_system.scheduler.migration_log
            assert [r.signature() for r in full_records] == [
                r.signature() for r in delta_records
            ]
            assert len(delta_records) == len(self._PLAN)
            for genesis, checkpointed in zip(full_records, delta_records):
                # Checkpoints only ever shrink the replay payload...
                assert checkpointed.delta_bytes <= genesis.delta_bytes
                assert checkpointed.replayed_events <= genesis.replayed_events
                # ...while the full snapshot is still measured.  (Its byte
                # count is not compared: pickle memoises by identity, so it
                # moves with how much substructure a restored shard shares.)
                assert checkpointed.snapshot_bytes > 0 and genesis.snapshot_bytes > 0
                # The adopt payload is the incremental win the benchmark
                # journals: strictly below the full snapshot it replaces.
                assert 0 < checkpointed.delta_bytes < checkpointed.snapshot_bytes
            # Strict in aggregate: the checkpointed run replayed less.
            assert sum(r.replayed_events for r in delta_records) < sum(
                r.replayed_events for r in full_records
            )
            assert sum(r.delta_bytes for r in delta_records) < sum(
                r.delta_bytes for r in full_records
            )
            # What the snapshots carry is the same state either way.
            assert [shard.snapshot().state_view() for shard in delta_system.shards] == [
                shard.snapshot().state_view() for shard in full_system.shards
            ]
        finally:
            full_system.close()
            delta_system.close()

    def test_checkpoints_truncate_the_driver_replay_log(self, fast_network):
        """The unbounded-growth bugfix: with migration enabled the driver
        records every barrier command forever; checkpoints must cut each
        shard's log behind the newest baseline."""
        unbounded_system, _ = self._migrated(fast_network, None)
        bounded_system, _ = self._migrated(fast_network, 1)
        try:
            unbounded = sum(
                len(entries)
                for entries in unbounded_system._backend._history.values()
            )
            bounded = sum(
                len(entries)
                for entries in bounded_system._backend._history.values()
            )
            assert unbounded > 0
            assert bounded < unbounded
            # Nothing strictly older than a shard's baseline checkpoint
            # survives.  Entries *at* the baseline barrier are legitimate:
            # the settlement exchange runs after the checkpoint phase and
            # appends its commands at that same barrier time.
            baselines = bounded_system._backend.checkpoints()
            for index, entries in bounded_system._backend._history.items():
                if index in baselines:
                    assert all(
                        entry[1] >= baselines[index].time for entry in entries
                    )
        finally:
            unbounded_system.close()
            bounded_system.close()


class TestRestoredBalancesCarryHistory:
    """A restored node must still afford what its pre-checkpoint history paid for.

    Balances are a running sum, not a walk over ``hist``; snapshots ship
    ``hist`` + offsets and the sum is rebuilt on restore.  The bursty sweep
    above never notices a restore that forgets to: every account there can
    pay for burst two out of its initial 500.  Here one account's burst-two
    spending (1 250) is only affordable thanks to a local credit (450) and a
    cross-shard mint (300) validated *before* the gap's checkpoints, and the
    shard that owns it is restored from such a checkpoint mid-run.  An
    under-reporting restore rejects or parks the 1 200 payment; an
    over-reporting one commits the final overdraft.
    """

    @staticmethod
    def _user(router, shard, process):
        return next(
            user
            for user in range(100_000)
            if router.shard_of(user) == shard and router.local_process_of(user) == process
        )

    def _run(self, fast_network, backend, **kwargs):
        system = _system(fast_network, backend, **kwargs)
        spender = self._user(system.router, 0, 0)
        local_payer = self._user(system.router, 0, 1)
        remote_payer = self._user(system.router, 1, 2)
        payee = self._user(system.router, 2, 3)
        system.schedule_submissions(
            [
                ClusterSubmission(0.0005, local_payer, spender, 450),
                ClusterSubmission(0.0007, remote_payer, spender, 300),
                # Burst two, after the checkpoints (and the first move).
                ClusterSubmission(0.1005, spender, payee, 1_200),
                ClusterSubmission(0.1009, spender, local_payer, 50),
                ClusterSubmission(0.1100, spender, payee, 1),  # nothing left
            ]
        )
        return system, system.run()

    def _assert_matches_reference(self, fast_network, backend, **kwargs):
        reference_system, reference = self._run(fast_network, "serial")
        system, result = self._run(fast_network, backend, **kwargs)
        try:
            assert sorted(record.transfer.amount for record in reference.committed) == [
                50, 300, 450, 1_200
            ]
            assert [record.transfer.amount for record in reference.rejected] == [1]
            assert result.fingerprint() == reference.fingerprint()
            assert result.committed_count == 4
            assert system.checkpoint_stats()["taken"] > 0
            assert system.check_definition1().ok
            assert result.audit["conserved"]
            return system.scheduler.migration_log
        finally:
            reference_system.close()
            system.close()

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_checkpoint_cadence(self, fast_network, backend):
        self._assert_matches_reference(fast_network, backend, checkpoint_every=1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_run_migration_from_a_checkpoint(self, fast_network, backend):
        moves = self._assert_matches_reference(
            fast_network,
            backend,
            checkpoint_every=1,
            migration=MigrationPlan([(0.05, 0, 1), (0.112, 0, 0)]),
        )
        assert len(moves) == 2


class TestPendingRetirementSweep:
    """The `_pending_retirements` leak: parked entries whose issuer stream
    moved past them can never validate and must be swept."""

    def _system_with_local_pair(self, fast_network):
        system = ClusterSystem(
            shard_count=2,
            replicas_per_shard=4,
            network_config=fast_network,
            seed=3,
        )
        users = iter(range(100_000))
        a = next(u for u in users if system.router.shard_of(u) == 0)
        b = next(u for u in users if system.router.shard_of(u) == 0)
        # The router remaps user ids onto shard-local issuer ids and account
        # names; the ledger-level assertions below need the mapped identities.
        route = system.router.route(a, b)
        return system, a, b, route

    def test_stale_parked_retirement_is_swept_when_the_stream_passes(
        self, fast_network
    ):
        system, a, b, route = self._system_with_local_pair(fast_network)
        system.start()
        node = system.shards[0].nodes[0]
        # A retirement for a transfer this replica will never validate: the
        # issuer's slot 1 goes to a *different* (real) transfer below.
        ghost = Transfer(str(route.issuer), "x1:2", 5, issuer=route.issuer, sequence=1)
        node.retire_settled([ghost])
        assert ghost in node._pending_retirements
        assert node.stale_retirements_dropped == 0
        system.schedule_submissions(
            [
                ClusterSubmission(
                    time=0.001, source_user=a, destination_user=b, amount=9
                )
            ]
        )
        system.run()
        # The stream really moved past slot 1...
        assert node.seq.get(route.issuer, 0) >= 1
        node.retire_settled([])
        assert ghost not in node._pending_retirements
        assert node.stale_retirements_dropped == 1
        # ...and the real record is untouched: only the unreachable parking
        # was cut.
        assert node.balance_of(route.destination_account) == 1_000_000 + 9

    def test_future_parked_retirements_survive_the_sweep(self, fast_network):
        system, a, b, route = self._system_with_local_pair(fast_network)
        system.schedule_submissions(
            [
                ClusterSubmission(
                    time=0.001, source_user=a, destination_user=b, amount=9
                )
            ]
        )
        system.run()
        node = system.shards[0].nodes[0]
        # Slot 5 is still ahead of the stream: the certificate merely
        # outran validation, so the parking must persist.
        early = Transfer(str(route.issuer), "x1:2", 5, issuer=route.issuer, sequence=5)
        node.retire_settled([early])
        assert early in node._pending_retirements
        assert node.stale_retirements_dropped == 0

    def test_parking_behind_the_watermark_is_swept_immediately(
        self, fast_network
    ):
        system, a, b, route = self._system_with_local_pair(fast_network)
        system.schedule_submissions(
            [
                ClusterSubmission(
                    time=0.001, source_user=a, destination_user=b, amount=9
                )
            ]
        )
        system.run()
        node = system.shards[0].nodes[0]
        ghost = Transfer(str(route.issuer), "x1:2", 5, issuer=route.issuer, sequence=1)
        node.retire_settled([ghost])  # parks, then the same call sweeps
        assert ghost not in node._pending_retirements
        assert node.stale_retirements_dropped == 1


class TestConfigurationValidation:
    def test_checkpoint_cadence_must_be_positive(self, fast_network):
        with pytest.raises(ConfigurationError):
            ClusterSystem(
                shard_count=2,
                network_config=fast_network,
                backend="serial",
                checkpoint_every=0,
                seed=3,
            )

    def test_checkpoints_run_on_the_default_backend(self, fast_network):
        """No backend named: the default serial system takes checkpoints
        and still matches the no-checkpoint reference."""
        system = ClusterSystem(
            shard_count=3,
            replicas_per_shard=4,
            batch_size=2,
            initial_balance=500,
            network_config=fast_network,
            max_workers=2,
            checkpoint_every=2,
            seed=3,
        )
        try:
            system.schedule_submissions(_bursty_submissions())
            result = system.run()
            assert system.backend_name == "serial"
            assert system.checkpoint_stats()["taken"] > 0
            assert result.fingerprint() == _reference_fingerprint(fast_network)
        finally:
            system.close()
