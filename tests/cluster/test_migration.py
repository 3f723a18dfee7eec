"""Live shard migration: the placement-invariance equivalence harness.

The migration layer's headline guarantee extends the backends' one: not only
may parallelism never change protocol behaviour — *placement* may not
either.  For every configuration in the grid below (seed × cross-shard
fraction × hotspot, each under a shifting-hotspot workload on one of three
barrier-grid widths), the run is
executed under three migration schedules — none, a manual
:class:`MigrationPlan`, a :class:`ThresholdMigrationPolicy` — on both
execution backends, and every one of the six runs must produce the *same*
:meth:`ClusterResult.fingerprint` (placement sections excluded from the hash
by contract).  On top, payload-level equality across backends under the same
schedule pins the migration *decisions* themselves as backend-invariant: the
recorded migration stream — which barrier, which shard, which worker — is
part of the compared payload.

Below the harness sit the units: the mutable :class:`PlacementPlan`, the
manual and threshold policies, the greedy :func:`rebalance_moves` balancer,
``ClusterSystem.rebalance()`` mid-run, and the process-pool worker's
``evict``/``adopt`` commands driven in-process through a scripted pipe.
Last, two runs whose state a restore or a replay from genesis must carry:
balances that depend on credits validated before a move, and ledgers
compacted by ``compact_history``.
"""

import pickle

import pytest

from repro.cluster.backends import (
    BACKEND_NAMES,
    _replay_shard,
    _worker_main,
)
from repro.cluster.migration import (
    MigrationPlan,
    MigrationRecord,
    Move,
    PlacementPlan,
    ShardLoad,
    ThresholdMigrationPolicy,
    normalize_migration,
    rebalance_moves,
)
from repro.cluster.shard import ShardSpec
from repro.cluster.system import ClusterSystem
from repro.common.errors import ConfigurationError
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    ClusterWorkloadConfig,
    HotspotProfile,
    RoutedSubmission,
    cluster_open_loop_workload,
)

# The placement-invariance grid: every config runs under {static, manual,
# threshold} × {serial, process} — six runs per config, one
# fingerprint.  ≥ 8 configs including hotspot-driven threshold moves.
SHARDS = 3
WORKERS = 2
GRID = [
    # (seed, cross_shard_fraction, hotspot?, epoch width).  Every width —
    # the default 5 ms, a narrower and a wider one — meets a mid-run
    # MigrationPlan somewhere on the grid.
    (3, 0.5, False, 0.005),
    (3, 0.5, True, 0.0025),
    (3, 1.0, True, 0.01),
    (11, 0.5, True, 0.005),
    (11, 1.0, False, 0.0025),
    (11, 1.0, True, 0.01),
    (17, 0.7, True, 0.0025),
    (23, 0.7, True, 0.01),
]

SCHEDULES = ("static", "manual", "threshold")


def _migration_for(schedule):
    if schedule == "static":
        return None
    if schedule == "manual":
        # Three explicit moves spread across the run — including one that
        # bounces a shard back, so a shard migrates twice.
        return MigrationPlan([(0.005, 0, 1), (0.01, 1, 0), (0.016, 0, 0)])
    # Aggressive thresholds so the small harness workloads trigger real
    # moves under the shifting hotspot.
    return ThresholdMigrationPolicy(
        imbalance_threshold=1.05, every=2, cooldown=1, max_moves=1
    )


def _run(
    fast_network, backend, seed, fraction, hotspot, schedule, epoch=0.005, workers=WORKERS
):
    system = ClusterSystem(
        shard_count=SHARDS,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        max_workers=workers,
        epoch=epoch,
        migration=_migration_for(schedule),
        seed=seed,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=1_500.0,
            duration=0.02,
            zipf_skew=1.0,
            cross_shard_fraction=fraction,
            hotspot=(
                HotspotProfile(period=0.007, intensity=0.8, width=4) if hotspot else None
            ),
            router=system.router,
            seed=seed,
        )
    )
    system.schedule_submissions(workload)
    result = system.run()
    return system, result


class TestPlacementInvariance:
    """Any migration schedule, any backend — one fingerprint."""

    @pytest.mark.parametrize("seed,fraction,hotspot,epoch", GRID)
    def test_fingerprints_identical_across_schedules_and_backends(
        self, fast_network, seed, fraction, hotspot, epoch
    ):
        fingerprints = {}
        payloads = {}
        streams = {}
        for schedule in SCHEDULES:
            for backend in BACKEND_NAMES:
                system, result = _run(
                    fast_network, backend, seed, fraction, hotspot, schedule, epoch
                )
                try:
                    fingerprints[(schedule, backend)] = result.fingerprint()
                    payloads[(schedule, backend)] = result.comparable_payload()
                    streams[(schedule, backend)] = result.migration_stream
                    report = system.check_definition1()
                    assert report.ok, (schedule, backend, report.violations)
                    assert result.audit["conserved"], (schedule, backend)
                    assert result.audit["fully_settled"], (schedule, backend)
                finally:
                    system.close()
        # One fingerprint across all six runs: results are placement-
        # invariant, whatever the schedule and wherever the shards ran.
        assert len(set(fingerprints.values())) == 1, fingerprints
        for schedule in SCHEDULES:
            # Migration *decisions* are backend-invariant: same schedule,
            # same payload — the recorded migration stream included.
            assert payloads[(schedule, "serial")] == payloads[(schedule, "process")]
        # The grid must not pass vacuously: the manual plan always moves,
        # and the static run never does.
        assert streams[("static", "serial")] == []
        assert len(streams[("manual", "serial")]) == 3

    def test_threshold_policy_moves_under_the_hotspot(self, fast_network):
        """The threshold schedule must execute real moves somewhere on the
        hotspot grid — placement invariance proven over actual migrations,
        not over a policy that never fired."""
        moved = 0
        for seed, fraction, hotspot, epoch in GRID:
            if not hotspot:
                continue
            system, result = _run(
                fast_network, "serial", seed, fraction, hotspot, "threshold", epoch
            )
            try:
                moved += len(result.migration_stream)
            finally:
                system.close()
        assert moved > 0

    def test_migrated_process_pool_run_exercises_real_state_transfer(
        self, fast_network
    ):
        """Belt and braces for the process backend: the manual schedule on a
        two-worker pool really evicts/adopts across process boundaries (the
        recorded moves cross worker slots) and still equals the static
        serial reference."""
        reference_system, reference = _run(
            fast_network, "serial", 11, 1.0, True, "static"
        )
        migrated_system, migrated = _run(
            fast_network, "process", 11, 1.0, True, "manual"
        )
        try:
            assert migrated.fingerprint() == reference.fingerprint()
            assert migrated.migration_stream
            assert all(
                entry[3] != entry[4] for entry in migrated.migration_stream
            )  # every recorded move crossed worker slots
        finally:
            reference_system.close()
            migrated_system.close()

    def test_a_one_worker_pool_has_nowhere_to_move(self, fast_network):
        """The threshold policy levels load *between* workers: under the
        hotspot that moves shards on two workers, a one-worker pool records
        no move and still equals the static serial reference."""
        config = (11, 0.5, True)
        two_system, two = _run(fast_network, "serial", *config, "threshold")
        reference_system, reference = _run(fast_network, "serial", *config, "static")
        one_system, one = _run(fast_network, "process", *config, "threshold", workers=1)
        try:
            assert two.migration_stream
            assert one.migration_stream == []
            assert one.fingerprint() == reference.fingerprint()
        finally:
            two_system.close()
            reference_system.close()
            one_system.close()


class TestRebalance:
    def _system(self, fast_network, migration="manual", backend="serial", seed=7):
        system = ClusterSystem(
            shard_count=4,
            replicas_per_shard=4,
            initial_balance=500,
            network_config=fast_network,
            backend=backend,
            max_workers=2,
            migration=migration,
            seed=seed,
        )
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=80,
                aggregate_rate=1_500.0,
                duration=0.02,
                cross_shard_fraction=0.5,
                router=system.router,
                seed=seed,
            )
        )
        system.schedule_submissions(workload)
        return system

    def test_mid_run_rebalance_levels_loads_and_keeps_the_fingerprint(
        self, fast_network
    ):
        static = self._system(fast_network, migration=None)
        reference = static.run().fingerprint()
        static.close()
        live = self._system(fast_network)
        try:
            live.run(until=0.01)
            before = live.worker_loads()
            records = live.rebalance()
            after = live.worker_loads()
            assert records, "the skewed default assignment must yield moves"
            for record in records:
                assert isinstance(record, MigrationRecord)
                assert record.snapshot_bytes > 0
                assert record.source_worker != record.target_worker
            # The greedy balancer strictly lowers the peak worker load.
            assert max(after.values()) < max(before.values())
            result = live.run()
            assert result.fingerprint() == reference
            assert len(result.migration_stream) == len(records)
            assert live.check_definition1().ok
        finally:
            live.close()

    def test_rebalance_with_explicit_moves_and_tuples(self, fast_network):
        live = self._system(fast_network, backend="process")
        try:
            live.run(until=0.01)
            records = live.rebalance(moves=[(0, 1), Move(shard=1, worker=0)])
            moved = {(r.shard, r.target_worker) for r in records}
            assert moved == {(0, 1), (1, 0)}
            assert live.placement.worker_of(0) == 1
            assert live.placement.worker_of(1) == 0
            result = live.run()
            static = self._system(fast_network, migration=None)
            assert result.fingerprint() == static.run().fingerprint()
            static.close()
        finally:
            live.close()

    def test_rebalance_before_the_first_run_edits_the_placement_for_free(
        self, fast_network
    ):
        live = self._system(fast_network)
        try:
            assert live.rebalance(moves=[(0, 1)]) == []  # nothing ran yet
            assert live.placement.worker_of(0) == 1
            result = live.run()
            assert result.migration_stream == []  # an edit, not a migration
            static = self._system(fast_network, migration=None)
            assert result.fingerprint() == static.run().fingerprint()
            static.close()
        finally:
            live.close()

    def test_rebalance_of_balanced_loads_is_a_noop(self, fast_network):
        live = self._system(fast_network)
        try:
            live.run(until=0.01)
            live.rebalance()
            assert live.rebalance() == []  # already balanced: nothing moves
        finally:
            live.close()

    def test_out_of_range_move_fails_cleanly_before_any_state_changes(
        self, fast_network
    ):
        """An out-of-range target worker must be rejected *before* the shard
        leaves its old worker — on the process pool a post-evict failure
        would strand the shard nowhere.  After the rejection the session is
        intact: the run completes and still matches the static reference."""
        for backend in ("serial", "process"):
            live = self._system(fast_network, backend=backend)
            try:
                live.run(until=0.01)
                with pytest.raises(ConfigurationError):
                    live.rebalance(moves=[(0, 9)])  # only workers 0 and 1 exist
                result = live.run()
                assert result.migration_stream == []
                static = self._system(fast_network, migration=None)
                assert result.fingerprint() == static.run().fingerprint()
                static.close()
            finally:
                live.close()

    def test_migration_runs_on_the_default_backend(self, fast_network):
        """No backend named: the default serial system migrates mid-run and
        still matches the static reference."""
        live = ClusterSystem(
            shard_count=4,
            replicas_per_shard=4,
            initial_balance=500,
            network_config=fast_network,
            max_workers=2,
            migration="manual",
            seed=7,
        )
        live.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=80,
                    aggregate_rate=1_500.0,
                    duration=0.02,
                    cross_shard_fraction=0.5,
                    router=live.router,
                    seed=7,
                )
            )
        )
        try:
            assert live.backend_name == "serial"
            live.run(until=0.01)
            records = live.rebalance(moves=[(0, 1)])
            assert [(r.shard, r.target_worker) for r in records] == [(0, 1)]
            result = live.run()
            assert len(result.migration_stream) == 1
            static = self._system(fast_network, migration=None)
            assert result.fingerprint() == static.run().fingerprint()
            static.close()
        finally:
            live.close()

    def test_rebalance_requires_migration_enabled(self, fast_network):
        static = self._system(fast_network, migration=None)
        try:
            with pytest.raises(ConfigurationError):
                static.rebalance()
        finally:
            static.close()

    def test_unknown_migration_knob_rejected(self, fast_network):
        with pytest.raises(ConfigurationError):
            ClusterSystem(
                shard_count=2,
                network_config=fast_network,
                backend="serial",
                migration="sometimes",
            )
        assert normalize_migration("off") == (False, None)
        assert normalize_migration("manual") == (True, None)


class TestPlacementPlan:
    def test_round_robin_default(self):
        plan = PlacementPlan(5, 2)
        assert plan.as_dict() == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        assert plan.shards_on(0) == [0, 2, 4]
        assert plan.worker_of(3) == 1

    def test_move_updates_and_counts(self):
        plan = PlacementPlan(3, 2)
        assert plan.move(0, 1) == 0
        assert plan.worker_of(0) == 1
        assert plan.moves_applied == 1
        assert plan.move(0, 1) == 1  # no-op move: previous worker returned
        assert plan.moves_applied == 1

    def test_worker_loads_cover_empty_slots(self):
        plan = PlacementPlan(2, 3)
        loads = plan.worker_loads({0: ShardLoad(events=10), 1: ShardLoad(events=4)})
        assert loads == {0: 10, 1: 4, 2: 0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlacementPlan(0, 1)
        with pytest.raises(ConfigurationError):
            PlacementPlan(2, 0)
        with pytest.raises(ConfigurationError):
            PlacementPlan(2, 2, {0: 0})  # shard 1 unassigned
        with pytest.raises(ConfigurationError):
            PlacementPlan(2, 2, {0: 0, 1: 5})  # worker out of range
        plan = PlacementPlan(2, 2)
        with pytest.raises(ConfigurationError):
            plan.move(7, 0)
        with pytest.raises(ConfigurationError):
            plan.move(0, 9)


class TestMigrationPolicies:
    def _loads(self, *events):
        return {shard: ShardLoad(events=count) for shard, count in enumerate(events)}

    def test_manual_plan_fires_at_or_after_its_time_once(self):
        plan = MigrationPlan([(0.01, 0, 1), (0.02, 1, 0)])
        placement = PlacementPlan(2, 2)
        assert plan.decide(1, 0.005, placement, {}) == []
        assert plan.decide(2, 0.012, placement, {}) == [Move(shard=0, worker=1)]
        assert plan.pending_moves == 1
        # Barrier past both times: the remaining move fires, nothing repeats.
        assert plan.decide(3, 0.05, placement, {}) == [Move(shard=1, worker=0)]
        assert plan.decide(4, 0.06, placement, {}) == []

    def test_manual_plan_rejects_negative_times(self):
        with pytest.raises(ConfigurationError):
            MigrationPlan([(-0.1, 0, 1)])

    def test_threshold_policy_moves_the_hottest_shard_that_fits(self):
        policy = ThresholdMigrationPolicy(
            imbalance_threshold=1.2, every=2, cooldown=0, max_moves=1
        )
        placement = PlacementPlan(3, 2)  # worker 0: shards 0, 2; worker 1: shard 1
        assert policy.decide(0, 0.0, placement, self._loads(0, 0, 0)) == []
        # Worker 0 is hot because of shard 0 — but landing shard 0 on
        # worker 1 would just move the peak (1000 + 100 > 1050), so the
        # policy moves the cooler shard 2 off the hot worker instead.
        moves = policy.decide(2, 0.01, placement, self._loads(1_000, 100, 50))
        assert moves == [Move(shard=2, worker=1)]
        # When the hottest shard *does* fit, it is the one that moves.
        fresh = ThresholdMigrationPolicy(
            imbalance_threshold=1.2, every=2, cooldown=0, max_moves=1
        )
        fresh.decide(0, 0.0, placement, self._loads(0, 0, 0))
        moves = fresh.decide(2, 0.01, PlacementPlan(3, 2), self._loads(400, 10, 300))
        assert moves == [Move(shard=0, worker=1)]

    def test_threshold_policy_respects_every_and_cooldown(self):
        policy = ThresholdMigrationPolicy(
            imbalance_threshold=1.2, every=2, cooldown=4, max_moves=1
        )
        placement = PlacementPlan(3, 2)
        assert policy.decide(1, 0.0, placement, self._loads(1_000, 10, 10)) == []
        moves = policy.decide(2, 0.0, placement, self._loads(2_000, 20, 20))
        assert len(moves) == 1
        placement.move(moves[0].shard, moves[0].worker)
        # Next evaluation inside the cooldown window: the shard stays put
        # even though the (stale) imbalance would justify bouncing it back.
        assert policy.decide(4, 0.0, placement, self._loads(2_100, 2_000, 30)) == []

    def test_threshold_policy_never_moves_an_unsplittable_worker(self):
        policy = ThresholdMigrationPolicy(imbalance_threshold=1.1, every=1, cooldown=0)
        placement = PlacementPlan(2, 2)  # one shard per worker
        policy.decide(1, 0.0, placement, self._loads(10, 10))
        # One worker is hot, but it hosts a single shard: moving it cannot
        # reduce the peak, so the policy stays put.
        assert policy.decide(2, 0.0, placement, self._loads(5_000, 20)) == []

    def test_threshold_decisions_are_deterministic(self):
        def run_policy():
            policy = ThresholdMigrationPolicy(
                imbalance_threshold=1.1, every=2, cooldown=1
            )
            placement = PlacementPlan(3, 2)
            decisions = []
            for barrier in range(8):
                loads = self._loads(
                    100 * (barrier + 1) ** 2, 40 * (barrier + 1), 30 * (barrier + 1)
                )
                moves = policy.decide(barrier, barrier * 0.01, placement, loads)
                for move in moves:
                    placement.move(move.shard, move.worker)
                decisions.append(tuple(moves))
            return decisions

        assert run_policy() == run_policy()

    def test_policy_validation(self):
        for bad in (
            dict(imbalance_threshold=1.0),
            dict(every=0),
            dict(cooldown=-1),
            dict(max_moves=0),
            dict(settlement_weight=-1),
        ):
            with pytest.raises(ConfigurationError):
                ThresholdMigrationPolicy(**bad)

    def test_rebalance_moves_levels_a_skewed_assignment(self):
        placement = PlacementPlan(4, 2, {0: 0, 1: 0, 2: 0, 3: 0})
        loads = self._loads(100, 80, 60, 40)
        moves = rebalance_moves(placement, loads)
        assert moves
        for move in moves:
            placement.move(move.shard, move.worker)
        worker_loads = placement.worker_loads(loads)
        assert max(worker_loads.values()) < 280  # strictly below the all-on-one peak

    def test_rebalance_moves_noop_when_balanced(self):
        placement = PlacementPlan(2, 2)
        assert rebalance_moves(placement, self._loads(50, 50)) == []


class TestWorkerMigrationLoop:
    """Drive evict/adopt in-process: the subprocess code path, unit-tested."""

    def _spec(self, fast_network, index=0):
        return ShardSpec(
            index=index, replicas=4, initial_balance=100,
            network_config=fast_network, seed=5,
        )

    def test_evict_detaches_and_returns_the_snapshot(self, fast_network, scripted_pipe):
        spec = self._spec(fast_network)
        submissions = {0: [RoutedSubmission(time=0.001, issuer=0, destination="1", amount=7)]}
        pipe = scripted_pipe(
            [
                ("advance", 0.05, None),
                ("evict", [0]),
                ("advance", 0.06, None),  # shard gone: empty report set
                ("stop",),
            ]
        )
        _worker_main(pipe, [spec], submissions)
        statuses = [status for status, _ in pipe.responses]
        assert statuses == ["ok", "ok", "ok", "ok"]
        snapshot = pipe.responses[1][1][0]
        assert len(snapshot.committed) == 1
        assert pipe.responses[2][1] == {}  # the worker no longer owns shard 0

    def test_adopt_replays_to_the_evicted_state(self, fast_network, scripted_pipe):
        """The full migration hop, in miniature: worker A advances and
        evicts; worker B adopts by replay; the snapshots agree exactly."""
        spec = self._spec(fast_network)
        routed = [RoutedSubmission(time=0.001, issuer=0, destination="1", amount=7)]
        source = scripted_pipe([("advance", 0.05, None), ("evict", [0]), ("stop",)])
        _worker_main(source, [spec], {0: routed})
        evicted = source.responses[1][1][0]
        target = scripted_pipe([("adopt", [(spec, routed, [], 0.05)]), ("stop",)])
        _worker_main(target, [], {})
        adopted = target.responses[0][1][0]
        assert adopted == evicted
        assert pickle.loads(pickle.dumps(adopted)) == evicted

    def test_replay_interleaves_command_history(self, fast_network):
        """A mint in the shard's history replays at its original barrier
        time: the adopted shard carries the credited balance."""
        from repro.cluster.settlement import settlement_account, settlement_issuer
        from repro.common.types import Transfer

        spec = self._spec(fast_network)
        routed = [RoutedSubmission(time=0.001, issuer=0, destination="1", amount=7)]
        mint = Transfer(
            source=settlement_account(1, 0), destination="2", amount=9,
            issuer=settlement_issuer(1, 0), sequence=1,
        )
        mints = [(pid, mint) for pid in range(4)]
        # The original timeline: advance to the barrier, mint, advance on.
        original = spec.build()
        original.install_validation_collector()
        original.start()
        for submission in routed:
            original.submit(
                time=submission.time, issuer=submission.issuer,
                destination=submission.destination, amount=submission.amount,
            )
        original.advance(0.02)
        original.apply_mints(0.02, mints)
        original.advance(0.05)
        replayed = _replay_shard(spec, routed, [("mint", 0.02, mints)], 0.05)
        assert replayed.snapshot() == original.snapshot()
        initial = original.initial_balances()["2"]
        assert replayed.nodes[0].balance_of("2") == initial + 9

    def test_replay_applies_retirements_at_their_barrier(self, fast_network):
        """A retirement in the shard's history replays at its original
        barrier time: the adopted shard has compacted the same record."""
        from repro.common.types import Transfer

        spec = self._spec(fast_network)
        routed = [RoutedSubmission(time=0.001, issuer=0, destination="x1:2", amount=7)]
        outbound = Transfer(source="0", destination="x1:2", amount=7, issuer=0, sequence=1)
        original = spec.build()
        original.install_validation_collector()
        original.start()
        original.submit(time=0.001, issuer=0, destination="x1:2", amount=7)
        original.advance(0.02)
        assert original.resident_settlement_records() == 1
        original.apply_retirements(0.02, [outbound])
        original.advance(0.05)
        replayed = _replay_shard(spec, routed, [("retire", 0.02, [outbound])], 0.05)
        assert replayed.snapshot() == original.snapshot()
        assert replayed.resident_settlement_records() == 0
        assert replayed.retired_record_count() == 1

    def test_migrate_refuses_without_a_placement_plan(self, fast_network):
        """A backend session opened with no placement has nothing to move
        against — migrating it is a wiring bug, reported as such."""
        from repro.cluster.backends import SerialBackend

        backend = SerialBackend()
        backend.open([], [], {})  # no placement
        with pytest.raises(ConfigurationError):
            backend.migrate(0, 0.0, [Move(shard=0, worker=1)])

    def test_migrate_refuses_without_history(self, fast_network):
        """A process session opened without migration history cannot
        migrate: the replay inputs were never recorded."""
        from repro.cluster.backends import ProcessPoolBackend

        backend = ProcessPoolBackend(max_workers=2)
        system = ClusterSystem(
            shard_count=2, network_config=fast_network, backend="process",
            max_workers=2, seed=3,
        )
        try:
            system.run()  # opens the session with record_history=False
            with pytest.raises(ConfigurationError):
                system._backend.migrate(0, 0.0, [Move(shard=0, worker=1)])
        finally:
            system.close()
            backend.close()


# The replay tests' deployments: each backend by name, plus "one-worker" —
# the process pool shrunk to a single worker that hosts every shard.  A move
# needs a second worker to go to, so the migrating tests stay on the
# backend names.
DEPLOYMENTS = BACKEND_NAMES + ("one-worker",)
# Shard 0 leaves worker 0 in the idle gap and comes back mid-burst-two.
_ROUND_TRIP = ((0.05, 0, 1), (0.112, 0, 0))


def _replay_system(fast_network, deployment, **kwargs):
    max_workers = WORKERS
    if deployment == "one-worker":
        deployment, max_workers = "process", 1
    return ClusterSystem(
        shard_count=SHARDS,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=fast_network,
        backend=deployment,
        max_workers=max_workers,
        seed=3,
        **kwargs,
    )


def _bursty_submissions(users=24, per_burst=40):
    """Two bursts of transfers, from t=0 and from t=0.1, with an idle gap."""
    submissions = []
    for burst, base in enumerate((0.0, 0.1)):
        for i in range(per_burst):
            source = (i * 3 + burst) % users
            destination = (source + 1 + i % 5) % users
            submissions.append(
                ClusterSubmission(
                    time=base + 0.0001 + 0.0004 * i,
                    source_user=source,
                    destination_user=destination,
                    amount=1 + i % 7,
                )
            )
    return submissions


class TestRestoredBalancesCarryHistory:
    """A restored or replayed node must still afford what its history paid for.

    Balances are a running sum, not a walk over ``hist``: snapshots ship
    ``hist`` + offsets and the sum is rebuilt on restore, and a migrating
    shard rebuilds it by replaying from genesis.  Here one account's
    burst-two spending (1 250) is only affordable thanks to a local credit
    (450) and a cross-shard mint (300) validated in burst one.  On the
    process pool the driver's twins are restored from the workers'
    snapshots; under the migration the shard that owns the account leaves
    its worker in the gap and comes back mid-burst-two.  An under-reporting
    rebuild rejects or parks the 1 200 payment; an over-reporting one
    commits the final overdraft.
    """

    @staticmethod
    def _user(router, shard, process):
        return next(
            user
            for user in range(100_000)
            if router.shard_of(user) == shard and router.local_process_of(user) == process
        )

    def _run(self, fast_network, deployment, **kwargs):
        system = _replay_system(fast_network, deployment, **kwargs)
        spender = self._user(system.router, 0, 0)
        local_payer = self._user(system.router, 0, 1)
        remote_payer = self._user(system.router, 1, 2)
        payee = self._user(system.router, 2, 3)
        system.schedule_submissions(
            [
                ClusterSubmission(0.0005, local_payer, spender, 450),
                ClusterSubmission(0.0007, remote_payer, spender, 300),
                # Burst two, after the gap (and the first move).
                ClusterSubmission(0.1005, spender, payee, 1_200),
                ClusterSubmission(0.1009, spender, local_payer, 50),
                ClusterSubmission(0.1100, spender, payee, 1),  # nothing left
            ]
        )
        return system, system.run()

    def _assert_matches_reference(self, fast_network, deployment, **kwargs):
        reference_system, reference = self._run(fast_network, "serial")
        system, result = self._run(fast_network, deployment, **kwargs)
        try:
            assert sorted(record.transfer.amount for record in reference.committed) == [
                50, 300, 450, 1_200
            ]
            assert [record.transfer.amount for record in reference.rejected] == [1]
            assert result.fingerprint() == reference.fingerprint()
            assert result.committed_count == 4
            assert system.check_definition1().ok
            assert result.audit["conserved"]
            return system.scheduler.migration_log
        finally:
            reference_system.close()
            system.close()

    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    def test_plain_run(self, fast_network, deployment):
        assert self._assert_matches_reference(fast_network, deployment) == []

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_mid_run_migration(self, fast_network, backend):
        moves = self._assert_matches_reference(
            fast_network, backend, migration=MigrationPlan(list(_ROUND_TRIP))
        )
        assert len(moves) == 2


class TestHistoryCompaction:
    """``compact_history`` drops consumed local records, never a result bit."""

    @pytest.mark.parametrize("deployment", DEPLOYMENTS + ("migrated",))
    def test_history_compaction_preserves_the_fingerprint(self, fast_network, deployment):
        kwargs, moves = {"compact_history": True}, 0
        if deployment == "migrated":
            # The compacted shard is rebuilt by a replay from genesis, twice.
            deployment, moves = "process", len(_ROUND_TRIP)
            kwargs["migration"] = MigrationPlan(list(_ROUND_TRIP))
        baseline_system = _replay_system(fast_network, "serial")
        compacted_system = _replay_system(fast_network, deployment, **kwargs)
        try:
            baseline_system.schedule_submissions(_bursty_submissions())
            compacted_system.schedule_submissions(_bursty_submissions())
            baseline = baseline_system.run()
            compacted = compacted_system.run()
            assert compacted.fingerprint() == baseline.fingerprint()
            assert compacted_system.check_definition1().ok
            assert len(compacted.migration_stream) == moves
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


class TestGenesisReplay:
    """A move ships the shard's whole history and replays it from genesis."""

    def test_every_move_replays_the_whole_log(self, fast_network):
        """The driver's replay log only grows, pauses included, and a shard
        that moves twice replays more the second time."""
        reference = _replay_system(fast_network, "serial")
        system = _replay_system(
            fast_network, "process", migration=MigrationPlan(list(_ROUND_TRIP))
        )
        try:
            reference.schedule_submissions(_bursty_submissions())
            system.schedule_submissions(_bursty_submissions())
            logged = []
            for until in (0.03, 0.06, 0.09, 0.12):
                system.run(until=until)
                logged.append(system.replay_log_entries())
            result = system.run()
            logged.append(system.replay_log_entries())
            assert logged == sorted(logged) and logged[-1] > 0
            assert result.fingerprint() == reference.run().fingerprint()
            first, second = system.scheduler.migration_log
            arrivals = len(system._backend._submissions[0])
            assert first.shard == second.shard == 0
            assert arrivals < first.replayed_events < second.replayed_events
            assert 0 < first.delta_bytes < second.delta_bytes
        finally:
            reference.close()
            system.close()

    def test_the_serial_backend_ships_nothing(self, fast_network):
        """On serial a move edits the placement: no payload, no replay, no
        log — only the snapshot it would verify against is measured."""
        system = _replay_system(
            fast_network, "serial", migration=MigrationPlan(list(_ROUND_TRIP))
        )
        try:
            system.schedule_submissions(_bursty_submissions())
            system.run()
            records = system.scheduler.migration_log
            assert len(records) == len(_ROUND_TRIP)
            for record in records:
                assert record.snapshot_bytes > 0
                assert record.delta_bytes == record.replayed_events == 0
            assert system.replay_log_entries() == 0
        finally:
            system.close()
