"""Deterministic contracts of sparse dependency-driven barrier pacing.

The property sweep (``tests/properties/test_sparse_barrier_properties.py``) pins
sparse ≡ dense at the fingerprint level across random configurations; this
module pins the *mechanism*: the recorded barrier schedule
(:attr:`ClusterResult.barrier_stream`) actually skips rendezvous, falls
back to dense pacing exactly where it must (``until=`` pauses, migration
move epochs), stays out of the fingerprint hash while remaining part of
payload-level comparisons, and the configuration surface rejects
combinations the scheduler cannot honour.
"""

import pytest

from repro.cluster import ClusterSystem, MigrationPlan
from repro.common.errors import ConfigurationError
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)

REPLICAS = 4


def _system(fast_network, backend="serial", barrier_mode="sparse", **kwargs):
    return ClusterSystem(
        shard_count=kwargs.pop("shard_count", 3),
        replicas_per_shard=REPLICAS,
        batch_size=4,
        broadcast="bracha",
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        barrier_mode=barrier_mode,
        seed=9,
        **kwargs,
    )


def _workload(system, fraction=0.25, seed=5):
    return cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=2_000.0,
            duration=0.02,
            zipf_skew=1.0,
            cross_shard_fraction=fraction,
            router=system.router,
            seed=seed,
        )
    )


def _run(fast_network, barrier_mode, backend="serial", fraction=0.25, **kwargs):
    system = _system(fast_network, backend=backend, barrier_mode=barrier_mode, **kwargs)
    try:
        system.schedule_submissions(_workload(system, fraction=fraction))
        result = system.run()
        assert system.check_definition1().ok
        return result
    finally:
        system.close()


class TestSparseSchedule:
    def test_sparse_records_skips_and_run_ahead(self, fast_network):
        result = _run(fast_network, "sparse", fraction=0.0)
        rows = result.barrier_stream
        assert rows  # sparse runs always record their schedule
        for barrier, time, mode, participants, skipped, ahead in rows:
            assert mode in ("dense", "sparse")
            assert participants >= 0 and skipped >= 0 and ahead >= 0
        # With no cross-shard traffic at all, the dependency model must
        # actually thin the rendezvous: some barrier skipped shards or let
        # them run ahead — otherwise sparse pacing degenerated to dense.
        assert any(row[4] > 0 or row[5] > 0 for row in rows)

    def test_dense_runs_record_no_schedule(self, fast_network):
        result = _run(fast_network, "dense")
        # Dense payloads stay byte-identical to pre-sparse builds: the
        # barrier section exists but is empty.
        assert not result.barrier_stream
        assert result.fingerprint_payload()["barriers"] == []

    def test_schedule_is_excluded_from_hash_but_compared(self, fast_network):
        dense = _run(fast_network, "dense")
        sparse = _run(fast_network, "sparse")
        # Identical hash despite different pacing...
        assert dense.fingerprint() == sparse.fingerprint()
        # ...while the payloads legitimately differ in — and only in — the
        # barrier schedule, which payload-level comparisons do see.
        dense_payload = dense.comparable_payload()
        sparse_payload = sparse.comparable_payload()
        assert "barriers" in sparse_payload
        assert dense_payload["barriers"] != sparse_payload["barriers"]
        dense_payload.pop("barriers")
        sparse_payload.pop("barriers")
        assert dense_payload == sparse_payload

    def test_sparse_schedule_is_backend_invariant(self, fast_network):
        serial = _run(fast_network, "sparse", backend="serial")
        threaded = _run(fast_network, "sparse", backend="thread")
        # Stronger than fingerprint equality: the entire comparable payload
        # — barrier schedule included — matches across backends.
        assert serial.comparable_payload() == threaded.comparable_payload()


class TestDenseFallbacks:
    def test_until_pause_forces_dense_pacing(self, fast_network):
        system = _system(fast_network)
        try:
            system.schedule_submissions(_workload(system))
            partial = system.run(until=0.01)
            # Bounded segments rendezvous densely: a pause must observe
            # every shard at the same instant.
            assert partial.barrier_stream
            assert all(row[2] == "dense" for row in partial.barrier_stream)
            final = system.run()
            assert system.check_definition1().ok
        finally:
            system.close()
        uninterrupted = _run(fast_network, "sparse")
        assert final.fingerprint() == uninterrupted.fingerprint()

    def test_migration_moves_force_dense_rows(self, fast_network):
        plan = MigrationPlan([(0.008, 1, 0), (0.014, 2, 1)])
        result = _run(fast_network, "sparse", migration=plan, max_workers=2)
        assert len(result.migration_stream) == 2
        move_barriers = {entry[0] for entry in result.migration_stream}
        by_barrier = {row[0]: row for row in result.barrier_stream}
        for barrier in move_barriers:
            # The barrier that executed a move ran a full dense rendezvous.
            assert by_barrier[barrier][2] == "dense"

    def test_migrated_sparse_matches_migrated_dense(self, fast_network):
        dense = _run(
            fast_network,
            "dense",
            migration=MigrationPlan([(0.008, 1, 0), (0.014, 2, 1)]),
            max_workers=2,
        )
        sparse = _run(
            fast_network,
            "sparse",
            migration=MigrationPlan([(0.008, 1, 0), (0.014, 2, 1)]),
            max_workers=2,
        )
        assert dense.fingerprint() == sparse.fingerprint()
        assert dense.migration_stream == sparse.migration_stream


class TestConfigurationSurface:
    def test_unknown_barrier_mode_rejected(self, fast_network):
        with pytest.raises(ConfigurationError):
            _system(fast_network, barrier_mode="eager")

    def test_sparse_pacing_runs_on_the_default_backend(self, fast_network):
        """No backend named: sparse pacing is accepted and records the same
        schedule as the explicitly serial run."""
        system = ClusterSystem(
            shard_count=3,
            replicas_per_shard=REPLICAS,
            batch_size=4,
            broadcast="bracha",
            initial_balance=500,
            network_config=fast_network,
            barrier_mode="sparse",
            seed=9,
        )
        try:
            assert system.backend_name == "serial"
            system.schedule_submissions(_workload(system))
            result = system.run()
        finally:
            system.close()
        assert result.barrier_stream
        assert result.comparable_payload() == _run(fast_network, "sparse").comparable_payload()

    def test_max_lag_must_be_positive(self, fast_network):
        with pytest.raises(ConfigurationError):
            _system(fast_network, max_lag=0)
