"""Property-based determinism sweep over the execution backends.

Across ~50 random seed × shard-count × batch-size × cross-shard-fraction
configurations (the same sampling style as ``test_cluster_settlement.py``),
the execution backends must uphold two properties, stated on the canonical
:meth:`~repro.cluster.result.ClusterResult.fingerprint`:

* **Determinism** — the same configuration run twice on the same backend
  yields the identical fingerprint (no wall-clock or worker-assignment
  leakage into results), and
* **Equivalence** — different backends yield the identical fingerprint for
  the same configuration (parallel execution never changes what the
  protocol did).

The wide sweep runs ``SerialBackend`` twice per configuration (cheap to
spin up); a narrower sweep runs ``ProcessPoolBackend`` twice per
configuration — same seed twice ⇒ identical fingerprint, and identical to
the serial reference — because each example boots worker processes.  A
third sweep varies the pool's worker count against the shard count.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.system import ClusterSystem
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

FAST_NETWORK = NetworkConfig(
    latency_base=0.0002,
    latency_mean=0.0003,
    processing_time=0.000002,
    signature_verification_time=0.00002,
    seed=42,
)

REPLICAS = 4
INITIAL_BALANCE = 100


def _fingerprint(backend, seed, shards, batch, fraction, max_workers=None):
    system = ClusterSystem(
        shard_count=shards,
        replicas_per_shard=REPLICAS,
        batch_size=batch,
        initial_balance=INITIAL_BALANCE,
        network_config=FAST_NETWORK,
        backend=backend,
        max_workers=max_workers,
        seed=seed % 997,
    )
    try:
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60,
                aggregate_rate=2_000.0,
                duration=0.02,
                zipf_skew=1.0,
                cross_shard_fraction=fraction,
                router=system.router if fraction is not None else None,
                seed=seed,
            )
        )
        system.schedule_submissions(workload)
        result = system.run()
        assert system.check_definition1().ok
        return result.fingerprint()
    finally:
        system.close()


class TestBackendDeterminismProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        shards=st.sampled_from([1, 2, 3]),
        batch=st.sampled_from([1, 4]),
        fraction=st.sampled_from([None, 0.0, 0.5, 1.0]),
    )
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_serial_is_deterministic(self, seed, shards, batch, fraction):
        first = _fingerprint("serial", seed, shards, batch, fraction)
        again = _fingerprint("serial", seed, shards, batch, fraction)
        assert first == again  # same seed, same backend => same bytes

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        shards=st.sampled_from([2, 3]),
        batch=st.sampled_from([1, 4]),
        fraction=st.sampled_from([0.5, 1.0]),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_process_pool_is_deterministic_and_matches_serial(
        self, seed, shards, batch, fraction
    ):
        first = _fingerprint("process", seed, shards, batch, fraction, max_workers=2)
        again = _fingerprint("process", seed, shards, batch, fraction, max_workers=2)
        serial = _fingerprint("serial", seed, shards, batch, fraction)
        assert first == again
        assert first == serial

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        shards=st.sampled_from([1, 2, 3]),
        workers=st.sampled_from([1, 2, 3]),
        fraction=st.sampled_from([0.5, 1.0]),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_worker_count_matches_serial(self, seed, shards, workers, fraction):
        """One worker hosting every shard, one worker per shard, or more
        workers asked for than there are shards: the serial bytes."""
        pooled = _fingerprint("process", seed, shards, 4, fraction, max_workers=workers)
        assert pooled == _fingerprint("serial", seed, shards, 4, fraction)
