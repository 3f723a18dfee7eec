"""Pinned fingerprints: the contract stated as literals, not as a comparison.

The equivalence harness proves runs equal *each other*; nothing there would
notice every backend drifting together.  Here two toy-size configurations —
literal in this file, so no fixture change can move them — must reproduce
hard-coded fingerprint prefixes on every execution backend, and the serial
run must reproduce them again in child interpreters under two different
``PYTHONHASHSEED`` values (string hashing is salted per interpreter, so a
result that leaned on set or dict iteration order of strings would move).

The repository benchmark's four cluster fingerprints (``perf/``) are pinned
here too, at full size on the serial backend.

A change that moves one of these prefixes changed what the protocol
computes; that is never a side effect of a refactor.
"""

import inspect
import os
import subprocess
import sys

import pytest

import repro
from repro.cluster.backends import BACKEND_NAMES

# cross-shard fraction -> first 16 hex digits of ClusterResult.fingerprint()
PINNED = {
    0.25: "1d117adead420b31",
    1.0: "91258df99fcf3855",
}


def _fingerprint(backend, fraction):
    """4 shards x 4 replicas, batch 4, ~200 submissions; the pinned run."""
    from repro.cluster import ClusterSystem
    from repro.network.node import NetworkConfig
    from repro.workloads.cluster_driver import (
        ClusterWorkloadConfig,
        cluster_open_loop_workload,
    )

    network = NetworkConfig(
        latency_base=0.0002,
        latency_mean=0.0003,
        processing_time=0.000002,
        signature_verification_time=0.00002,
        seed=42,
    )
    with ClusterSystem(
        shard_count=4,
        replicas_per_shard=4,
        batch_size=4,
        initial_balance=1_000,
        network_config=network,
        backend=backend,
        seed=7,
    ) as system:
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=64,
                    aggregate_rate=10_000.0,
                    duration=0.02,
                    zipf_skew=1.0,
                    cross_shard_fraction=fraction,
                    router=system.router,
                    seed=7,
                )
            )
        )
        return system.run().fingerprint()[:16]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("fraction", sorted(PINNED))
def test_every_backend_reproduces_the_pinned_fingerprint(backend, fraction):
    assert _fingerprint(backend, fraction) == PINNED[fraction]


CHILD = """
{source}

print(_fingerprint("serial", {fraction!r}))
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
@pytest.mark.parametrize("fraction", sorted(PINNED))
def test_the_pin_holds_under_any_hash_seed(hash_seed, fraction):
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD.format(source=inspect.getsource(_fingerprint), fraction=fraction),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        ),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [PINNED[fraction]]


# The repository benchmark's cluster workloads at full size, built here the
# way its harness builds them (50 000 users, default network, Zipf 1.0, a
# 2-worker placement) without importing it: (shards, replicas, batch,
# cross-shard fraction, rate, duration, seed) -> fingerprint prefix.
BENCHMARK_PINNED = {
    "ref-mixed-seed7": ((8, 4, 8, 0.25, 24_000.0, 0.1, 7), "e0703702deb7ab88"),
    "local-bracha-seed7": ((2, 10, 1, 0.0, 1_200.0, 0.4, 7), "5f443b8799cdf2b1"),
    "settle-all-seed7": ((8, 4, 8, 1.0, 24_000.0, 0.07, 7), "820f8a18da6aba99"),
    "ref-mixed-seed1009": ((8, 4, 8, 0.25, 24_000.0, 0.1, 1009), "79f5ad6c3c019d9f"),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_PINNED))
def test_the_benchmark_workloads_reproduce_their_fingerprints(workload):
    from repro.cluster import ClusterSystem
    from repro.network.node import NetworkConfig
    from repro.workloads.cluster_driver import (
        ClusterWorkloadConfig,
        cluster_open_loop_workload,
    )

    (shards, replicas, batch, cross, rate, duration, seed), pinned = BENCHMARK_PINNED[workload]
    with ClusterSystem(
        shard_count=shards,
        replicas_per_shard=replicas,
        batch_size=batch,
        network_config=NetworkConfig(),
        backend="serial",
        max_workers=2,
        seed=seed,
    ) as system:
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=50_000,
                    aggregate_rate=rate,
                    duration=duration,
                    zipf_skew=1.0,
                    cross_shard_fraction=cross,
                    router=system.router,
                    seed=seed,
                )
            )
        )
        assert system.run().fingerprint()[:16] == pinned
