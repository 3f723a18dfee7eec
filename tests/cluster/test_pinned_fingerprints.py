"""Pinned fingerprints: the contract stated as literals, not as a comparison.

The equivalence harness proves runs equal *each other*; nothing there would
notice every backend drifting together.  Here two toy-size configurations —
literal in this file, so no fixture change can move them — must reproduce
hard-coded fingerprint prefixes on every execution backend, and the serial
run must reproduce them again in child interpreters under two different
``PYTHONHASHSEED`` values (string hashing is salted per interpreter, so a
result that leaned on set or dict iteration order of strings would move).

The repository benchmark's four cluster fingerprints (``perf/``) are pinned
here too, at full size on the serial backend, and so are its two Figure 4
fingerprints (one replica group, no cluster layer), which cover the secure
broadcast's message path on its own.

A change that moves one of these prefixes changed what the protocol
computes; that is never a side effect of a refactor.
"""

import hashlib
import inspect
import json
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
    from repro.cluster.system import ClusterSystem
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
    from repro.cluster.system import ClusterSystem
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


# The repository benchmark's Figure 4 workloads at full size, built the way
# its harness builds them: (processes, transfers per process, faulty) ->
# prefix of the SHA-256 over the committed stream and the run's cost.  The
# highest ids are faulty (one double-spender, the rest silent), and the
# double-spender attacks at 0.5 ms.
FIG4_PINNED = {
    "fig4-vs-pbft-seed7": ((16, 12, 0, 7), "1795efd029c8cf8c"),
    "fig4-byzantine-seed7": ((25, 8, 8, 7), "31494bab28ef5e83"),
}


def _fig4_stream_fingerprint(count, transfers, faults, seed):
    from repro.byzantine.faults import FaultKind, FaultModel
    from repro.mp.consensusless_transfer import account_of
    from repro.mp.system import ConsensuslessSystem
    from repro.network.node import NetworkConfig
    from repro.workloads.generators import WorkloadConfig, closed_loop_workload

    attacker = count - 1
    kinds = {attacker - i: FaultKind.SILENT for i in range(1, faults)}
    if faults:
        kinds[attacker] = FaultKind.DOUBLE_SPEND
    fault_model = FaultModel(total_processes=count, faults=kinds)
    submissions = [
        s
        for s in closed_loop_workload(
            count, WorkloadConfig(transfers_per_process=transfers, seed=seed)
        )
        if fault_model.is_correct(s.issuer)
        and not (faults and s.destination == account_of(attacker))
    ]
    system = ConsensuslessSystem(
        process_count=count,
        network_config=NetworkConfig(),
        fault_model=fault_model,
        seed=seed,
    )
    system.schedule_submissions(submissions)
    if faults:
        system.trigger_attacks(at_time=0.0005)
    result = system.run()
    stream = [
        [
            record.transfer.issuer,
            record.transfer.sequence,
            record.transfer.destination,
            record.transfer.amount,
            round(record.completed_at, 12),
        ]
        for record in result.committed
    ]
    payload = [stream, result.messages_sent, result.events_processed, result.duration]
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(FIG4_PINNED))
def test_the_figure4_workloads_reproduce_their_fingerprints(workload):
    inputs, pinned = FIG4_PINNED[workload]
    assert _fig4_stream_fingerprint(*inputs)[:16] == pinned
