#!/usr/bin/env python3
"""Cluster quickstart: consensusless payments at cluster scale.

The paper's Theorem 1 says single-owner asset transfer has consensus
number 1: transfers on different accounts commute, so the system shards by
account with no cross-shard coordination.  This example:

1. walks one cross-shard payment round trip — Alice (shard 0) pays Bob
   (shard 1), the settlement relay quorum-certifies and mints the credit,
   Bob *spends the received money* onwards and back across the boundary, and
   the acknowledgement leg then *retires* the outbound records: the resident
   settlement-record count is printed mid-flight and after compaction,
2. generates a heavy, Zipf-skewed, Poisson-arrival workload from 100 000
   simulated users,
3. replays it against 1, 2 and 4 shards (identical offered load), plain and
   batched (8 transfers per secure-broadcast instance),
4. audits every run with the per-shard Definition 1 checker plus the
   cluster-level conservation audit that nets settled credits across shard
   ledgers,
5. re-runs one sharded workload on two execution backends —
   ``backend="serial"`` vs ``backend="process"`` — printing both wall clocks
   and showing that the canonical result fingerprints are equal (shards
   never coordinate, so nothing forces them onto one event loop), and
6. turns the telemetry on full: the same run traced and metered, its phase
   breakdown and busiest counters printed, a Chrome ``trace_event`` file
   (``TRACE_quickstart.json``, loadable in chrome://tracing or Perfetto)
   written and validated — while the fingerprint still equals the
   untelemetered run's, because telemetry never perturbs results.

How fast all of this runs is measured by the repository benchmark:
``make perf`` runs its six workloads (``BENCHMARK.json``, ``perf/``) and
reports wall clock end to end and layer by layer.

Run with:  python examples/cluster_quickstart.py
"""

import os
import time

from repro.cluster.system import ClusterSystem
from repro.eval.experiments import (
    ClusterExperimentConfig,
    run_cluster,
    telemetry_breakdown,
    telemetry_phase_coverage,
    telemetry_top_counters,
)
from repro.eval.reporting import format_cluster_table, format_telemetry_table
from repro.obs import validate_trace_file
from repro.network.node import NetworkConfig
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    destination_histogram,
)


def cross_shard_round_trip() -> None:
    """One payment out, settled, spent onwards, and change sent back."""
    system = ClusterSystem(
        shard_count=2, replicas_per_shard=4, initial_balance=10, seed=3
    )
    router = system.router
    alice = next(u for u in range(100_000) if router.shard_of(u) == 0)
    bob = next(u for u in range(100_000) if router.shard_of(u) == 1)
    carol = next(
        u for u in range(100_000)
        if router.shard_of(u) == 1
        and router.local_account_of(u) != router.local_account_of(bob)
    )
    print("one cross-shard round trip (every account starts with 10 coins):")
    print(f"  t=0.001  Alice (shard 0) pays Bob (shard 1) 9 coins")
    print(f"  t=0.050  Bob pays Carol (shard 1) 15 coins  <- exceeds Bob's own 10:")
    print(f"           only spendable because the settlement relay minted Alice's 9")
    print(f"  t=0.090  Bob sends 3 coins back to Alice (shard 0)")
    system.schedule_submissions(
        [
            ClusterSubmission(time=0.001, source_user=alice, destination_user=bob, amount=9),
            ClusterSubmission(time=0.05, source_user=bob, destination_user=carol, amount=15),
            ClusterSubmission(time=0.09, source_user=bob, destination_user=alice, amount=3),
        ]
    )
    # Pause mid-flight: the payments have validated but the acknowledgement
    # leg has not finished retiring their outbound records yet.
    system.run(until=0.095)
    mid_resident = system.resident_settlement_records()
    mid_retired = system.retired_records()
    result = system.run()
    balance = lambda user: (
        system.shards[router.shard_of(user)].nodes[0].balance_of(router.local_account_of(user))
    )
    audit = system.supply_audit()
    report = system.check_definition1()
    print(f"  -> committed {result.committed_count}/3, "
          f"certificates delivered: {len(system.settlement_signature())}")
    print(f"  -> balances: Alice {balance(alice)}, Bob {balance(bob)}, Carol {balance(carol)}")
    print(f"  -> audit: local {audit.local} + in-flight {audit.in_flight} "
          f"= initial {audit.initial_supply}; Definition 1 "
          f"{'OK' if report.ok else 'VIOLATED'}, fully settled: {audit.fully_settled}")
    print(f"  -> compaction: resident outbound records {mid_resident} mid-flight "
          f"(retired {mid_retired}) -> {system.resident_settlement_records()} after the "
          f"acknowledgement quorums retired all {system.retired_records()} "
          f"(ledgers keep the in-flight window, not the history)")


def backend_speedup() -> None:
    """The same cluster run on one core vs. a process pool per shard."""
    config = ClusterExperimentConfig(
        user_count=50_000,
        aggregate_rate=16_000.0,
        duration=0.05,
        zipf_skew=1.0,
        network=NetworkConfig(seed=7),
        seed=7,
    )
    workload = config.workload()
    print(f"execution backends: {len(workload)} payments against 4 shards, "
          f"identical simulated work on every backend ({os.cpu_count()} CPUs here)")
    fingerprints = {}
    clocks = {}
    for backend in ("serial", "process"):
        system = ClusterSystem(
            shard_count=4, replicas_per_shard=4, batch_size=8,
            network_config=NetworkConfig(seed=7), backend=backend, seed=7,
        )
        system.schedule_submissions(workload)
        started = time.perf_counter()
        result = system.run()
        clocks[backend] = time.perf_counter() - started
        fingerprints[backend] = result.fingerprint()
        verdict = "OK" if system.check_definition1().ok else "VIOLATED"
        print(f"  backend={backend:7s} wall clock {clocks[backend]:6.2f}s, "
              f"{result.committed_count} committed, Definition 1 {verdict}, "
              f"fingerprint {fingerprints[backend][:12]}")
        system.close()
    same = fingerprints["serial"] == fingerprints["process"]
    print(f"  -> fingerprints identical: {same} "
          f"(parallelism may never change protocol behaviour)")
    print(f"  -> serial / process wall clock: {clocks['serial'] / clocks['process']:.2f}x "
          f"(equivalence holds whatever the ratio)")


def telemetry_tour() -> None:
    """The same run metered and traced: the telemetry layer records where the wall clock went without moving a single result
    bit (the fingerprint invariant, checked live below)."""
    def build(telemetry):
        system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, batch_size=4,
            network_config=NetworkConfig(seed=7), backend="serial",
            telemetry=telemetry, seed=7,
        )
        config = ClusterExperimentConfig(
            user_count=2_000, aggregate_rate=4_000.0, duration=0.04,
            cross_shard_fraction=0.5, network=NetworkConfig(seed=7), seed=7,
        )
        system.schedule_submissions(config.workload(system.router))
        return system

    bare = build("off")
    reference = bare.run().fingerprint()
    bare.close()

    system = build("full")
    result = system.run()
    system.close()
    telemetry = result.telemetry
    coverage = telemetry_phase_coverage(telemetry)
    print("telemetry: the same run with metrics and span tracing on full")
    print(f"  -> fingerprint equals the telemetry-off run: "
          f"{result.fingerprint() == reference} (telemetry never perturbs results)")
    print()
    print(format_telemetry_table(telemetry_breakdown(telemetry)))
    print(f"  (phase breakdown explains {coverage:.1%} of the run's wall time)")
    print()
    print("  busiest counters (driver + all shards merged):")
    for name, value in telemetry_top_counters(telemetry, limit=5):
        print(f"    {name:24s} {value:>10,}")
    trace_path = "TRACE_quickstart.json"
    events = result.export_trace(trace_path)
    validate_trace_file(trace_path)
    print(f"  -> wrote {trace_path} ({events} trace events, schema-validated;")
    print(f"     load it in chrome://tracing or https://ui.perfetto.dev)")


def main() -> None:
    cross_shard_round_trip()
    print()
    backend_speedup()
    print()
    telemetry_tour()
    print()
    config = ClusterExperimentConfig(
        user_count=100_000,
        aggregate_rate=10_000.0,
        duration=0.05,
        zipf_skew=1.0,
        network=NetworkConfig(seed=7),
        seed=7,
    )
    workload = config.workload()
    print(f"workload: {len(workload)} payments from {config.user_count:,} users "
          f"(Poisson arrivals at {config.aggregate_rate:,.0f} tx/s, Zipf skew {config.zipf_skew})")
    top = destination_histogram(workload, top=3)
    print(f"hottest merchants (user id: payments received): {top}")
    print()

    rows = []
    for shards, batch in [(1, 1), (2, 1), (4, 1), (1, 8), (2, 8), (4, 8)]:
        row, system = run_cluster(shards, batch, config, workload=workload)
        rows.append(row)
        verdict = "OK" if row.check.ok else "VIOLATED: " + "; ".join(row.check.violations[:2])
        print(f"shards={shards} batch={batch}: "
              f"{row.summary.committed} committed at {row.summary.throughput:,.0f} tx/s, "
              f"{system.cross_shard_submissions} cross-shard, Definition 1 {verdict}")
    print()
    print(format_cluster_table(rows))
    print()
    print("Reading the table: throughput scales with shard count because shards")
    print("share no accounts and only exchange quorum-certified settlement")
    print("certificates; batching multiplies it again by amortising the")
    print("signature/quorum cost of each secure-broadcast instance over up to 8")
    print("transfers ('tx/broadcast').  'settled' is the cross-shard money minted")
    print("spendable at its destination shard; 'resident'/'retired' are the")
    print("settlement lifecycle's record counts (every outbound x{d}:a record is")
    print("retired once a 2f+1 destination acknowledgement quorum confirms its")
    print("mint — at quiescence 'resident' is 0 and the ledgers are compact);")
    print("'conserved' is the cross-ledger supply audit identity (local +")
    print("in-flight == initial supply; at quiescence every run above also")
    print("settles fully, in-flight == 0).")


if __name__ == "__main__":
    main()
