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
   never coordinate, so nothing forces them onto one event loop),
6. *rebalances the cluster live*: a shifting hotspot skews the per-worker
   load, ``rebalance()`` migrates shards between workers mid-run (snapshot,
   detach, rehydrate — no agreement protocol, because shards never
   coordinate), and the final fingerprint still equals the static run's:
   results are placement-invariant,
7. repeats a migrated run with *incremental checkpoints* on: periodic
   delta-encoded baselines taken at protocol-quiescent epoch barriers let
   the same moves ship only what changed since the last checkpoint —
   O(delta) payload bytes and a truncated replay — with the fingerprint
   still equal to the checkpoint-free run's, and
8. turns the telemetry on full: the same run traced and metered, its phase
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

from repro.cluster import ClusterSystem, MigrationPlan
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
    HotspotProfile,
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


def live_rebalance() -> None:
    """Migrate shards between workers mid-run; results stay bit-identical."""
    def build(migration):
        system = ClusterSystem(
            shard_count=4, replicas_per_shard=4, batch_size=8,
            network_config=NetworkConfig(seed=7), backend="serial",
            max_workers=2, migration=migration, seed=7,
        )
        config = ClusterExperimentConfig(
            user_count=2_000, aggregate_rate=6_000.0, duration=0.06,
            zipf_skew=1.0, cross_shard_fraction=0.4,
            hotspot=HotspotProfile(period=0.02, intensity=0.7, width=8),
            network=NetworkConfig(seed=7), seed=7,
        )
        system.schedule_submissions(config.workload(system.router))
        return system

    static = build(None)
    reference = static.run().fingerprint()
    static.close()

    live = build("manual")  # migration seam on, moves decided by us
    # The session inherits a one-worker placement (think: a cluster that
    # just scaled from one worker to two) — before the first run the plan
    # is still editable for free.
    live.rebalance(moves=[(shard, 0) for shard in range(4)])
    live.run(until=0.02)    # phase 1 of the hotspot: worker 0 does it all
    before = live.worker_loads()
    records = live.rebalance()
    after = live.worker_loads()
    result = live.run()
    same = result.fingerprint() == reference
    print("live rebalancing: 4 hotspot-skewed shards, all on worker 0 of 2")
    print(f"  per-worker load before rebalance(): {before}")
    for record in records:
        print(f"  moved shard {record.shard}: worker {record.source_worker} -> "
              f"{record.target_worker} ({record.snapshot_bytes} snapshot bytes, "
              f"{record.stall_s * 1000:.1f} ms stall)")
    print(f"  per-worker load after:               {after}")
    print(f"  -> fingerprint equals the static-assignment run: {same}")
    print(f"     (placement invariance: migration moves *where* shards compute,")
    print(f"      never what they compute; Definition 1 "
          f"{'OK' if live.check_definition1().ok else 'VIOLATED'})")
    live.close()


def checkpointed_migration() -> None:
    """The same moves shipped as O(delta) instead of O(history).

    Checkpoints are taken opportunistically at *protocol-quiescent* epoch
    barriers, so a bursty workload — two traffic bursts with an idle gap —
    is where they pay off: the barriers inside the gap refresh every
    shard's baseline, and the moves scheduled after a burst ship only the
    delta since that baseline and replay only the tail.
    """
    def bursts():
        subs = []
        for base in (0.0, 0.1):
            for i in range(60):
                source = (i * 5 + int(base * 10)) % 200
                destination = (source + 7 + i % 11) % 200
                subs.append(ClusterSubmission(
                    time=base + 0.0001 + 0.0004 * i, source_user=source,
                    destination_user=destination, amount=1 + i % 9,
                ))
        return subs

    def build(checkpoint_every):
        system = ClusterSystem(
            shard_count=4, replicas_per_shard=4, batch_size=8,
            network_config=NetworkConfig(seed=7), backend="process",
            max_workers=2, seed=7,
            migration=MigrationPlan([(0.05, 0, 1), (0.112, 1, 0)]),
            checkpoint_every=checkpoint_every,
        )
        system.schedule_submissions(bursts())
        return system

    runs = {}
    for label, cadence in (("from genesis", None), ("checkpointed", 2)):
        system = build(cadence)
        fingerprint = system.run().fingerprint()
        runs[label] = (fingerprint, list(system.scheduler.migration_log),
                       system.checkpoint_stats())
        system.close()

    print("checkpointed migration: the same two moves, process pool, 2 workers")
    for label, (fingerprint, records, stats) in runs.items():
        for record in records:
            payload = record.delta_bytes or record.snapshot_bytes
            print(f"  [{label:12s}] shard {record.shard}: worker "
                  f"{record.source_worker} -> {record.target_worker}, "
                  f"{payload:,} payload bytes vs {record.snapshot_bytes:,} "
                  f"full snapshot, {record.replayed_events} events replayed")
        if stats["taken"]:
            print(f"  [{label:12s}] checkpoint stream: {stats['taken']} taken, "
                  f"{stats['delta_bytes']:,} delta bytes vs "
                  f"{stats['full_bytes']:,} full")
    same = runs["from genesis"][0] == runs["checkpointed"][0]
    print(f"  -> fingerprints identical with checkpoints on: {same}")


def telemetry_tour() -> None:
    """The same run metered, traced and profiled-for-free: the telemetry
    layer records where the wall clock went without moving a single result
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
    live_rebalance()
    print()
    checkpointed_migration()
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
