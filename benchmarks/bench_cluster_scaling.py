"""Cluster scaling — throughput vs. shard count, batch size and settlement load.

The consensus-number-1 result makes the system horizontally partitionable by
account; this benchmark quantifies what that buys.  One Zipf/Poisson
open-loop workload (identical submissions, arrival times and seed) replays
against every cluster geometry in the grid shards × {1, 2, 4, 8} and batch
size × {1, 8, 32}; every configuration is audited with the per-shard
Definition 1 checker *and* the cluster-level supply audit (cross-shard
credits are quorum-certified and minted at their destination shard by the
settlement relay, so conservation now spans both ledger views) before its
numbers count.

A second sweep drives explicit ``cross_shard_fraction`` mixes through the
settlement fabric: rows assert that under every mix the run settles
completely — nothing left in flight — and appends the audited results
alongside the scaling grid.

Besides the pytest-benchmark report, the sweeps emit machine-readable
``BENCH_cluster.json`` at the repository root so the performance trajectory
is tracked across PRs.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the grids and the offered load
(used by ``make bench-smoke``).
"""

import dataclasses
import os

from _gates import CPU_COUNT, SMOKE, enforce_gate, journal, speedup_gate
from repro.cluster import MigrationPlan, ThresholdMigrationPolicy
from repro.eval.experiments import (
    ClusterExperimentConfig,
    backend_comparison_experiment,
    cluster_scaling_experiment,
    cross_shard_settlement_experiment,
    migration_rebalancing_experiment,
    telemetry_breakdown,
    telemetry_phase_coverage,
    telemetry_top_counters,
)
from repro.eval.reporting import (
    format_backend_table,
    format_cluster_table,
    format_migration_table,
    format_telemetry_table,
)
from repro.network.node import NetworkConfig

SHARD_COUNTS = (1, 2) if SMOKE else (1, 2, 4, 8)
BATCH_SIZES = (1, 8) if SMOKE else (1, 8, 32)
# (shards, batch, cross_shard_fraction) mixes for the settlement sweep.
CROSS_SHARD_CONFIGS = (
    ((2, 8, 0.5),) if SMOKE else ((2, 1, 0.25), (2, 8, 0.5), (4, 8, 0.5), (8, 8, 1.0))
)
# Execution backends for the wall-clock sweep; `make bench BACKEND=process`
# (or a comma list) narrows it.
BACKENDS = tuple(
    name for name in os.environ.get("REPRO_BENCH_BACKEND", "").split(",") if name
) or ("serial", "thread", "process")
BACKEND_SHARDS = 2 if SMOKE else 8
BACKEND_BATCH = 8
# The migration sweep: a shifting-hotspot workload on MIGRATION_SHARDS
# shards over two logical workers, under static/manual/threshold schedules.
MIGRATION_SHARDS = 4
MIGRATION_WORKERS = 2
MIGRATION_DURATION = 0.03 if SMOKE else 0.06


def _config() -> ClusterExperimentConfig:
    # The smoke load must outweigh the settlement tail: a 2-shard run's last
    # events are barrier-time retirements, so its duration ends on the epoch
    # grid, and at 8 000 tx/s that tail cancelled the second shard's gain.
    return ClusterExperimentConfig(
        user_count=5_000 if SMOKE else 50_000,
        aggregate_rate=16_000.0 if SMOKE else 24_000.0,
        duration=0.03 if SMOKE else 0.05,
        zipf_skew=1.0,
        network=NetworkConfig(seed=7),
        seed=7,
    )


def _row_payload(row, fraction=None) -> dict:
    audit = row.check.conservation
    return {
        "shard_count": row.shard_count,
        "batch_size": row.batch_size,
        "cross_shard_fraction": fraction,
        "committed": row.summary.committed,
        "rejected": row.summary.rejected,
        "throughput_tps": round(row.summary.throughput, 1),
        "avg_latency_ms": round(row.summary.latency.average * 1000, 3),
        "p95_latency_ms": round(row.summary.latency.p95 * 1000, 3),
        "messages_sent": row.summary.messages_sent,
        "messages_per_commit": round(row.summary.messages_per_commit, 2),
        "tx_per_broadcast": round(row.amortisation, 2),
        "load_imbalance": round(row.load_imbalance, 3),
        "cross_shard_submissions": row.cross_shard_submissions,
        "settled_amount": row.settled_amount,
        "in_flight_amount": row.in_flight_amount,
        "settlement_messages": row.settlement_messages,
        "resident_settlement_records": row.resident_settlement_records,
        "retired_records": row.retired_records,
        "retired_amount": row.retired_amount,
        # Per-shard Definition 1 alone; the conservation identity is its own
        # field so trajectory tracking can tell the two audits apart.
        "definition_1_ok": all(r.ok for r in row.check.shard_reports.values()),
        "conservation_ok": row.conservation_ok,
    }


def _telemetry_payload(telemetry: dict) -> dict:
    """One run's telemetry as trajectory-JSON: phases, coverage, counters."""
    return {
        "mode": telemetry.get("mode") if telemetry else None,
        "phase_coverage": round(telemetry_phase_coverage(telemetry), 4),
        "phases": [
            {
                "phase": row.phase,
                "count": row.count,
                "total_s": round(row.total_s, 6),
                "mean_ms": round(row.mean_s * 1000, 4),
                "share": round(row.share, 4),
            }
            for row in telemetry_breakdown(telemetry)
        ],
        "top_counters": [
            {"counter": name, "value": value}
            for name, value in telemetry_top_counters(telemetry, limit=8)
        ],
    }


def _update_json(
    key: str, rows: list, config: ClusterExperimentConfig, extra: dict = None
) -> None:
    """Read-modify-write one section of the benchmark JSON.

    The scaling grid and the settlement sweep run as separate pytest items;
    each owns one key of the payload — carrying its *own* workload header —
    so either can be rerun alone without clobbering or mislabeling the
    other's rows.
    """
    section = {
        "workload": {
            "user_count": config.user_count,
            "aggregate_rate": config.aggregate_rate,
            "duration": config.duration,
            "zipf_skew": config.zipf_skew,
            "seed": config.seed,
        },
        "rows": rows,
    }
    if extra:
        section.update(extra)
    journal(key, section)


def test_cluster_scaling_grid(benchmark):
    """The full sweep: monotone shard scaling, batching advantage, audits."""
    config = _config()

    def run():
        return cluster_scaling_experiment(
            shard_counts=SHARD_COUNTS, batch_sizes=BATCH_SIZES, config=config
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    by_config = {(row.shard_count, row.batch_size): row for row in rows}
    for row in rows:
        benchmark.extra_info[f"s{row.shard_count}_b{row.batch_size}_tps"] = round(
            row.summary.throughput, 1
        )
        # Safety first: a configuration whose audits fail has committed
        # nothing meaningful, whatever its throughput.
        assert row.check.ok, (
            f"Definition 1 violated at shards={row.shard_count} "
            f"batch={row.batch_size}: {row.check.violations[:3]}"
        )
        assert row.conservation_ok, (
            f"cluster conservation violated at shards={row.shard_count} "
            f"batch={row.batch_size}: {row.check.conservation}"
        )
        # Cross-shard money must actually move: whenever the workload crossed
        # a shard boundary, the settlement relay minted it at the destination
        # — and by quiescence the full lifecycle retired every outbound
        # record, so the ledgers carry no settlement history.
        if row.cross_shard_submissions > 0:
            assert row.settled_amount > 0
            assert row.retired_records > 0
            assert row.retired_amount == row.settled_amount
        assert row.in_flight_amount == 0
        assert row.resident_settlement_records == 0

    # Horizontal scaling: committed throughput rises monotonically from
    # 1 -> 4 shards while the protocol is the bottleneck (batch 1 and 8;
    # batch 32 drains the offered load so its curve is flat by design).
    for batch in BATCH_SIZES[:2]:
        series = [by_config[(s, batch)].summary.throughput for s in SHARD_COUNTS if s <= 4]
        assert series == sorted(series), (
            f"throughput not monotone in shard count at batch={batch}: {series}"
        )

    # Batching: at equal offered load, batch=8 beats batch=1 at every
    # shard count (the signature/quorum cost amortises across the batch).
    if 8 in BATCH_SIZES:
        for shards in SHARD_COUNTS:
            batched = by_config[(shards, 8)].summary.throughput
            unbatched = by_config[(shards, 1)].summary.throughput
            assert batched > unbatched, (
                f"batch=8 did not beat batch=1 at shards={shards}: "
                f"{batched:.0f} <= {unbatched:.0f}"
            )

    _update_json("rows", [_row_payload(row) for row in rows], config)
    print()
    print(format_cluster_table(rows))


def test_cross_shard_settlement_configs(benchmark):
    """Explicit settlement mixes: every config settles fully and audits clean."""
    config = _config()

    def run():
        return cross_shard_settlement_experiment(
            configurations=CROSS_SHARD_CONFIGS, config=config
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    for fraction, row in rows:
        label = f"s{row.shard_count}_b{row.batch_size}_x{fraction}"
        benchmark.extra_info[f"{label}_tps"] = round(row.summary.throughput, 1)
        assert row.check.ok, (
            f"Definition 1 violated at {label}: {row.check.violations[:3]}"
        )
        assert row.conservation_ok, (
            f"cluster conservation violated at {label}: {row.check.conservation}"
        )
        # The knob must bite: a steered mix produces cross-shard submissions
        # (all of them at fraction 1.0), every settled coin is accounted, and
        # the lifecycle compacts every outbound record by quiescence.
        assert row.cross_shard_submissions > 0
        assert row.settled_amount > 0
        assert row.in_flight_amount == 0
        assert row.retired_amount == row.settled_amount
        assert row.resident_settlement_records == 0
        if fraction == 1.0:
            assert row.cross_shard_submissions == row.summary.committed

    _update_json(
        "cross_shard_rows",
        [_row_payload(row, fraction) for fraction, row in rows],
        config,
    )
    print()
    print(format_cluster_table([row for _, row in rows]))


def test_migration_rebalancing(benchmark):
    """Live shard migration under a shifting hotspot: moves, bytes, stall.

    One hotspot workload (the focus shard rotates every third of the run)
    replays under four migration schedules — static assignment, a manual
    plan following the hotspot, the threshold policy reacting to the
    observed load, and the manual plan again on the process pool with
    incremental checkpoints so the moves ship O(delta) payloads.  Hard
    assertions: every schedule's run audits clean and produces the
    *identical* canonical fingerprint (placement invariance — migration may
    move where shards compute, never what they compute), the non-static
    schedules execute real moves, and the checkpointed moves ship strictly
    fewer bytes than the full snapshots they verify against.  Per-schedule
    rows with moves, snapshotted bytes, shipped delta bytes and wall-clock
    stall per move land in ``BENCH_cluster.json`` under ``migration_rows``.
    """
    from repro.workloads.cluster_driver import HotspotProfile

    config = ClusterExperimentConfig(
        user_count=2_000,
        aggregate_rate=6_000.0,
        duration=MIGRATION_DURATION,
        zipf_skew=1.0,
        cross_shard_fraction=0.4,
        hotspot=HotspotProfile(
            period=MIGRATION_DURATION / 3, intensity=0.7, width=8
        ),
        network=NetworkConfig(seed=7),
        seed=7,
    )
    third = MIGRATION_DURATION / 3
    schedules = [
        ("static", None),
        # The manual plan chases the hotspot by hand: the focus shard's
        # worker sheds one shard at each phase boundary.
        ("manual", MigrationPlan([(third, 0, 1), (2 * third, 1, 0)])),
        (
            "threshold",
            ThresholdMigrationPolicy(
                imbalance_threshold=1.1, every=2, cooldown=2, max_moves=1
            ),
        ),
    ]

    def run():
        rows = migration_rebalancing_experiment(
            schedules,
            shard_count=MIGRATION_SHARDS,
            batch_size=BACKEND_BATCH,
            backend="serial",
            max_workers=MIGRATION_WORKERS,
            config=config,
        )
        # The manual plan again on the process pool with incremental
        # checkpoints: the only configuration that ships real adopt
        # payloads, so its row carries the measured delta-vs-full bytes.
        rows += migration_rebalancing_experiment(
            [("manual-ckpt", MigrationPlan([(third, 0, 1), (2 * third, 1, 0)]))],
            shard_count=MIGRATION_SHARDS,
            batch_size=BACKEND_BATCH,
            backend="process",
            max_workers=MIGRATION_WORKERS,
            config=dataclasses.replace(config, checkpoint_every=1),
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    by_schedule = {row.schedule: row for row in rows}
    for row in rows:
        benchmark.extra_info[f"{row.schedule}_moves"] = row.moves
        assert row.check_ok, f"audit violated under schedule={row.schedule}"
    # Placement invariance, asserted where the costs are measured: one
    # fingerprint across all schedules — the checkpointed process-pool run
    # included (checkpoint cadence is fingerprint-neutral by contract).
    assert len({row.fingerprint for row in rows}) == 1, (
        "migration changed results: "
        + ", ".join(f"{row.schedule}={row.fingerprint[:12]}" for row in rows)
    )
    # The sweep must not be vacuous: the manual plan moves by construction,
    # the threshold policy must react to the hotspot skew.
    assert by_schedule["static"].moves == 0
    assert by_schedule["manual"].moves == 2
    assert by_schedule["threshold"].moves > 0
    for row in rows:
        if row.moves:
            assert row.snapshot_bytes > 0
            assert row.stall_s >= 0.0
    # The checkpointed moves shipped O(delta): real payloads, strictly below
    # the full snapshots the same moves verified against.
    checkpointed = by_schedule["manual-ckpt"]
    assert checkpointed.moves == 2
    assert checkpointed.replayed_events > 0
    assert 0 < checkpointed.delta_bytes < checkpointed.snapshot_bytes
    benchmark.extra_info["ckpt_delta_bytes"] = checkpointed.delta_bytes
    benchmark.extra_info["ckpt_snapshot_bytes"] = checkpointed.snapshot_bytes

    _update_json(
        "migration_rows",
        [
            {
                "schedule": row.schedule,
                "backend": row.backend,
                "moves": row.moves,
                # snapshot_bytes is the *full* state the move verified
                # against; delta_bytes is what actually shipped (zero unless
                # the backend migrates via incremental checkpoints).
                "snapshot_bytes": row.snapshot_bytes,
                "delta_bytes": row.delta_bytes,
                "replayed_events": row.replayed_events,
                "stall_ms_total": round(row.stall_s * 1000, 3),
                "stall_ms_per_move": (
                    round(row.stall_s * 1000 / row.moves, 3) if row.moves else None
                ),
                "bytes_per_move": (
                    row.snapshot_bytes // row.moves if row.moves else None
                ),
                "delta_bytes_per_move": (
                    row.delta_bytes // row.moves if row.moves else None
                ),
                "peak_worker_load": row.peak_worker_load,
                "mean_worker_load": round(row.mean_worker_load, 1),
                "committed": row.committed,
                "audits_ok": row.check_ok,
                "fingerprint": row.fingerprint,
                "migration_stream": [list(entry) for entry in row.migration_stream],
            }
            for row in rows
        ],
        config,
        extra={
            "shard_count": MIGRATION_SHARDS,
            "worker_count": MIGRATION_WORKERS,
            "fingerprints_identical": len({row.fingerprint for row in rows}) == 1,
        },
    )
    print()
    print(format_migration_table(rows))


def test_backend_wall_clock(benchmark):
    """One workload, every execution backend: identical results, real time.

    The per-backend wall-clock columns land in ``BENCH_cluster.json`` so the
    performance trajectory tracks parallel execution alongside simulated
    throughput.  Hard assertions: every backend's run is fully audited
    (Definition 1 + supply conservation + complete settlement) and all
    backends produce the *same canonical fingerprint* — the benchmark may
    never trade correctness for speed.  On a multi-core machine the process
    pool must beat the serial reference by >= 1.5x at 8 shards; on a
    single-CPU runner that bound is unobtainable by any implementation (there
    is nothing to run shards on in parallel), so it is asserted only when
    cores are available and the recorded ``cpu_count`` qualifies the numbers.
    """
    config = dataclasses.replace(_config(), cross_shard_fraction=0.25)

    def run():
        return backend_comparison_experiment(
            shard_count=BACKEND_SHARDS,
            batch_size=BACKEND_BATCH,
            backends=BACKENDS,
            config=config,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    by_backend = {row.backend: row for row in rows}
    for row in rows:
        benchmark.extra_info[f"{row.backend}_wall_s"] = round(row.wall_clock_s, 3)
        assert row.row.check.ok, (
            f"Definition 1 violated on backend={row.backend}: "
            f"{row.row.check.violations[:3]}"
        )
        assert row.row.conservation_ok, (
            f"conservation violated on backend={row.backend}: "
            f"{row.row.check.conservation}"
        )
        assert row.row.fully_settled
    # The equivalence guarantee, asserted where the speed is measured.
    assert len({row.fingerprint for row in rows}) == 1, (
        "backends disagreed on the canonical run fingerprint: "
        + ", ".join(f"{row.backend}={row.fingerprint[:12]}" for row in rows)
    )

    # Telemetry rides along on every run (fingerprint-neutral, asserted
    # above): per-backend phase breakdowns land in the trajectory JSON, and
    # the instrumented phases must explain >= 90% of the measured wall time
    # — otherwise the breakdown has drifted out of the hot path and the
    # wall-clock columns above are unexplained.
    telemetry_rows = []
    for row in rows:
        coverage = telemetry_phase_coverage(row.telemetry)
        benchmark.extra_info[f"{row.backend}_phase_coverage"] = round(coverage, 3)
        assert row.telemetry is not None
        assert coverage >= 0.9, (
            f"phase breakdown explains only {coverage:.1%} of backend="
            f"{row.backend} wall time"
        )
        telemetry_rows.append({"backend": row.backend, **_telemetry_payload(row.telemetry)})

    # The >= 1.5x process-vs-serial bound is only meaningful where cores
    # exist to parallelise onto.  The gate's outcome is recorded explicitly
    # in the JSON — "passed" where it ran, a named skip reason where it could
    # not — and a skipped gate surfaces as an honest pytest skip below, never
    # as a silent pass or a failure dressed up as documentation.
    speedup = None
    if "serial" not in by_backend or "process" not in by_backend:
        gate = speedup_gate(
            1.5, skip="skipped_backend_subset", cpu_count=CPU_COUNT
        )
    else:
        # On the engine's share alone: the audit is the same work on every
        # backend and would pull the ratio towards 1.
        speedup = by_backend["serial"].run_wall_s / by_backend["process"].run_wall_s
        benchmark.extra_info["process_speedup"] = round(speedup, 2)
        # The skip reasons are decided *before* the JSON write: a multi-core
        # host that misses the bound must journal "failed", never a premature
        # "passed" or a silent omission.
        skip = (
            "skipped_smoke_grid"
            if SMOKE
            else ("skipped_single_core_host" if CPU_COUNT < 2 else None)
        )
        gate = speedup_gate(1.5, measured=speedup, skip=skip, cpu_count=CPU_COUNT)

    _update_json(
        "backend_rows",
        [
            {
                "backend": row.backend,
                "wall_clock_s": round(row.wall_clock_s, 3),
                "run_wall_s": round(row.run_wall_s, 3),
                "audit_wall_s": round(row.audit_wall_s, 3),
                "speedup_vs_serial": (
                    round(by_backend["serial"].run_wall_s / row.run_wall_s, 2)
                    if "serial" in by_backend and row.run_wall_s > 0
                    else None
                ),
                "throughput_tps": round(row.throughput, 1),
                "committed": row.row.summary.committed,
                "definition_1_ok": all(
                    r.ok for r in row.row.check.shard_reports.values()
                ),
                "conservation_ok": row.row.conservation_ok,
                "fully_settled": row.row.fully_settled,
                "fingerprint": row.fingerprint,
            }
            for row in rows
        ],
        config,
        extra={
            "cpu_count": CPU_COUNT,
            "shard_count": BACKEND_SHARDS,
            "batch_size": BACKEND_BATCH,
            "cross_shard_fraction": 0.25,
            "fingerprints_identical": len({row.fingerprint for row in rows}) == 1,
            "speedup_gate": gate,
        },
    )
    _update_json("telemetry_rows", telemetry_rows, config)
    print()
    print(format_backend_table(rows))
    print()
    print(format_telemetry_table(telemetry_breakdown(rows[0].telemetry)))
    # The smoke grid and a missing serial/process pair journal their named
    # skip without failing the item (the equivalence and coverage assertions
    # above already ran); only a single-core host surfaces as a pytest skip.
    if gate["status"] in ("passed", "failed"):
        enforce_gate(
            gate,
            f"ProcessPoolBackend only {speedup:.2f}x faster than serial at "
            f"{BACKEND_SHARDS} shards on {CPU_COUNT} CPUs",
        )
    elif gate["status"] == "skipped_single_core_host":
        enforce_gate(
            gate,
            f"process-vs-serial speedup gate needs >= 2 CPUs, host has "
            f"{CPU_COUNT}; measured {speedup:.2f}x recorded in the journal "
            f"under backend_rows.speedup_gate",
        )

