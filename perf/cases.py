"""The six workloads, and one measured repeat of one of them.

``run_case`` is what a child interpreter executes: it makes the inputs from
the seed, drives the program through its public calls with a span around
each, checks the outputs and returns everything as one JSON-able report.  The
program receives only the generated inputs; nothing here reads its private
state or its telemetry counter names.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import os
import pstats
import resource
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import layers

# Sizes are fixed numbers, never derived from the host (nproc is recorded,
# not used).  The pool size is the one the issue names for ``ref-process``
# and is passed to every cluster workload so they share one placement.
CLUSTER_USERS = 50_000
MAX_WORKERS = 2
ATTACK_AT = 0.0005
SIMULATOR_DRIVE_EVENTS = 200_000
CRYPTO_DRIVE_PAYLOADS = 20_000
AUDIT_FLOOR_S = 0.4
AUDIT_CALLS = 9


@dataclass(frozen=True)
class Case:
    """One workload: its inputs at full and at smoke-test size.

    ``tail`` is the tail-latency percentile, fixed per workload so that at
    least ten samples lie beyond it at full size.
    """

    why: str  # one line, copied into BENCHMARK.json
    kind: str  # "cluster" (ClusterSystem, open loop) or "fig4" (ConsensuslessSystem, closed loop)
    tail: float
    size: Dict[str, object]
    toy: Dict[str, object] = field(default_factory=dict)
    same_fingerprint_as: Optional[str] = None


_REF = dict(
    shards=8, replicas=4, batch=8, cross=0.25, rate=24_000.0, duration=0.1, backend="serial"
)
_REF_TOY = dict(rate=4_000.0, duration=0.02)

CASES: Dict[str, Case] = {
    "ref-mixed": Case(
        "ROADMAP's reference run (8 shards, batch 8, 25% cross-shard, serial): "
        "every layer works; core and the spec audit dominate",
        "cluster",
        0.99,
        _REF,
        _REF_TOY,
    ),
    "local-bracha": Case(
        "unbatched Bracha on 2x10 replicas, no cross-shard: network and broadcast dominate; "
        "bypasses settlement, crypto, batching and most of the audit",
        "cluster",
        0.95,
        dict(_REF, shards=2, replicas=10, batch=1, cross=0.0, rate=1_200.0, duration=0.4),
        dict(replicas=4, duration=0.05),
    ),
    "settle-all": Case(
        "100% cross-shard: every credit goes voucher, certificate, mint, ack, retire; "
        "shows a local-transfer gain that taxes settlement",
        "cluster",
        0.99,
        dict(_REF, cross=1.0, duration=0.07),
        _REF_TOY,
    ),
    "ref-process": Case(
        "ref-mixed inputs on the 2-worker process pool: the only workload where pipe, codec and "
        "driver-serial exchange matter; must fingerprint equal to ref-mixed",
        "cluster",
        0.99,
        dict(_REF, backend="process"),
        _REF_TOY,
        same_fingerprint_as="ref-mixed",
    ),
    "fig4-vs-pbft": Case(
        "the paper's closed loop on one Figure 4 group, no cluster layer: must not move with any "
        "cluster change; the traced run adds the PBFT baseline",
        "fig4",
        0.90,
        dict(processes=16, transfers=12, faults=0),
        dict(processes=7, transfers=2),
    ),
    "fig4-byzantine": Case(
        "Figure 4 at the resilience bound, one double-spender and seven silent of N=25: "
        "liveness, Definition 1 and no conflicting validation under faults",
        "fig4",
        0.90,
        dict(processes=25, transfers=8, faults=8),
        dict(processes=7, transfers=2, faults=2),
    ),
}


def now() -> float:
    """The system-wide monotonic clock, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Host-speed sampling.  The host of record changes speed by a quarter within
# seconds (other tenants; CPU time stretches with wall time, so it is not
# descheduling), and the medians of 12 s runs of one commit then differ by
# 20-40 % - more than any bound the driver accepts.  So while a plain repeat
# runs, SIGALRM fires every TICK_PERIOD_S and its handler times a fixed
# pure-Python kernel in the main thread, between two bytecodes of whatever is
# executing.  A span's time at *reference host speed* is its wall time, less
# the handlers' own time, times REFERENCE_KERNEL_S over the kernel's mean
# time inside the span.  Bracketing a span with longer kernels instead left
# two to three times the spread (README, "Steadiness").
TICK_PERIOD_S = 0.025
REFERENCE_KERNEL_S = 0.001  # the kernel's time on the host of record when it is quiet
MIN_TICKS = 8  # a span holding fewer is scaled by the whole repeat's mean


def speed_kernel() -> int:
    table: Dict[int, int] = {}
    total = 0
    for index in range(5_000):
        table[index & 1023] = total
        total = (total * 31 + index) & 0xFFFFFFFF
    return total


class Spans:
    """Benchmark-owned spans (name, start, end, parent) and host-speed ticks, in memory."""

    def __init__(self, origin: float, profiler: Optional[cProfile.Profile]) -> None:
        self.origin = origin
        self.profiler = profiler
        self.rows: List[Dict[str, object]] = []
        self.ticks: List[Tuple[float, float]] = []  # (at, handler seconds)
        self._open: List[str] = []

    @contextmanager
    def span(self, name: str, profile: bool = False) -> Iterator[None]:
        row: Dict[str, object] = {"name": name, "parent": self._open[-1] if self._open else None}
        self._open.append(name)
        profiler = self.profiler if profile else None
        cpu = time.process_time()
        row["start"] = now() - self.origin
        if profiler is not None:
            profiler.enable()
        try:
            yield
        finally:
            if profiler is not None:
                profiler.disable()
            row["end"] = now() - self.origin
            row["cpu"] = time.process_time() - cpu
            self._open.pop()
            self.rows.append(row)

    @contextmanager
    def host_speed_sampled(self) -> Iterator[None]:
        def tick(signum, frame) -> None:
            started = now()
            speed_kernel()
            self.ticks.append((started - self.origin, now() - started))

        signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start: float, end: float) -> Tuple[float, float]:
        """Seconds from ``start`` to ``end`` as ``(wall, at reference host speed)``."""
        inside = [cost for at, cost in self.ticks if start <= at < end]
        wall = end - start - sum(inside)
        basis = inside if len(inside) >= MIN_TICKS else [cost for _, cost in self.ticks]
        if not basis:  # a profiled repeat is not sampled: cProfile would tax the kernel too
            return wall, wall
        return wall, wall * REFERENCE_KERNEL_S / statistics.fmean(basis)

    def each(self, name: str, wall: bool = False) -> List[float]:
        """Time of every span called ``name``, at reference host speed unless ``wall``."""
        return [
            self.between(row["start"], row["end"])[0 if wall else 1]
            for row in self.rows
            if row["name"] == name
        ]

    def seconds(self, name: str, wall: bool = False) -> float:
        return sum(self.each(name, wall))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def run_case(
    name: str,
    seed: int,
    toy: bool = False,
    traced: bool = False,
    spawned_at: Optional[float] = None,
) -> Dict[str, object]:
    """One repeat of one workload; returns the report the orchestrator aggregates.

    ``traced`` adds what only the per-layer run needs: a cProfile session
    inside the ``run`` and ``audit`` spans, the isolated layer drives and the
    PBFT baseline of ``fig4-vs-pbft``.
    """
    case = CASES[name]
    size = dict(case.size, **(case.toy if toy else {}))
    origin = now() if spawned_at is None else spawned_at
    spans = Spans(origin, cProfile.Profile() if traced else None)
    runner = _run_cluster if case.kind == "cluster" else _run_fig4
    with nullcontext() if traced else spans.host_speed_sampled():
        report = runner(size, seed, case.tail, spans, toy)
    report.update(workload=name, seed=seed, pid=os.getpid(), spans=spans.rows)
    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = next(row for row in spans.rows if row["name"] == "run")
    setup = spans.between(0.0, run["start"])
    report["wall"].update(
        setup_s=setup[1],
        run_s=spans.seconds("run"),
        audit_s=statistics.median(spans.each("audit")),
        total_s=spans.seconds("total"),
        # ru_maxrss is KiB on Linux; RUSAGE_CHILDREN holds the largest pool
        # worker once close() has joined them (zero without a pool).
        peak_rss_mb=(own.ru_maxrss + pool.ru_maxrss) / 1024.0,
        generate_s=spans.seconds("generate"),
        partition_s=spans.seconds("schedule"),
        construct_s=spans.seconds("construct"),
        fingerprint_s=spans.seconds("fingerprint"),
        close_s=spans.seconds("close"),
        worker_cpu_s=pool.ru_utime + pool.ru_stime,
        kernel_s=statistics.fmean(cost for _, cost in spans.ticks) if spans.ticks else 0.0,
    )
    report["unscaled"] = {
        "setup_s": setup[0],
        "run_s": spans.seconds("run", wall=True),
        "audit_s": statistics.median(spans.each("audit", wall=True)),
        "total_s": spans.seconds("total", wall=True),
    }
    # CPU time is on the unscaled clock, and the tick handlers ran on it too.
    handlers = run["end"] - run["start"] - report["unscaled"]["run_s"]
    report["wall"]["driver_cpu_s"] = run["cpu"] - handlers
    if spans.profiler is not None:
        import repro

        report["traced"].update(
            profile=layers.attribute(
                pstats.Stats(spans.profiler).stats, os.path.dirname(repro.__file__)
            ),
            profiled_s=spans.seconds("run") + spans.each("audit")[0],
        )
    return report


# -- cluster workloads (open loop in simulated time) ------------------------------------------


def _run_cluster(size, seed: int, tail: float, spans: Spans, toy: bool) -> Dict[str, object]:
    with spans.span("import"):
        from repro.cluster.system import ClusterSystem
        from repro.network.node import NetworkConfig
        from repro.workloads.cluster_driver import (
            ClusterWorkloadConfig,
            cluster_open_loop_workload,
        )
    gc.collect()
    with spans.span("total"):
        with spans.span("construct"):
            system = ClusterSystem(
                shard_count=size["shards"],
                replicas_per_shard=size["replicas"],
                batch_size=size["batch"],
                network_config=NetworkConfig(),
                backend=size["backend"],
                max_workers=MAX_WORKERS,
                seed=seed,
            )
        try:
            with spans.span("generate"):
                submissions = cluster_open_loop_workload(
                    ClusterWorkloadConfig(
                        user_count=CLUSTER_USERS,
                        aggregate_rate=size["rate"],
                        duration=size["duration"],
                        zipf_skew=1.0,
                        cross_shard_fraction=size["cross"],
                        router=system.router,
                        seed=seed,
                    )
                )
            with spans.span("schedule"):
                submitted = system.schedule_submissions(submissions)
            gc.collect()
            with spans.span("run", profile=True):
                result = system.run()
            gc.collect()
            with spans.span("audit", profile=True):
                audit = system.check_definition1()
            with spans.span("fingerprint"):
                fingerprint = result.fingerprint()
        finally:
            with spans.span("close"):
                system.close()
    _audit_again(spans, system.check_definition1)

    # Open loop: latency runs from the instant a submission was *due*, so
    # time spent queued behind the issuer's earlier transfers counts.  An
    # issuer commits its queue in order with consecutive sequence numbers,
    # which pairs every committed record with its scheduled arrival.
    started = now()
    routes = [system.router.route(s.source_user, s.destination_user) for s in submissions]
    route_us = (now() - started) / max(1, len(routes)) * 1e6
    due: Dict[tuple, List[float]] = {}
    for submission, route in zip(submissions, routes):
        due.setdefault((route.shard, route.issuer), []).append(submission.time)
    latencies: List[float] = []
    paired = True
    for shard, shard_result in enumerate(result.shard_results):
        for record in shard_result.committed:
            queue = due.get((shard, record.transfer.issuer), [])
            position = record.transfer.sequence - 1
            if position >= len(queue) or queue[position] > record.submitted_at + 1e-12:
                paired = False
                continue
            latencies.append(record.completed_at - queue[position])

    committed = result.committed_count
    settlement = system.settlement
    settlement_messages = settlement.settlement_messages()
    conservation = audit.conservation
    instances = system.broadcast_instances()
    report = _report(submitted, result, latencies, tail, fingerprint, audit)
    report["exact"].update(
        msgs_per_commit=(result.messages_sent + settlement_messages) / max(1, committed),
        cross_shard_frac=sum(route.cross_shard for route in routes) / max(1, len(routes)),
        instances=instances,
        items_per_instance=system.payload_items() / max(1, instances),
        settlement_messages=settlement_messages,
        settle_latency_p95_ms=settlement.settlement_latency_p95() * 1e3,
        resident_records=system.resident_settlement_records(),
        retired_records=system.retired_records(),
    )
    report["wall"]["route_us"] = route_us
    report["checks"].update(
        committed_equals_submitted=committed == submitted,
        definition1_every_shard=all(r.ok for r in audit.shard_reports.values()),
        supply_conserved=conservation.ok,
        supply_fully_settled=conservation.fully_settled,
        latency_paired_with_due_time=paired and len(latencies) == committed,
    )
    if spans.profiler is not None:
        report["traced"] = dict(_shared_drives(seed, toy), **_drive_codec(system.shards[0]))
    return report


# -- Figure 4 workloads (the paper's closed loop) ---------------------------------------------


def _run_fig4(size, seed: int, tail: float, spans: Spans, toy: bool) -> Dict[str, object]:
    with spans.span("import"):
        from repro.byzantine.faults import FaultKind, FaultModel
        from repro.mp.consensusless_transfer import account_of
        from repro.mp.system import ConsensuslessSystem
        from repro.network.node import NetworkConfig
        from repro.spec.byzantine_spec import ByzantineAssetTransferChecker
        from repro.workloads.generators import WorkloadConfig, closed_loop_workload
    count, faults = size["processes"], size["faults"]
    # The highest ids are faulty: one double-spender, the rest silent.
    attacker = count - 1
    kinds = {attacker - i: FaultKind.SILENT for i in range(1, faults)}
    if faults:
        kinds[attacker] = FaultKind.DOUBLE_SPEND
    fault_model = FaultModel(total_processes=count, faults=kinds)

    def check():
        return ByzantineAssetTransferChecker(system.initial_balances()).check(
            system.observations()
        )

    gc.collect()
    with spans.span("total"):
        with spans.span("generate"):
            submissions = [
                s
                for s in closed_loop_workload(
                    count, WorkloadConfig(transfers_per_process=size["transfers"], seed=seed)
                )
                if fault_model.is_correct(s.issuer)
                and not (faults and s.destination == account_of(attacker))
            ]
        with spans.span("construct"):
            system = ConsensuslessSystem(
                process_count=count,
                network_config=NetworkConfig(),
                fault_model=fault_model,
                seed=seed,
            )
        with spans.span("schedule"):
            submitted = system.schedule_submissions(submissions)
            if faults:
                system.trigger_attacks(at_time=ATTACK_AT)
        gc.collect()
        with spans.span("run", profile=True):
            result = system.run()
        gc.collect()
        with spans.span("audit", profile=True):
            audit = check()
        with spans.span("fingerprint"):
            fingerprint = _stream_fingerprint(result)
    _audit_again(spans, check)

    committed = result.committed_count
    correct = system.correct_nodes()
    initial_supply = sum(system.initial_balances().values())
    supplies = [system.total_supply_at(node.node_id) for node in correct]
    stats = correct[0].broadcast_layer.stats
    # One outstanding transfer per process: latency runs from issue to commit.
    report = _report(submitted, result, result.latencies, tail, fingerprint, audit)
    report["exact"].update(
        msgs_per_commit=result.messages_per_commit,
        instances=stats.delivered,
        items_per_instance=stats.payload_items / max(1, stats.delivered),
        faulty_processes=faults,
        honest_committed=committed if faults else 0,
    )
    report["checks"].update(
        committed_equals_submitted=committed == submitted,
        definition1=audit.ok,
    )
    if faults:
        conflicting = set(system.nodes[attacker].conflicting_transfers)
        validated = {
            transfer
            for node in correct
            for transfer in node.hist.get(account_of(attacker), ())
            if transfer in conflicting
        }
        report["exact"]["conflicting_validated"] = max(0, len(validated) - 1)
        report["checks"].update(
            no_conflicting_transfers_validated=len(validated) <= 1,
            supply_never_inflated=all(supply <= initial_supply for supply in supplies),
        )
    else:
        report["checks"]["supply_conserved"] = all(s == initial_supply for s in supplies)
    if spans.profiler is not None:
        report["traced"] = _shared_drives(seed, toy)
        if not faults:
            bft = _run_pbft(submissions, count, seed, spans)
            report["checks"].update(bft.pop("checks"))
            report["traced"]["bft"] = bft
    return report


def _run_pbft(submissions, count: int, seed: int, spans: Spans) -> Dict[str, object]:
    """The consensus-based baseline on the same submissions (PBFT, batch 8)."""
    from repro.bft.consensus_transfer import ConsensusTransferSystem
    from repro.bft.pbft import PbftConfig
    from repro.network.node import NetworkConfig

    system = ConsensusTransferSystem(
        process_count=count,
        network_config=NetworkConfig(),
        pbft_config=PbftConfig(batch_size=8),
        seed=seed,
    )
    submitted = system.schedule_submissions(submissions)
    gc.collect()
    with spans.span("bft.run"):
        result = system.run()
    return {
        "run_s": spans.seconds("bft.run"),
        "sim_commit_tps": result.throughput,
        "sim_latency_p50_ms": statistics.median(result.latencies) * 1e3,
        "msgs_per_commit": result.messages_per_commit,
        "checks": {
            "pbft_committed_equals_submitted": result.committed_count == submitted,
            "pbft_replicas_agree": system.replicas_agree(),
        },
    }


def _audit_again(spans: Spans, audit: Callable[[], object]) -> None:
    """Steady a short audit: call it again, outside ``total``; the median call is reported.

    The audit is a pure function of the finished run.  One call takes 60 ms
    on the Figure 4 workloads, too short to time once on a noisy host, so
    calls go on until AUDIT_FLOOR_S of audit has been timed.
    """
    while (
        len(spans.each("audit")) < AUDIT_CALLS
        and spans.seconds("audit", wall=True) < AUDIT_FLOOR_S
    ):
        gc.collect()
        with spans.span("audit"):
            audit()


def _stream_fingerprint(result) -> str:
    """SHA-256 of what a Figure 4 run did: the committed stream and its cost."""
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


def _report(
    submitted: int, result, latencies, tail: float, fingerprint: str, audit
) -> Dict[str, object]:
    """The report fields both kinds of workload share."""
    return {
        "wall": {},
        # Simulated-clock figures and counts: bit-equal on every repeat at one seed.
        "exact": {
            "submitted": submitted,
            "committed": result.committed_count,
            "sim_commit_tps": result.throughput,
            "sim_latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
            "sim_latency_tail_ms": percentile(latencies, tail) * 1e3 if latencies else 0.0,
            "tail_percentile": tail,
            "fingerprint": fingerprint,
            "events": result.events_processed,
            "messages": result.messages_sent,
            "checked_transfers": audit.checked_transfers,
        },
        "checks": {},
        "violations": len(audit.violations),
    }


# -- isolated layer drives (traced run only) --------------------------------------------------


def _shared_drives(seed: int, toy: bool) -> Dict[str, float]:
    """The event queue and the signature scheme, each driven on its own."""
    from repro.crypto.signatures import SignatureScheme
    from repro.network.simulator import Simulator

    shrink = 100 if toy else 1
    events = SIMULATOR_DRIVE_EVENTS // shrink
    simulator = Simulator()

    def noop() -> None:
        pass

    gc.collect()
    started = now()
    for index in range(events):
        simulator.schedule_at(index * 1e-5, noop)
    simulator.run()
    drive_events_per_s = events / (now() - started)

    # Distinct payloads, so the first pass misses every memo and the second
    # pass is answered by the verdict cache.
    payloads = [("perf", seed, index) for index in range(CRYPTO_DRIVE_PAYLOADS // shrink)]
    scheme = SignatureScheme(seed=seed)
    pair = scheme.keypair_for(0)
    gc.collect()
    started = now()
    signatures = [pair.sign(payload) for payload in payloads]
    cold_ok = all(scheme.verify(p, s) for p, s in zip(payloads, signatures))
    cold = now() - started
    started = now()
    warm_ok = all(scheme.verify(p, s) for p, s in zip(payloads, signatures))
    warm = now() - started
    if not (cold_ok and warm_ok and simulator.processed_events == events):
        raise RuntimeError("an isolated layer drive produced a wrong result")
    return {
        "drive_events_per_s": drive_events_per_s,
        "sign_verify_us": cold / len(payloads) * 1e6,
        "verify_warm_us": warm / len(payloads) * 1e6,
    }


def _drive_codec(shard) -> Dict[str, float]:
    """Encode and decode one shard's final snapshot (median of three)."""
    from repro.cluster import codec

    snapshot = shard.snapshot()
    encode_s, decode_s = [], []
    for _ in range(3):
        started = now()
        blob = codec.encode(snapshot)
        encode_s.append(now() - started)
        started = now()
        decoded = codec.decode(blob)
        decode_s.append(now() - started)
    if decoded != snapshot:
        raise RuntimeError("the codec round trip changed the snapshot")
    return {
        "snapshot_bytes": len(blob),
        "encode_ms": statistics.median(encode_s) * 1e3,
        "decode_ms": statistics.median(decode_s) * 1e3,
    }
