"""Metric tables and the layer attribution of a profile.

A *layer* is a module of the program, named by its source path under
``repro/``: ``repro/cluster/settlement.py`` is ``cluster.settlement`` and
everything under ``repro/broadcast/`` is ``broadcast``.  The tables below are
the single definition of what the benchmark reports; ``BENCHMARK.json`` is
written from them (``run.py --write-spec``) and the smoke test keeps the two
equal.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

# (name, unit, better, bound).  A bound is the share of the parent's median
# by which the metric may worsen: three times the widest spread over ten
# seeds on any workload, or the contract's cap of 0.25 (README, "Bounds").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("audit_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.12),
    ("sim_commit_tps", "1/s", "higher", 0.20),
    ("sim_latency_p50_ms", "ms", "lower", 0.10),
    ("sim_latency_tail_ms", "ms", "lower", 0.25),
    ("msgs_per_commit", "count", "lower", 0.10),
]

# Every layer gets ``<layer>.self_s`` and ``<layer>.calls`` from the profile.
LAYERS: List[str] = [
    "workloads",
    "cluster.routing",
    "cluster.system",
    "cluster.backends",
    "cluster.shard",
    "cluster.batching",
    "cluster.settlement",
    "cluster.codec",
    "cluster.result",
    "network.simulator",
    "network.node",
    "broadcast",
    "mp",
    "core",
    "crypto",
    "spec",
    "obs",
    "common",
    "bft",
    "byzantine",
]

# (name, unit, better) beyond self_s/calls.  Where a metric describes the
# input rather than the program (``submissions``, ``faulty_processes``) the
# direction is nominal.
LAYER_EXTRAS: List[Tuple[str, str, str]] = [
    ("workloads.generate_s", "s", "lower"),
    ("workloads.submissions", "count", "higher"),
    ("cluster.routing.partition_s", "s", "lower"),
    ("cluster.routing.route_us", "us", "lower"),
    ("cluster.routing.cross_shard_frac", "ratio", "lower"),
    ("cluster.system.construct_s", "s", "lower"),
    ("cluster.system.close_s", "s", "lower"),
    ("network.simulator.events", "count", "lower"),
    ("network.simulator.events_per_commit", "count", "lower"),
    ("network.simulator.drive_events_per_s", "1/s", "higher"),
    ("network.node.messages", "count", "lower"),
    ("broadcast.instances", "count", "lower"),
    ("broadcast.items_per_instance", "count", "higher"),
    ("crypto.sign_verify_us", "us", "lower"),
    ("crypto.verify_warm_us", "us", "lower"),
    ("cluster.settlement.messages", "count", "lower"),
    ("cluster.settlement.settle_latency_p95_ms", "ms", "lower"),
    ("cluster.settlement.resident_records", "count", "lower"),
    ("cluster.settlement.retired_records", "count", "higher"),
    ("cluster.backends.driver_cpu_s", "s", "lower"),
    ("cluster.backends.worker_cpu_s", "s", "lower"),
    ("cluster.backends.driver_wait_s", "s", "lower"),
    ("cluster.backends.speedup_vs_serial", "ratio", "higher"),
    ("cluster.codec.snapshot_bytes", "B", "lower"),
    ("cluster.codec.encode_ms", "ms", "lower"),
    ("cluster.codec.decode_ms", "ms", "lower"),
    ("spec.checked_transfers", "count", "higher"),
    ("spec.us_per_transfer", "us", "lower"),
    ("cluster.result.fingerprint_s", "s", "lower"),
    ("bft.run_s", "s", "lower"),
    ("bft.sim_commit_tps", "1/s", "higher"),
    ("bft.sim_latency_p50_ms", "ms", "lower"),
    ("bft.msgs_per_commit", "count", "lower"),
    ("bft.sim_tps_ratio", "ratio", "higher"),
    ("bft.sim_latency_ratio", "ratio", "higher"),
    ("bft.msgs_ratio", "ratio", "lower"),
    ("byzantine.faulty_processes", "count", "higher"),
    ("byzantine.honest_committed", "count", "higher"),
    ("byzantine.conflicting_validated", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.calibration_s", "s", "lower"),
    ("host.nproc", "count", "higher"),
]

# What each ratio divides by, printed beside its value.
RATIO_BASES: Dict[str, str] = {
    "cluster.backends.speedup_vs_serial": "ref-mixed run_s / ref-process run_s",
    "bft.sim_tps_ratio": "Figure 4 / PBFT",
    "bft.sim_latency_ratio": "PBFT / Figure 4",
    "bft.msgs_ratio": "Figure 4 / PBFT",
    "trace.coverage": "layer self time / profiled run+audit spans",
    "trace.overhead_ratio": "traced run_s / untraced run_s",
}


def per_layer_table() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    table: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        table.append((f"{layer}.self_s", "s", "lower"))
        table.append((f"{layer}.calls", "count", "lower"))
    return table + LAYER_EXTRAS


# -- profile attribution ----------------------------------------------------------------------

FuncKey = Tuple[str, int, str]
# Buckets that take profile time but are not layers of the program.
OTHER = "other"  # repo modules outside LAYERS (cluster.migration, eval, ...)
HARNESS = "harness"  # code that no repo function called: the benchmark itself


def layer_of(filename: str, package_root: str) -> Optional[str]:
    """The layer owning a source file, or ``None`` for code outside the repo.

    ``package_root`` is the directory of the imported ``repro`` package.
    """
    try:
        below = PurePath(filename).relative_to(package_root).parts
    except ValueError:
        return None
    package = below[0]
    if len(below) > 1:
        module = f"{package}.{PurePath(below[1]).stem}"
        if module in LAYERS:
            return module
    return package if package in LAYERS else OTHER


def attribute(stats: Mapping[FuncKey, tuple], package_root: str) -> Dict[str, List[float]]:
    """Fold a ``pstats`` table into ``{layer: [self_s, calls]}``.

    A repo function's self time and call count go to its own layer.  A
    built-in or stdlib function's self time is charged, edge by edge through
    the callers table, to the layer of the repo function that called it;
    where the caller is itself foreign (``json`` calling an encoder) the edge
    is split over that caller's own callers in proportion to the time they
    spent in it.
    """
    totals: Dict[str, List[float]] = {}
    resolved: Dict[FuncKey, Dict[str, float]] = {}

    def charge(layer: str, seconds: float, calls: int = 0) -> None:
        row = totals.setdefault(layer, [0.0, 0])
        row[0] += seconds
        row[1] += calls

    def owners(func: FuncKey, path: frozenset = frozenset()) -> Dict[str, float]:
        """Shares (summing to 1) of the layers answerable for ``func``.

        Empty when every way up from ``func`` runs into ``path``: foreign
        functions call each other in cycles (a dataclass ``__hash__`` and
        ``builtins.hash``), and a cycle is answered for by its other callers.
        """
        layer = layer_of(func[0], package_root)
        if layer is not None:
            return {layer: 1.0}
        if not path and func in resolved:
            return resolved[func]
        callers = stats[func][4] if func in stats else {}
        shares: Dict[str, float] = {} if callers else {HARNESS: 1.0}
        weighed = [
            (max(edge[3], 1e-12), owners(caller, path | {func}))
            for caller, edge in callers.items()
            if caller not in path and caller != func
        ]
        weight = sum(seconds for seconds, above in weighed if above)
        for seconds, above in weighed:
            for name, share in above.items():
                shares[name] = shares.get(name, 0.0) + share * seconds / weight
        if not path:
            resolved[func] = shares
        return shares

    for func, (_, calls, self_s, _, callers) in stats.items():
        layer = layer_of(func[0], package_root)
        if layer is not None:
            charge(layer, self_s, calls)
            continue
        charged = 0.0
        for caller, edge in callers.items():
            shares = owners(caller) or owners(func) or {HARNESS: 1.0}
            for name, share in shares.items():
                charge(name, edge[2] * share)
            charged += edge[2]
        # Root frames (the profiler's own enable/disable) have no caller.
        charge(HARNESS, self_s - charged)
    return totals


def coverage(profile: Mapping[str, Iterable[float]], profiled_s: float) -> float:
    """Share of the profiled spans that the layer rows account for."""
    if profiled_s <= 0:
        return 0.0
    return sum(row[0] for layer, row in profile.items() if layer in LAYERS) / profiled_s
