"""The repository's benchmark: one command, from outside the program.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload, as the driver of BENCHMARK.json calls it.  The last
        line of standard output is the result as one JSON object.
    python3 perf/run.py [--seed N] [--seconds S] [--trace 1]
        Every workload, repeats interleaved round-robin.
    python3 perf/run.py --selfcheck
        Two full sets of the same code, compared against the bounds.

Each repeat runs in a fresh child interpreter, one at a time; this process
only spawns them, aggregates and checks.  Times are at reference host speed
(cases.py, "Host-speed sampling").  See README.md for what every workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402  (perf/ is sys.path[0] when this file is the script)
import layers  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_SECONDS = 17
CHILD_TIMEOUT_S = 150


# -- children ---------------------------------------------------------------------------------


def spawn(name: str, seed: int, toy: bool, traced: bool) -> Dict[str, object]:
    """Run one repeat in a fresh interpreter and return its report."""
    command = [sys.executable, str(HERE / "run.py"), "--child", name, "--seed", str(seed)]
    command += ["--spawned-at", repr(cases.now())]
    command += ["--toy"] * toy + ["--profile"] * traced
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"repeat of {name} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


class Measurement:
    """All repeats of one workload in one set, and what they add up to."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.reports: List[Dict[str, object]] = []  # plain repeats: the end-to-end samples
        self.traced: Optional[Dict[str, object]] = None  # the one profiled repeat of a traced set
        self.reference: Optional[Dict[str, object]] = None  # a repeat of ``same_fingerprint_as``
        self.spent = 0.0
        self.failures: List[str] = []

    def add(self, report: Dict[str, object], traced: bool = False) -> None:
        label = "traced repeat" if traced else f"repeat {len(self.reports) + 1}"
        for check, passed in report["checks"].items():
            if not passed:
                self.failures.append(f"{check} ({label})")
        if report["violations"]:
            self.failures.append(f"{report['violations']} audit violations ({label})")
        if traced:
            self.traced = report
        else:
            self.reports.append(report)

    @property
    def every_report(self) -> List[Dict[str, object]]:
        return self.reports + ([self.traced] if self.traced else [])

    @property
    def exact(self) -> Dict[str, object]:
        return self.reports[0]["exact"]

    def wall(self, metric: str, clock: str = "wall") -> List[float]:
        return [report[clock].get(metric, 0.0) for report in self.reports]

    @property
    def calibration_s(self) -> float:
        """Median over repeats of the host-speed kernel's mean time: the drift canary."""
        return statistics.median(self.wall("kernel_s"))

    def value(self, metric: str) -> float:
        """An end-to-end metric: the exact figure, or the median over repeats."""
        if metric in self.exact:
            return self.exact[metric]
        return statistics.median(self.wall(metric))

    @property
    def attempted(self) -> int:
        return sum(report["exact"]["submitted"] for report in self.every_report)

    @property
    def failed(self) -> int:
        lost = sum(r["exact"]["submitted"] - r["exact"]["committed"] for r in self.every_report)
        return lost + sum(r["violations"] for r in self.every_report) + len(self.failures)


def measure(
    names: Sequence[str], seed: int, seconds: float, toy: bool, trace: bool
) -> Dict[str, Measurement]:
    """One set: every named workload, one repeat each per round.

    Rounds go on until each workload's own repeats have used ``seconds``, so
    a drift in host speed hits every workload alike.  A traced set is one
    plain and then one profiled repeat per workload instead; the profiled
    repeat is checked like any other but never enters a wall-clock median.
    """
    sets = {name: Measurement(name) for name in names}
    pending = list(names)
    while pending:
        for name in list(pending):
            started = time.perf_counter()
            sets[name].add(spawn(name, seed, toy, traced=False))
            sets[name].spent += time.perf_counter() - started
            if trace or sets[name].spent >= seconds:
                pending.remove(name)
    if trace:
        for name in names:
            sets[name].add(spawn(name, seed, toy, traced=True), traced=True)

    for name, current in sets.items():
        if any(report["exact"] != current.exact for report in current.every_report):
            current.failures.append("exact_metrics_equal_across_repeats")
        twin = cases.CASES[name].same_fingerprint_as
        if twin is not None:
            # The twin's repeat from this set, or one spawned for the comparison.
            measured = sets[twin].reports[0] if twin in sets else None
            current.reference = measured or spawn(twin, seed, toy, traced=False)
            if current.reference["exact"]["fingerprint"] != current.exact["fingerprint"]:
                current.failures.append(f"fingerprint_equals_{twin}")
    return sets


# -- results ----------------------------------------------------------------------------------


def per_layer(current: Measurement) -> Dict[str, float]:
    """Every per-layer metric of one traced workload; zero where a layer is not used."""
    plain, traced = current.reports[0], current.traced
    wall, exact, drives = plain["wall"], plain["exact"], traced["traced"]
    committed = max(1, exact["committed"])
    unscaled_run_s = plain["unscaled"]["run_s"]
    values = {name: 0.0 for name, _, _ in layers.per_layer_table()}
    for layer in layers.LAYERS:
        self_s, calls = drives["profile"].get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.calls"] = calls
    values.update(
        {
            "workloads.generate_s": wall["generate_s"],
            "workloads.submissions": exact["submitted"],
            "cluster.routing.partition_s": wall["partition_s"],
            "cluster.routing.route_us": wall.get("route_us", 0.0),
            "cluster.routing.cross_shard_frac": exact.get("cross_shard_frac", 0.0),
            "cluster.system.construct_s": wall["construct_s"],
            "cluster.system.close_s": wall.get("close_s", 0.0),
            "network.simulator.events": exact["events"],
            "network.simulator.events_per_commit": exact["events"] / committed,
            "network.simulator.drive_events_per_s": drives["drive_events_per_s"],
            "network.node.messages": exact["messages"],
            "broadcast.instances": exact["instances"],
            "broadcast.items_per_instance": exact["items_per_instance"],
            "crypto.sign_verify_us": drives["sign_verify_us"],
            "crypto.verify_warm_us": drives["verify_warm_us"],
            "cluster.settlement.messages": exact.get("settlement_messages", 0),
            "cluster.settlement.settle_latency_p95_ms": exact.get("settle_latency_p95_ms", 0.0),
            "cluster.settlement.resident_records": exact.get("resident_records", 0),
            "cluster.settlement.retired_records": exact.get("retired_records", 0),
            "cluster.backends.driver_cpu_s": wall["driver_cpu_s"],
            "cluster.backends.worker_cpu_s": wall["worker_cpu_s"],
            "cluster.backends.driver_wait_s": max(0.0, unscaled_run_s - wall["driver_cpu_s"]),
            "cluster.codec.snapshot_bytes": drives.get("snapshot_bytes", 0),
            "cluster.codec.encode_ms": drives.get("encode_ms", 0.0),
            "cluster.codec.decode_ms": drives.get("decode_ms", 0.0),
            "spec.checked_transfers": exact["checked_transfers"],
            "spec.us_per_transfer": wall["audit_s"] / max(1, exact["checked_transfers"]) * 1e6,
            "cluster.result.fingerprint_s": wall["fingerprint_s"],
            "byzantine.faulty_processes": exact.get("faulty_processes", 0),
            "byzantine.honest_committed": exact.get("honest_committed", 0),
            "byzantine.conflicting_validated": exact.get("conflicting_validated", 0),
            "trace.coverage": layers.coverage(drives["profile"], drives["profiled_s"]),
            "trace.overhead_ratio": traced["unscaled"]["run_s"] / unscaled_run_s,
            "host.calibration_s": current.calibration_s,
            "host.nproc": os.cpu_count() or 0,
        }
    )
    if current.reference is not None:
        serial_run_s = current.reference["wall"]["run_s"]
        values["cluster.backends.speedup_vs_serial"] = serial_run_s / wall["run_s"]
    bft = drives.get("bft")
    if bft is not None:
        values.update({f"bft.{key}": value for key, value in bft.items()})
        values["bft.sim_tps_ratio"] = exact["sim_commit_tps"] / bft["sim_commit_tps"]
        values["bft.sim_latency_ratio"] = bft["sim_latency_p50_ms"] / exact["sim_latency_p50_ms"]
        values["bft.msgs_ratio"] = exact["msgs_per_commit"] / bft["msgs_per_commit"]
    return values


def result_line(current: Measurement, trace: bool) -> str:
    """The driver's contract: exactly these four keys, metrics with their units."""
    if trace:
        units = {name: unit for name, unit, _ in layers.per_layer_table()}
        values = per_layer(current)
    else:
        units = {name: unit for name, unit, _, _ in layers.END_TO_END}
        values = {name: current.value(name) for name in units}
    return json.dumps(
        {
            "correct": not current.failures,
            "attempted": current.attempted,
            "failed": current.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
    )


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def print_measurement(current: Measurement, seed: int, trace: bool) -> None:
    case = cases.CASES[current.name]
    print(
        f"\n== {current.name}  seed {seed}  repeats {len(current.reports)}  "
        f"nproc {os.cpu_count()}  tail p{case.tail * 100:g}  "
        f"host.calibration_s {current.calibration_s:.6f}"
    )
    for name, unit, better, bound in layers.END_TO_END:
        if name in current.exact:
            spread = f"exact, bit-equal on {len(current.reports)} repeats"
        else:
            low, _, high = quartiles(current.wall(name))
            spread = f"quartiles {low:.4f} .. {high:.4f}  n={len(current.reports)}"
            if name in current.reports[0]["unscaled"]:
                spread += f"  unscaled {statistics.median(current.wall(name, 'unscaled')):.4f}"
        print(
            f"  {name:<22}{current.value(name):>14.4f} {unit:<6}{spread}  "
            f"({better} is better, bound {bound:.0%})"
        )
    if trace:
        values = per_layer(current)
        profiled = current.traced["traced"]["profiled_s"]
        profile = current.traced["traced"]["profile"]
        outside = {name: profile.get(name, [0.0])[0] for name in (layers.OTHER, layers.HARNESS)}
        print(
            f"  -- per layer (run+audit spans: {profiled:.3f} s under cProfile; "
            f"all self time {sum(row[0] for row in profile.values()) / profiled:.1%} of that, "
            f"outside the layers: {outside})"
        )
        if case.size.get("backend") == "process":
            print("     the profiler sees the driver only; "
                  "worker time is cluster.backends.worker_cpu_s")
        for name, unit, _ in layers.per_layer_table():
            share = f"  {values[name] / profiled:6.1%}" if name.endswith(".self_s") else ""
            base = layers.RATIO_BASES.get(name)
            note = f"  [{base}]" if base else ""
            print(f"  {name:<42}{values[name]:>16.4f} {unit}{share}{note}")
    for failure in current.failures:
        print(f"  FAILED {failure}")
    print(
        f"  attempted {current.attempted}  failed {current.failed}  "
        f"fingerprint {current.exact['fingerprint'][:16]}"
    )


def write_trace(sets: Dict[str, Measurement], seed: int) -> Path:
    """The spans of every repeat of the set, as Chrome ``trace_event`` JSON."""
    events = []
    for current in sets.values():
        for report in current.every_report:
            for span in report["spans"]:
                events.append(
                    {
                        "name": span["name"],
                        "ph": "X",
                        "ts": span["start"] * 1e6,
                        "dur": (span["end"] - span["start"]) * 1e6,
                        "pid": report["pid"],
                        "tid": 0,
                        "args": {
                            "workload": current.name,
                            "parent": span["parent"],
                            "profiled": report is current.traced,
                        },
                    }
                )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{'-'.join(sets) if len(sets) == 1 else 'all'}-seed{seed}.json"
    path.write_text(json.dumps({"traceEvents": events}))
    return path


# -- the benchmark's own agreement check ------------------------------------------------------


def selfcheck(seed: int, seconds: float, toy: bool) -> int:
    """Two sets of the same code must agree within the bounds they are judged by."""
    names = list(cases.CASES)
    first = measure(names, seed, seconds, toy, trace=False)
    second = measure(names, seed, seconds, toy, trace=False)
    exceeded = 0
    print(f"{'workload':<16}{'metric':<22}{'first':>12}{'second':>12}{'worse by':>10}{'bound':>8}")
    for name in names:
        for metric, _, better, bound in layers.END_TO_END:
            a, b = first[name].value(metric), second[name].value(metric)
            worse = (b - a) / a if better == "lower" else (a - b) / a
            # Either order of the two sets is a comparison a later PR could face.
            over = abs(worse) > bound
            if metric in first[name].exact:
                over = a != b
            exceeded += over
            flag = "  EXCEEDED" if over else ""
            print(f"{name:<16}{metric:<22}{a:>12.4f}{b:>12.4f}{worse:>+10.1%}{bound:>8.0%}{flag}")
        drift = second[name].calibration_s / first[name].calibration_s - 1
        print(f"{name:<16}{'host.calibration_s':<22}{first[name].calibration_s:>12.4f}"
              f"{second[name].calibration_s:>12.4f}{drift:>+10.1%}")
    failures = [f for run in (first, second) for m in run.values() for f in m.failures]
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{exceeded} of {len(names) * len(layers.END_TO_END)} comparisons exceeded their bound")
    return 1 if exceeded or failures else 0


# -- BENCHMARK.json ---------------------------------------------------------------------------

def benchmark_spec() -> Dict[str, object]:
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": case.why} for name, case in cases.CASES.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in layers.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in layers.per_layer_table()
        ],
    }


# -- entry point ------------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(cases.CASES), help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each workload's repeats go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the separate traced run that yields the per-layer metrics")
    parser.add_argument("--selfcheck", action="store_true", help="two sets, compared to the bounds")
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes: seconds, not minutes")
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    parser.add_argument("--child", choices=list(cases.CASES), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        report = cases.run_case(args.child, args.seed, args.toy, args.profile, args.spawned_at)
        print(json.dumps(report))
        return 0
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.toy)

    names = [args.workload] if args.workload else list(cases.CASES)
    sets = measure(names, args.seed, args.seconds, args.toy, bool(args.trace))
    for current in sets.values():
        print_measurement(current, args.seed, bool(args.trace))
    if args.trace:
        print(f"\nspans written to {write_trace(sets, args.seed).relative_to(ROOT)}")
    if args.workload:
        print(result_line(sets[args.workload], bool(args.trace)))
    return 1 if any(current.failures for current in sets.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
