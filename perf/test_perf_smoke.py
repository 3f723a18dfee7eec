"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Every workload at toy size, the output schema, the layer attribution on a
hand-made ``pstats`` table, and a broken check failing the runner.  Not part
of the tier-1 suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import re

import pytest

import cases
import layers
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_written_spec_and_within_the_contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec == run.benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    sections = ("workloads", "end_to_end", "per_layer")
    names = [entry["name"] for key in sections for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60


def _result(capsys, argv):
    code = run.main(argv)
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", list(cases.CASES))
def test_every_workload_at_toy_size(name, capsys):
    argv = ["--workload", name, "--toy", "--seed", "3", "--seconds", "0"]
    code, result = _result(capsys, argv + ["--trace", "0"])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [entry[0] for entry in layers.END_TO_END]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())

    code, traced = _result(capsys, argv + ["--trace", "1"])
    assert code == 0 and traced["correct"] is True
    assert list(traced["metrics"]) == [entry[0] for entry in layers.per_layer_table()]
    values = {key: metric["value"] for key, metric in traced["metrics"].items()}
    # The profiler sees the driver only: under the pool it meets the codec, not the simulator.
    seen = "cluster.codec.self_s" if name == "ref-process" else "network.simulator.self_s"
    assert values[seen] > 0 and values["trace.coverage"] > 0.8
    cluster = cases.CASES[name].kind == "cluster"
    assert (values["cluster.codec.snapshot_bytes"] > 0) == cluster
    assert (values["bft.sim_tps_ratio"] > 0) == (name == "fig4-vs-pbft")
    assert (values["cluster.backends.speedup_vs_serial"] > 0) == (name == "ref-process")
    assert (run.HERE / "out" / f"trace-{name}-seed3.json").exists()


def test_a_broken_check_fails_the_runner(monkeypatch, capsys):
    honest = run.spawn

    def lossy(name, seed, toy, traced):
        report = honest(name, seed, toy, traced)
        report["exact"]["committed"] -= 1
        report["checks"]["committed_equals_submitted"] = False
        return report

    monkeypatch.setattr(run, "spawn", lossy)
    code, result = _result(capsys, ["--workload", "fig4-vs-pbft", "--toy", "--seconds", "0"])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 2


def test_repeats_that_disagree_fail_the_runner(monkeypatch, capsys):
    honest, calls = run.spawn, []

    def drifting(name, seed, toy, traced):
        report = honest(name, seed, toy, traced)
        calls.append(name)
        report["exact"]["fingerprint"] += str(len(calls))
        return report

    monkeypatch.setattr(run, "spawn", drifting)
    code, result = _result(capsys, ["--workload", "ref-process", "--toy", "--seconds", "0"])
    assert code != 0 and result["correct"] is False
    assert calls == ["ref-process", "ref-mixed"]


def test_layer_attribution_on_a_synthetic_profile():
    root = "/x/src/repro"
    run_fn = (f"{root}/cluster/system.py", 10, "run")
    settle = (f"{root}/cluster/settlement.py", 20, "deliver")
    bracha = (f"{root}/broadcast/bracha.py", 30, "on_message")
    migrate = (f"{root}/cluster/migration.py", 40, "worker_of")
    dumps = ("/usr/lib/python3/json/__init__.py", 1, "dumps")
    encode = ("~", 0, "<built-in method encode>")
    length = ("~", 0, "<built-in method builtins.len>")
    disable = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    hash_fn = ("~", 0, "<built-in method builtins.hash>")
    dunder = ("<string>", 2, "__hash__")
    # func -> (primitive calls, calls, self time, cumulative time, {caller: (nc, cc, tt, ct)})
    stats = {
        run_fn: (1, 1, 1.0, 10.0, {}),
        settle: (5, 5, 2.0, 4.0, {run_fn: (5, 5, 2.0, 4.0)}),
        bracha: (7, 7, 3.0, 3.5, {run_fn: (7, 7, 3.0, 3.5)}),
        migrate: (2, 2, 0.25, 0.25, {run_fn: (2, 2, 0.25, 0.25)}),
        # stdlib called from two layers, 3:1 by cumulative time
        dumps: (4, 4, 0.4, 2.0, {settle: (3, 3, 0.3, 1.5), bracha: (1, 1, 0.1, 0.5)}),
        # a built-in under the stdlib function: follows dumps' callers
        encode: (4, 4, 1.6, 1.6, {dumps: (4, 4, 1.6, 1.6)}),
        # a built-in called directly from a repo function
        length: (9, 9, 0.5, 0.5, {settle: (9, 9, 0.5, 0.5)}),
        disable: (1, 1, 0.05, 0.05, {}),
        # two foreign functions calling each other, entered from one layer
        dunder: (6, 6, 0.6, 1.0, {bracha: (2, 2, 0.2, 1.0), hash_fn: (4, 4, 0.4, 0.7)}),
        hash_fn: (6, 6, 0.3, 0.9, {dunder: (6, 6, 0.3, 0.9)}),
    }
    rows = layers.attribute(stats, root)
    assert rows["cluster.system"] == [1.0, 1]
    assert rows["cluster.settlement"] == pytest.approx([2.0 + 0.3 + 1.2 + 0.5, 5])
    assert rows["broadcast"] == pytest.approx([3.0 + 0.1 + 0.4 + 0.6 + 0.3, 7])
    assert rows[layers.OTHER] == [0.25, 2]
    assert rows[layers.HARNESS] == pytest.approx([0.05, 0])
    assert sum(row[0] for row in rows.values()) == pytest.approx(sum(s[2] for s in stats.values()))
    assert layers.coverage(rows, 10.0) == pytest.approx((1.0 + 4.0 + 4.4) / 10.0)
    assert layers.layer_of("/usr/lib/python3/heapq.py", root) is None
    assert layers.layer_of(f"{root}/network/simulator.py", root) == "network.simulator"
    assert layers.layer_of(f"{root}/network/__init__.py", root) == layers.OTHER
