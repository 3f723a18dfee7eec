"""The telemetry invariant, stated as a regression suite.

The observability layer's one hard promise: **telemetry never perturbs
results**.  For every execution backend — serial and process, the pool also
shrunk to one worker — a run fingerprints identically with telemetry off,
metrics-only and full tracing.  Everything else here pins the supporting
surface: the telemetry section's shape and its exclusion from the
fingerprint, trace export, and the accepted mode names.
"""

import pytest

from repro.cluster.backends import BACKEND_NAMES
from repro.cluster.system import ClusterSystem
from repro.common.errors import ConfigurationError
from repro.eval.experiments import ClusterExperimentConfig
from repro.obs import TELEMETRY_MODES, validate_trace_file
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload

# Each backend by name, plus "one-worker": the process pool shrunk to a
# single worker that hosts both shards.
DEPLOYMENTS = BACKEND_NAMES + ("one-worker",)


def _run(
    fast_network,
    backend,
    telemetry,
    max_workers=None,
    seed=3,
    pauses=(),
):
    if backend == "one-worker":
        backend, max_workers = "process", 1
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        max_workers=max_workers,
        telemetry=telemetry,
        seed=seed,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=40,
            aggregate_rate=1_500.0,
            duration=0.015,
            cross_shard_fraction=0.5,
            router=system.router,
            seed=seed,
        )
    )
    system.schedule_submissions(workload)
    for pause in pauses:
        system.run(until=pause)
    result = system.run()
    return system, result


class TestFingerprintInvariance:
    """The headline guarantee: one fingerprint per backend, every mode."""

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_fingerprint_identical_across_telemetry_modes(self, fast_network, backend):
        fingerprints = {}
        payloads = {}
        for mode in TELEMETRY_MODES:
            system, result = _run(fast_network, backend, mode)
            try:
                fingerprints[mode] = result.fingerprint()
                payloads[mode] = result.comparable_payload()
            finally:
                system.close()
        # Field-level equality first, so a regression names the field.
        assert payloads["off"] == payloads["metrics"]
        assert payloads["off"] == payloads["full"]
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_traced_pool_run_matches_untelemetered(self, fast_network):
        """The worst case at once: a two-worker process pool and full
        tracing — still the same fingerprint as the bare telemetry-off
        run."""
        system, result = _run(fast_network, "process", "off", max_workers=2)
        try:
            baseline = result.fingerprint()
        finally:
            system.close()
        system, result = _run(fast_network, "process", "full", max_workers=2)
        try:
            assert result.fingerprint() == baseline
            # The two workers' rendezvous spread is measured at every barrier.
            stall = result.telemetry["driver"]["histograms"]["barrier_stall"]
            assert stall["count"] >= 1
        finally:
            system.close()

    def test_paused_traced_pool_run_matches_untelemetered(self, fast_network):
        """Full tracing on a two-worker pool paused twice mid-workload: each
        pause ships every shard's snapshot across the pipes, traced, and the
        resumed run is still the bare uninterrupted one."""
        system, result = _run(fast_network, "process", "off", max_workers=2)
        try:
            baseline = result.fingerprint()
        finally:
            system.close()
        system, result = _run(
            fast_network, "process", "full", max_workers=2, pauses=(0.005, 0.01)
        )
        try:
            assert result.fingerprint() == baseline
            finalized = [span for span in result.trace if span["name"] == "phase.finalize"]
            assert len(finalized) == 3
        finally:
            system.close()

    def test_a_serial_run_records_no_barrier_stall(self, fast_network):
        """Serial shards finish one after the other: there is no rendezvous
        whose spread could be measured."""
        system, result = _run(fast_network, "serial", "metrics")
        try:
            assert system.scheduler.barriers > 0
            assert "barrier_stall" not in result.telemetry["driver"]["histograms"]
        finally:
            system.close()

    def test_a_one_worker_pool_records_no_barrier_stall(self, fast_network):
        """One worker hosting every shard answers each advance once: a
        single arrival has no spread, so nothing is observed."""
        system, result = _run(fast_network, "one-worker", "metrics")
        try:
            driver = result.telemetry["driver"]
            rounds = driver["histograms"]["phase.advance"]["count"]
            assert driver["counters"]["pipe.advance"] == rounds > 0
            assert "barrier_stall" not in driver["histograms"]
        finally:
            system.close()


class TestTelemetrySection:
    def test_off_mode_captures_nothing(self, fast_network):
        system, result = _run(fast_network, "serial", "off")
        try:
            assert result.telemetry is None
            assert result.trace is None
            assert result.fingerprint_payload()["telemetry"] is None
        finally:
            system.close()

    def test_metrics_mode_builds_the_section_without_spans(self, fast_network):
        system, result = _run(fast_network, "serial", "metrics")
        try:
            telemetry = result.telemetry
            assert telemetry["mode"] == "metrics"
            assert set(telemetry["per_shard"]) == {"0", "1"}
            assert "spans" not in telemetry
            assert result.trace is None
            # The merged totals fold driver and shard registries: signature
            # work and simulator events must both be visible.
            totals = telemetry["totals"]["counters"]
            assert totals["sig.verify"] > 0
            assert totals["sim.events"] > 0
        finally:
            system.close()

    def test_section_is_in_the_payload_but_not_the_hash(self, fast_network):
        system, result = _run(fast_network, "serial", "metrics")
        try:
            assert result.fingerprint_payload()["telemetry"] is result.telemetry
            before = result.fingerprint()
            result.telemetry = {"tampered": True}
            assert result.fingerprint() == before
            assert "telemetry" not in result.comparable_payload()
        finally:
            system.close()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_phase_breakdown_accounts_for_the_run(self, fast_network, backend):
        """The phase histograms must explain >=90% of phase.total."""
        system, result = _run(fast_network, backend, "metrics", max_workers=2)
        try:
            histograms = result.telemetry["driver"]["histograms"]
            total = histograms["phase.total"]["total"]
            explained = sum(
                series["total"]
                for name, series in histograms.items()
                if name.startswith("phase.") and name != "phase.total"
            )
            assert total > 0
            assert explained / total >= 0.9
        finally:
            system.close()


    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_the_driver_times_exactly_the_run_phases(self, fast_network, backend):
        """One barrier loop is advance, exchange; a run adds open,
        finalize and capture once, inside the total.  A phase added or left
        behind (a per-barrier span nothing reads) fails here."""
        system, result = _run(fast_network, backend, "metrics", max_workers=2)
        try:
            histograms = result.telemetry["driver"]["histograms"]
            counts = {
                name: series["count"]
                for name, series in histograms.items()
                if name.startswith("phase.")
            }
            loops = system.scheduler.barriers + 1  # barrier 0 runs the loop too
            assert counts == {
                "phase.total": 1,
                "phase.open": 1,
                "phase.advance": loops,
                "phase.exchange": loops,
                "phase.finalize": 1,
                "phase.capture": 1,
            }
        finally:
            system.close()


class TestTraceExport:
    def test_full_mode_exports_a_valid_chrome_trace(self, fast_network, tmp_path):
        system, result = _run(fast_network, "process", "full", max_workers=2)
        try:
            assert result.telemetry["spans"]
            path = tmp_path / "trace.json"
            count = result.export_trace(str(path))
            assert count == len(result.trace) > 0
            assert validate_trace_file(str(path)) == count
            # The scheduler's epoch loop, per-shard advances and both of the
            # process pool's pipe legs are traced, not just metadata.
            names = {event["name"] for event in result.trace}
            for expected in ("phase.advance", "phase.exchange", "pipe.send", "pipe.recv"):
                assert expected in names, f"trace is missing {expected!r} spans"
        finally:
            system.close()

    def test_a_one_worker_trace_has_one_pipe_lane(self, fast_network, tmp_path):
        """Every pipe leg of a one-worker pool is traced on that worker's
        lane, and the export still validates."""
        system, result = _run(fast_network, "one-worker", "full")
        try:
            path = tmp_path / "trace.json"
            count = result.export_trace(str(path))
            assert validate_trace_file(str(path)) == count > 0
            pipe_lanes = {event["tid"] for event in result.trace if event.get("cat") == "pipe"}
            assert pipe_lanes == {1}
        finally:
            system.close()

    def test_export_without_a_trace_refuses(self, fast_network, tmp_path):
        system, result = _run(fast_network, "serial", "metrics")
        try:
            with pytest.raises(ConfigurationError):
                result.export_trace(str(tmp_path / "no.json"))
        finally:
            system.close()


class TestKnobNormalisation:
    @pytest.mark.parametrize("alias", [None, True, False])
    def test_the_retired_aliases_are_rejected(self, alias):
        with pytest.raises(ConfigurationError, match="unknown telemetry mode"):
            ClusterSystem(shard_count=1, telemetry=alias)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=1, telemetry="verbose")

    @pytest.mark.parametrize(
        "configure", [ClusterSystem, ClusterExperimentConfig], ids=lambda cls: cls.__name__
    )
    def test_there_is_no_profile_knob(self, configure):
        """The library carries no profiler: perf/'s traced repeat profiles a
        run from outside."""
        with pytest.raises(TypeError, match="profile"):
            configure(profile=True)
