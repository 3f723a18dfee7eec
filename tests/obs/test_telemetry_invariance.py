"""The telemetry invariant, stated as a regression suite.

The observability layer's one hard promise: **telemetry never perturbs
results**.  For every execution backend — serial, thread and process — a
run fingerprints identically with telemetry off, metrics-only and full
tracing; profiled and *migrated* runs included.  Everything else here pins
the supporting surface: the telemetry section's shape and its exclusion
from the fingerprint, trace export, the merged worker profiles, and the knob
normalisation.
"""

import pytest

from repro.cluster import BACKEND_NAMES, ClusterSystem, MigrationPlan
from repro.common.errors import ConfigurationError
from repro.obs import TELEMETRY_MODES, normalize_telemetry, validate_trace_file
from repro.workloads.cluster_driver import ClusterWorkloadConfig, cluster_open_loop_workload


def _run(
    fast_network,
    backend,
    telemetry,
    profile=False,
    migration=None,
    max_workers=None,
    seed=3,
):
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        max_workers=max_workers,
        migration=migration,
        telemetry=telemetry,
        profile=profile,
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
    result = system.run()
    return system, result


class TestFingerprintInvariance:
    """The headline guarantee: one fingerprint per backend, every mode."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
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

    def test_profiled_traced_migrated_run_matches_untelemetered(self, fast_network):
        """The worst case at once: process pool, live migration mid-run,
        full tracing and per-worker cProfile — still the same fingerprint
        as the bare telemetry-off run."""
        system, result = _run(fast_network, "process", "off", max_workers=2)
        try:
            baseline = result.fingerprint()
        finally:
            system.close()
        system, result = _run(
            fast_network,
            "process",
            "full",
            profile=True,
            migration=MigrationPlan([(0.01, 0, 1)]),
            max_workers=2,
        )
        try:
            assert result.migration_stream, "the migration must actually execute"
            assert result.fingerprint() == baseline
            # The two workers' rendezvous spread is measured at every barrier.
            stall = result.telemetry["driver"]["histograms"]["barrier_stall"]
            assert stall["count"] >= 1
            stats = system.profile_stats()
            assert stats is not None and stats.stats
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
        """The phase histograms must explain >=90% of phase.total — the
        coverage bound the benchmarks also enforce."""
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


class TestTraceExport:
    def test_full_mode_exports_a_valid_chrome_trace(self, fast_network, tmp_path):
        system, result = _run(fast_network, "process", "full", max_workers=2)
        try:
            assert result.telemetry["spans"]
            path = tmp_path / "trace.json"
            count = result.export_trace(str(path))
            assert count == len(result.trace) > 0
            assert validate_trace_file(str(path)) == count
            names = {event["name"] for event in result.trace}
            assert "phase.advance" in names
            assert "pipe.send" in names  # the process pool's pipe legs traced
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
    def test_mode_names_and_ergonomic_aliases(self):
        assert normalize_telemetry(None) == "metrics"
        assert normalize_telemetry(False) == "off"
        assert normalize_telemetry(True) == "full"
        for mode in TELEMETRY_MODES:
            assert normalize_telemetry(mode) == mode

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_telemetry("verbose")
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=1, telemetry="verbose")
