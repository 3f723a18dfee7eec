"""The barrier grid: one fixed width, ``epoch`` apart.

Width validation (finite and positive, at the scheduler and at the system),
the grid's effect (a different width moves the barrier schedule and the
settlement latency, never the audited outcome), determinism per seed and
across backends, and pause/resume equality on a non-default width.
"""

import math

import pytest

from repro.cluster.backends import BACKEND_NAMES, EpochScheduler
from repro.cluster.settlement import p95
from repro.cluster.system import ClusterSystem
from repro.common.errors import ConfigurationError
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)


def _build(fast_network, seed=3, backend="serial", **kwargs):
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        seed=seed,
        **kwargs,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=1_500.0,
            duration=0.02,
            cross_shard_fraction=1.0,
            router=system.router,
            seed=seed,
        )
    )
    system.schedule_submissions(workload)
    return system


class TestTheWidthIsChecked:
    def test_the_scheduler_needs_a_width(self):
        with pytest.raises(TypeError):
            EpochScheduler()
        assert EpochScheduler(epoch=0.005).epoch == 0.005

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_rejects_non_positive_widths(self, fast_network, width):
        with pytest.raises(ConfigurationError):
            EpochScheduler(epoch=width)
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, network_config=fast_network, epoch=width)

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_refuses_non_finite_widths_at_construction(self, fast_network, width):
        """NaN and inf pass a ``width <= 0`` check, then break the run mid-way."""
        with pytest.raises(ConfigurationError, match="finite and positive"):
            EpochScheduler(epoch=width)
        with pytest.raises(ConfigurationError, match="finite and positive"):
            ClusterSystem(shard_count=2, network_config=fast_network, epoch=width)


class TestTheGrid:
    def test_the_epoch_keyword_sets_the_grid(self, fast_network):
        system = _build(fast_network, epoch=0.01)
        try:
            system.run()
            assert system.scheduler.epoch == 0.01
            # Every barrier taken sits a whole number of widths from zero.
            steps = system.scheduler.now / 0.01
            assert system.scheduler.barriers > 0
            assert math.isclose(steps, round(steps))
        finally:
            system.close()

    def test_the_default_system_paces_a_fixed_five_millisecond_grid(self, fast_network):
        """No backend and no width named: a serial system on the 5 ms grid,
        barrier for barrier the same as one asking for it."""
        default = _build(fast_network)
        explicit = _build(fast_network, epoch=0.005)
        try:
            assert default.scheduler.epoch == 0.005
            assert default.run().fingerprint() == explicit.run().fingerprint()
            assert default.scheduler.barriers == explicit.scheduler.barriers > 0
        finally:
            default.close()
            explicit.close()

    def test_a_different_width_changes_the_barrier_schedule_not_the_outcome(
        self, fast_network
    ):
        default = _build(fast_network)
        default_result = default.run()
        narrow = _build(fast_network, epoch=0.0025)
        narrow_result = narrow.run()
        try:
            assert narrow.scheduler.barriers != default.scheduler.barriers
            # The protocol outcome is identical: same commits, same audits —
            # only settlement *timing* (and with it the streams' delivery
            # times) moves with the grid.
            assert narrow_result.committed_count == default_result.committed_count
            for system in (default, narrow):
                report = system.check_definition1()
                assert report.ok, report.violations
                audit = system.supply_audit()
                assert audit.fully_settled and audit.fully_retired
        finally:
            default.close()
            narrow.close()

    def test_a_narrower_grid_buys_lower_settlement_latency(self, fast_network):
        """The trade the width sets: more barriers, a lower settlement p95."""
        coarse = _build(fast_network, epoch=0.008)
        coarse.run()
        fine = _build(fast_network, epoch=0.002)
        fine.run()
        try:
            assert fine.scheduler.barriers > coarse.scheduler.barriers
            assert (
                fine.settlement.settlement_latency_p95()
                < coarse.settlement.settlement_latency_p95()
            )
        finally:
            coarse.close()
            fine.close()

    def test_runs_on_a_non_default_width_are_deterministic_per_seed(self, fast_network):
        def run_once():
            system = _build(fast_network, epoch=0.0025)
            result = system.run()
            barriers = system.scheduler.barriers
            system.close()
            return result.fingerprint(), barriers

        assert run_once() == run_once()

    def test_a_non_default_width_is_backend_invariant(self, fast_network):
        """The grid is computed in the driver, so every backend takes the
        same barriers and reaches the same fingerprint."""
        outcomes = set()
        for backend in BACKEND_NAMES:
            system = _build(fast_network, backend=backend, epoch=0.01, max_workers=2)
            try:
                result = system.run()
                outcomes.add((result.fingerprint(), system.scheduler.barriers))
            finally:
                system.close()
        assert len(outcomes) == 1

    def test_a_non_default_width_is_placement_invariant(self, fast_network):
        """Both shards on one worker or one shard per worker: the same
        barriers and the same fingerprint as the serial run."""
        outcomes = set()
        for backend, max_workers in (("serial", None), ("process", 1), ("process", 2)):
            system = _build(
                fast_network, backend=backend, epoch=0.01, max_workers=max_workers
            )
            try:
                result = system.run()
                outcomes.add((result.fingerprint(), system.scheduler.barriers))
            finally:
                system.close()
        assert len(outcomes) == 1

    def test_pause_resume_equals_continuous_on_a_non_default_width(self, fast_network):
        """A pause stops on the grid and the resumed run recomputes the same
        horizons from the same ``now``, so the barrier sequence is unchanged."""
        paused = _build(fast_network, epoch=0.0025)
        paused.run(until=0.007)
        paused.run(until=0.013)
        resumed = paused.run()
        continuous_system = _build(fast_network, epoch=0.0025)
        continuous = continuous_system.run()
        try:
            assert resumed.comparable_payload() == continuous.comparable_payload()
            assert resumed.fingerprint() == continuous.fingerprint()
            assert paused.scheduler.barriers == continuous_system.scheduler.barriers
        finally:
            paused.close()
            continuous_system.close()


def test_p95_is_nearest_rank():
    assert p95([]) == 0.0
    assert p95([0.5]) == 0.5
    samples = [float(i) for i in range(1, 21)]  # 1..20
    assert p95(samples) == 19.0  # ceil(0.95 * 20) = 19th rank
