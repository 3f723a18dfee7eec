"""The EpochPolicy seam: fixed and adaptive barrier grids.

Policy units (clamping, widening/narrowing thresholds, validation), the
scheduler integration (adaptive grids change the barrier schedule but never
the audited outcome), determinism (same seed, same adaptive barrier
sequence) and pause/resume equality under an adaptive grid.
"""

import copy

import pytest

from repro.cluster import AdaptiveEpochPolicy, ClusterSystem, FixedEpochPolicy
from repro.cluster.backends import EpochScheduler
from repro.common.errors import ConfigurationError
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    cluster_open_loop_workload,
)


def _build(fast_network, policy=None, seed=3, **kwargs):
    system = ClusterSystem(
        shard_count=2,
        replicas_per_shard=4,
        initial_balance=500,
        network_config=fast_network,
        backend="serial",
        epoch_policy=policy,
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


class TestFixedEpochPolicy:
    def test_constant_width(self):
        policy = FixedEpochPolicy(0.005)
        assert policy.initial_epoch() == 0.005
        assert policy.next_epoch(0, 0.005, 0) == 0.005
        assert policy.next_epoch(7, 0.005, 1_000) == 0.005

    def test_rejects_non_positive_widths(self):
        for width in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                FixedEpochPolicy(width)

    def test_describes_itself(self):
        assert "0.005" in FixedEpochPolicy(0.005).describe()


class TestAdaptiveEpochPolicy:
    def _policy(self, **kwargs):
        defaults = dict(
            initial_epoch=0.004,
            min_epoch=0.001,
            max_epoch=0.016,
            widen_below=2,
            narrow_above=16,
            factor=2.0,
        )
        defaults.update(kwargs)
        return AdaptiveEpochPolicy(**defaults)

    def test_narrows_under_heavy_settlement_volume(self):
        policy = self._policy()
        assert policy.next_epoch(0, 0.004, 16) == 0.002
        assert policy.next_epoch(0, 0.004, 500) == 0.002

    def test_widens_when_barriers_run_empty(self):
        policy = self._policy()
        assert policy.next_epoch(0, 0.004, 0) == 0.008
        assert policy.next_epoch(0, 0.004, 2) == 0.008

    def test_keeps_the_width_in_the_dead_band(self):
        policy = self._policy()
        for volume in (3, 8, 15):
            assert policy.next_epoch(0, 0.004, volume) == 0.004

    def test_clamps_at_both_ends(self):
        policy = self._policy()
        assert policy.next_epoch(0, 0.001, 100) == 0.001  # already at min
        assert policy.next_epoch(0, 0.016, 0) == 0.016  # already at max
        assert policy.next_epoch(0, 0.0015, 100) == 0.001  # clamped down
        assert policy.next_epoch(0, 0.012, 0) == 0.016  # clamped up

    def test_is_a_pure_function_of_its_inputs(self):
        """Statelessness is what makes pause/resume re-evaluation safe."""
        policy = self._policy()
        for _ in range(3):
            assert policy.next_epoch(5, 0.004, 20) == policy.next_epoch(5, 0.004, 20)

    def test_rejects_degenerate_configurations(self):
        with pytest.raises(ConfigurationError):
            self._policy(min_epoch=0.0)
        with pytest.raises(ConfigurationError):
            self._policy(initial_epoch=0.05)  # above max
        with pytest.raises(ConfigurationError):
            self._policy(factor=1.0)
        with pytest.raises(ConfigurationError):
            self._policy(widen_below=16, narrow_above=16)
        with pytest.raises(ConfigurationError):
            self._policy(widen_below=-1)


class TestSchedulerPolicyIntegration:
    def test_scheduler_needs_an_epoch_or_a_policy(self):
        with pytest.raises(ConfigurationError):
            EpochScheduler()
        assert EpochScheduler(epoch=0.005).epoch == 0.005
        assert EpochScheduler(policy=FixedEpochPolicy(0.01)).epoch == 0.01

    def test_adaptive_grid_changes_the_barrier_schedule_not_the_outcome(
        self, fast_network
    ):
        fixed = _build(fast_network, policy=FixedEpochPolicy(0.005))
        fixed_result = fixed.run()
        adaptive = _build(
            fast_network,
            policy=AdaptiveEpochPolicy(
                initial_epoch=0.005, min_epoch=0.00125, max_epoch=0.02
            ),
        )
        adaptive_result = adaptive.run()
        try:
            assert adaptive.scheduler.barriers != fixed.scheduler.barriers
            # The protocol outcome is identical: same commits, same audits —
            # only settlement *timing* (and with it the streams' delivery
            # times) moves with the grid.
            assert adaptive_result.committed_count == fixed_result.committed_count
            for system in (fixed, adaptive):
                report = system.check_definition1()
                assert report.ok, report.violations
                audit = system.supply_audit()
                assert audit.fully_settled and audit.fully_retired
        finally:
            fixed.close()
            adaptive.close()

    def test_adaptive_runs_are_deterministic_per_seed(self, fast_network):
        def run_once():
            system = _build(
                fast_network, policy=AdaptiveEpochPolicy(initial_epoch=0.005)
            )
            result = system.run()
            barriers = system.scheduler.barriers
            system.close()
            return result.fingerprint(), barriers

        first, second = run_once(), run_once()
        assert first == second

    def test_pause_resume_equals_continuous_under_adaptive_grid(self, fast_network):
        """The policy re-evaluates its width decision on resume from the
        same accumulated volume, so the barrier sequence is unchanged."""
        policy = AdaptiveEpochPolicy(initial_epoch=0.005)
        paused = _build(fast_network, policy=policy)
        paused.run(until=0.007)
        paused.run(until=0.013)
        resumed = paused.run()
        continuous_system = _build(
            fast_network, policy=AdaptiveEpochPolicy(initial_epoch=0.005)
        )
        continuous = continuous_system.run()
        try:
            assert resumed.comparable_payload() == continuous.comparable_payload()
            assert resumed.fingerprint() == continuous.fingerprint()
            assert paused.scheduler.barriers == continuous_system.scheduler.barriers
        finally:
            paused.close()
            continuous_system.close()

    def test_epoch_keyword_still_builds_a_fixed_grid(self, fast_network):
        system = ClusterSystem(
            shard_count=2, network_config=fast_network, backend="serial", epoch=0.01
        )
        assert isinstance(system.epoch_policy, FixedEpochPolicy)
        assert system.scheduler.epoch == 0.01
        system.close()

    def test_the_default_system_paces_a_fixed_five_millisecond_grid(self, fast_network):
        """No backend and no policy named: a serial system on the fixed
        5 ms grid, barrier for barrier the same as one asking for it."""
        default = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, seed=3,
        )
        default.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=60,
                    aggregate_rate=1_500.0,
                    duration=0.02,
                    cross_shard_fraction=1.0,
                    router=default.router,
                    seed=3,
                )
            )
        )
        explicit = _build(fast_network, policy=FixedEpochPolicy(0.005))
        try:
            assert isinstance(default.epoch_policy, FixedEpochPolicy)
            assert default.scheduler.policy is default.epoch_policy
            assert default.scheduler.epoch == 0.005
            assert default.run().fingerprint() == explicit.run().fingerprint()
            assert default.scheduler.barriers == explicit.scheduler.barriers > 0
        finally:
            default.close()
            explicit.close()

    @pytest.mark.parametrize("knob", ["latency_target", "migration_plan", "threshold"])
    def test_each_system_runs_on_its_own_copy_of_a_stateful_policy(self, fast_network, knob):
        """Policies keep state — a latency window, a draining schedule, load
        windows and cooldowns — so a system copies the one it is given: a run
        leaves the caller's object untouched, and the next system built from
        it runs identically."""
        from repro.cluster import (
            LatencyTargetEpochPolicy,
            MigrationPlan,
            ThresholdMigrationPolicy,
        )

        if knob == "latency_target":
            given = LatencyTargetEpochPolicy(initial_epoch=0.005)
            kwargs = dict(policy=given)
        elif knob == "migration_plan":
            given = MigrationPlan([(0.005, 0, 1)])
            kwargs = dict(migration=given, max_workers=2)
        else:
            given = ThresholdMigrationPolicy(imbalance_threshold=1.05, every=2, cooldown=1)
            kwargs = dict(migration=given, max_workers=2)
        state = copy.deepcopy(vars(given))
        payloads = []
        for _ in range(2):
            system = _build(fast_network, **kwargs)
            try:
                payloads.append(system.run().comparable_payload())
                assert vars(given) == state
            finally:
                system.close()
        assert payloads[0] == payloads[1]


class TestLatencyTargetEpochPolicy:
    def _policy(self, **kwargs):
        from repro.cluster import LatencyTargetEpochPolicy

        defaults = dict(
            target_p95=0.008,
            initial_epoch=0.004,
            min_epoch=0.001,
            max_epoch=0.016,
            factor=2.0,
            window=16,
            min_samples=4,
            slack=0.5,
        )
        defaults.update(kwargs)
        return LatencyTargetEpochPolicy(**defaults)

    def test_holds_until_enough_samples(self):
        policy = self._policy()
        policy.observe_latency([0.05, 0.05, 0.05])  # above target, too few
        assert policy.next_epoch(0, 0.004, 0) == 0.004

    def test_narrows_when_p95_misses_the_target(self):
        policy = self._policy()
        policy.observe_latency([0.02] * 8)
        assert policy.observed_p95() == 0.02
        assert policy.next_epoch(0, 0.004, 0) == 0.002

    def test_widens_when_p95_beats_the_target_with_slack(self):
        policy = self._policy()
        policy.observe_latency([0.001] * 8)  # far below 0.5 * target
        assert policy.next_epoch(0, 0.004, 0) == 0.008

    def test_holds_inside_the_dead_band(self):
        policy = self._policy()
        policy.observe_latency([0.006] * 8)  # between slack*target and target
        assert policy.next_epoch(0, 0.004, 0) == 0.004

    def test_clamps_at_both_ends(self):
        policy = self._policy()
        policy.observe_latency([0.02] * 8)
        assert policy.next_epoch(0, 0.001, 0) == 0.001  # at min already
        fast = self._policy()
        fast.observe_latency([0.0001] * 8)
        assert fast.next_epoch(0, 0.016, 0) == 0.016  # at max already

    def test_window_forgets_old_samples(self):
        policy = self._policy(window=4)
        policy.observe_latency([0.05] * 4)  # slow era
        policy.observe_latency([0.001] * 4)  # fast era evicts it
        assert policy.next_epoch(0, 0.004, 0) == 0.008  # widens: p95 is fast

    def test_decision_is_repeatable_between_observations(self):
        """Pause/resume re-evaluates next_epoch without new observations;
        the answer must not drift."""
        policy = self._policy()
        policy.observe_latency([0.02] * 8)
        assert policy.next_epoch(3, 0.004, 5) == policy.next_epoch(3, 0.004, 5)

    def test_p95_is_nearest_rank(self):
        from repro.cluster.backends import p95

        assert p95([]) == 0.0
        assert p95([0.5]) == 0.5
        samples = [float(i) for i in range(1, 21)]  # 1..20
        assert p95(samples) == 19.0  # ceil(0.95 * 20) = 19th rank

    def test_validation(self):
        for bad in (
            dict(target_p95=0.0),
            dict(min_epoch=0.0),
            dict(initial_epoch=0.05),  # above max
            dict(factor=1.0),
            dict(window=0),
            dict(min_samples=0),
            dict(slack=0.0),
            dict(slack=1.0),
        ):
            with pytest.raises(ConfigurationError):
                self._policy(**bad)

    def test_backend_invariant_and_deterministic(self, fast_network):
        """The latency feed is built from barrier times and shard-local
        validation times, so the latency-driven grid — a *stateful* policy —
        still fingerprints identically on every backend, twice over."""
        def run_once(backend):
            system = _build(fast_network, policy=self._policy(target_p95=0.004))
            if backend != "serial":
                system.close()
                system = ClusterSystem(
                    shard_count=2, replicas_per_shard=4, initial_balance=500,
                    network_config=fast_network, backend=backend,
                    epoch_policy=self._policy(target_p95=0.004), seed=3,
                )
                workload = cluster_open_loop_workload(
                    ClusterWorkloadConfig(
                        user_count=60, aggregate_rate=1_500.0, duration=0.02,
                        cross_shard_fraction=1.0, router=system.router, seed=3,
                    )
                )
                system.schedule_submissions(workload)
            result = system.run()
            fingerprint = result.fingerprint()
            barriers = system.scheduler.barriers
            assert system.check_definition1().ok
            system.close()
            return fingerprint, barriers

        serial = run_once("serial")
        assert run_once("serial") == serial  # deterministic per seed
        assert run_once("thread") == serial
        assert run_once("process") == serial

    def test_narrows_the_grid_toward_the_goal(self, fast_network):
        """Against a fixed grid too coarse for the goal, the policy spends
        more barriers and lands a lower settlement p95."""
        coarse = _build(fast_network, policy=FixedEpochPolicy(0.008))
        coarse.run()
        targeted = _build(
            fast_network,
            policy=self._policy(
                target_p95=0.004, initial_epoch=0.008, min_epoch=0.001,
                max_epoch=0.016,
            ),
        )
        targeted.run()
        try:
            assert targeted.scheduler.barriers > coarse.scheduler.barriers
            assert (
                targeted.settlement.settlement_latency_p95()
                <= coarse.settlement.settlement_latency_p95()
            )
        finally:
            coarse.close()
            targeted.close()
