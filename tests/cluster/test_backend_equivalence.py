"""The cross-backend equivalence harness.

The execution backends' headline guarantee is that parallelism can never
silently change protocol behaviour: for any configuration, the
:class:`~repro.cluster.result.ClusterResult` captured by a run — every
replica's per-account balances, the committed and settlement streams with
their completion times, the supply-audit verdicts and the event/message
counts — must be **byte-for-byte identical** across
``SerialBackend`` / ``ThreadBackend`` / ``ProcessPoolBackend``.  This module
asserts exactly that, over a seed × shards × batch × cross-shard-fraction
grid, via :meth:`ClusterResult.fingerprint` (canonical JSON + SHA-256) *and*
field-level payload equality (so a fingerprint regression pinpoints the
diverging field, not just "something differed").

It also pins the supporting contracts: worker-count independence (a
two-worker process pool equals the serial reference — the CI smoke), that
barriers leave a shard with no settlement traffic exactly as it would run
alone, picklability of everything that crosses a process
boundary, and the worker loop itself (driven in-process through a scripted
pipe, so the subprocess code path is unit-tested and covered).
"""

import pickle
import time

import pytest

from repro.cluster import ClusterSystem, ShardSpec
from repro.cluster.backends import BACKEND_NAMES, _worker_main, make_backend
from repro.cluster.settlement import (
    SettlementCertificate,
    SettlementClaim,
    SettlementVoucher,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.crypto.signatures import SignatureScheme
from repro.workloads.cluster_driver import (
    ClusterWorkloadConfig,
    RoutedSubmission,
    cluster_open_loop_workload,
    partition_submissions,
)

# The equivalence grid: 2 seeds x 2 shard counts x 2 batch sizes x 2
# cross-shard mixes = 16 configurations, each run on all three backends.
SEEDS = (3, 11)
SHARD_COUNTS = (2, 3)
BATCH_SIZES = (1, 4)
FRACTIONS = (0.5, 1.0)
GRID = [
    (seed, shards, batch, fraction)
    for seed in SEEDS
    for shards in SHARD_COUNTS
    for batch in BATCH_SIZES
    for fraction in FRACTIONS
]


def _run(
    fast_network,
    backend,
    seed,
    shards,
    batch,
    fraction,
    max_workers=None,
    epoch_policy=None,
):
    system = ClusterSystem(
        shard_count=shards,
        replicas_per_shard=4,
        batch_size=batch,
        broadcast="bracha",
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        epoch_policy=epoch_policy,
        max_workers=max_workers,
        seed=seed,
    )
    workload = cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=1_500.0,
            duration=0.02,
            zipf_skew=1.0,
            cross_shard_fraction=fraction,
            router=system.router if fraction is not None else None,
            seed=seed,
        )
    )
    system.schedule_submissions(workload)
    result = system.run()
    return system, result


class TestBackendEquivalence:
    """Serial / Thread / Process produce byte-identical ClusterResults."""

    @pytest.mark.parametrize("seed,shards,batch,fraction", GRID)
    def test_fingerprints_identical_across_backends(
        self, fast_network, seed, shards, batch, fraction
    ):
        payloads = {}
        fingerprints = {}
        for backend in BACKEND_NAMES:
            system, result = _run(fast_network, backend, seed, shards, batch, fraction)
            try:
                payloads[backend] = result.comparable_payload()
                fingerprints[backend] = result.fingerprint()
                # The runs must also be *audited* equal, not just equal:
                # every backend passes Definition 1 and conserves supply.
                report = system.check_definition1()
                assert report.ok, (backend, report.violations)
                assert result.audit["conserved"], (backend, result.audit)
                assert result.audit["fully_settled"], (backend, result.audit)
            finally:
                system.close()
        # Field-level equality first, so a regression names the field...
        assert payloads["serial"] == payloads["thread"]
        assert payloads["serial"] == payloads["process"]
        # ... and the canonical-byte equality the guarantee is stated in.
        assert fingerprints["serial"] == fingerprints["thread"] == fingerprints["process"]

    def test_settlement_actually_exercised_by_the_grid(self, fast_network):
        """The equivalence grid must not vacuously pass on settlement-free
        runs: every configuration produces cross-shard traffic, mints — and,
        with the lifecycle on by default, acknowledged retirements."""
        for seed, shards, batch, fraction in GRID:
            system, result = _run(fast_network, "serial", seed, shards, batch, fraction)
            try:
                assert system.cross_shard_submissions > 0
                assert result.settlement_stream
                assert result.audit["minted"] > 0
                assert result.retirement_stream
                assert result.retired_records > 0
            finally:
                system.close()

    def test_adaptive_epoch_with_compaction_fingerprints_identical(
        self, fast_network
    ):
        """The acceptance configuration: an AdaptiveEpochPolicy grid with the
        compaction lifecycle active, fingerprint-identical (retirement
        counters included) across all three backends."""
        from repro.cluster import AdaptiveEpochPolicy

        def policy():
            # A fresh instance per run: equality must come from determinism,
            # never from shared mutable state (the policy is stateless, this
            # proves nothing leaks through it either way).
            return AdaptiveEpochPolicy(
                initial_epoch=0.005, min_epoch=0.00125, max_epoch=0.02,
                widen_below=2, narrow_above=12,
            )

        payloads = {}
        fingerprints = {}
        for backend in BACKEND_NAMES:
            system, result = _run(
                fast_network, backend, 11, 3, 4, 1.0, epoch_policy=policy()
            )
            try:
                payloads[backend] = result.comparable_payload()
                fingerprints[backend] = result.fingerprint()
                assert result.retired_records > 0
                assert result.resident_settlement_records == 0
                assert result.audit["fully_settled"]
                assert result.audit["retirement_backed"]
                report = system.check_definition1()
                assert report.ok, (backend, report.violations)
            finally:
                system.close()
        assert payloads["serial"] == payloads["thread"]
        assert payloads["serial"] == payloads["process"]
        assert fingerprints["serial"] == fingerprints["thread"] == fingerprints["process"]

    def test_two_worker_process_pool_matches_serial(self, fast_network):
        """Worker assignment affects only where a shard's deterministic event
        sequence is computed: 3 shards on 2 workers equal the serial run."""
        serial_system, serial = _run(fast_network, "serial", 11, 3, 1, 0.7)
        process_system, process = _run(
            fast_network, "process", 11, 3, 1, 0.7, max_workers=2
        )
        try:
            assert process.comparable_payload() == serial.comparable_payload()
            assert process.fingerprint() == serial.fingerprint()
        finally:
            serial_system.close()
            process_system.close()

    def test_barriers_never_perturb_a_shard_without_settlement_traffic(
        self, fast_network
    ):
        """With zero cross-shard payments the barriers exchange nothing, so
        every shard of a serial run equals the same spec built alone, fed its
        routed arrivals and driven to quiescence on its own clock —
        committed stream, every replica's balances and duration."""
        system, result = _run(fast_network, "serial", 7, 2, 1, 0.0)
        try:
            assert system.cross_shard_submissions == 0
            assert result.settlement_stream == []
            durations = []
            for shard in system.shards:
                alone = shard.spec().build()
                alone.start()
                for arrival in system._partitioned.get(shard.index, []):
                    alone.submit(
                        arrival.time, arrival.issuer, arrival.destination, arrival.amount
                    )
                alone.simulator.run()
                assert alone.result.committed
                assert alone.result.committed == shard.result.committed
                for pid in sorted(shard.nodes):
                    assert (
                        alone.nodes[pid].all_known_balances()
                        == shard.nodes[pid].all_known_balances()
                    )
                assert alone.simulator.now == shard.simulator.now
                durations.append(alone.simulator.now)
            assert max(durations) == result.duration
        finally:
            system.close()


class TestBackendConfiguration:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, backend="gpu")
        with pytest.raises(ConfigurationError):
            make_backend("gpu")

    def test_submissions_are_rejected_once_the_session_executes(self, fast_network):
        system, _ = _run(fast_network, "serial", 3, 2, 1, 0.5)
        try:
            with pytest.raises(ConfigurationError):
                system.schedule_submissions([])
        finally:
            system.close()

    def test_serial_is_the_default_and_the_shared_clock_is_gone(self, fast_network):
        system = ClusterSystem(shard_count=2, network_config=fast_network)
        assert system.backend_name == "serial"
        assert not hasattr(system, "simulator") and not hasattr(system, "drain")
        system.close()

    @pytest.mark.parametrize("retired", [None, "shared"])
    def test_the_shared_clock_spellings_are_rejected(self, retired):
        with pytest.raises(ConfigurationError) as caught:
            ClusterSystem(shard_count=2, backend=retired)
        assert str(BACKEND_NAMES) in str(caught.value)

    @pytest.mark.parametrize("knob", ["barrier_mode", "max_lag"])
    def test_there_is_no_barrier_pacing_knob(self, knob):
        """One drive loop: every shard meets every barrier, and nothing
        configures it otherwise."""
        with pytest.raises(TypeError, match=knob):
            ClusterSystem(shard_count=2, **{knob: None})

    def test_every_shard_owns_its_clock(self, fast_network):
        system = ClusterSystem(shard_count=3, network_config=fast_network)
        clocks = {id(shard.simulator) for shard in system.shards}
        assert len(clocks) == 3
        system.close()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_non_positive_max_workers_is_rejected(self, backend, max_workers):
        with pytest.raises(ConfigurationError, match="max_workers"):
            ClusterSystem(shard_count=2, backend=backend, max_workers=max_workers)


class TestEpochSchedulerEdges:
    def test_run_until_caps_the_barrier_horizon(self, fast_network):
        """A horizon mid-workload stops the barriers without losing events:
        resuming the run completes and still matches an uncapped run."""
        capped = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=0.5, router=capped.router, seed=3,
            )
        )
        capped.schedule_submissions(workload)
        partial = capped.run(until=0.01)
        assert partial.duration <= 0.01
        resumed = capped.run()  # picks up where the horizon stopped
        capped.close()
        reference_system, reference = _run(fast_network, "serial", 3, 2, 1, 0.5)
        reference_system.close()
        assert resumed.committed_stream == reference.committed_stream
        assert resumed.balances == reference.balances

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_every_shard_runs_exactly_to_each_barrier(self, fast_network, backend):
        """Each advance brings every shard to the barrier and no further:
        every validation it reports happened at or before the barrier, so
        the exchange consumes the whole buffer at once."""
        system = ClusterSystem(
            shard_count=3, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend=backend, max_workers=2, seed=3,
        )
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=60, aggregate_rate=1_500.0, duration=0.02,
                    cross_shard_fraction=0.5, router=system.router, seed=3,
                )
            )
        )
        advance = system._backend.advance
        horizons = []

        def checked_advance(horizon, max_events=None):
            reports = advance(horizon, max_events)
            assert sorted(reports) == [0, 1, 2]
            for report in reports.values():
                assert report.now <= horizon
                assert report.now == horizon or not report.pending_events
                assert all(event.time <= horizon for event in report.events)
            horizons.append(horizon)
            return reports

        system._backend.advance = checked_advance
        try:
            result = system.run()
            assert result.settlement_stream
            assert len(horizons) == system.scheduler.barriers + 1
            assert horizons == sorted(horizons)
            assert system.scheduler._event_buffer == []
        finally:
            system.close()

    def test_event_budget_is_enforced_across_epochs(self, fast_network):
        from repro.common.errors import SimulationError

        system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=0.5, router=system.router, seed=3,
            )
        )
        system.schedule_submissions(workload)
        with pytest.raises(SimulationError):
            system.run(max_events=50)
        system.close()

    def test_delayed_vouchers_settle_at_a_later_barrier(self, fast_network):
        """A DelayBehavior stalls one replica's vouchers past several epochs;
        settlement still completes (the other replicas quorum first) and the
        late vouchers are absorbed without effect."""
        from repro.byzantine.behaviors import DelayBehavior

        system, result = _run(fast_network, "serial", 3, 2, 1, 1.0)
        baseline_minted = result.audit["minted"]
        system.close()
        delayed = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        delayed.settlement.set_voucher_behavior(0, 3, DelayBehavior(extra_delay=0.05))
        delayed.settlement.set_voucher_behavior(1, 3, DelayBehavior(extra_delay=0.05))
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=1.0, router=delayed.router, seed=3,
            )
        )
        delayed.schedule_submissions(workload)
        outcome = delayed.run()
        assert outcome.audit["minted"] == baseline_minted
        assert outcome.audit["fully_settled"]
        assert delayed.check_definition1().ok
        delayed.close()

    def test_epoch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ClusterSystem(shard_count=2, backend="serial", epoch=0.0)

    def test_snapshot_restore_rejects_the_wrong_shard(self, fast_network):
        system = ClusterSystem(
            shard_count=2, network_config=fast_network, backend="serial", seed=3
        )
        snapshot = system.shards[0].snapshot()
        with pytest.raises(ConfigurationError):
            system.shards[1].restore(snapshot)
        system.close()


class TestSettlementWireFormatPicklability:
    """Everything that crosses a process boundary must pickle losslessly.

    Claims and certificates are clock-independent (no timestamps), so a
    value pickled in one epoch verifies unchanged in any other process at
    any later barrier.
    """

    def _claim(self):
        return SettlementClaim(
            source_shard=0, destination_shard=1, issuer=2, sequence=5, account="3", amount=42
        )

    def test_claim_voucher_certificate_round_trip(self):
        scheme = SignatureScheme(seed=9)
        claim = self._claim()
        voucher = SettlementVoucher(claim=claim, signature=scheme.keypair_for(1).sign(claim))
        certificate = SettlementCertificate(
            claim=claim,
            certificate=scheme.make_certificate(
                claim, tuple(scheme.keypair_for(pid).sign(claim) for pid in range(3))
            ),
        )
        for value in (claim, voucher, certificate):
            clone = pickle.loads(pickle.dumps(value))
            assert clone == value
        # A pickled certificate still verifies: the signatures bind to the
        # claim's content, not to any in-process identity.
        clone = pickle.loads(pickle.dumps(certificate))
        assert scheme.verify_certificate(
            clone.claim, clone.certificate, quorum_size=3,
            allowed_signers=frozenset(range(4)),
        )

    def test_spec_and_submission_round_trip(self, fast_network):
        spec = ShardSpec(index=1, replicas=4, initial_balance=100,
                         network_config=fast_network, seed=17)
        assert pickle.loads(pickle.dumps(spec)) == spec
        routed = RoutedSubmission(time=0.25, issuer=2, destination="x1:0", amount=9)
        assert pickle.loads(pickle.dumps(routed)) == routed


class TestWorkerLoop:
    """Drive the process-pool worker's command loop in-process.

    The loop normally runs in a subprocess (invisible to coverage and hard
    to fail deliberately); a scripted pipe exercises every command — and the
    error path — right here.
    """

    def _spec_and_submissions(self, fast_network):
        spec = ShardSpec(index=0, replicas=4, initial_balance=100,
                         network_config=fast_network, seed=5)
        submissions = {0: [RoutedSubmission(time=0.001, issuer=0, destination="1", amount=7)]}
        return spec, submissions

    def test_advance_mint_snapshot_stop(self, fast_network, scripted_pipe):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = scripted_pipe(
            [
                ("advance", 1.0, None),
                ("mint", 1.0, []),
                ("snapshot",),
                ("stop",),
            ]
        )
        _worker_main(pipe, [spec], submissions)
        statuses = [status for status, _ in pipe.responses]
        assert statuses == ["ok", "ok", "ok", "ok"]
        reports = pipe.responses[0][1]
        assert reports[0].pending_events == 0
        assert reports[0].processed_events > 0
        snapshot = pipe.responses[2][1][0]
        # The scheduled transfer committed inside the worker loop.
        assert len(snapshot.committed) == 1
        assert snapshot.committed[0].transfer.amount == 7
        assert pipe.closed

    def test_unknown_and_failing_commands_report_errors(self, fast_network, scripted_pipe):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = scripted_pipe(
            [
                ("warp", 9),
                ("advance", 1.0, 1),  # event budget of 1 must blow up
                ("stop",),
            ]
        )
        _worker_main(pipe, [spec], submissions)
        statuses = [status for status, _ in pipe.responses]
        assert statuses == ["error", "error", "ok"]
        assert "unknown worker command" in pipe.responses[0][1]
        assert "event budget" in pipe.responses[1][1]

    def test_eof_terminates_the_loop(self, fast_network, scripted_pipe):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = scripted_pipe([])  # recv raises EOFError immediately
        _worker_main(pipe, [spec], submissions)
        assert pipe.responses == []
        assert pipe.closed

    def test_a_garbage_frame_is_answered_and_the_loop_keeps_serving(
        self, fast_network, scripted_pipe
    ):
        spec, submissions = self._spec_and_submissions(fast_network)
        pipe = scripted_pipe([b"\x00not a frame", ("advance", 1.0, None), ("stop",)])
        _worker_main(pipe, [spec], submissions)
        assert [status for status, _ in pipe.responses] == ["error", "ok", "ok"]
        assert "Traceback" in pipe.responses[0][1]
        assert pipe.responses[1][1][0].processed_events > 0
        assert pipe.closed


class TestWorkerLoss:
    """A dead worker reaches the caller typed and attributed, in bounded time.

    Detection only: nothing is recovered, but the error names the worker
    slot, the shards that lived on it (3 shards round-robin on 2 workers put
    shard 1 alone on worker 1), the command outstanding and the exit code.
    """

    def _paused_pool(self, fast_network):
        system = ClusterSystem(
            shard_count=3, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="process", max_workers=2, seed=3,
        )
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=60, aggregate_rate=1_500.0, duration=0.02,
                    cross_shard_fraction=0.5, router=system.router, seed=3,
                )
            )
        )
        system.run(until=0.01)
        return system, list(system._backend._workers)

    def test_a_terminated_worker_raises_a_typed_error(self, fast_network):
        system, workers = self._paused_pool(fast_network)
        try:
            workers[1][0].terminate()
            started = time.monotonic()
            with pytest.raises(SimulationError) as caught:
                system.run(until=0.02)
            assert time.monotonic() - started < 5.0
            message = str(caught.value)
            assert "worker 1" in message and "resident shards [1]" in message
            assert "'advance'" in message and "exitcode -15" in message
        finally:
            system.close()
        assert not any(process.is_alive() for process, _ in workers)

    def test_a_worker_exiting_under_an_outstanding_command_is_attributed(self, fast_network):
        system, workers = self._paused_pool(fast_network)
        backend = system._backend
        try:
            # The worker honours ``stop`` and exits; ``snapshot`` behind it is
            # never answered (or, if the exit wins the race, never sent).
            with pytest.raises(SimulationError) as caught:
                backend._request(1, ("stop",))
                backend._request(1, ("snapshot",))
                assert backend._recv(1) is None
                backend._recv(1)
            message = str(caught.value)
            assert "worker 1" in message and "resident shards [1]" in message
            assert "'snapshot'" in message and "exitcode 0" in message
        finally:
            system.close()
        assert not any(process.is_alive() for process, _ in workers)


class TestPartitionedDriver:
    def test_partition_preserves_order_and_counts_cross_shard(self, fast_network):
        system = ClusterSystem(shard_count=2, network_config=fast_network, seed=11)
        workload = cluster_open_loop_workload(
            ClusterWorkloadConfig(
                user_count=60, aggregate_rate=1_500.0, duration=0.02,
                cross_shard_fraction=0.5, router=system.router, seed=11,
            )
        )
        per_shard, cross = partition_submissions(workload, system.router)
        assert set(per_shard) <= {0, 1}
        assert sum(len(routed) for routed in per_shard.values()) == len(workload)
        expected_cross = sum(
            1 for s in workload
            if system.router.route(s.source_user, s.destination_user).cross_shard
        )
        assert cross == expected_cross > 0
        for routed in per_shard.values():
            times = [submission.time for submission in routed]
            assert times == sorted(times)
