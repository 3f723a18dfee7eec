"""The cross-backend equivalence harness.

The execution backends' headline guarantee is that parallelism can never
silently change protocol behaviour: for any configuration, the
:class:`~repro.cluster.result.ClusterResult` captured by a run — every
replica's per-account balances, the committed and settlement streams with
their completion times, the supply-audit verdicts and the event/message
counts — must be **byte-for-byte identical** across
``SerialBackend`` / ``ProcessPoolBackend``.  This module
asserts exactly that, over a seed × shards × batch × cross-shard-fraction
grid, via :meth:`ClusterResult.fingerprint` (canonical JSON + SHA-256) *and*
field-level payload equality (so a fingerprint regression pinpoints the
diverging field, not just "something differed").

A second grid runs shifting-hotspot workloads on three barrier-grid widths
(the skew moves across shards mid-run) on both backends, with the pool's
fixed round-robin assignment under it on one, two and three workers.

It also pins the supporting contracts: worker-count independence (a
two-worker process pool equals the serial reference — the CI smoke), the
pool's one assignment (shard ``i`` on worker ``i % w``), that barriers leave
a shard with no settlement traffic exactly as it would run alone, that the
system lets go of the routed arrivals once the session opens, picklability
of everything that crosses a process boundary, and the worker loop itself
(driven in-process through a scripted pipe, so the subprocess code path is
unit-tested and covered).
"""

import gc
import pickle
import re
import time

import pytest

from repro.cluster.shard import Shard, ShardSpec
from repro.cluster.system import ClusterSystem
from repro.cluster.backends import BACKEND_NAMES, _worker_main, make_backend
from repro.cluster.settlement import (
    SettlementCertificate,
    SettlementClaim,
    SettlementVoucher,
    settlement_account,
    settlement_issuer,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import Transfer
from repro.crypto.signatures import SignatureScheme
from repro.workloads.cluster_driver import (
    ClusterSubmission,
    ClusterWorkloadConfig,
    HotspotProfile,
    RoutedSubmission,
    cluster_open_loop_workload,
    partition_submissions,
)

# The equivalence grid: 2 seeds x 2 shard counts x 2 batch sizes x 2
# cross-shard mixes = 16 configurations, each run on both backends.
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
# Each backend by name, plus "one-worker": the process pool shrunk to a
# single worker that hosts every shard.
DEPLOYMENTS = BACKEND_NAMES + ("one-worker",)
# The hotspot grid: three shards on two workers under a Zipf hotspot that
# rotates across shards every 7 ms, on three barrier-grid widths.
HOTSPOT_GRID = [
    # (seed, cross_shard_fraction, hotspot?, epoch width)
    (3, 0.5, False, 0.005),
    (3, 0.5, True, 0.0025),
    (3, 1.0, True, 0.01),
    (11, 0.5, True, 0.005),
    (11, 1.0, False, 0.0025),
    (11, 1.0, True, 0.01),
    (17, 0.7, True, 0.0025),
    (23, 0.7, True, 0.01),
]
# The pool sizes the hotspot grid also runs on, besides two workers: every
# shard on one worker, and one shard per worker.
POOL_SIZES = (1, 3)
# Round-robin pools: (shards, workers asked for, the worker slot then lost).
# Asking for more workers than shards starts one per shard.
ROUND_ROBIN = [
    (1, 1, 0),
    (2, 1, 0),
    (2, 5, 1),
    (3, 2, 1),
    (4, 2, 0),
    (4, 3, 2),
    (5, 2, 1),
    (5, 3, 1),
    (6, 4, 3),
]


def _run(
    fast_network,
    backend,
    seed,
    shards,
    batch,
    fraction,
    max_workers=None,
    epoch=0.005,
):
    system = ClusterSystem(
        shard_count=shards,
        replicas_per_shard=4,
        batch_size=batch,
        broadcast="bracha",
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        epoch=epoch,
        max_workers=max_workers,
        seed=seed,
    )
    system.schedule_submissions(_workload(system, seed, fraction))
    result = system.run()
    return system, result


def _workload(system, seed, fraction, hotspot=None):
    return cluster_open_loop_workload(
        ClusterWorkloadConfig(
            user_count=60,
            aggregate_rate=1_500.0,
            duration=0.02,
            zipf_skew=1.0,
            cross_shard_fraction=fraction,
            hotspot=hotspot,
            router=system.router if fraction is not None else None,
            seed=seed,
        )
    )


def _hotspot_run(fast_network, backend, max_workers, seed, fraction, hotspot, epoch):
    """One audited run of the hotspot grid: (comparable payload, fingerprint)."""
    system = ClusterSystem(
        shard_count=3,
        replicas_per_shard=4,
        batch_size=2,
        initial_balance=500,
        network_config=fast_network,
        backend=backend,
        max_workers=max_workers,
        epoch=epoch,
        seed=seed,
    )
    try:
        system.schedule_submissions(
            _workload(
                system,
                seed,
                fraction,
                HotspotProfile(period=0.007, intensity=0.8, width=4) if hotspot else None,
            )
        )
        result = system.run()
        if backend == "process":
            assert len(system._backend._workers) == max_workers
        report = system.check_definition1()
        assert report.ok, (backend, report.violations)
        assert result.audit["conserved"], (backend, result.audit)
        assert result.audit["fully_settled"], (backend, result.audit)
        return result.comparable_payload(), result.fingerprint()
    finally:
        system.close()


class TestBackendEquivalence:
    """Serial / Process produce byte-identical ClusterResults."""

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
        assert payloads["serial"] == payloads["process"]
        # ... and the canonical-byte equality the guarantee is stated in.
        assert fingerprints["serial"] == fingerprints["process"]

    @pytest.mark.parametrize("seed,fraction,hotspot,epoch", HOTSPOT_GRID)
    def test_hotspot_fingerprints_identical_across_backends(
        self, fast_network, seed, fraction, hotspot, epoch
    ):
        """A hotspot that rotates across shards skews the per-worker load
        barrier by barrier; the two-worker pool still computes the serial
        run, on every barrier-grid width."""
        serial = _hotspot_run(fast_network, "serial", None, seed, fraction, hotspot, epoch)
        process = _hotspot_run(fast_network, "process", 2, seed, fraction, hotspot, epoch)
        assert process[0] == serial[0]
        assert process[1] == serial[1]

    @pytest.mark.parametrize("max_workers", POOL_SIZES)
    @pytest.mark.parametrize("seed,fraction,hotspot,epoch", HOTSPOT_GRID)
    def test_hotspot_fingerprints_identical_across_pool_sizes(
        self, fast_network, seed, fraction, hotspot, epoch, max_workers
    ):
        """Placement never changes a result: under the same rotating
        hotspot, one worker hosting all three shards and one worker per
        shard each compute the serial run."""
        serial = _hotspot_run(fast_network, "serial", None, seed, fraction, hotspot, epoch)
        process = _hotspot_run(
            fast_network, "process", max_workers, seed, fraction, hotspot, epoch
        )
        assert process[0] == serial[0]
        assert process[1] == serial[1]

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

    def test_narrow_epoch_with_compaction_fingerprints_identical(
        self, fast_network
    ):
        """The acceptance configuration: a non-default 2.5 ms barrier grid
        with the compaction lifecycle active, fingerprint-identical
        (retirement counters included) across both backends."""
        payloads = {}
        fingerprints = {}
        for backend in BACKEND_NAMES:
            system, result = _run(
                fast_network, backend, 11, 3, 4, 1.0, epoch=0.0025
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
        assert payloads["serial"] == payloads["process"]
        assert fingerprints["serial"] == fingerprints["process"]

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

    def test_one_worker_hosting_every_shard_matches_serial(self, fast_network):
        """The pool shrunk to one worker: each command names all three shards
        and each barrier gets a single reply — still the serial run."""
        serial_system, serial = _run(fast_network, "serial", 11, 3, 4, 1.0)
        process_system, process = _run(
            fast_network, "process", 11, 3, 4, 1.0, max_workers=1
        )
        try:
            assert len(process_system._backend._workers) == 1
            assert process.comparable_payload() == serial.comparable_payload()
            assert process.fingerprint() == serial.fingerprint()
        finally:
            serial_system.close()
            process_system.close()

    def test_surplus_workers_are_clamped_to_the_shard_count(self, fast_network):
        """A worker holds at least one shard: asking for more workers than
        shards starts one per shard, and the run is the serial one."""
        serial_system, serial = _run(fast_network, "serial", 3, 2, 1, 0.5)
        process_system, process = _run(
            fast_network, "process", 3, 2, 1, 0.5, max_workers=5
        )
        try:
            assert len(process_system._backend._workers) == 2
            assert process.fingerprint() == serial.fingerprint()
        finally:
            serial_system.close()
            process_system.close()

    @pytest.mark.parametrize("shards,workers,lost", ROUND_ROBIN)
    def test_shard_i_runs_on_worker_i_mod_w(self, fast_network, shards, workers, lost):
        """Each worker hosts exactly the shards congruent to its slot, and a
        worker's failure names those shards."""
        system = ClusterSystem(
            shard_count=shards, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="process", max_workers=workers, seed=3,
        )
        try:
            system.schedule_submissions(
                _workload(system, 3, 0.5 if shards > 1 else None)
            )
            system.run(until=0.01)
            backend = system._backend
            started = min(workers, shards)
            assert len(backend._workers) == started
            hosted = {}
            for slot in range(started):
                backend._request(slot, ("snapshot",))
                hosted[slot] = sorted(backend._recv(slot))
                assert backend._resident(slot) == hosted[slot]
            assert hosted == {
                slot: [i for i in range(shards) if i % started == slot]
                for slot in range(started)
            }
            backend._workers[lost][0].terminate()
            resident = re.escape(str(hosted[lost]))
            with pytest.raises(
                SimulationError, match=rf"worker {lost} \(resident shards {resident}"
            ):
                system.run()
        finally:
            system.close()

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
            arrivals, _ = partition_submissions(_workload(system, 7, 0.0), system.router)
            durations = []
            for shard in system.shards:
                alone = Shard(shard.spec())
                alone.start()
                for arrival in arrivals.get(shard.index, []):
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
    @pytest.mark.parametrize("name", ["gpu", "thread"])
    def test_unknown_backend_is_rejected(self, name):
        expected = r"\('serial', 'process'\)"
        with pytest.raises(ConfigurationError, match=expected):
            ClusterSystem(shard_count=2, backend=name)
        with pytest.raises(ConfigurationError, match=expected):
            make_backend(name)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_name_builds_that_backend(self, fast_network, name):
        assert make_backend(name).name == name
        with ClusterSystem(shard_count=2, network_config=fast_network, backend=name) as system:
            assert system.backend_name == name

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

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_every_shard_runs_exactly_to_each_barrier(self, fast_network, backend):
        """Each advance brings every shard to the barrier and no further:
        every validation it reports happened at or before the barrier, so
        the exchange consumes the whole buffer at once."""
        max_workers = 2
        if backend == "one-worker":
            backend, max_workers = "process", 1
        system = ClusterSystem(
            shard_count=3, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend=backend, max_workers=max_workers,
            seed=3,
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

        def checked_advance(horizon, max_events=None, overlapped=None):
            reports = advance(horizon, max_events, overlapped)
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

    @pytest.mark.parametrize("budget", [float("nan"), -1, 2.5, True])
    def test_an_event_budget_that_is_not_a_natural_is_refused(self, fast_network, budget):
        """A NaN budget compares false and ran the cluster unbounded; -1 failed
        as "exceeded the event budget of -1"; 2.5 and True were accepted."""
        system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="serial", seed=3,
        )
        system.schedule_submissions(
            cluster_open_loop_workload(
                ClusterWorkloadConfig(
                    user_count=60, aggregate_rate=1_500.0, duration=0.02,
                    cross_shard_fraction=0.5, router=system.router, seed=3,
                )
            )
        )
        with pytest.raises(SimulationError, match="must be None or an int >= 0"):
            system.run(max_events=budget)
        assert system.scheduler.events_processed() == 0
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


# One cross-shard payment on two shards and a 0.5 ms barrier grid: the shards
# sit idle while the settlement legs mature, so the scheduler skips grid
# points.  These are the horizons of an exchange that runs both halves at
# every barrier; deferring the second half must not move them.
SKIP_AHEAD_HORIZONS = [
    0.0, 0.001, 0.0015, 0.002, 0.0025, 0.003, 0.0035, 0.004, 0.006,
    0.006500000000000001, 0.007000000000000001, 0.009000000000000001,
    0.009500000000000001,
]


class TestOverlappedSettlement:
    """A barrier's second half (vouchers, acks, quorum assembly) runs while
    the shards advance to the next barrier whenever it cannot move that
    barrier: same barrier sequence, same results, on every backend."""

    @pytest.mark.parametrize("backend", ["process", "one-worker"])
    def test_the_pool_settles_between_dispatch_and_collection(self, fast_network, backend):
        """Every deferred second half runs after the epoch's ``advance`` is
        on every pipe and before any reply is read, and the run still
        fingerprints as the serial one."""
        max_workers = 2
        if backend == "one-worker":
            backend, max_workers = "process", 1
        system = ClusterSystem(
            shard_count=3, replicas_per_shard=4, batch_size=1, broadcast="bracha",
            initial_balance=500, network_config=fast_network, backend=backend,
            max_workers=max_workers, seed=3, telemetry="metrics",
        )
        system.schedule_submissions(_workload(system, 3, 0.5))
        pool = system._backend
        log = []
        broadcast, collect = pool._broadcast, pool._collect_arrivals
        settle = system.scheduler._settle

        def logged_broadcast(command):
            log.append(command[0])
            broadcast(command)

        def logged_collect():
            log.append("collect")
            return collect()

        def logged_settle(fabric):
            log.append("settle")
            settle(fabric)

        pool._broadcast = logged_broadcast
        pool._collect_arrivals = logged_collect
        system.scheduler._settle = logged_settle
        try:
            result = system.run()
            # An advance is dispatch, at most one second half, collection.
            advances = [index for index, entry in enumerate(log) if entry == "advance"]
            overlapped = 0
            for index in advances:
                if log[index + 1] == "settle":
                    overlapped += 1
                    index += 1
                assert log[index + 1] == "collect"
            # Every barrier settles once; most of them while the pool advances.
            assert log.count("settle") == system.scheduler.barriers + 1
            assert overlapped > log.count("settle") // 2
            driver = result.telemetry["driver"]
            assert driver["histograms"]["exchange.overlapped"]["count"] == overlapped
            assert driver["histograms"]["advance.wait"]["count"] == len(advances)
        finally:
            system.close()
        reference, expected = _run(fast_network, "serial", 3, 3, 1, 0.5)
        reference.close()
        assert result.fingerprint() == expected.fingerprint()

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_a_skip_ahead_run_keeps_the_barrier_sequence(self, fast_network, backend):
        max_workers = None
        if backend == "one-worker":
            backend, max_workers = "process", 1
        system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend=backend, max_workers=max_workers,
            seed=3, epoch=0.0005,
        )
        users = [
            next(user for user in range(100_000) if system.router.shard_of(user) == shard)
            for shard in (0, 1)
        ]
        system.schedule_submissions(
            [ClusterSubmission(time=0.001, source_user=users[0], destination_user=users[1], amount=7)]
        )
        advance = system._backend.advance
        horizons = []

        def recorded(horizon, max_events=None, overlapped=None):
            horizons.append(horizon)
            return advance(horizon, max_events, overlapped)

        system._backend.advance = recorded
        try:
            result = system.run()
            assert result.audit["minted"] == result.audit["retired"] == 7
            assert horizons == SKIP_AHEAD_HORIZONS
            assert system.scheduler.quiescent
        finally:
            system.close()

    def test_a_raising_second_half_leaves_the_pool_closable(self, fast_network):
        """The deferred second half runs between dispatch and collection; if
        it raises, the workers' replies are still read, so no command is
        left outstanding, and close() stops every worker cleanly."""
        system = ClusterSystem(
            shard_count=2, replicas_per_shard=4, initial_balance=500,
            network_config=fast_network, backend="process", max_workers=2, seed=3,
        )
        system.schedule_submissions(_workload(system, 3, 0.5))

        def raising(fabric):
            raise RuntimeError("second half failed")

        system.scheduler._overlapped = raising
        pool = system._backend
        try:
            with pytest.raises(RuntimeError, match="second half failed"):
                system.run()
            processes = [process for process, _ in pool._workers]
            assert len(processes) == 2
            assert all(not outstanding for outstanding in pool._outstanding)
        finally:
            system.close()
        assert pool._workers == []
        assert [process.exitcode for process in processes] == [0, 0]


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


    def test_a_worker_serves_every_resident_shard(self, fast_network, scripted_pipe):
        """Shards 0 and 2 on one worker (the slot-0 worker of a two-worker
        pool over three shards): ``advance`` and ``snapshot`` answer per
        resident shard, a ``mint`` reaches only the shard it names, and a
        command for a shard hosted elsewhere is refused."""
        specs = [
            ShardSpec(index=index, replicas=4, initial_balance=100,
                      network_config=fast_network, seed=5)
            for index in (0, 2)
        ]
        submissions = {
            0: [RoutedSubmission(time=0.001, issuer=0, destination="1", amount=7)],
            2: [RoutedSubmission(time=0.002, issuer=1, destination="2", amount=3)],
        }
        mint = Transfer(
            source=settlement_account(0, 2), destination="0", amount=13,
            issuer=settlement_issuer(0, 2), sequence=1,
        )
        pipe = scripted_pipe(
            [
                ("advance", 1.0, None),
                ("mint", 1.0, [(2, [(pid, mint) for pid in range(4)])]),
                ("mint", 1.0, [(1, [(0, mint)])]),
                ("advance", 2.0, None),
                ("snapshot",),
                ("stop",),
            ]
        )
        _worker_main(pipe, specs, submissions)
        statuses = [status for status, _ in pipe.responses]
        assert statuses == ["ok", "ok", "error", "ok", "ok", "ok"]
        assert sorted(pipe.responses[0][1]) == [0, 2]
        assert "KeyError: 1" in pipe.responses[2][1]
        snapshots = pipe.responses[4][1]
        assert sorted(snapshots) == [0, 2]
        assert [r.transfer.amount for r in snapshots[0].committed] == [7]
        assert [r.transfer.amount for r in snapshots[2].committed] == [3]
        for index in (0, 2):
            twin = Shard(specs[index // 2])
            twin.restore(snapshots[index])
            minted = mint in twin.nodes[0].deps
            assert minted == (index == 2)


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

    def test_a_failed_mint_is_reported_at_the_next_collection(self, fast_network):
        """Mint and retire commands are not waited for: their answers are
        read with the advance that follows them on the pipe, and a failed
        one is still raised, attributed to its command."""
        system, workers = self._paused_pool(fast_network)
        backend = system._backend
        try:
            transfer = Transfer("settle:0:0", "1", 1, issuer=-1, sequence=1)
            backend.apply_mints(0.0, {1: [(0, transfer)]})  # behind shard 1's clock
            assert [list(outstanding) for outstanding in backend._outstanding] == [[], ["mint"]]
            with pytest.raises(SimulationError) as caught:
                system.run()
            message = str(caught.value)
            assert "worker 1" in message and "resident shards [1]" in message
            assert "'mint'" in message and "failed" in message
        finally:
            system.close()
        assert [process.exitcode for process, _ in workers] == [0, 0]

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


def _routed_alive():
    """How many ``RoutedSubmission`` objects the collector can see."""
    gc.collect()
    return sum(isinstance(value, RoutedSubmission) for value in gc.get_objects())


class TestArrivalsAreReleased:
    def _system(self, fast_network, deployment):
        backend, max_workers = deployment, 2
        if deployment == "one-worker":
            backend, max_workers = "process", 1
        return ClusterSystem(
            shard_count=2, replicas_per_shard=4, batch_size=1, broadcast="bracha",
            initial_balance=500, network_config=fast_network, backend=backend,
            max_workers=max_workers, seed=3,
        )

    @pytest.mark.parametrize("backend", DEPLOYMENTS)
    def test_the_system_keeps_no_routed_arrival_after_the_run(self, fast_network, backend):
        """The routed arrivals live in the shards' event queues (or travel
        to the workers with the fork) once the session opens: nothing the
        system keeps reachable holds a ``RoutedSubmission`` after ``run()``."""
        baseline = _routed_alive()
        system = self._system(fast_network, backend)
        try:
            submitted = system.schedule_submissions(_workload(system, 3, 0.5))
            # The probe sees them while the system holds them...
            assert _routed_alive() == baseline + submitted
            system.run()
            # ... and none once the run has opened the session.
            assert _routed_alive() == baseline
            assert system.result.committed_count > 0
        finally:
            system.close()

    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    def test_nothing_holds_the_arrivals_at_a_pause(self, fast_network, deployment):
        """The release happens when the session opens, not when the run
        ends: paused mid-workload, the partition is empty and no arrival is
        reachable, and the resumed run equals the uninterrupted serial one."""
        reference_system, reference = _run(fast_network, "serial", 3, 2, 1, 0.5)
        reference_system.close()
        baseline = _routed_alive()
        system = self._system(fast_network, deployment)
        try:
            submitted = system.schedule_submissions(_workload(system, 3, 0.5))
            assert sum(len(routed) for routed in system._partitioned.values()) == submitted
            paused_at = system.run(until=0.01).duration
            assert paused_at <= 0.01 < reference.duration
            assert system._partitioned == {}
            assert _routed_alive() == baseline
            assert system.run().fingerprint() == reference.fingerprint()
        finally:
            system.close()
