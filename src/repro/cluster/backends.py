"""Parallel shard execution backends and the epoch-barrier scheduler.

The paper's consensus-number-1 result means shards never coordinate, so
nothing forces them onto one Python event loop: a shard's event sequence
depends only on its own schedule plus the settlement certificates it is
handed.  This module exploits that.  Each shard runs on *its own*
:class:`~repro.network.simulator.Simulator`, advanced independently up to the
next **settlement barrier**; at the barrier the (driver-process) settlement
fabric exchanges vouchers and certificates in a deterministic order, the
resulting mints are scheduled back onto the destination shards' clocks, and
the loop repeats until global quiescence.

Three backends execute the per-epoch shard advancement:

* :class:`SerialBackend` — one shard after the other, in-process (today's
  single-threaded execution, extracted behind the interface).
* :class:`ThreadBackend` — a thread pool; shards share no state, so threads
  only contend on the GIL (a correctness-under-concurrency backend more than
  a speed one in CPython).
* :class:`ProcessPoolBackend` — persistent worker processes, each owning a
  fixed subset of shards built from picklable :class:`ShardSpec`s; epochs
  exchange only plain data (validation events out, mint transfers in), and a
  final :class:`ShardSnapshot` per shard rehydrates the driver-side twins so
  every inspection and audit surface answers as usual.

The headline guarantee is **bit-identical results across backends**: the
barrier schedule, the voucher/certificate processing order (sorted by
``(time, shard, sequence)``) and the per-shard event sequences are all
deterministic functions of the cluster seed, never of wall-clock timing,
thread interleaving or worker assignment.  The cross-backend equivalence
harness (``tests/cluster/test_backend_equivalence.py``) asserts the resulting
:meth:`~repro.cluster.result.ClusterResult.fingerprint` equality on a
seed × shards × batch × cross-shard-fraction grid.

Settlement hops between shards at barrier granularity (the ``epoch``), by
design: the only cross-shard obligation is reliable, source-ordered
certificate delivery, and that batches freely (the set-constrained-delivery
view of Imbs et al., arXiv:1706.05267).

**Worker commands.**  Driver and workers frame every command and reply
through :mod:`repro.cluster.codec` (one pickle per frame).  Commands are the
tuples ``("advance", horizon, max_events)``,
``("mint"|"retire", time, per_shard)``, ``("evict", indices)``,
``("adopt", arrivals)``, ``("checkpoint",)``, ``("snapshot",)``,
``("profile",)`` and ``("stop",)``;
replies are ``("ok", payload)`` or ``("error", traceback_text)``.
``checkpoint`` ships each resident shard's state as a
:class:`~repro.cluster.checkpoint.CheckpointDelta` against the worker's
previous baseline (``None`` for shards not protocol-quiescent this round),
and an ``adopt`` arrival carries an optional checkpoint so the adopting
worker restores it and replays only the post-checkpoint tail.  The same
framing measures ``snapshot_bytes`` for migration stall accounting, on every
backend.

**Barrier fan-out.**  Commands addressed to *every* worker with identical
bytes — ``advance`` each epoch, ``checkpoint``, ``snapshot``, ``profile``
and ``stop`` at their barriers — are encoded once and the same ``bytes``
object is written to each pipe (:meth:`ProcessPoolBackend._broadcast`);
only per-worker payloads (``mint``, ``retire``, ``evict``, ``adopt``) are
encoded per recipient.
"""

from __future__ import annotations

import abc
import cProfile
import itertools
import math
import multiprocessing
import multiprocessing.connection
import os
import time as _time
import traceback
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.migration import (
    MigrationPolicy,
    MigrationRecord,
    Move,
    PlacementPlan,
    ShardLoad,
)
from repro.cluster.settlement import (
    RetirementCertificate,
    SettlementAck,
    SettlementCertificate,
    SettlementRelay,
    SettlementVoucher,
    p95,
)
from repro.cluster.checkpoint import (
    CheckpointDelta,
    checkpoint_delta,
    fold_checkpoint,
    replayable_suffix,
)
from repro.cluster.codec import decode as codec_decode
from repro.cluster.codec import encode as codec_encode
from repro.cluster.codec import encoded_size
from repro.cluster.shard import (
    AdvanceReport,
    Shard,
    ShardCheckpoint,
    ShardSnapshot,
    ShardSpec,
    ValidationEvent,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import ProcessId, Transfer
from repro.obs.profiling import profile_stats_dict
from repro.workloads.cluster_driver import RoutedSubmission

BACKEND_NAMES = ("serial", "thread", "process")


@contextmanager
def _phase(metrics, tracer, name, **span_kwargs):
    """Time a driver-side phase into a histogram and (optionally) a span.

    Telemetry sinks are write-only here: nothing the protocol computes ever
    reads the measured durations, so attaching them cannot perturb a result
    (the telemetry invariant).  Both sinks are optional; with neither, the
    only cost is two ``perf_counter`` calls per phase per barrier.
    """
    started = _time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(name, **span_kwargs) as span:
                yield span
        else:
            yield None
    finally:
        if metrics is not None:
            metrics.observe(name, _time.perf_counter() - started)


# -- the epoch-policy seam --------------------------------------------------------------------


class EpochPolicy(abc.ABC):
    """Decides the width of the next settlement epoch, barrier by barrier.

    The scheduler consults the policy after every *taken* barrier, passing
    the barrier's observed settlement volume (vouchers, certificates, acks
    and retirement certificates exchanged at it).  Policies must be
    **deterministic**: the scheduler may re-evaluate the same decision after
    a pause/resume, and the same inputs must yield the same width on every
    backend — that is what keeps barrier schedules (and hence
    :meth:`~repro.cluster.result.ClusterResult.fingerprint` equality) intact
    across Serial/Thread/Process.  Policies are stateless in the decision
    (:meth:`next_epoch` is re-evaluated freely) but may accumulate
    observations through :meth:`observe_latency`, which the scheduler feeds
    exactly once per exchanged settlement item from backend-invariant
    barrier-time figures.
    """

    @abc.abstractmethod
    def initial_epoch(self) -> float:
        """The width of the first epoch."""

    def observe_latency(self, samples: Sequence[float]) -> None:
        """Settlement-latency samples (source validation to destination
        mint) exchanged since the last feed.  Default: ignore them."""

    def next_epoch(self, barrier_index: int, epoch: float, settlement_volume: int) -> float:
        """The width of the epoch following barrier ``barrier_index``.

        ``epoch`` is the width just used; ``settlement_volume`` is what the
        barrier exchanged.  The default keeps the width constant.
        """
        return epoch

    def describe(self) -> str:
        return type(self).__name__


class FixedEpochPolicy(EpochPolicy):
    """Today's behaviour: a constant barrier grid of width ``epoch``."""

    def __init__(self, epoch: float) -> None:
        if epoch <= 0:
            raise ConfigurationError("epoch must be positive")
        self.epoch = epoch

    def initial_epoch(self) -> float:
        return self.epoch

    def describe(self) -> str:
        return f"fixed({self.epoch})"


class AdaptiveEpochPolicy(EpochPolicy):
    """Widens/narrows the barrier grid from observed settlement volume.

    A barrier that exchanged at least ``narrow_above`` settlement items is a
    sign cross-shard credits are queueing — the next epoch narrows by
    ``factor`` (down to ``min_epoch``) to cut settlement latency.  A barrier
    that exchanged at most ``widen_below`` items is mostly overhead — the
    next epoch widens by ``factor`` (up to ``max_epoch``) to amortise the
    barrier cost.  Everything in between keeps the current width.  The
    decision is a pure function of ``(epoch, settlement_volume)``, computed
    in the driver from barrier-exchange counts that are themselves
    backend-invariant, so the adaptive grid is identical on every backend.
    """

    def __init__(
        self,
        initial_epoch: float = 0.005,
        min_epoch: float = 0.00125,
        max_epoch: float = 0.02,
        widen_below: int = 2,
        narrow_above: int = 16,
        factor: float = 2.0,
    ) -> None:
        if min_epoch <= 0 or not (min_epoch <= initial_epoch <= max_epoch):
            raise ConfigurationError(
                "need 0 < min_epoch <= initial_epoch <= max_epoch"
            )
        if factor <= 1.0:
            raise ConfigurationError("factor must exceed 1")
        if widen_below < 0 or narrow_above <= widen_below:
            raise ConfigurationError("need 0 <= widen_below < narrow_above")
        self._initial = initial_epoch
        self.min_epoch = min_epoch
        self.max_epoch = max_epoch
        self.widen_below = widen_below
        self.narrow_above = narrow_above
        self.factor = factor

    def initial_epoch(self) -> float:
        return self._initial

    def next_epoch(self, barrier_index: int, epoch: float, settlement_volume: int) -> float:
        if settlement_volume >= self.narrow_above:
            return max(self.min_epoch, epoch / self.factor)
        if settlement_volume <= self.widen_below:
            return min(self.max_epoch, epoch * self.factor)
        return epoch

    def describe(self) -> str:
        return (
            f"adaptive({self._initial}, [{self.min_epoch}, {self.max_epoch}], "
            f"volume {self.widen_below}..{self.narrow_above}, x{self.factor})"
        )


class LatencyTargetEpochPolicy(EpochPolicy):
    """Narrows the barrier grid until a p95 settlement-latency goal is met.

    The volume-driven :class:`AdaptiveEpochPolicy` reacts to *queueing*; this
    policy drives the figure operators actually budget: the p95 of the
    source-validation-to-destination-mint latency.  The scheduler feeds every
    exchanged settlement-latency sample through :meth:`observe_latency`
    (samples are differences of barrier times and shard-local validation
    times, so they are identical on every backend); the policy keeps the most
    recent ``window`` of them and, once at least ``min_samples`` are in hand:

    * p95 above ``target_p95`` — barriers are spaced too far apart for the
      goal; the next epoch narrows by ``factor`` (down to ``min_epoch``),
    * p95 at or below ``target_p95 * slack`` — the goal is met with room to
      spare; the next epoch widens by ``factor`` (up to ``max_epoch``) to
      shed barrier overhead,
    * in between — hold, the grid is on target.

    Deterministic and backend-invariant like the other policies: the width
    is a pure function of the observation stream, which the scheduler feeds
    identically whatever backend executes the epochs.
    """

    def __init__(
        self,
        target_p95: float = 0.008,
        initial_epoch: float = 0.005,
        min_epoch: float = 0.00125,
        max_epoch: float = 0.02,
        factor: float = 2.0,
        window: int = 64,
        min_samples: int = 4,
        slack: float = 0.5,
    ) -> None:
        if target_p95 <= 0:
            raise ConfigurationError("target_p95 must be positive")
        if min_epoch <= 0 or not (min_epoch <= initial_epoch <= max_epoch):
            raise ConfigurationError(
                "need 0 < min_epoch <= initial_epoch <= max_epoch"
            )
        if factor <= 1.0:
            raise ConfigurationError("factor must exceed 1")
        if window < 1 or min_samples < 1:
            raise ConfigurationError("window and min_samples must be at least 1")
        if not 0.0 < slack < 1.0:
            raise ConfigurationError("slack must lie strictly between 0 and 1")
        self.target_p95 = target_p95
        self._initial = initial_epoch
        self.min_epoch = min_epoch
        self.max_epoch = max_epoch
        self.factor = factor
        self.min_samples = min_samples
        self.slack = slack
        self._samples: deque = deque(maxlen=window)

    def initial_epoch(self) -> float:
        return self._initial

    def observe_latency(self, samples: Sequence[float]) -> None:
        self._samples.extend(samples)

    def observed_p95(self) -> float:
        """The current windowed p95 (0.0 until any sample arrives)."""
        return p95(list(self._samples))

    def next_epoch(self, barrier_index: int, epoch: float, settlement_volume: int) -> float:
        if len(self._samples) < self.min_samples:
            return epoch
        observed = self.observed_p95()
        if observed > self.target_p95:
            return max(self.min_epoch, epoch / self.factor)
        if observed <= self.target_p95 * self.slack:
            return min(self.max_epoch, epoch * self.factor)
        return epoch

    def describe(self) -> str:
        return (
            f"latency-target(p95<={self.target_p95}, "
            f"[{self.min_epoch}, {self.max_epoch}], x{self.factor})"
        )


def _schedule_into(shard: Shard, submissions: List[RoutedSubmission]) -> None:
    """Schedule a shard's pre-partitioned arrivals, preserving list order."""
    for submission in submissions:
        shard.submit(
            time=submission.time,
            issuer=submission.issuer,
            destination=submission.destination,
            amount=submission.amount,
        )


# -- the backend interface --------------------------------------------------------------------


class ExecutionBackend(abc.ABC):
    """Executes the per-epoch shard advancement for the barrier scheduler.

    A backend session is *opened* once with the driver-side shard objects,
    their specs and the pre-partitioned submissions; after that the scheduler
    only ever asks it to ``advance`` every shard to a barrier, to
    ``apply_mints`` the barrier produced, and finally to ``finalize`` so the
    driver-side shards reflect the run (a no-op for in-process backends).

    ``placement`` is the cluster's shared :class:`PlacementPlan` — which
    logical worker computes which shard.  The process pool maps the plan onto
    real worker processes; the in-process backends keep it as bookkeeping, so
    the same migration schedule runs (and records the same moves) on every
    backend.  :meth:`migrate` executes placement changes at a quiescent
    barrier: snapshot the shard, detach it from its old worker, rehydrate it
    on the new one — results are placement-invariant, so migration may move
    *where* a shard's event sequence is computed, never its content.
    """

    name: str = "abstract"

    #: Optional telemetry sinks, attached by the deployment before ``open``.
    #: Backends only ever *write* measurements into them — no protocol
    #: decision reads them back — so results are identical with or without.
    metrics = None
    tracer = None
    #: When true, the process pool samples a ``cProfile`` per worker; the
    #: in-process backends are covered by the driver-side profiler instead.
    profile: bool = False

    def attach_telemetry(self, metrics=None, tracer=None, profile: bool = False) -> None:
        """Install the deployment's telemetry sinks on this session."""
        self.metrics = metrics
        self.tracer = tracer
        self.profile = profile

    def collect_profiles(self) -> List[dict]:
        """Raw worker ``cProfile`` stats dicts (empty unless profiling
        out-of-process work — the driver profiler already sees in-process
        backends)."""
        return []

    @abc.abstractmethod
    def open(
        self,
        shards: List[Shard],
        specs: List[ShardSpec],
        submissions: Dict[int, List[RoutedSubmission]],
        placement: Optional[PlacementPlan] = None,
        record_history: bool = False,
    ) -> None:
        """Start the session: install collectors, start shards, load arrivals."""

    @abc.abstractmethod
    def advance(
        self, horizon: Optional[float], max_events: Optional[int] = None
    ) -> Dict[int, AdvanceReport]:
        """Advance every shard to ``horizon`` and collect their reports."""

    def _observe_stall(self, stamps) -> None:
        """Record one barrier's rendezvous stall (first-to-last arrival)."""
        if self.metrics is None:
            return
        stamps = list(stamps)
        if len(stamps) >= 2:
            self.metrics.observe("barrier_stall", max(stamps) - min(stamps))

    @abc.abstractmethod
    def apply_mints(
        self, time: float, mints: Dict[int, List[Tuple[ProcessId, Transfer]]]
    ) -> None:
        """Schedule the barrier's certified mints onto the target shards."""

    @abc.abstractmethod
    def apply_retirements(self, time: float, retirements: Dict[int, List[Transfer]]) -> None:
        """Schedule the barrier's quorum-acknowledged retirements onto the
        source shards (the compaction leg of the settlement lifecycle)."""

    def migrate(
        self, barrier: int, time: float, moves: Sequence[Move]
    ) -> List[MigrationRecord]:
        """Execute placement moves at a quiescent barrier; returns records.

        Callers guarantee every shard has executed all events at or before
        ``time`` (the barrier contract), so the move is pure state transfer.
        No-op moves (shard already on the target worker) are skipped without
        a record.  Backends without a placement plan refuse: a migration
        against an unplanned session is a wiring bug, not a policy decision.
        """
        raise ConfigurationError(
            f"the {self.name} backend session has no placement plan; "
            "open() it with one (ClusterSystem does when migration is enabled)"
        )

    def checkpoint(self, time: float) -> Dict[int, CheckpointDelta]:
        """Take an incremental checkpoint of every checkpointable shard.

        Called by the scheduler at checkpoint-cadence barriers, when every
        shard is quiescent through ``time``.  Shards that are not
        protocol-quiescent (an in-flight broadcast instance or undrained
        validation event) are *skipped* this round — they keep their previous
        baseline and remain fully replayable from it, so skipping is safe and
        counted, never an error.  Checkpointing is observation-only: it reads
        shard state without scheduling events or touching protocol decisions,
        so every cadence fingerprints identically to the no-checkpoint run.
        Returns the per-shard :class:`CheckpointDelta` stream increment.
        """
        return {}

    def checkpoints(self) -> Dict[int, ShardCheckpoint]:
        """The latest full checkpoint per shard (folded from the stream)."""
        return {}

    def checkpoint_stats(self) -> Dict[str, int]:
        """Cumulative checkpoint accounting: rounds taken/skipped per shard,
        delta bytes actually shipped vs the full bytes they stand in for."""
        return {"taken": 0, "skipped": 0, "delta_bytes": 0, "full_bytes": 0}

    def replay_log_entries(self) -> int:
        """Barrier commands held in the driver-side migration replay log.

        Zero on backends that migrate without replay (serial/thread share the
        driver's live shards).  On the process pool this is the quantity
        checkpoint truncation bounds: without checkpoints it grows with the
        run, with them it tracks the window since the newest baseline.
        """
        return 0

    def finalize(self) -> None:
        """Synchronise driver-side shard state with the executed run."""

    def close(self) -> None:
        """Release session resources (worker processes, thread pools)."""


class SerialBackend(ExecutionBackend):
    """Runs every shard in the driver process, one after the other.

    This is the previous ``ClusterSystem`` execution model extracted behind
    the backend interface: single-threaded, live objects, no serialisation
    anywhere.  It is both the baseline the benchmark compares against and the
    reference the other backends must match bit-for-bit.
    """

    name = "serial"

    def __init__(self) -> None:
        self._shards: List[Shard] = []
        self._placement: Optional[PlacementPlan] = None
        # Latest full checkpoint per shard (the delta stream's fold target)
        # and the cumulative stream accounting.  In-process backends have no
        # pipe to ship deltas over, but they maintain the identical stream so
        # the checkpoint cadence — and its measured delta-vs-full ratio — is
        # comparable across all three backends.
        self._checkpoints: Dict[int, ShardCheckpoint] = {}
        self._checkpoint_stats: Dict[str, int] = {
            "taken": 0, "skipped": 0, "delta_bytes": 0, "full_bytes": 0
        }

    def open(
        self,
        shards: List[Shard],
        specs: List[ShardSpec],
        submissions: Dict[int, List[RoutedSubmission]],
        placement: Optional[PlacementPlan] = None,
        record_history: bool = False,
    ) -> None:
        self._shards = list(shards)
        self._placement = placement
        for shard in self._shards:
            shard.install_validation_collector()
            shard.start()
            _schedule_into(shard, submissions.get(shard.index, []))

    def migrate(
        self, barrier: int, time: float, moves: Sequence[Move]
    ) -> List[MigrationRecord]:
        """In-process backends migrate by bookkeeping alone.

        The shard object stays exactly where it is (there is no other
        process to move it to) — the move updates the shared placement plan
        and records the same deterministic signature the process pool would,
        so the equivalence harness can compare recorded migration streams
        across all three backends.  ``snapshot_bytes`` is measured the same
        way (the codec-encoded
        :meth:`~repro.cluster.shard.ShardSnapshot.state_view` — protocol
        state only, telemetry stripped, so the figure does not depend on
        which counters happened to be enabled), making the benchmark's
        bytes-per-move column comparable too.
        """
        if self._placement is None:
            return super().migrate(barrier, time, moves)
        records: List[MigrationRecord] = []
        for move in moves:
            self._placement.check_worker(move.worker)
            source = self._placement.worker_of(move.shard)
            if source == move.worker:
                continue
            started = _time.perf_counter()
            with _phase(
                None, self.tracer, "migrate.snapshot", cat="migration", shard=move.shard
            ):
                snapshot_bytes = encoded_size(
                    self._shards[move.shard].snapshot().state_view()
                )
            self._placement.move(move.shard, move.worker)
            record = MigrationRecord(
                barrier=barrier,
                time=time,
                shard=move.shard,
                source_worker=source,
                target_worker=move.worker,
                snapshot_bytes=snapshot_bytes,
                stall_s=_time.perf_counter() - started,
            )
            records.append(record)
            if self.metrics is not None:
                self.metrics.inc("migrate.moves")
                self.metrics.observe("migrate.snapshot_bytes", snapshot_bytes)
                self.metrics.observe("migrate.stall_s", record.stall_s)
        return records

    def advance(
        self, horizon: Optional[float], max_events: Optional[int] = None
    ) -> Dict[int, AdvanceReport]:
        results = [
            self._advance_one(shard, horizon, max_events) for shard in self._shards
        ]
        self._observe_stall(stamp for _, stamp in results)
        return {report.shard: report for report, _ in results}

    def _advance_one(
        self, shard: Shard, horizon: Optional[float], max_events: Optional[int]
    ) -> Tuple[AdvanceReport, float]:
        """One shard's advance, stamped with its completion time (the raw
        material of the ``barrier_stall`` histogram)."""
        if self.tracer is None:
            report = shard.advance(horizon, max_events)
        else:
            report = self._traced_advance(shard, horizon, max_events)
        return report, _time.perf_counter()

    def _traced_advance(
        self, shard: Shard, horizon: Optional[float], max_events: Optional[int]
    ) -> AdvanceReport:
        """One shard's advance under a ``shard.advance`` span (tid = shard)."""
        with self.tracer.span(
            "shard.advance",
            cat="shard",
            tid=1 + shard.index,
            sim_start=shard.simulator.now,
            shard=shard.index,
        ) as span:
            report = shard.advance(horizon, max_events)
            span.sim_end = report.now
        return report

    def apply_mints(
        self, time: float, mints: Dict[int, List[Tuple[ProcessId, Transfer]]]
    ) -> None:
        for index in sorted(mints):
            self._shards[index].apply_mints(time, mints[index])

    def apply_retirements(self, time: float, retirements: Dict[int, List[Transfer]]) -> None:
        for index in sorted(retirements):
            self._shards[index].apply_retirements(time, retirements[index])

    def checkpoint(self, time: float) -> Dict[int, CheckpointDelta]:
        deltas: Dict[int, CheckpointDelta] = {}
        for shard in self._shards:
            taken = shard.checkpoint()
            if taken is None:
                self._checkpoint_stats["skipped"] += 1
                if self.metrics is not None:
                    self.metrics.inc("checkpoint.skipped")
                continue
            delta = checkpoint_delta(self._checkpoints.get(shard.index), taken)
            self._checkpoints[shard.index] = taken
            delta_bytes = encoded_size(delta)
            full_bytes = encoded_size(taken)
            self._checkpoint_stats["taken"] += 1
            self._checkpoint_stats["delta_bytes"] += delta_bytes
            self._checkpoint_stats["full_bytes"] += full_bytes
            if self.metrics is not None:
                self.metrics.inc("checkpoint.taken")
                self.metrics.observe("checkpoint.delta_bytes", delta_bytes)
                self.metrics.observe("checkpoint.full_bytes", full_bytes)
            deltas[shard.index] = delta
        return deltas

    def checkpoints(self) -> Dict[int, ShardCheckpoint]:
        return dict(self._checkpoints)

    def checkpoint_stats(self) -> Dict[str, int]:
        return dict(self._checkpoint_stats)


class ThreadBackend(SerialBackend):
    """Advances shards concurrently on a thread pool.

    Shards are fully disjoint object graphs (own simulator, network, nodes,
    RNG streams), so per-epoch advancement is embarrassingly parallel and the
    only shared resource is the interpreter lock.  Determinism needs no
    locks: each shard is touched by exactly one task per epoch, and the
    reports are keyed by shard index, not completion order.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def open(
        self,
        shards: List[Shard],
        specs: List[ShardSpec],
        submissions: Dict[int, List[RoutedSubmission]],
        placement: Optional[PlacementPlan] = None,
        record_history: bool = False,
    ) -> None:
        super().open(shards, specs, submissions, placement, record_history)
        workers = self._max_workers or min(len(shards), os.cpu_count() or 1) or 1
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="shard-backend"
        )

    def advance(
        self, horizon: Optional[float], max_events: Optional[int] = None
    ) -> Dict[int, AdvanceReport]:
        assert self._pool is not None, "backend session not open"
        # Spans are recorded from the pool threads (via _advance_one);
        # list.append is atomic under the GIL, and each shard is touched by
        # exactly one task.  Reports are keyed by shard index, never by
        # completion order, so scheduling jitter cannot reorder anything.
        futures = [
            self._pool.submit(self._advance_one, shard, horizon, max_events)
            for shard in self._shards
        ]
        results = [future.result() for future in futures]
        self._observe_stall(stamp for _, stamp in results)
        return {report.shard: report for report, _ in results}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- the process-pool backend -----------------------------------------------------------------


def _replay_shard(
    spec: ShardSpec,
    submissions: List[RoutedSubmission],
    history: List[Tuple[str, float, Any]],
    horizon: float,
    checkpoint: Optional[ShardCheckpoint] = None,
) -> Shard:
    """Rebuild a migrating shard on its adopting worker, bit-identically.

    A shard is a deterministic function of its spec, its pre-partitioned
    arrivals and the barrier commands (mints/retirements) the driver shipped
    it — so the adopting worker *replays* that history rather than receiving
    live simulator state (the event queue holds closures, which can never
    cross a process boundary).  Replaying interleaves commands exactly as
    the original timeline did — advance to each command's barrier time, then
    apply — so event ``(time, sequence)`` ordering, and with it every
    protocol decision, comes out identical; the driver verifies this by
    comparing the adopted shard's snapshot against the evicted one.  The
    replayed epochs' validation events were already consumed by the original
    timeline's barriers, so their reports are dropped on the floor here.

    With a ``checkpoint``, replay is O(delta): the shard restores the frozen
    checkpoint state directly, schedules only the arrival tail after the
    checkpoint time, and replays only the command-log tail — instead of
    re-executing the whole timeline from genesis.  The checkpoint was taken
    at a protocol-quiescent barrier, so restoring it and re-running the tail
    reproduces the exact same ``(time, sequence)`` event order the original
    shard executed (the divergence check still compares full snapshots).
    """
    shard = spec.build()
    shard.install_validation_collector()
    shard.start()
    if checkpoint is None:
        _schedule_into(shard, submissions)
    else:
        shard.restore_checkpoint(checkpoint, submissions)
    for kind, at, payload in history:
        shard.advance(at)
        if kind == "mint":
            shard.apply_mints(at, payload)
        elif kind == "retire":
            shard.apply_retirements(at, payload)
        else:  # pragma: no cover - driver and worker ship the same constants
            raise SimulationError(f"unknown replay command {kind!r}")
    shard.advance(horizon)
    return shard


def _worker_main(
    connection,
    specs: List[ShardSpec],
    submissions: Dict[int, List[RoutedSubmission]],
    profile: bool = False,
) -> None:
    """One worker process: builds its shards from specs and serves commands.

    The worker is a deterministic replica of what the serial backend would
    have done for these shards: build from spec (all randomness is seeded),
    install the validation collector, start, load the pre-partitioned
    arrivals, then alternate ``advance`` / ``mint`` commands until asked for
    the final ``snapshot``.  ``evict`` detaches a migrating shard (returning
    its snapshot), ``adopt`` rehydrates one by deterministic replay.  Every
    payload crossing the pipe is framed by :mod:`repro.cluster.codec`;
    exceptions — an undecodable command frame included — travel back as
    formatted tracebacks.

    With ``profile`` the whole worker lifetime (shard build included) runs
    under a :mod:`cProfile` sampler; the ``profile`` command stops it and
    ships the raw stats dict back (a :class:`pstats.Stats` object does not
    serialise) for driver-side merging.  Profiling changes *when* things run,
    never *what* runs — command handling is identical either way.
    """
    profiler = None
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
    shards: Dict[int, Shard] = {}
    # Delta baseline per resident shard: the last checkpoint this worker
    # shipped (or adopted), diffed against on the next ``checkpoint`` round.
    # Evicting a shard drops its baseline with it; adopting installs the
    # shipped checkpoint as the new baseline so the stream stays chained.
    last_checkpoints: Dict[int, ShardCheckpoint] = {}
    for spec in specs:
        shard = spec.build()
        shard.install_validation_collector()
        shard.start()
        _schedule_into(shard, submissions.get(spec.index, []))
        shards[spec.index] = shard
    while True:
        try:
            frame = connection.recv_bytes()
        except EOFError:
            break
        try:
            # Decoded inside the ``try``: a frame this worker cannot read is
            # answered like any other failure instead of ending the process.
            command = codec_decode(frame)
            kind = command[0]
            payload = None
            if kind == "advance":
                _, horizon, max_events = command
                payload = {
                    index: shards[index].advance(horizon, max_events)
                    for index in sorted(shards)
                }
            elif kind == "mint":
                _, time, per_shard = command
                for index, mints in per_shard:
                    shards[index].apply_mints(time, mints)
            elif kind == "retire":
                _, time, per_shard = command
                for index, transfers in per_shard:
                    shards[index].apply_retirements(time, transfers)
            elif kind == "evict":
                _, indices = command
                payload = {index: shards.pop(index).snapshot() for index in indices}
                for index in indices:
                    last_checkpoints.pop(index, None)
            elif kind == "adopt":
                _, arrivals = command
                payload = {}
                for spec, routed, checkpoint, history, horizon in arrivals:
                    shard = _replay_shard(spec, routed, history, horizon, checkpoint)
                    shards[spec.index] = shard
                    if checkpoint is not None:
                        last_checkpoints[spec.index] = checkpoint
                    payload[spec.index] = shard.snapshot()
            elif kind == "checkpoint":
                payload = {}
                for index in sorted(shards):
                    taken = shards[index].checkpoint()
                    if taken is None:
                        payload[index] = None
                        continue
                    payload[index] = checkpoint_delta(last_checkpoints.get(index), taken)
                    last_checkpoints[index] = taken
            elif kind == "snapshot":
                payload = {index: shards[index].snapshot() for index in sorted(shards)}
            elif kind == "profile":
                if profiler is not None:
                    profiler.disable()
                    payload = profile_stats_dict(profiler)
                    profiler = None
            elif kind != "stop":
                raise SimulationError(f"unknown worker command {kind!r}")
            connection.send_bytes(codec_encode(("ok", payload)))
        except Exception:  # ship the traceback; the driver decides how to fail
            connection.send_bytes(codec_encode(("error", traceback.format_exc())))
            continue
        if kind == "stop":
            break
    connection.close()


class ProcessPoolBackend(ExecutionBackend):
    """Executes shards in persistent worker processes.

    Shards are assigned round-robin to ``max_workers`` long-lived workers
    (shard *state* must persist across epochs, so this is a static
    partition, not a task queue).  Per epoch the driver broadcasts the
    barrier horizon, workers advance their shards concurrently and return
    validation events; mints travel the other way.  After the run, each
    worker ships a :class:`~repro.cluster.shard.ShardSnapshot` per shard and
    :meth:`finalize` rehydrates the driver-side twins, so audits, balance
    reads and Definition 1 checks see exactly the worker's final state.

    The assignment of shards to workers affects only *where* a shard's
    deterministic event sequence is computed, never its content — results
    are identical for any worker count, which the two-worker smoke test
    pins.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._workers: List[Tuple[Any, Any]] = []  # (process, connection)
        self._placement: Optional[PlacementPlan] = None
        self._shards: List[Shard] = []
        self._specs: Dict[int, ShardSpec] = {}
        self._submissions: Dict[int, List[RoutedSubmission]] = {}
        # Per-shard barrier command log: what a migration replays on the
        # adopting worker.  Recorded only when the session is opened
        # migratable (record_history), so non-migrating runs keep the
        # driver-side memory profile they had.  Without checkpoints this log
        # grows for the whole run; every folded checkpoint truncates it to
        # the post-checkpoint tail, which bounds it by the checkpoint cadence.
        self._history: Optional[Dict[int, List[Tuple[str, float, Any]]]] = None
        # Driver-side checkpoint store: deltas arriving from the workers fold
        # into full checkpoints here, so migration can ship the latest
        # checkpoint to the adopting worker without a source round trip.
        self._checkpoints: Dict[int, ShardCheckpoint] = {}
        self._checkpoint_stats: Dict[str, int] = {
            "taken": 0, "skipped": 0, "delta_bytes": 0, "full_bytes": 0
        }
        # Per worker slot, the kinds of the commands sent and not yet
        # answered, oldest first: what a failed receive is attributed to.
        self._outstanding: List[deque] = []
        self._finalizer = None

    def open(
        self,
        shards: List[Shard],
        specs: List[ShardSpec],
        submissions: Dict[int, List[RoutedSubmission]],
        placement: Optional[PlacementPlan] = None,
        record_history: bool = False,
    ) -> None:
        self._shards = list(shards)
        self._specs = {spec.index: spec for spec in specs}
        self._submissions = {
            spec.index: submissions.get(spec.index, []) for spec in specs
        }
        if placement is None:
            worker_count = self._max_workers or min(len(shards), os.cpu_count() or 1) or 1
            worker_count = max(1, min(worker_count, len(shards)))
            placement = PlacementPlan(len(shards), worker_count)
        self._placement = placement
        self._history = {spec.index: [] for spec in specs} if record_history else None
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        per_worker_specs: List[List[ShardSpec]] = [
            [] for _ in range(placement.worker_count)
        ]
        for spec in specs:
            per_worker_specs[placement.worker_of(spec.index)].append(spec)
        self._outstanding = [deque() for _ in range(placement.worker_count)]
        for slot in range(placement.worker_count):
            parent, child = context.Pipe(duplex=True)
            worker_submissions = {
                spec.index: self._submissions[spec.index]
                for spec in per_worker_specs[slot]
            }
            process = context.Process(
                target=_worker_main,
                args=(child, per_worker_specs[slot], worker_submissions, self.profile),
                daemon=True,
                name=f"shard-worker-{slot}",
            )
            process.start()
            child.close()
            self._workers.append((process, parent))
        # Belt and braces: if the owning ClusterSystem is garbage-collected
        # without close(), reap the (daemonic) workers eagerly.
        self._finalizer = weakref.finalize(
            self, ProcessPoolBackend._shutdown, list(self._workers)
        )

    def _pipe_span(self, name: str, slot: int, **span_kwargs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, cat="pipe", tid=1 + slot, **span_kwargs)

    def _send(self, slot: int, data: bytes, kind: str) -> None:
        """Write one encoded ``kind`` command frame to worker ``slot``."""
        try:
            with self._pipe_span("pipe.send", slot, command=kind):
                self._workers[slot][1].send_bytes(data)
        except OSError as error:  # BrokenPipeError: nobody holds the other end
            raise self._worker_lost(slot, kind, error) from error
        self._outstanding[slot].append(kind)
        if self.metrics is not None:
            self.metrics.inc("pipe.commands")
            self.metrics.inc(f"pipe.{kind}")

    def _recv(self, slot: int) -> Any:
        """Block for worker ``slot``'s next reply and return its payload.

        Replies arrive in command order per pipe, so the oldest outstanding
        kind is the one this reply (or this failure) belongs to.
        """
        kind = self._outstanding[slot].popleft()
        with self._pipe_span("pipe.recv", slot):
            try:
                frame = self._workers[slot][1].recv_bytes()
            except (EOFError, OSError) as error:
                raise self._worker_lost(slot, kind, error) from error
            try:
                status, payload = codec_decode(frame)
            except Exception as error:  # whatever unpickling raises, attributed
                raise self._worker_error(
                    slot, kind, f"sent a reply that does not decode ({error!r})"
                ) from error
        if status != "ok":
            raise self._worker_error(slot, kind, f"failed:\n{payload}")
        return payload

    def _worker_error(self, slot: int, kind: str, what: str) -> SimulationError:
        """A failure at worker ``slot``'s pipe, attributed: which worker,
        holding which shards, asked for what, and whether it is still alive."""
        return SimulationError(
            f"shard worker {slot} (resident shards {self._placement.shards_on(slot)}, "
            f"command {kind!r} outstanding, exitcode {self._workers[slot][0].exitcode}) {what}"
        )

    def _worker_lost(self, slot: int, kind: str, error: Exception) -> SimulationError:
        # The pipe closes a moment before the child can be reaped; a bounded
        # join makes the reported exitcode the real one.  Detection only:
        # the shards that lived on the worker are gone with it.
        self._workers[slot][0].join(timeout=1.0)
        return self._worker_error(slot, kind, f"is gone: its pipe is closed ({error!r})")

    def _request(self, slot: int, command: tuple) -> None:
        self._send(slot, codec_encode(command), command[0])

    def _broadcast(self, command: tuple) -> None:
        """Send one identical command to every worker, encoded once.

        The per-epoch barrier exchange ships the same bytes to every
        recipient (``advance`` each epoch; ``checkpoint``, ``snapshot``,
        ``profile`` at their barriers), so the one ``bytes`` object is
        written to each pipe instead of re-encoding per recipient worker.
        """
        data = codec_encode(command)
        for slot in range(len(self._workers)):
            self._send(slot, data, command[0])

    def advance(
        self, horizon: Optional[float], max_events: Optional[int] = None
    ) -> Dict[int, AdvanceReport]:
        self._broadcast(("advance", horizon, max_events))
        payloads = self._collect_arrivals()
        reports: Dict[int, AdvanceReport] = {}
        for slot in sorted(payloads):
            reports.update(payloads[slot])
        return reports

    def _collect_arrivals(self) -> Dict[int, Any]:
        """Collect one reply per worker, in *arrival* order.

        Workers finish their epochs at different wall times; draining replies
        as they land (``multiprocessing.connection.wait``) instead of in slot
        order means a slow worker never blocks the reading of a fast one's
        reply, and the spread between the first and last arrival is exactly
        the barrier's rendezvous stall, observed into ``barrier_stall``.
        Replies are keyed by slot afterwards, so arrival order never affects
        results.
        """
        owed = {connection: slot for slot, (_, connection) in enumerate(self._workers)}
        payloads: Dict[int, Any] = {}
        stamps: List[float] = []
        while owed:
            for connection in multiprocessing.connection.wait(list(owed)):
                slot = owed.pop(connection)
                payloads[slot] = self._recv(slot)
                stamps.append(_time.perf_counter())
        self._observe_stall(stamps)
        return payloads

    def apply_mints(
        self, time: float, mints: Dict[int, List[Tuple[ProcessId, Transfer]]]
    ) -> None:
        per_slot: Dict[int, List[Tuple[int, List[Tuple[ProcessId, Transfer]]]]] = {}
        for index in sorted(mints):
            if self._history is not None:
                self._history[index].append(("mint", time, mints[index]))
            per_slot.setdefault(self._placement.worker_of(index), []).append(
                (index, mints[index])
            )
        for slot, payload in sorted(per_slot.items()):
            self._request(slot, ("mint", time, payload))
        for slot in sorted(per_slot):
            self._recv(slot)

    def apply_retirements(self, time: float, retirements: Dict[int, List[Transfer]]) -> None:
        per_slot: Dict[int, List[Tuple[int, List[Transfer]]]] = {}
        for index in sorted(retirements):
            if self._history is not None:
                self._history[index].append(("retire", time, retirements[index]))
            per_slot.setdefault(self._placement.worker_of(index), []).append(
                (index, retirements[index])
            )
        for slot, payload in sorted(per_slot.items()):
            self._request(slot, ("retire", time, payload))
        for slot in sorted(per_slot):
            self._recv(slot)

    def checkpoint(self, time: float) -> Dict[int, CheckpointDelta]:
        """One checkpoint round trip per worker; fold deltas, truncate logs.

        Each worker answers with a :class:`CheckpointDelta` per resident
        quiescent shard (``None`` for skipped ones).  The driver folds every
        delta onto its stored baseline — refusing mismatched chains — and
        then truncates that shard's replay log behind the checkpoint time:
        migration replays from the checkpoint now, so commands at or before
        it can never be needed again.  That truncation is what keeps the
        driver-side history bounded on long migratable runs.
        """
        if not self._workers:
            return {}
        self._broadcast(("checkpoint",))
        merged: Dict[int, Optional[CheckpointDelta]] = {}
        for slot in range(len(self._workers)):
            merged.update(self._recv(slot))
        deltas: Dict[int, CheckpointDelta] = {}
        for index in sorted(merged):
            delta = merged[index]
            if delta is None:
                self._checkpoint_stats["skipped"] += 1
                if self.metrics is not None:
                    self.metrics.inc("checkpoint.skipped")
                continue
            folded = fold_checkpoint(self._checkpoints.get(index), delta)
            self._checkpoints[index] = folded
            delta_bytes = encoded_size(delta)
            full_bytes = encoded_size(folded)
            self._checkpoint_stats["taken"] += 1
            self._checkpoint_stats["delta_bytes"] += delta_bytes
            self._checkpoint_stats["full_bytes"] += full_bytes
            if self.metrics is not None:
                self.metrics.inc("checkpoint.taken")
                self.metrics.observe("checkpoint.delta_bytes", delta_bytes)
                self.metrics.observe("checkpoint.full_bytes", full_bytes)
            deltas[index] = delta
            if self._history is not None:
                self._history[index] = replayable_suffix(
                    self._history[index], folded.time
                )
        return deltas

    def checkpoints(self) -> Dict[int, ShardCheckpoint]:
        return dict(self._checkpoints)

    def checkpoint_stats(self) -> Dict[str, int]:
        return dict(self._checkpoint_stats)

    def replay_log_entries(self) -> int:
        if self._history is None:
            return 0
        return sum(len(entries) for entries in self._history.values())

    def migrate(
        self, barrier: int, time: float, moves: Sequence[Move]
    ) -> List[MigrationRecord]:
        """Evict the shard from its old worker, rehydrate it on the new one.

        The shard is quiescent through ``time`` (the barrier contract), so
        the transfer is: snapshot-and-detach on the source worker, then
        deterministic replay (spec + arrivals + barrier command history) on
        the target — from the latest checkpoint when one exists, shipping
        and replaying only the post-checkpoint tail — see
        :func:`_replay_shard`.  The adopting worker's
        snapshot must equal the evicted one byte for byte *on its protocol
        state* (:meth:`~repro.cluster.shard.ShardSnapshot.state_view`);
        telemetry is excluded because the replay's advance-call pattern
        legitimately differs from the original timeline's, while a protocol
        mismatch means the replay diverged and the run aborts rather than
        silently forking the shard's timeline.  Requires the session to have
        been opened with ``record_history`` (ClusterSystem does whenever
        migration is on).
        """
        if self._placement is None:
            return super().migrate(barrier, time, moves)
        if self._history is None:
            raise ConfigurationError(
                "this process-pool session was opened without migration history; "
                "enable migration on the ClusterSystem before the first run()"
            )
        records: List[MigrationRecord] = []
        for move in moves:
            # Validate the whole move *before* evicting: failing after the
            # shard has left its old worker would strand it nowhere.
            self._placement.check_worker(move.worker)
            source = self._placement.worker_of(move.shard)
            if source == move.worker:
                continue
            started = _time.perf_counter()
            # O(delta) shipping: from the latest checkpoint (if any), only
            # the arrivals and barrier commands after the checkpoint go over
            # the pipe and get replayed; without one, the full timeline
            # replays from genesis as before.  The history log is shipped
            # as-is: folding a checkpoint already truncated it to the
            # post-checkpoint tail, and that tail legitimately starts with
            # commands recorded *at* the checkpoint time — the same-barrier
            # exchange runs after the checkpoint phase, so its commands are
            # not in the checkpoint state and must replay.  Re-filtering
            # with a strict time cut here would drop exactly those.
            baseline = self._checkpoints.get(move.shard)
            arrivals = self._submissions.get(move.shard, [])
            history = self._history[move.shard]
            if baseline is not None:
                arrivals = [s for s in arrivals if s.time > baseline.time]
            with _phase(
                None, self.tracer, "migrate.evict_adopt", cat="migration", shard=move.shard
            ):
                self._request(source, ("evict", [move.shard]))
                evicted = self._recv(source)[move.shard]
                self._request(
                    move.worker,
                    (
                        "adopt",
                        [
                            (
                                self._specs[move.shard],
                                arrivals,
                                baseline,
                                history,
                                time,
                            )
                        ],
                    ),
                )
                adopted = self._recv(move.worker)[move.shard]
            if adopted.state_view() != evicted.state_view():
                raise SimulationError(
                    f"shard {move.shard} diverged while migrating from worker "
                    f"{source} to {move.worker}: the adopting replay does not "
                    "match the evicted snapshot"
                )
            self._placement.move(move.shard, move.worker)
            record = MigrationRecord(
                barrier=barrier,
                time=time,
                shard=move.shard,
                source_worker=source,
                target_worker=move.worker,
                snapshot_bytes=encoded_size(evicted.state_view()),
                stall_s=_time.perf_counter() - started,
                delta_bytes=encoded_size((arrivals, history)),
                replayed_events=len(arrivals) + len(history),
            )
            records.append(record)
            if self.metrics is not None:
                self.metrics.inc("migrate.moves")
                self.metrics.observe("migrate.snapshot_bytes", record.snapshot_bytes)
                self.metrics.observe("migrate.delta_bytes", record.delta_bytes)
                self.metrics.observe("migrate.replayed_events", record.replayed_events)
                self.metrics.observe("migrate.stall_s", record.stall_s)
        return records

    def finalize(self) -> None:
        self._broadcast(("snapshot",))
        snapshots: Dict[int, ShardSnapshot] = {}
        for slot in range(len(self._workers)):
            snapshots.update(self._recv(slot))
        for shard in self._shards:
            shard.restore(snapshots[shard.index])

    def collect_profiles(self) -> List[dict]:
        """Stop each worker's sampler and ship its raw stats dict home.

        One round trip per worker, once per session, after the run — so the
        profile command never interleaves with epoch traffic.  Workers
        opened without ``profile`` answer ``None`` and are skipped.
        """
        if not self.profile or not self._workers:
            return []
        self._broadcast(("profile",))
        collected: List[dict] = []
        for slot in range(len(self._workers)):
            raw = self._recv(slot)
            if raw:
                collected.append(raw)
        return collected

    @staticmethod
    def _shutdown(workers: List[Tuple[Any, Any]]) -> None:
        stop = codec_encode(("stop",))
        for process, connection in workers:
            try:
                connection.send_bytes(stop)
                connection.recv_bytes()
            except (BrokenPipeError, EOFError, OSError):
                pass
            connection.close()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - hung worker safety net
                process.terminate()
                process.join(timeout=2.0)

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._workers:
            self._shutdown(self._workers)
            self._workers = []


def make_backend(name: str, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build an execution backend by name (``serial``/``thread``/``process``)."""
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(max_workers)
    if name == "process":
        return ProcessPoolBackend(max_workers)
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}"
    )


# -- the epoch-barrier scheduler --------------------------------------------------------------


class EpochScheduler:
    """Drives independent shard simulators to quiescence, barrier by barrier.

    Barrier spacing is the :class:`EpochPolicy`'s call: consecutive barriers
    sit ``epoch`` apart, where ``epoch`` starts at the policy's initial width
    and is re-decided after every taken barrier from that barrier's observed
    settlement volume (:class:`FixedEpochPolicy` reproduces the classic
    ``k * epoch`` grid).  Between barriers, shards run free on their own
    clocks; *at* a barrier the scheduler

    1. replays the epoch's collected validation events — sorted by
       ``(time, shard, sequence)`` — through the settlement fabric, which
       signs vouchers (applying any Byzantine voucher behaviours) and queues
       them with their maturity times,
    2. feeds every matured voucher to its relay (assembled certificates queue
       with maturity ``barrier + delivery_delay``),
    3. delivers every matured certificate to the destination replicas'
       inboxes, whose accept/replay/buffer decisions emit mint commands and
       signed settlement acks (queued with maturity ``barrier + ack_delay``),
    4. feeds every matured ack to its relay's return leg (assembled
       retirement certificates queue with maturity ``barrier +
       delivery_delay``) and delivers matured retirement certificates to the
       source shards' compaction gates, whose watermark decisions emit
       retirement commands, and
    5. ships the mint and retirement commands to their shards, scheduled at
       the barrier time, in deterministic order.

    Empty stretches are skipped: the next barrier is the first grid point at
    or after the earliest thing that can happen (an event on some shard, a
    maturing voucher/certificate/ack, or a just-applied mint or retirement).
    All of this is computed in the driver process from backend-reported
    values, so the barrier sequence — and with it every shard's event
    sequence — is identical whichever backend executes the epochs.
    """

    def __init__(
        self,
        epoch: Optional[float] = None,
        policy: Optional[EpochPolicy] = None,
        placement: Optional[PlacementPlan] = None,
        migration: Optional[MigrationPolicy] = None,
        metrics=None,
        tracer=None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if policy is None:
            if epoch is None:
                raise ConfigurationError("need an epoch width or an EpochPolicy")
            policy = FixedEpochPolicy(epoch)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be at least 1 barrier")
        self.policy = policy
        # Driver-side telemetry sinks (repro.obs).  Strictly write-only from
        # the scheduler's point of view: phase wall-times, exchange counters
        # and queue depths go in, nothing ever comes back out into a barrier
        # or width decision — so the schedule is identical with them off.
        self.metrics = metrics
        self.tracer = tracer
        # The *current* epoch width; FixedEpochPolicy keeps it constant.
        self.epoch = policy.initial_epoch()
        if self.epoch <= 0:
            raise ConfigurationError("epoch must be positive")
        # The shared shard -> worker plan and the (optional) policy deciding
        # placement moves at barriers.  The migrate phase runs exactly once
        # per taken barrier, at the loop top, when every shard is quiescent
        # through ``now`` — the point where moving a shard is pure state
        # transfer.
        self.placement = placement
        self.migration = migration
        self.migration_log: List[MigrationRecord] = []
        self._migrated_at_barrier = -1
        # Checkpoint cadence, in taken barriers (None = never).  The phase
        # runs at the loop top — every shard quiescent through ``now``,
        # before migration so a same-barrier move already ships O(delta) —
        # and is guarded like migration to fire once per taken barrier
        # across pause/resume re-entries.
        self.checkpoint_every = checkpoint_every
        self._checkpointed_at_barrier = -1
        self.checkpoint_rounds = 0
        # Cumulative per-shard settlement items (validations observed, mints
        # and retirements applied): the traffic half of the load signals the
        # migration policies weigh against raw simulator events.
        self._settlement_load: Dict[int, int] = {}
        self.now = 0.0
        self.barriers = 0
        # Settlement items exchanged since the last taken barrier.  Feeds the
        # policy; accumulated (never reset) across the re-entrant exchanges a
        # pause/resume causes, so the resumed decision equals the
        # uninterrupted one.
        self._volume_since_barrier = 0
        self._order = itertools.count()
        self._vouchers: List[Tuple[float, int, SettlementRelay, SettlementVoucher]] = []
        self._certificates: List[Tuple[float, int, SettlementRelay, SettlementCertificate]] = []
        self._acks: List[Tuple[float, int, SettlementRelay, SettlementAck]] = []
        self._retirement_certificates: List[
            Tuple[float, int, SettlementRelay, RetirementCertificate]
        ] = []
        self._mints: List[Tuple[int, ProcessId, Transfer]] = []
        self._retirements: List[Tuple[int, Transfer]] = []
        self._reports: Optional[Dict[int, AdvanceReport]] = None
        # Validation events executed but not yet exchanged.  Every shard runs
        # exactly to each barrier, so at the exchange the whole buffer has
        # matured (``time <= now``) and is consumed at once.
        self._event_buffer: List[ValidationEvent] = []

    # -- queues fed by the settlement fabric ---------------------------------------------------

    def enqueue_voucher(
        self, ready: float, relay: SettlementRelay, voucher: SettlementVoucher
    ) -> None:
        self._vouchers.append((ready, next(self._order), relay, voucher))

    def enqueue_certificate(
        self, relay: SettlementRelay, certificate: SettlementCertificate
    ) -> None:
        ready = self.now + relay.config.delivery_delay
        self._certificates.append((ready, next(self._order), relay, certificate))

    def enqueue_ack(self, ready: float, relay: SettlementRelay, ack: SettlementAck) -> None:
        self._acks.append((ready, next(self._order), relay, ack))

    def enqueue_retirement_certificate(
        self, relay: SettlementRelay, certificate: RetirementCertificate
    ) -> None:
        ready = self.now + relay.config.delivery_delay
        self._retirement_certificates.append(
            (ready, next(self._order), relay, certificate)
        )

    def enqueue_mint(self, shard: int, replica: ProcessId, transfer: Transfer) -> None:
        self._mints.append((shard, replica, transfer))

    def enqueue_retirement(self, shard: int, transfer: Transfer) -> None:
        self._retirements.append((shard, transfer))

    @property
    def in_flight(self) -> int:
        """Settlement traffic queued between barriers (all lifecycle legs)."""
        return (
            len(self._vouchers)
            + len(self._certificates)
            + len(self._acks)
            + len(self._retirement_certificates)
            + len(self._mints)
            + len(self._retirements)
        )

    # -- the drive loop ------------------------------------------------------------------------

    def _ingest(self, reports: Dict[int, AdvanceReport]) -> None:
        """Fold freshly collected reports into the scheduler's view.

        Validation events move into the exchange buffer and the report
        replaces the shard's previous one.  Events are consumed here exactly
        once — the report objects are stripped so a re-entrant exchange can
        never replay them.
        """
        if self._reports is None:
            self._reports = {}
        for index in sorted(reports):
            report = reports[index]
            if report.events:
                self._event_buffer.extend(report.events)
                report.events = []
            self._reports[index] = report

    def _take_matured_events(self) -> List[ValidationEvent]:
        """The whole exchange buffer, in the global ``(time, shard, index)``
        order: every shard ran exactly to ``now``, so every event matured."""
        events, self._event_buffer = self._event_buffer, []
        events.sort(key=lambda event: (event.time, event.shard, event.index))
        return events

    def _advance(
        self,
        backend: ExecutionBackend,
        horizon: float,
        budget: Optional[int],
        max_events: Optional[int],
    ) -> None:
        """Advance every shard to ``horizon`` and fold in their reports."""
        with _phase(
            self.metrics, self.tracer, "phase.advance", cat="scheduler",
            sim_start=self.now, barrier=self.barriers,
        ) as span:
            reports = backend.advance(horizon, budget)
            if span is not None:
                span.sim_end = horizon
        self._ingest(reports)
        self._check_budget(max_events)

    def run(
        self,
        backend: ExecutionBackend,
        fabric=None,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Dict[int, AdvanceReport]:
        """Advance the cluster to quiescence (or ``until``); returns the
        final per-shard reports.

        Every barrier is a global rendezvous: each shard advances exactly to
        it, then the exchange runs over everything the shards reported.
        """
        if self._reports is None:
            self._advance(backend, self.now, max_events, max_events)
        while True:
            # Migrate phase: every shard is quiescent through ``now`` here
            # (its pending events are all strictly later), so a placement
            # move is pure state transfer.  Guarded to run once per taken
            # barrier — a pause/resume re-enters this loop at the same
            # barrier and must not re-decide.
            with _phase(
                self.metrics, self.tracer, "phase.checkpoint", cat="scheduler",
                sim_start=self.now, barrier=self.barriers,
            ):
                self._maybe_checkpoint(backend)
            with _phase(
                self.metrics, self.tracer, "phase.migrate", cat="scheduler",
                sim_start=self.now, barrier=self.barriers,
            ):
                self._maybe_migrate(backend)
            with _phase(
                self.metrics, self.tracer, "phase.exchange", cat="scheduler",
                sim_start=self.now, barrier=self.barriers,
            ):
                applied = self._exchange(backend, fabric)
            if self.metrics is not None:
                self.metrics.observe("barrier.queue_depth", self.in_flight)
            if fabric is not None:
                samples = fabric.take_latency_samples()
                if samples:
                    self.policy.observe_latency(samples)
            pending = any(report.pending_events for report in self._reports.values())
            queued = (
                self._vouchers
                or self._certificates
                or self._acks
                or self._retirement_certificates
            )
            if not (pending or applied or queued):
                break
            # The width of the epoch about to run is the policy's call, based
            # on everything exchanged since the last taken barrier.  The
            # policy is stateless, and ``_volume_since_barrier`` survives an
            # ``until`` pause, so a resumed run recomputes the same width.
            width = self.policy.next_epoch(
                self.barriers, self.epoch, self._volume_since_barrier
            )
            if width <= 0:
                raise ConfigurationError(
                    f"epoch policy {self.policy.describe()} returned a "
                    f"non-positive width {width}"
                )
            target = self._next_target(applied)
            horizon = self._next_barrier(target, width)
            if until is not None and horizon > until:
                # Pause *on the grid*: the run stops at the last barrier not
                # exceeding ``until`` and a later run() resumes with exactly
                # the barrier sequence an uninterrupted run would have used.
                # If this barrier's exchange applied mint/retirement commands,
                # they are sitting as events at time ``now`` on the shard
                # simulators while ``self._reports`` predates them — breaking
                # on those stale reports would let the resumed run's
                # quiescence check miss the pending work and strand the
                # commands forever.  Execute them here (still at ``now``, so
                # the pause contract holds) and refresh the reports; event
                # times and exchange ordering are unchanged against the
                # continuous run, which executes the same events at the same
                # simulated times during its next epoch.
                if applied:
                    self._advance(
                        backend, self.now, self._remaining_budget(max_events), max_events
                    )
                break
            self.epoch = width
            self._volume_since_barrier = 0
            self._advance(backend, horizon, self._remaining_budget(max_events), max_events)
            self.now = horizon
            self.barriers += 1
            if self.metrics is not None:
                self.metrics.inc("scheduler.barriers")
        return self._reports

    def _maybe_checkpoint(self, backend: ExecutionBackend) -> None:
        """Run the periodic checkpoint round, once per taken barrier.

        Fires at every ``checkpoint_every``-th taken barrier (never at
        barrier 0 — the genesis state needs no checkpoint).  Checkpointing
        only observes shard state, so the barrier schedule, event sequences
        and fingerprints are identical whatever the cadence — the
        invariance tests pin that.
        """
        if self.checkpoint_every is None:
            return
        if self.barriers <= self._checkpointed_at_barrier:
            return
        self._checkpointed_at_barrier = self.barriers
        if self.barriers == 0 or self.barriers % self.checkpoint_every != 0:
            return
        backend.checkpoint(self.now)
        self.checkpoint_rounds += 1
        if self.metrics is not None:
            self.metrics.inc("scheduler.checkpoint_rounds")

    def _maybe_migrate(self, backend: ExecutionBackend) -> None:
        """Consult the migration policy, once per taken barrier."""
        if self.migration is None or self.placement is None:
            return
        if self.barriers <= self._migrated_at_barrier:
            return
        self._migrated_at_barrier = self.barriers
        moves = self.migration.decide(
            self.barriers, self.now, self.placement, self.current_loads()
        )
        if moves:
            self.migration_log.extend(
                backend.migrate(self.barriers, self.now, moves)
            )

    def current_loads(self) -> Dict[int, ShardLoad]:
        """Cumulative, backend-invariant per-shard load signals."""
        return {
            shard: ShardLoad(
                events=report.processed_events,
                settlement=self._settlement_load.get(shard, 0),
            )
            for shard, report in (self._reports or {}).items()
        }

    def migration_signature(self) -> List[tuple]:
        """Deterministic fingerprint of the executed migration schedule."""
        return [record.signature() for record in self.migration_log]

    def _exchange(self, backend: ExecutionBackend, fabric) -> int:
        """Run one barrier's settlement exchange; returns commands applied."""
        # Consumption is exactly-once by construction — _ingest moved the
        # events out of the reports, and this empties the buffer — so a
        # re-entrant run() (pause/resume, a run after a run) can never
        # voucher the same credit twice.
        events = self._take_matured_events()
        for event in events:
            self._settlement_load[event.shard] = (
                self._settlement_load.get(event.shard, 0) + 1
            )
        if events and self.metrics is not None:
            self.metrics.inc("exchange.validations", len(events))
        if fabric is not None:
            for event in events:
                fabric.observe_validation(
                    event.shard, event.replica, event.transfer, at=event.time
                )
        # Vouchers can assemble certificates, certificates can trigger acks,
        # and (when delays are 0) any of them can mature within the same
        # barrier, so drain all four queues to a fixed point.
        progressed = True
        while progressed:
            progressed = False
            progressed |= self._drain_matured(
                "_vouchers", lambda relay, voucher: relay.submit_voucher(voucher)
            )
            progressed |= self._drain_matured(
                "_certificates", lambda relay, certificate: relay.deliver(certificate)
            )
            progressed |= self._drain_matured(
                "_acks", lambda relay, ack: relay.submit_ack(ack)
            )
            progressed |= self._drain_matured(
                "_retirement_certificates",
                lambda relay, certificate: relay.deliver_retirement(certificate),
            )
        applied = 0
        if self._mints:
            grouped: Dict[int, List[Tuple[ProcessId, Transfer]]] = {}
            for shard, replica, transfer in self._mints:
                grouped.setdefault(shard, []).append((replica, transfer))
                self._settlement_load[shard] = self._settlement_load.get(shard, 0) + 1
            applied += len(self._mints)
            if self.metrics is not None:
                self.metrics.inc("exchange.mints", len(self._mints))
            self._mints = []
            backend.apply_mints(self.now, grouped)
        if self._retirements:
            retire_grouped: Dict[int, List[Transfer]] = {}
            for shard, transfer in self._retirements:
                retire_grouped.setdefault(shard, []).append(transfer)
                self._settlement_load[shard] = self._settlement_load.get(shard, 0) + 1
            applied += len(self._retirements)
            if self.metrics is not None:
                self.metrics.inc("exchange.retirements", len(self._retirements))
            self._retirements = []
            backend.apply_retirements(self.now, retire_grouped)
        return applied

    def _drain_matured(self, queue_name: str, deliver) -> bool:
        """Deliver every queue entry matured by ``self.now``, in maturity
        order; returns whether anything matured (the fixed-point signal).
        The exchanged count feeds the epoch policy's volume observation."""
        queue = getattr(self, queue_name)
        ready = sorted(
            (entry for entry in queue if entry[0] <= self.now),
            key=lambda entry: (entry[0], entry[1]),
        )
        if not ready:
            return False
        matured = set(id(entry) for entry in ready)
        setattr(self, queue_name, [e for e in queue if id(e) not in matured])
        for _, _, relay, payload in ready:
            deliver(relay, payload)
        self._volume_since_barrier += len(ready)
        if self.metrics is not None:
            self.metrics.inc(f"exchange.{queue_name.lstrip('_')}", len(ready))
        return True

    def _next_target(self, applied: int) -> float:
        """The earliest instant at which anything can happen next."""
        candidates: List[float] = [
            report.next_event_time
            for report in (self._reports or {}).values()
            if report.next_event_time is not None
        ]
        candidates.extend(entry[0] for entry in self._vouchers)
        candidates.extend(entry[0] for entry in self._certificates)
        candidates.extend(entry[0] for entry in self._acks)
        candidates.extend(entry[0] for entry in self._retirement_certificates)
        if applied:
            candidates.append(self.now)
        return min(candidates) if candidates else self.now

    def _next_barrier(self, target: float, width: float) -> float:
        """First barrier strictly after ``self.now``, at or after ``target``.

        Barriers step from the current barrier in multiples of the epoch
        width (``ceil`` may land one slot past ``target`` under
        floating-point division — that only costs an empty barrier), and the
        grid always advances by at least one ``width``, so the loop cannot
        stall.  Nothing is committed here: an ``until`` pause simply breaks,
        and the resumed run recomputes the identical horizon from the same
        ``now``/width/volume state.
        """
        steps = max(1, math.ceil((target - self.now) / width))
        return self.now + steps * width

    def _remaining_budget(self, max_events: Optional[int]) -> Optional[int]:
        """Events each shard may still execute in the coming epoch.

        Shards advance concurrently — in worker processes, without a shared
        counter — so the global cap is enforced at barrier granularity: every
        epoch each shard gets the cluster-wide remainder as its own ceiling,
        and :meth:`_check_budget` re-checks the cluster-wide total right
        after the epoch.  A pathological epoch can therefore overshoot the
        cap by up to ``shard_count`` times before being caught one barrier
        later — the guard is a livelock backstop, not an exact meter.
        """
        if max_events is None:
            return None
        consumed = sum(report.processed_events for report in (self._reports or {}).values())
        remaining = max_events - consumed
        if remaining <= 0:
            raise SimulationError(
                f"cluster exceeded the event budget of {max_events}; "
                "a protocol is likely flooding the network"
            )
        return remaining

    def _check_budget(self, max_events: Optional[int]) -> None:
        if max_events is None:
            return
        consumed = sum(report.processed_events for report in (self._reports or {}).values())
        if consumed > max_events:
            raise SimulationError(
                f"cluster exceeded the event budget of {max_events}; "
                "a protocol is likely flooding the network"
            )

    # -- result-side views ---------------------------------------------------------------------

    @property
    def reports(self) -> Dict[int, AdvanceReport]:
        return dict(self._reports or {})

    def events_processed(self) -> int:
        return sum(report.processed_events for report in (self._reports or {}).values())

    def duration(self) -> float:
        """Last executed event time across shards."""
        times = [report.now for report in (self._reports or {}).values()]
        return max(times) if times else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochScheduler(epoch={self.epoch}, now={self.now:.6f}, "
            f"barriers={self.barriers}, in_flight={self.in_flight})"
        )
