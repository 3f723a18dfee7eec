"""Parallel shard execution backends and the epoch-barrier scheduler.

The paper's consensus-number-1 result means shards never coordinate, so
nothing forces them onto one Python event loop: a shard's event sequence
depends only on its own schedule plus the settlement certificates it is
handed.  This module exploits that.  Each shard runs on *its own*
:class:`~repro.network.simulator.Simulator`, advanced independently up to the
next **settlement barrier**; at the barrier the (driver-process) settlement
fabric delivers the matured certificates in a deterministic order, the
resulting mints and retirements are scheduled back onto the shards' clocks,
and the next epoch is released; the rest of the barrier's settlement work
(vouchers, acks, quorum assembly) runs in the driver while the shards
advance, since that epoch never reads it.  The loop repeats until global
quiescence.

Two backends execute the per-epoch shard advancement:

* :class:`SerialBackend` — one shard after the other, in-process (today's
  single-threaded execution, extracted behind the interface).
* :class:`ProcessPoolBackend` — persistent worker processes, each owning a
  fixed subset of shards built from picklable :class:`ShardSpec`s; epochs
  exchange only plain data (validation events out, mint transfers in), and a
  final :class:`ShardSnapshot` per shard rehydrates the driver-side twins so
  every inspection and audit surface answers as usual.

The headline guarantee is **bit-identical results across backends**: the
barrier schedule, the voucher/certificate processing order (sorted by
``(time, shard, sequence)``) and the per-shard event sequences are all
deterministic functions of the cluster seed, never of wall-clock timing,
worker assignment or how the driver's work overlaps the workers'.  The
cross-backend equivalence harness
(``tests/cluster/test_backend_equivalence.py``) asserts the resulting
:meth:`~repro.cluster.result.ClusterResult.fingerprint` equality on a
seed × shards × batch × cross-shard-fraction grid.

Settlement hops between shards at barrier granularity (the ``epoch``), by
design: the only cross-shard obligation is reliable, source-ordered
certificate delivery, and that batches freely (the set-constrained-delivery
view of Imbs et al., arXiv:1706.05267).

**Worker commands.**  Driver and workers frame every command and reply
through :mod:`repro.cluster.codec` (one pickle per frame).  Commands are the
tuples ``("advance", horizon, max_events)``,
``("mint"|"retire", time, per_shard)``, ``("snapshot",)`` and ``("stop",)``;
replies are ``("ok", payload)`` or ``("error", traceback_text)``.  A
worker answers its commands in pipe order, so the driver does not wait for
the ``mint`` / ``retire`` answers: it reads them when it collects the
``advance`` that follows them.

**Overlap.**  ``advance`` takes an optional ``overlapped`` callable, the
barrier's second half: the pool runs it between dispatching the epoch and
collecting the replies, the serial backend after its shards advance.  The
scheduler decides when it may be deferred there (see :class:`EpochScheduler`),
so both backends take one path with one barrier sequence.

**Barrier fan-out.**  Commands addressed to *every* worker with identical
bytes — ``advance`` each epoch, ``snapshot`` and ``stop`` at their
barriers — are encoded once and the same ``bytes`` object is
written to each pipe (:meth:`ProcessPoolBackend._broadcast`);
only per-worker payloads (``mint``, ``retire``) are encoded per recipient.
"""

from __future__ import annotations

import abc
import itertools
import math
import os
import time as _time
import weakref
from collections import deque
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.codec import decode as codec_decode
from repro.cluster.codec import encode as codec_encode
from repro.cluster.settlement import SettlementFabric
from repro.cluster.shard import (
    AdvanceReport,
    Shard,
    ShardSnapshot,
    ShardSpec,
    ValidationEvent,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import ProcessId, Transfer
from repro.workloads.cluster_driver import RoutedSubmission

BACKEND_NAMES = ("serial", "process")


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
    only ever asks it to ``advance`` every shard to a barrier (running the
    driver's ``overlapped`` work while they do), to ``apply_mints`` the
    barrier produced, and finally to ``finalize`` so the driver-side shards
    reflect the run (a no-op for the serial backend).
    The session keeps none of the submissions once ``open`` has scheduled
    them.
    """

    name: str = "abstract"

    #: Optional telemetry sinks, attached by the deployment before ``open``.
    #: Backends only ever *write* measurements into them — no protocol
    #: decision reads them back — so results are identical with or without.
    metrics = None
    tracer = None

    def attach_telemetry(self, metrics=None, tracer=None) -> None:
        """Install the deployment's telemetry sinks on this session."""
        self.metrics = metrics
        self.tracer = tracer

    @abc.abstractmethod
    def open(
        self,
        shards: List[Shard],
        specs: List[ShardSpec],
        submissions: Dict[int, List[RoutedSubmission]],
    ) -> None:
        """Start the session: install collectors, start shards, load arrivals."""

    @abc.abstractmethod
    def advance(
        self,
        horizon: Optional[float],
        max_events: Optional[int] = None,
        overlapped: Optional[Callable[[], None]] = None,
    ) -> Dict[int, AdvanceReport]:
        """Advance every shard to ``horizon`` and collect their reports,
        calling ``overlapped()`` (if given) once while the shards advance."""

    @abc.abstractmethod
    def apply_mints(
        self, time: float, mints: Dict[int, List[Tuple[ProcessId, Transfer]]]
    ) -> None:
        """Schedule the barrier's certified mints onto the target shards."""

    @abc.abstractmethod
    def apply_retirements(self, time: float, retirements: Dict[int, List[Transfer]]) -> None:
        """Schedule the barrier's quorum-acknowledged retirements onto the
        source shards (the compaction leg of the settlement lifecycle)."""

    def finalize(self) -> None:
        """Synchronise driver-side shard state with the executed run."""

    def close(self) -> None:
        """Release session resources (worker processes)."""


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

    def open(
        self,
        shards: List[Shard],
        specs: List[ShardSpec],
        submissions: Dict[int, List[RoutedSubmission]],
    ) -> None:
        self._shards = list(shards)
        for shard in self._shards:
            shard.install_validation_collector()
            shard.start()
            _schedule_into(shard, submissions.get(shard.index, []))

    def advance(
        self,
        horizon: Optional[float],
        max_events: Optional[int] = None,
        overlapped: Optional[Callable[[], None]] = None,
    ) -> Dict[int, AdvanceReport]:
        reports = {
            shard.index: self._advance_one(shard, horizon, max_events)
            for shard in self._shards
        }
        # One process: the driver's share of the barrier runs after the shards.
        if overlapped is not None:
            overlapped()
        return reports

    def _advance_one(
        self, shard: Shard, horizon: Optional[float], max_events: Optional[int]
    ) -> AdvanceReport:
        """One shard's advance, under a ``shard.advance`` span (tid = shard)
        when tracing."""
        if self.tracer is None:
            return shard.advance(horizon, max_events)
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


# -- the process-pool backend -----------------------------------------------------------------


def _worker_main(
    connection,
    specs: List[ShardSpec],
    submissions: Dict[int, List[RoutedSubmission]],
) -> None:
    """One worker process: builds its shards from specs and serves commands.

    The worker is a deterministic replica of what the serial backend would
    have done for these shards: build from spec (all randomness is seeded),
    install the validation collector, start, load the pre-partitioned
    arrivals, then alternate ``advance`` / ``mint`` commands until asked for
    the final ``snapshot``.  Every payload crossing the pipe is framed by
    :mod:`repro.cluster.codec`;
    exceptions — an undecodable command frame included — travel back as
    formatted tracebacks (``traceback`` is imported by that reply alone, so
    the serial path, which shares this module, never loads it).
    """
    shards: Dict[int, Shard] = {}
    for spec in specs:
        shard = Shard(spec)
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
            elif kind == "snapshot":
                payload = {index: shards[index].snapshot() for index in sorted(shards)}
            elif kind != "stop":
                raise SimulationError(f"unknown worker command {kind!r}")
            connection.send_bytes(codec_encode(("ok", payload)))
        except Exception:  # ship the traceback; the driver decides how to fail
            import traceback

            connection.send_bytes(codec_encode(("error", traceback.format_exc())))
            continue
        if kind == "stop":
            break
    connection.close()


class ProcessPoolBackend(ExecutionBackend):
    """Executes shards in persistent worker processes.

    Shards are assigned round-robin to ``max_workers`` long-lived workers
    — shard ``i`` lives on worker ``i % w`` for the whole session (shard
    *state* must persist across epochs, so this is a static partition, not a
    task queue).  Per epoch the driver broadcasts the barrier horizon,
    workers advance their shards concurrently and return validation events;
    mints travel the other way.  After the run, each worker ships a
    :class:`~repro.cluster.shard.ShardSnapshot` per shard and
    :meth:`finalize` rehydrates the driver-side twins, so audits, balance
    reads and Definition 1 checks see exactly the worker's final state.

    The assignment of shards to workers affects only *where* a shard's
    deterministic event sequence is computed, never its content — results
    are identical for any worker count, which the two-worker smoke test
    pins.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        # Imported by the backend that needs them, so a serial run never
        # loads them and a pool pays at construction, not in open() or run().
        import multiprocessing
        import multiprocessing.connection

        self._context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self._wait = multiprocessing.connection.wait
        self._max_workers = max_workers
        self._workers: List[Tuple[Any, Any]] = []  # (process, connection)
        self._shards: List[Shard] = []
        # Per worker slot, the kinds of the commands sent and not yet
        # answered, oldest first: what a failed receive is attributed to.
        self._outstanding: List[deque] = []
        self._finalizer = None

    def open(
        self,
        shards: List[Shard],
        specs: List[ShardSpec],
        submissions: Dict[int, List[RoutedSubmission]],
    ) -> None:
        self._shards = list(shards)
        worker_count = self._max_workers or min(len(shards), os.cpu_count() or 1) or 1
        worker_count = max(1, min(worker_count, len(shards)))
        self._outstanding = [deque() for _ in range(worker_count)]
        for slot in range(worker_count):
            parent, child = self._context.Pipe(duplex=True)
            resident = specs[slot::worker_count]
            # The arrivals travel with the fork; ``Process.start`` drops its
            # argument references, so the driver keeps none of them.
            process = self._context.Process(
                target=_worker_main,
                args=(
                    child,
                    resident,
                    {spec.index: submissions.get(spec.index, []) for spec in resident},
                ),
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
            f"shard worker {slot} (resident shards {self._resident(slot)}, "
            f"command {kind!r} outstanding, exitcode {self._workers[slot][0].exitcode}) {what}"
        )

    def _resident(self, slot: int) -> List[int]:
        """The shards worker ``slot`` hosts: every ``i`` with ``i % w == slot``."""
        return list(range(slot, len(self._shards), len(self._workers)))

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
        recipient (``advance`` each epoch; ``snapshot`` and ``stop`` at their
        barriers), so the one ``bytes`` object is written to each pipe instead
        of re-encoding per recipient worker.
        """
        data = codec_encode(command)
        for slot in range(len(self._workers)):
            self._send(slot, data, command[0])

    def advance(
        self,
        horizon: Optional[float],
        max_events: Optional[int] = None,
        overlapped: Optional[Callable[[], None]] = None,
    ) -> Dict[int, AdvanceReport]:
        """Dispatch the epoch, run ``overlapped`` while the workers advance,
        then collect their replies; the driver's wait for them is
        ``advance.wait``.  The replies are collected even when ``overlapped``
        raises, so every pipe stays in step and the pool stays closable."""
        self._broadcast(("advance", horizon, max_events))
        try:
            if overlapped is not None:
                overlapped()
        finally:
            with _phase(self.metrics, self.tracer, "advance.wait", cat="scheduler"):
                payloads = self._collect_arrivals()
        reports: Dict[int, AdvanceReport] = {}
        for slot in sorted(payloads):
            reports.update(payloads[slot])
        return reports

    def _collect_arrivals(self) -> Dict[int, Any]:
        """Collect every reply each worker owes, in *arrival* order; a
        worker's last reply (its ``advance``) is its payload.

        Workers finish their epochs at different wall times; draining replies
        as they land (``multiprocessing.connection.wait``) instead of in slot
        order means a slow worker never blocks the reading of a fast one's
        reply, and the spread between the first and last final arrival is
        exactly the barrier's rendezvous stall, observed into
        ``barrier_stall``.  The ``mint`` / ``retire`` answers that precede an
        ``advance`` on its pipe are read here too (see :meth:`_fan_out`).
        Replies are keyed by slot afterwards, so arrival order never affects
        results.
        """
        owed = {connection: slot for slot, (_, connection) in enumerate(self._workers)}
        payloads: Dict[int, Any] = {}
        stamps: List[float] = []
        while owed:
            for connection in self._wait(list(owed)):
                slot = owed[connection]
                payload = self._recv(slot)
                if not self._outstanding[slot]:
                    del owed[connection]
                    payloads[slot] = payload
                    stamps.append(_time.perf_counter())
        if self.metrics is not None and len(stamps) >= 2:
            self.metrics.observe("barrier_stall", stamps[-1] - stamps[0])
        return payloads

    def apply_mints(
        self, time: float, mints: Dict[int, List[Tuple[ProcessId, Transfer]]]
    ) -> None:
        self._fan_out("mint", time, mints)

    def apply_retirements(self, time: float, retirements: Dict[int, List[Transfer]]) -> None:
        self._fan_out("retire", time, retirements)

    def _fan_out(self, kind: str, time: float, per_shard: Dict[int, list]) -> None:
        """Ship one barrier's ``kind`` commands to the workers hosting their
        shards (shard order within a worker).

        Nothing waits for the answers here: a worker runs its commands in
        pipe order, so the barrier's ``advance`` follows right behind, and
        :meth:`_collect_arrivals` reads the answers before that advance's
        reply — a failed command is still reported, attributed to its kind.
        The scheduler follows every barrier that applies commands with an
        advance, so none is left unanswered."""
        workers = len(self._workers)
        per_slot: Dict[int, List[Tuple[int, list]]] = {}
        for index in sorted(per_shard):
            per_slot.setdefault(index % workers, []).append((index, per_shard[index]))
        for slot, payload in sorted(per_slot.items()):
            self._request(slot, (kind, time, payload))

    def finalize(self) -> None:
        self._broadcast(("snapshot",))
        snapshots: Dict[int, ShardSnapshot] = {}
        for slot in range(len(self._workers)):
            snapshots.update(self._recv(slot))
        for shard in self._shards:
            shard.restore(snapshots[shard.index])

    @staticmethod
    def _shutdown(workers: List[Tuple[Any, Any]], owed: Optional[List[int]] = None) -> None:
        """Stop every worker: send ``stop`` and read its answer, after the
        ``owed`` replies a failed exchange left unread on that pipe."""
        stop = codec_encode(("stop",))
        for slot, (process, connection) in enumerate(workers):
            try:
                connection.send_bytes(stop)
                for _ in range(1 + (owed[slot] if owed else 0)):
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
            self._shutdown(self._workers, [len(kinds) for kinds in self._outstanding])
            self._workers = []


def make_backend(name: str, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build an execution backend by name (``serial``/``process``)."""
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(max_workers)
    raise ConfigurationError(
        f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}"
    )


# -- the epoch-barrier scheduler --------------------------------------------------------------

class EpochScheduler:
    """Drives independent shard simulators to quiescence, barrier by barrier.

    Barriers sit on a fixed grid ``epoch`` apart: the shards meet only
    there, which is all the synchronisation a consensus-number-1 object
    needs.  Between barriers, shards run free on their own clocks; *at* a
    barrier the scheduler runs the settlement exchange in two halves.  The
    first half (:meth:`_release`) decides everything the next epoch reads:

    1. it delivers every matured certificate to the destination replicas'
       inboxes, whose accept/replay/buffer decisions emit mint commands and
       decide the replicas' settlement acks,
    2. it delivers every matured retirement certificate to the source
       shards' compaction gates, whose watermark decisions emit retirement
       commands, and
    3. it ships the mint and retirement commands to their shards, scheduled
       at the barrier time, in deterministic order.

    The second half (:meth:`_settle`) is the settlement work the next epoch
    never reads:

    4. it replays the epoch's collected validation events — sorted by
       ``(time, shard, sequence)`` — through the settlement fabric, which
       signs vouchers (applying any Byzantine voucher behaviours) and queues
       them with their maturity times, and feeds every matured voucher to its
       relay (assembled certificates queue with maturity ``barrier +
       DELIVERY_DELAY``), then
    5. signs and dispatches the acks step 1 decided (maturity ``barrier +
       ACK_DELAY``) and feeds every matured ack to its relay's return leg
       (assembled retirement certificates queue with maturity ``barrier +
       DELIVERY_DELAY``).

    Each queue drains once per barrier, by ``(ready, order)``: certificates
    and retirement certificates in the first half, vouchers and acks in the
    second.  That is exact, not an approximation of a fixed point.  Every
    settlement delay is positive (the link delays are positive constants, and
    a behaviour's extra delay is refused below zero), so whatever a handler
    queues matures strictly after this barrier; the only entries that mature
    at the barrier that queues them are step 4's vouchers, and they are
    queued before the voucher drain.  The halves share no state within a
    barrier except a slot's fabric record, which step 2 may retire before
    step 4 replays a late validation of it — and the fabric records no slot
    at or below its gate's watermark, so that order changes nothing.

    Because the next epoch reads nothing the second half writes, the
    scheduler defers it into the shards' advance (the backend's
    ``overlapped`` callable: the pool runs it while its workers advance)
    whenever that cannot change the next barrier.  The second half only
    *adds* settlement traffic, so it can only lower the next barrier's
    target: it is deferred exactly when the barrier computed without it is
    already the next grid point.  Otherwise — and before a quiescence break
    or an ``until`` pause — it runs in the barrier's exchange, so every
    backend sees the barrier sequence of an exchange that runs both halves
    at every barrier, and nothing deferred outlives :meth:`run`.

    Empty stretches are skipped: the next barrier is the first grid point at
    or after the earliest thing that can happen (an event on some shard, a
    maturing voucher/certificate/ack, or a just-applied mint or retirement).
    All of this is computed in the driver process from backend-reported
    values, so the barrier sequence — and with it every shard's event
    sequence — is identical whichever backend executes the epochs.
    """

    def __init__(self, epoch: float, metrics=None, tracer=None) -> None:
        # ``0 < x < inf`` is false for NaN too, which ``x <= 0`` would let through.
        if not 0 < epoch < math.inf:
            raise ConfigurationError(f"epoch width must be finite and positive, not {epoch}")
        self.epoch = epoch
        # Driver-side telemetry sinks (repro.obs).  Strictly write-only from
        # the scheduler's point of view: phase wall-times, exchange counters
        # and queue depths go in, nothing ever comes back out into a barrier
        # decision — so the schedule is identical with them off.
        self.metrics = metrics
        self.tracer = tracer
        self.now = 0.0
        self.barriers = 0
        self._order = itertools.count()
        # The settlement queues: ``(ready, order, handler, payload)`` entries
        # whose handler — a relay stream's ``submit`` or the fabric's
        # ``_deliver`` — the exchange calls once the entry matures.
        self._queues: Dict[str, List[Tuple[float, int, Callable[[Any], Any], Any]]] = {
            name: [] for name in ("vouchers", "certificates", "acks", "retirement_certificates")
        }
        # The barrier's mint and retirement commands, per shard, in the
        # order the inboxes and gates decided them.
        self._mints: Dict[int, List[Tuple[ProcessId, Transfer]]] = {}
        self._retirements: Dict[int, List[Transfer]] = {}
        self._reports: Optional[Dict[int, AdvanceReport]] = None
        # Validation events executed but not yet exchanged.  Every shard runs
        # exactly to each barrier, so at the barrier's second half the whole
        # buffer has matured (``time <= now``) and is consumed at once.
        self._event_buffer: List[ValidationEvent] = []

    # -- queues fed by the settlement fabric ---------------------------------------------------

    def enqueue(
        self, queue: str, ready: float, handler: Callable[[Any], Any], payload: Any
    ) -> None:
        """Call ``handler(payload)`` at the first exchange at or after
        ``ready``; ``queue`` names one of the four settlement queues."""
        self._queues[queue].append((ready, next(self._order), handler, payload))

    def queued(self, queue: str) -> int:
        """Entries waiting on one of the four settlement queues."""
        return len(self._queues[queue])

    def enqueue_mint(self, shard: int, replica: ProcessId, transfer: Transfer) -> None:
        self._mints.setdefault(shard, []).append((replica, transfer))

    def enqueue_retirements(self, shard: int, transfers: List[Transfer]) -> None:
        self._retirements.setdefault(shard, []).extend(transfers)

    @property
    def in_flight(self) -> int:
        """Settlement traffic queued between barriers (all lifecycle legs)."""
        return (
            sum(len(queue) for queue in self._queues.values())
            + sum(len(mints) for mints in self._mints.values())
            + sum(len(transfers) for transfers in self._retirements.values())
        )

    @property
    def quiescent(self) -> bool:
        """Whether a run has drained: no shard event, no settlement traffic."""
        return (
            self._reports is not None
            and not self.in_flight
            and not self._event_buffer
            and not any(report.pending_events for report in self._reports.values())
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
        order: every shard ran exactly to ``now``, so every event matured.
        ``(shard, index)`` is unique in an exchange, so the events' own tuple
        order is that order and the sort never compares a transfer."""
        events, self._event_buffer = self._event_buffer, []
        events.sort()
        return events

    def _advance(
        self,
        backend: ExecutionBackend,
        horizon: float,
        max_events: Optional[int],
        step: bool = False,
        overlapped: Optional[Callable[[], None]] = None,
    ) -> None:
        """Advance every shard to ``horizon`` and fold in their reports; with
        ``step``, the horizon becomes the scheduler's next barrier.  The
        backend calls ``overlapped`` (a deferred second half, timed as
        ``exchange.overlapped``) while the shards advance, before ``now``
        moves.

        The first advance of a session gives every shard the whole
        ``max_events``; later ones give each the cluster-wide remainder.
        """
        with _phase(
            self.metrics, self.tracer, "phase.advance", cat="scheduler",
            sim_start=self.now, barrier=self.barriers,
        ) as span:
            budget = max_events if self._reports is None else self._remaining_budget(max_events)
            reports = backend.advance(horizon, budget, overlapped)
            if span is not None:
                span.sim_end = horizon
            self._ingest(reports)
            self._check_budget(max_events)
            if step:
                self.now = horizon
                self.barriers += 1
                if self.metrics is not None:
                    self.metrics.inc("scheduler.barriers")

    def run(
        self,
        backend: ExecutionBackend,
        fabric: SettlementFabric,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Dict[int, AdvanceReport]:
        """Advance the cluster to quiescence (or ``until``); returns the
        final per-shard reports.

        Every barrier is a global rendezvous: each shard advances exactly to
        it, then the exchange runs over everything the shards reported.
        ``max_events`` is ``None`` or an ``int`` >= 0, refused up front
        otherwise: a NaN budget compares false and would disable the guard.
        The loop is two phases with only the pause test between them:
        ``phase.exchange`` holds the barrier's first half and the decision
        where (and whether) to go next — with the second half too, unless it
        is deferred — and ``phase.advance`` the shards' epoch, any deferred
        second half (``exchange.overlapped``) and the bookkeeping of the
        reports, so the two tile the loop's wall time.
        """
        if max_events is not None and not (type(max_events) is int and max_events >= 0):
            raise SimulationError(f"event budget must be None or an int >= 0, not {max_events!r}")
        if self._reports is None:
            self._advance(backend, self.now, max_events)
        while True:
            overlapped = None
            with _phase(
                self.metrics, self.tracer, "phase.exchange", cat="scheduler",
                sim_start=self.now, barrier=self.barriers,
            ):
                applied = self._release(backend)
                target = self._next_target(applied)
                horizon = None if target is None else self._next_barrier(target)
                if horizon == self.now + self.epoch and (until is None or horizon <= until):
                    # The second half can only lower the target, and this
                    # horizon is already the lowest the grid allows.
                    overlapped = partial(self._overlapped, fabric)
                else:
                    self._settle(fabric)
                    target = self._next_target(applied)
                    if target is None:
                        break
                    horizon = self._next_barrier(target)
                paused = until is not None and horizon > until
            if paused:
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
                    self._advance(backend, self.now, max_events)
                break
            self._advance(backend, horizon, max_events, step=True, overlapped=overlapped)
        return self._reports

    def _release(self, backend: ExecutionBackend) -> int:
        """The barrier's first half: deliver the matured certificates and
        retirement certificates, then ship the mint and retirement commands
        they decided; returns how many commands were applied."""
        self._drain_matured("certificates")
        self._drain_matured("retirement_certificates")
        applied = 0
        mints, self._mints = self._mints, {}
        if mints:
            applied += self._count_commands("exchange.mints", mints)
            backend.apply_mints(self.now, mints)
        retirements, self._retirements = self._retirements, {}
        if retirements:
            applied += self._count_commands("exchange.retirements", retirements)
            backend.apply_retirements(self.now, retirements)
        return applied

    def _settle(self, fabric: SettlementFabric) -> None:
        """The barrier's second half: replay the validation events, drain the
        matured vouchers, sign and dispatch the acks the first half decided,
        drain the matured acks.  Everything it queues matures after ``now``."""
        # Consumption is exactly-once by construction — _ingest moved the
        # events out of the reports, and this empties the buffer — so a
        # re-entrant run() (pause/resume, a run after a run) can never
        # voucher the same credit twice.
        events = self._take_matured_events()
        if events and self.metrics is not None:
            self.metrics.inc("exchange.validations", len(events))
        for time, shard, _, replica, transfer in events:
            fabric.observe_validation(shard, replica, transfer, time)
        self._drain_matured("vouchers")
        fabric.dispatch_acks()
        self._drain_matured("acks")
        if self.metrics is not None:
            self.metrics.observe("barrier.queue_depth", self.in_flight)

    def _overlapped(self, fabric: SettlementFabric) -> None:
        """A deferred second half, run by the backend while the shards
        advance to the next barrier."""
        with _phase(
            self.metrics, self.tracer, "exchange.overlapped", cat="scheduler",
            sim_start=self.now, barrier=self.barriers,
        ):
            self._settle(fabric)

    def _count_commands(self, counter: str, per_shard: Dict[int, list]) -> int:
        """Add a barrier's per-shard commands to ``counter``; returns how
        many there are."""
        count = sum(len(commands) for commands in per_shard.values())
        if self.metrics is not None:
            self.metrics.inc(counter, count)
        return count

    def _drain_matured(self, name: str) -> None:
        """Run every entry of queue ``name`` matured by ``self.now``, by
        ``(ready, order)``; one partitioning pass keeps the rest queued."""
        now = self.now
        ready = []
        waiting = []
        for entry in self._queues[name]:
            if entry[0] <= now:
                ready.append(entry)
            else:
                waiting.append(entry)
        if not ready:
            return
        self._queues[name] = waiting
        # Orders are unique, so the tuple sort decides on ``(ready, order)``
        # and never compares a handler.
        ready.sort()
        for _, _, handler, payload in ready:
            handler(payload)
        if self.metrics is not None:
            self.metrics.inc(f"exchange.{name}", len(ready))

    def _next_target(self, applied: int) -> Optional[float]:
        """The earliest instant at which anything can happen after this
        barrier's drains, or ``None`` when nothing can (quiescence).

        Queue entries matured by ``now`` are left out: the second half drains
        them, and after it none is left."""
        now = self.now
        candidates: List[float] = [
            report.next_event_time
            for report in (self._reports or {}).values()
            if report.next_event_time is not None
        ]
        for queue in self._queues.values():
            candidates.extend(entry[0] for entry in queue if entry[0] > now)
        if applied:
            candidates.append(now)
        return min(candidates, default=None)

    def _next_barrier(self, target: float) -> float:
        """First barrier strictly after ``self.now``, at or after ``target``.

        Barriers step from the current barrier in multiples of ``epoch``
        (``ceil`` may land one slot past ``target`` under floating-point
        division — that only costs an empty barrier), and the grid always
        advances by at least one epoch, so the loop cannot stall.  Nothing
        is committed here: an ``until`` pause simply breaks, and the resumed
        run recomputes the identical horizon from the same ``now``.
        """
        steps = max(1, math.ceil((target - self.now) / self.epoch))
        return self.now + steps * self.epoch

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
