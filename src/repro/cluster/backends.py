"""Parallel shard execution backends and the epoch-barrier scheduler.

The paper's consensus-number-1 result means shards never coordinate, so
nothing forces them onto one Python event loop: a shard's event sequence
depends only on its own schedule plus the settlement certificates it is
handed.  This module exploits that.  Each shard runs on *its own*
:class:`~repro.network.simulator.Simulator`, advanced independently up to the
next **settlement barrier**; at the barrier the (driver-process) settlement
fabric hands the matured certificates to the shards they license, in a
deterministic order, each shard decides and schedules its mints and
retirements on its own clock, and the next epoch is released; the rest of
the barrier's settlement work (sending the vouchers and acks the shards
signed, quorum assembly) runs in the driver while the shards advance, since
that epoch never reads it.  The loop repeats until global quiescence.

Two backends execute the per-epoch shard advancement:

* :class:`SerialBackend` — one shard after the other, in-process (today's
  single-threaded execution, extracted behind the interface).
* :class:`ProcessPoolBackend` — persistent worker processes, each owning a
  fixed subset of shards built from picklable :class:`ShardSpec`s; epochs
  exchange only plain data (signed voucher and ack rows out, certificates in),
  and a final :class:`ShardSnapshot` per shard rehydrates the driver-side
  twins so every inspection and audit surface answers as usual.

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

**Worker commands.**  A worker is a :class:`SerialBackend` over its
resident shards, behind a pipe.  Driver and workers frame every command and
reply through :mod:`repro.cluster.codec` (one pickle per frame).  Commands
are the tuples ``("advance", horizon, max_events)``, ``("apply", time,
{index: (certificates, retirements)})``, ``("snapshot", index)`` and
``("stop",)``; replies are ``("ok", payload)`` or ``("error",
traceback_text)``.  An ``apply`` carries each commanded shard's matured
certificates, as ``(position, SettlementCertificate)`` pairs, and its
matured :class:`~repro.cluster.settlement.RetirementCertificate` s, in
delivery order; the shard decides what they license, so no transfer travels
in one.  An ``advance`` payload is ``(reports, finished)``: the per-shard
reports, which carry the epoch's voucher rows and the last apply's ack rows,
and the worker's ``time.monotonic()`` once its last shard advanced, which
only ``barrier_stall`` reads.  A ``snapshot`` payload is the one
:class:`ShardSnapshot` it names.  A worker answers its commands in pipe
order, so the driver does not wait for an ``apply`` answer: it reads it when
it collects the ``advance`` that follows it.

**Overlap.**  ``advance`` takes an optional ``overlapped`` callable, the
barrier's second half: the pool runs it between dispatching the epoch and
collecting the replies, the serial backend after its shards advance.  The
scheduler decides when it may be deferred there (see :class:`EpochScheduler`),
so both backends take one path with one barrier sequence.

**Barrier fan-out.**  Commands addressed to *every* worker with identical
bytes — ``advance`` each epoch and ``stop`` at the end — are encoded once
and the same ``bytes`` object is written to each pipe
(:meth:`ProcessPoolBackend._broadcast`).  A barrier's settlement commands
travel as one ``apply`` frame per worker that hosts a commanded shard, and
``snapshot`` goes per shard.
"""

from __future__ import annotations

import abc
import itertools
import math
import os
import time as _time
import weakref
from collections import deque
from contextlib import contextmanager
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.codec import decode as codec_decode
from repro.cluster.codec import encode as codec_encode
from repro.cluster.settlement import RetirementCertificate, SettlementCertificate, SettlementFabric
from repro.cluster.shard import AdvanceReport, Shard, ShardSnapshot, ShardSpec, certificate_check
from repro.common.errors import ConfigurationError, SimulationError
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.workloads.cluster_driver import RoutedSubmission

BACKEND_NAMES = ("serial", "process")


@contextmanager
def _phase(metrics, tracer, name, **span_kwargs):
    """Time a driver-side phase into a histogram and a span.

    Telemetry sinks are write-only here: nothing the protocol computes ever
    reads the measured durations, so they cannot perturb a result (the
    telemetry invariant).  An untraced run's ``tracer`` is
    :data:`~repro.obs.NULL_TRACER`, which drops the span.
    """
    started = _time.perf_counter()
    try:
        with tracer.span(name, **span_kwargs) as span:
            yield span
    finally:
        metrics.observe(name, _time.perf_counter() - started)


# -- the backend interface --------------------------------------------------------------------

#: One shard's settlement commands at a barrier: the ``(delivery position,
#: certificate)`` pairs for its inboxes, then the retirement certificates.
ShardCommands = Tuple[List[Tuple[int, SettlementCertificate]], List[RetirementCertificate]]


class ExecutionBackend(abc.ABC):
    """Executes the per-epoch shard advancement for the barrier scheduler.

    A backend session is *opened* once with the driver-side shard objects
    and the pre-partitioned submissions; after that the scheduler only ever
    asks it to ``advance`` every shard to a barrier (running the driver's
    ``overlapped`` work while they do), to ``apply`` the certificates the
    barrier delivers, one ``(certificates, retirements)`` pair per commanded
    shard, and finally to ``finalize`` so the driver-side shards reflect the
    run (a no-op for the serial backend).  The session keeps none of the
    submissions once ``open`` has scheduled them.
    """

    name: str = "abstract"

    #: Telemetry sinks, attached by the deployment before ``open``.  Backends
    #: only ever *write* measurements into them — no protocol decision reads
    #: them back — so no sink changes a result.  A pool worker's host gets
    #: none: it records no metric, and its spans go to the null tracer.
    metrics: Optional[MetricsRegistry] = None
    tracer = NULL_TRACER

    def attach_telemetry(self, metrics: MetricsRegistry, tracer=NULL_TRACER) -> None:
        """Install the deployment's telemetry sinks on this session."""
        self.metrics = metrics
        self.tracer = tracer

    @abc.abstractmethod
    def open(self, shards: List[Shard], submissions: Dict[int, List[RoutedSubmission]]) -> None:
        """Start the session: hand the replicas their keys and the shards the
        key directory, start the shards, load the arrivals."""

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
    def apply(self, time: float, commands: Dict[int, ShardCommands]) -> None:
        """Hand a barrier's certificates to their shards at ``time``: each
        shard's settlement certificates, then its retirement certificates."""

    def finalize(self) -> None:
        """Synchronise driver-side shard state with the executed run."""

    def close(self) -> None:
        """Release session resources (worker processes)."""


class SerialBackend(ExecutionBackend):
    """Runs every shard it hosts in this process, one after the other.

    This is the previous ``ClusterSystem`` execution model extracted behind
    the backend interface: single-threaded, live objects, no serialisation
    anywhere.  It is both the baseline the benchmark compares against and the
    reference the other backends must match bit-for-bit.  Shards are keyed by
    index, so it hosts any subset of a cluster's shards: a pool worker is one
    of these over its resident shards.
    """

    name = "serial"

    def __init__(self) -> None:
        self._shards: Dict[int, Shard] = {}

    def open(
        self,
        shards: List[Shard],
        submissions: Dict[int, List[RoutedSubmission]],
        others: List[ShardSpec] = (),
    ) -> None:
        """``others``, the specs of the shards hosted elsewhere, build their
        checks in the key directory; a hosted shard's uses its own scheme's
        keys.  Every check counts in the checking shard's registry."""
        self._shards = {shard.index: shard for shard in shards}
        signers = [(shard.spec(), shard.scheme) for shard in shards]
        signers += [(spec, None) for spec in others]
        for shard in shards:
            shard.install_validation_collector(
                {spec.index: certificate_check(spec, shard.metrics, scheme) for spec, scheme in signers}
            )
            shard.start()
            # The pre-partitioned arrivals, in list order.
            for submission in submissions.get(shard.index, ()):
                shard.submit(
                    time=submission.time,
                    issuer=submission.issuer,
                    destination=submission.destination,
                    amount=submission.amount,
                )

    def advance(
        self,
        horizon: Optional[float],
        max_events: Optional[int] = None,
        overlapped: Optional[Callable[[], None]] = None,
    ) -> Dict[int, AdvanceReport]:
        reports = {
            index: self._advance_one(shard, horizon, max_events)
            for index, shard in self._shards.items()
        }
        # One process: the driver's share of the barrier runs after the shards.
        if overlapped is not None:
            overlapped()
        return reports

    def _advance_one(
        self, shard: Shard, horizon: Optional[float], max_events: Optional[int]
    ) -> AdvanceReport:
        """One shard's advance, under a ``shard.advance`` span (tid = shard)."""
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

    def apply(self, time: float, commands: Dict[int, ShardCommands]) -> None:
        for index in sorted(commands):
            self._shards[index].apply(time, *commands[index])


# -- the process-pool backend -----------------------------------------------------------------


def _worker_main(
    connection,
    specs: List[ShardSpec],
    submissions: Dict[int, List[RoutedSubmission]],
    others: List[ShardSpec] = (),
) -> None:
    """One worker process: a :class:`SerialBackend` over its resident shards,
    serving the driver's commands.

    The worker is a deterministic replica of what the serial backend does
    for these shards, because it *is* one: the shards are built from spec
    (all randomness is seeded), the backend opens them over their
    pre-partitioned arrivals and the other shards' specs (for the key
    directory), and the ``advance`` / ``apply`` commands go to it until the
    driver asks for the final ``snapshot`` of each shard.  A command naming
    a shard hosted elsewhere fails.  Every payload crossing the pipe is
    framed by :mod:`repro.cluster.codec`; exceptions — an undecodable
    command frame included — travel back as formatted tracebacks
    (``traceback`` is imported by that reply alone, so the serial path,
    which shares this module, never loads it).
    """
    host = SerialBackend()
    host.open([Shard(spec) for spec in specs], submissions, others)
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
                # CLOCK_MONOTONIC is system-wide, so the driver can compare
                # the workers' finish stamps; they never enter a report.
                payload = (host.advance(horizon, max_events), _time.monotonic())
            elif kind == "apply":
                _, time, commands = command
                host.apply(time, commands)
            elif kind == "snapshot":
                _, index = command
                payload = host._shards[index].snapshot()
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
    workers advance their shards concurrently and return signed voucher and
    ack rows; the barrier's certificates travel the other way.  After the run,
    each worker ships a :class:`~repro.cluster.shard.ShardSnapshot` per shard
    and :meth:`finalize` rehydrates the driver-side twins, so audits, balance
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

    def open(self, shards: List[Shard], submissions: Dict[int, List[RoutedSubmission]]) -> None:
        self._shards = list(shards)
        worker_count = self._max_workers or min(len(shards), os.cpu_count() or 1) or 1
        worker_count = max(1, min(worker_count, len(shards)))
        self._outstanding = [deque() for _ in range(worker_count)]
        for slot in range(worker_count):
            parent, child = self._context.Pipe(duplex=True)
            resident = self._shards[slot::worker_count]
            # The arrivals travel with the fork; ``Process.start`` drops its
            # argument references, so the driver keeps none of them.
            process = self._context.Process(
                target=_worker_main,
                args=(
                    child,
                    [shard.spec() for shard in resident],
                    {shard.index: submissions.get(shard.index, []) for shard in resident},
                    [shard.spec() for shard in self._shards if shard not in resident],
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

    def _send(self, slot: int, data: bytes, kind: str, shard: Optional[int] = None) -> None:
        """Write one encoded ``kind`` command frame to worker ``slot``; a
        failure is attributed to ``shard`` too when the command names one."""
        command = kind if shard is None else f"{kind} of shard {shard}"
        try:
            with self.tracer.span("pipe.send", cat="pipe", tid=1 + slot, command=kind):
                self._workers[slot][1].send_bytes(data)
        except OSError as error:  # BrokenPipeError: nobody holds the other end
            raise self._worker_lost(slot, command, error) from error
        self._outstanding[slot].append(command)
        self.metrics.inc("pipe.commands")
        self.metrics.inc(f"pipe.{kind}")

    def _recv(self, slot: int) -> Any:
        """Block for worker ``slot``'s next reply and return its payload.

        Replies arrive in command order per pipe, so the oldest outstanding
        command is the one this reply (or this failure) belongs to.
        """
        command = self._outstanding[slot].popleft()
        with self.tracer.span("pipe.recv", cat="pipe", tid=1 + slot):
            try:
                frame = self._workers[slot][1].recv_bytes()
            except (EOFError, OSError) as error:
                raise self._worker_lost(slot, command, error) from error
            try:
                status, payload = codec_decode(frame)
            except Exception as error:  # whatever unpickling raises, attributed
                raise self._worker_error(
                    slot, command, f"sent a reply that does not decode ({error!r})"
                ) from error
        if status != "ok":
            raise self._worker_error(slot, command, f"failed:\n{payload}")
        return payload

    def _worker_error(self, slot: int, command: str, what: str) -> SimulationError:
        """A failure at worker ``slot``'s pipe, attributed: which worker,
        holding which shards, asked for what, and whether it is still alive."""
        return SimulationError(
            f"shard worker {slot} (resident shards {self._resident(slot)}, "
            f"command {command!r} outstanding, exitcode {self._workers[slot][0].exitcode}) {what}"
        )

    def _resident(self, slot: int) -> List[int]:
        """The shards worker ``slot`` hosts: every ``i`` with ``i % w == slot``."""
        return list(range(slot, len(self._shards), len(self._workers)))

    def _worker_lost(self, slot: int, command: str, error: Exception) -> SimulationError:
        # The pipe closes a moment before the child can be reaped; a bounded
        # join makes the reported exitcode the real one.  Detection only:
        # the shards that lived on the worker are gone with it.
        self._workers[slot][0].join(timeout=1.0)
        return self._worker_error(slot, command, f"is gone: its pipe is closed ({error!r})")

    def _request(self, slot: int, command: tuple) -> None:
        self._send(slot, codec_encode(command), command[0])

    def _broadcast(self, command: tuple) -> None:
        """Send one identical command to every worker, encoded once.

        The per-epoch barrier exchange ships the same bytes to every
        recipient (``advance`` each epoch), so the one ``bytes`` object is
        written to each pipe instead of re-encoding per recipient worker.
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
        """Collect an epoch's replies, in *arrival* order; a worker's last
        reply (its ``advance``) gives its reports.

        Workers finish their epochs at different wall times; draining replies
        as they land (:meth:`_replies`) instead of in slot order means a slow
        worker never blocks the reading of a fast one's reply.  Each
        ``advance`` reply carries the worker's own monotonic stamp of when its
        last shard finished, so the barrier's rendezvous stall observed into
        ``barrier_stall`` is the spread of those stamps, however late the
        driver reads them (it reads only after an overlapped second half).
        The ``apply`` answer that precedes an ``advance`` on its pipe is read
        here too.  Reports are keyed by slot afterwards, so arrival order
        never affects results.
        """
        payloads: Dict[int, Any] = {}
        finished: List[float] = []
        for slot, payload, last in self._replies():
            if last:
                payloads[slot], stamp = payload
                finished.append(stamp)
        if len(finished) >= 2:
            self.metrics.observe("barrier_stall", max(finished) - min(finished))
        return payloads

    def _replies(self):
        """Yield ``(slot, payload, last)`` for every outstanding command on
        every pipe, in arrival order (``multiprocessing.connection.wait``);
        ``last`` marks the answer to a pipe's last outstanding command.

        No local keeps a payload across the ``yield``, so a caller that drops
        it holds none while the next frame decodes."""
        owed = {
            connection: slot
            for slot, (_, connection) in enumerate(self._workers)
            if self._outstanding[slot]
        }
        while owed:
            for connection in self._wait(list(owed)):
                slot = owed[connection]
                yield slot, self._recv(slot), not self._outstanding[slot]
                if not self._outstanding[slot]:
                    del owed[connection]

    def apply(self, time: float, commands: Dict[int, ShardCommands]) -> None:
        """Ship one ``apply`` frame to each worker hosting a commanded shard.

        Nothing waits for the answers here: a worker runs its commands in
        pipe order, so the barrier's ``advance`` follows right behind, and
        :meth:`_collect_arrivals` reads the answer before that advance's
        reply — a failed ``apply`` is still reported, attributed to its
        command.  The scheduler follows every barrier that applies commands
        with an advance, so none is left unanswered."""
        workers = len(self._workers)
        per_slot: Dict[int, Dict[int, ShardCommands]] = {}
        for index in sorted(commands):
            per_slot.setdefault(index % workers, {})[index] = commands[index]
        for slot in sorted(per_slot):
            self._request(slot, ("apply", time, per_slot[slot]))

    def finalize(self) -> None:
        """Ship every shard's final state home, one shard per frame.

        Each worker is asked for each of its resident shards by its own
        ``("snapshot", index)``.  The replies are read in arrival order, as
        an epoch's are, and each one restores its driver-side twin before the
        next frame is decoded: the driver holds one decoded shard at a time,
        and decodes while the workers are still encoding.  A failed snapshot
        is raised naming its shard.
        """
        for slot in range(len(self._workers)):
            for index in self._resident(slot):
                self._send(slot, codec_encode(("snapshot", index)), "snapshot", index)
        for _, snapshot, _ in self._replies():
            self._shards[snapshot.index].restore(snapshot)
            del snapshot  # gone before the next frame is decoded

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


def _budget_exceeded(max_events: int) -> SimulationError:
    return SimulationError(
        f"cluster exceeded the event budget of {max_events}; "
        "a protocol is likely flooding the network"
    )


class EpochScheduler:
    """Drives independent shard simulators to quiescence, barrier by barrier.

    Barriers sit on a fixed grid ``epoch`` apart: the shards meet only
    there, which is all the synchronisation a consensus-number-1 object
    needs.  Between barriers, shards run free on their own clocks; *at* a
    barrier the scheduler runs the settlement exchange in two halves.  The
    first half (:meth:`_release`) is everything the next epoch reads:

    1. it delivers every matured certificate and retirement certificate,
       which the fabric accounts for and hands over (:meth:`hand_over`) to
       the shard it licenses, and
    2. ships each commanded shard its ``(certificates, retirements)`` pair
       in one ``apply`` call at the barrier time, where its inboxes decide
       and post the mints and its gate the retirements.

    The second half (:meth:`_settle`) is the settlement work the next epoch
    never reads:

    3. it hands the epoch's voucher rows — sorted by ``(time, shard,
       index)`` — to the settlement fabric, which queues each voucher with
       its maturity time (applying any Byzantine voucher behaviours), and
       feeds every matured voucher to its relay (assembled certificates
       queue with maturity ``barrier + DELIVERY_DELAY``), then
    4. hands the ack rows of the previous barrier's mints — sorted by
       delivery position, the order the inboxes decided them in — to the
       fabric (maturity ``their barrier + ACK_DELAY``) and feeds every
       matured ack to its relay's return leg (assembled retirement
       certificates queue with maturity ``barrier + DELIVERY_DELAY``).

    Each queue drains once per barrier, by ``(ready, order)``: certificates
    and retirement certificates in the first half, vouchers and acks in the
    second.  That is exact, not an approximation of a fixed point.  Every
    settlement delay is positive (the link delays are positive constants, and
    a behaviour's extra delay is refused below zero), so whatever a handler
    queues matures strictly after this barrier; the only entries that mature
    at the barrier that queues them are step 3's vouchers and step 4's
    acks, each queued before its drain.  An ack row travels home in the
    report after its apply, one barrier late, but its ack matures when it
    would have, and the barrier after an apply is always the next grid
    point.  The halves share no state within a barrier.

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
    maturing voucher/certificate/ack, or just-applied certificates).
    Applied means handed over: the driver never sees what a shard decided,
    so certificates every shard refuses still take the next grid point, one
    empty barrier that moves no event.  All of this is computed in the driver process from backend-reported
    values, so the barrier sequence — and with it every shard's event
    sequence — is identical whichever backend executes the epochs.
    """

    def __init__(self, epoch: float, metrics=None, tracer=NULL_TRACER) -> None:
        # ``0 < x < inf`` is false for NaN too, which ``x <= 0`` would let through.
        if not 0 < epoch < math.inf:
            raise ConfigurationError(f"epoch width must be finite and positive, not {epoch}")
        self.epoch = epoch
        # Driver-side telemetry sinks (repro.obs), a registry of its own when
        # none is given.  Strictly write-only from the scheduler's point of
        # view: phase wall-times, exchange counters and queue depths go in,
        # nothing ever comes back out into a barrier decision.
        self.metrics = metrics or MetricsRegistry()
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
        # The barrier's settlement commands, and the positions handed out.
        self._commands: Dict[int, ShardCommands] = {}
        self._positions = 0
        self._reports: Optional[Dict[int, AdvanceReport]] = None
        # Voucher and ack rows reported but not yet exchanged.  Every shard
        # runs exactly to each barrier, so at the barrier's second half both
        # buffers have matured (``time <= now``) and are consumed at once.
        self._event_buffer: List[tuple] = []
        self._ack_buffer: List[tuple] = []

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

    def hand_over(self, shard: int, certificate) -> None:
        """Queue a delivered certificate for ``shard``'s next ``apply``: a
        retirement certificate for its gate, a settlement certificate for
        its inboxes with the next delivery position."""
        commands = self._commands.setdefault(shard, ([], []))
        if type(certificate) is RetirementCertificate:
            commands[1].append(certificate)
        else:
            commands[0].append((self._positions, certificate))
            self._positions += 1

    @property
    def in_flight(self) -> int:
        """Settlement traffic between barriers (all lifecycle legs), the ack
        rows reported but not yet sent among it."""
        queued = sum(len(queue) for queue in self._queues.values())
        handed = sum(len(ours) + len(theirs) for ours, theirs in self._commands.values())
        return queued + handed + len(self._ack_buffer)

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

        Voucher and ack rows move into the exchange buffers and the report
        replaces the shard's previous one.  Rows are consumed here exactly
        once — the report objects are stripped so a re-entrant exchange can
        never send them twice.
        """
        if self._reports is None:
            self._reports = {}
        for index in sorted(reports):
            report = reports[index]
            if report.events:
                self._event_buffer.extend(report.events)
                report.events = []
            if report.acks:
                self._ack_buffer.extend(report.acks)
                report.acks = []
            self._reports[index] = report

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
        ``max_events``; later ones give each the cluster-wide remainder.  A
        shard that spends its allotment stops there, inside the epoch, and
        :meth:`_check_budget` raises the cluster's budget error.
        """
        with _phase(
            self.metrics, self.tracer, "phase.advance", cat="scheduler",
            sim_start=self.now, barrier=self.barriers,
        ) as span:
            budget = max_events if self._reports is None else self._remaining_budget(max_events)
            reports = backend.advance(horizon, budget, overlapped)
            span.sim_end = horizon
            self._ingest(reports)
            self._check_budget(max_events, horizon)
            if step:
                self.now = horizon
                self.barriers += 1
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
        otherwise: a NaN budget compares false and would disable the guard,
        as a NaN ``until`` would disable the pause, so it is refused too.
        The loop is two phases with only the pause test between them:
        ``phase.exchange`` holds the barrier's first half and the decision
        where (and whether) to go next — with the second half too, unless it
        is deferred — and ``phase.advance`` the shards' epoch, any deferred
        second half (``exchange.overlapped``) and the bookkeeping of the
        reports, so the two tile the loop's wall time.
        """
        if max_events is not None and not (type(max_events) is int and max_events >= 0):
            raise SimulationError(f"event budget must be None or an int >= 0, not {max_events!r}")
        if until is not None and math.isnan(until):
            raise SimulationError("run horizon must be a number or None, not nan")
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
                # If this barrier's exchange applied certificates, what they
                # licensed is sitting as events at time ``now`` on the shard
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
        retirement certificates, then hand them to their shards in one
        ``apply``; returns how many shards it commanded."""
        self._drain_matured("certificates")
        self._drain_matured("retirement_certificates")
        commands, self._commands = self._commands, {}
        if commands:
            backend.apply(self.now, commands)
        return len(commands)

    def _settle(self, fabric: SettlementFabric) -> None:
        """The barrier's second half: dispatch the shards' vouchers, drain the
        matured vouchers, dispatch the acks the shards reported, drain the
        matured acks.  Everything it queues matures after ``now``, except
        acks whose barrier passed, which the ack drain takes at once."""
        # Consumption is exactly-once by construction — _ingest moved the
        # rows out of the reports, and this empties the buffers — so a
        # re-entrant run() (pause/resume, a run after a run) never sends a
        # voucher or an ack twice.  Every row matured (each shard ran to
        # ``now``); sorting orders the voucher rows by ``(time, shard,
        # index)``, a unique key, and the ack rows by delivery position.
        events, self._event_buffer = self._event_buffer, []
        events.sort()
        if events:
            self.metrics.inc("exchange.validations", len(events))
        for event in events:
            fabric.dispatch_voucher(event)
        self._drain_matured("vouchers")
        acks, self._ack_buffer = self._ack_buffer, []
        acks.sort(key=itemgetter(1))  # stable: one position's rows are one shard's
        if acks:
            self.metrics.inc("exchange.mints", len(acks))
        for ack in acks:
            fabric.dispatch_ack(ack)
        self._drain_matured("acks")
        self.metrics.observe("barrier.queue_depth", self.in_flight)

    def _overlapped(self, fabric: SettlementFabric) -> None:
        """A deferred second half, run by the backend while the shards
        advance to the next barrier."""
        with _phase(
            self.metrics, self.tracer, "exchange.overlapped", cat="scheduler",
            sim_start=self.now, barrier=self.barriers,
        ):
            self._settle(fabric)

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
        cap by up to ``shard_count`` times before being caught — the guard
        is a livelock backstop, not an exact meter.
        """
        if max_events is None:
            return None
        remaining = max_events - self.events_processed()
        if remaining <= 0:
            raise _budget_exceeded(max_events)
        return remaining

    def _check_budget(self, max_events: Optional[int], horizon: float) -> None:
        """Raise the budget error once the cluster ran past ``max_events``, or
        when a shard stopped at its allotment: its next live event lies
        inside the horizon it was sent to, which a finished advance never
        leaves behind."""
        if max_events is None:
            return
        if self.events_processed() > max_events or any(
            report.next_event_time is not None and report.next_event_time <= horizon
            for report in self._reports.values()
        ):
            raise _budget_exceeded(max_events)

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
