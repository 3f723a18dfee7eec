"""The discrete-event engine.

A :class:`Simulator` owns virtual time and the queue of pending events.  Every
other message-passing component (the network, nodes, timers, workload
clients) schedules callbacks on it.  The engine is deliberately minimal: the
interesting modelling (latencies, CPU queues, Byzantine behaviour) lives in
:mod:`repro.network.node` and above.

The queue is one binary heap (:mod:`heapq`) of ``(time, sequence, action,
args, event)`` tuples, and ``run`` fires ``action(*args)``.  The
**order contract** is the classic total order: events run by increasing
``time``, ties broken by ``sequence``, the order in which they were
scheduled.  Sequence numbers are unique, so the comparison is decided by the
first two tuple items, inside the C heap — it never reaches the rest of the
entry and never enters Python.  In the asynchronous model an execution *is*
its sequence of delivery events, so every seeded stream and every
fingerprint depends on this order and on nothing else the queue does.

Three entry points share that one heap, one sequence counter and one ``run``
loop; the entry layout is known to this module alone:

* ``schedule`` / ``schedule_at`` return an :class:`Event`, the handle that
  cancels it.  Timers come this way (PBFT cancels its batch timer); the
  entry carries the handle in ``event`` and no ``args``.
* ``post`` queues one ``action(*args)``, returns nothing, and its entry has
  ``event=None``.  A network message is two events, a delivery then its
  processing, and nothing ever cancels either, so a handle (and a
  :func:`functools.partial` to bind the message to its callback) would be
  two allocations per event that no one reads.  ``Network._arrive`` posts
  the processing half; each client submission, attack launch, settlement
  mint and retirement batch is a post too.
* ``post_many`` is ``post`` for a whole fan-out: one call takes every
  ``(time, args)`` pair of one action, gives them consecutive
  sequence numbers in the order given and pushes them, so a multicast to N
  recipients costs one engine call, not N.  ``Network.multicast`` is its
  caller.

Each entry point pushes onto the heap itself, with no helper frame between it
and ``heappush``, and refuses a time before ``now`` and a non-finite one: a
NaN compares false with everything and would silently break the heap order.
``run`` refuses a NaN horizon for the same reason, and a budget that is not
an ``int`` >= 0 (a NaN one would turn the livelock guard off).

The ``run`` loop is **pop-first**: it pops the head, drops it if its handle
was cancelled, and pushes it back (once, unchanged, so its place in the order
is unchanged) only when it lies beyond the horizon or the event budget is
spent.  Cancelled events stay in the heap until they surface, here or in
``next_event_time``.  ``pending_events`` is derived, not maintained:
``len(heap)`` minus a count of the cancelled entries still in it, which
``Event.cancel`` raises and a discarded cancelled entry lowers; nothing is
counted per push or per pop.  ``processed_events`` is settled once, when
``run`` returns (or raises), not per event: read it after ``run``.

An earlier calendar queue (time buckets, a heap of bucket keys, a sorted
insert into the bucket being drained) earned its place against a heap of
``order=True`` dataclasses, i.e. a heap that compared in Python.  Against
tuple entries it loses: the protocols keep a few hundred messages in flight,
over half of all events landed in the bucket being drained and paid the
sorted insert, and with tuples on both sides the plain heap ran the Bracha
workload of ``perf/`` (``local-bracha``) 16 % faster than the calendar (0.97
vs 1.15 s ``run_s``, 3 of 3 alternating pairs).  The calendar still wins when
200 000 pre-sorted events are pending at once, which nothing here does.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError


class Event:
    """The handle ``schedule`` / ``schedule_at`` return, used to cancel.

    Events run in ``(time, sequence)`` order; the sequence number makes the
    order total and deterministic when several events share a timestamp.
    The callback rides in the heap entry; the handle carries no label.
    """

    __slots__ = ("time", "sequence", "cancelled", "_simulator")

    def __init__(self, time: float, sequence: int, simulator: Optional["Simulator"] = None) -> None:
        self.time = time
        self.sequence = sequence
        self.cancelled = False
        self._simulator = simulator

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        # Count the entry as cancelled only while it is still in the heap:
        # an event that already ran detached itself before running.
        if self._simulator is not None:
            self._simulator._cancelled += 1
            self._simulator = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {state})"


# One heap entry: (time, sequence, action, args, event-or-None).
_Entry = Tuple[float, int, Callable[..., None], Tuple[Any, ...], Optional[Event]]


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator is single-threaded: events run one at a time, in timestamp
    order, and may schedule further events.  ``run`` drives the loop until
    the queue drains, a time horizon is reached, or an event budget is
    exhausted (a guard against accidental livelock in protocol code).
    """

    def __init__(self) -> None:
        # The heap of entries; see the module docstring.
        self._queue: List[_Entry] = []
        self._sequence = 0
        # Cancelled entries still in the heap; ``pending_events`` subtracts them.
        self._cancelled = 0
        self._now = 0.0
        self.processed_events = 0
        # Optional observability hook (repro.obs.MetricsRegistry).  The
        # engine only *counts* into it — once per run() call, never per
        # event — so attaching a registry cannot perturb event ordering,
        # timing or any seeded stream (the telemetry invariant).
        self.metrics = None

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if not 0.0 <= delay < inf:
            raise SimulationError(
                f"cannot schedule an event {delay}s from now: a delay is finite and non-negative"
            )
        time = self._now + delay
        sequence = self._sequence
        event = Event(time, sequence, self)
        self._sequence = sequence + 1
        heappush(self._queue, (time, sequence, action, (), event))
        return event

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute virtual time."""
        if not self._now <= time < inf:
            raise SimulationError(
                f"cannot schedule an event at {time} (current time is {self._now})"
            )
        sequence = self._sequence
        event = Event(time, sequence, self)
        self._sequence = sequence + 1
        heappush(self._queue, (time, sequence, action, (), event))
        return event

    def post(self, time: float, action: Callable[..., None], args: Tuple[Any, ...]) -> None:
        """Queue ``action(*args)`` at the absolute ``time``, with no handle.

        The entry takes the next sequence number and counts as pending like
        any other; it just cannot be cancelled.  See the module docstring for
        the callers.
        """
        if not self._now <= time < inf:
            raise SimulationError(
                f"cannot post an event at {time} (current time is {self._now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (time, sequence, action, args, None))

    def post_many(
        self, action: Callable[..., None], entries: Iterable[Tuple[float, Tuple[Any, ...]]]
    ) -> None:
        """``post(time, action, args)`` for each ``(time, args)`` of ``entries``.

        The entries take consecutive sequence numbers in the order given.  A
        time ``post`` would refuse raises here too, with every entry before
        it queued.  ``Network.multicast`` is the caller (see the module
        docstring).
        """
        queue = self._queue
        now = self._now
        sequence = self._sequence
        for time, args in entries:
            if not now <= time < inf:
                self._sequence = sequence
                raise SimulationError(f"cannot post an event at {time} (current time is {now})")
            heappush(queue, (time, sequence, action, args, None))
            sequence += 1
        self._sequence = sequence

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run events until the queue drains or a limit is hit.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this horizon.  The clock
            advances to it when live events remain beyond; a horizon in the
            past is a no-op (the clock never runs backwards).  A NaN horizon
            is refused.
        max_events:
            Run at most this many events (guards against livelock).  The
            budget errors only when exceeding it would have *mattered*: it
            raises when it is spent and a live event inside the horizon is
            next, so a queue that drains on exactly the last allowed event, or
            whose remaining events all lie beyond the horizon, is a completed
            run, not a livelock.  ``None`` or an ``int`` >= 0.
        stop_when:
            Optional predicate checked after every event; the run stops as
            soon as it returns ``True`` (used to stop when a workload has
            fully committed).

        Returns the virtual time at which the run stopped.
        """
        if until is None:
            horizon = inf
        elif until <= inf:
            horizon = until
        else:
            raise SimulationError(f"cannot run until {until}: a horizon is a number")
        if max_events is not None and not (type(max_events) is int and max_events >= 0):
            raise SimulationError(f"event budget must be None or an int >= 0, not {max_events!r}")
        budget = inf if max_events is None else max_events
        queue = self._queue
        executed = 0
        try:
            while queue:
                entry = heappop(queue)
                time, _, action, args, event = entry
                if event is not None and event.cancelled:
                    self._cancelled -= 1
                    continue
                if time > horizon:
                    heappush(queue, entry)
                    if horizon > self._now:
                        self._now = horizon
                    break
                if executed >= budget:
                    heappush(queue, entry)
                    raise SimulationError(
                        f"simulation exceeded the event budget of {max_events}; "
                        "a protocol is likely flooding the network"
                    )
                if event is not None:
                    event._simulator = None
                self._now = time
                action(*args)
                executed += 1
                if stop_when is not None and stop_when():
                    break
        finally:
            if executed:
                self.processed_events += executed
                if self.metrics is not None:
                    self.metrics.inc("sim.events", executed)
                    self.metrics.inc("sim.runs")
        return self._now

    def run_until_quiescent(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (the common case in tests)."""
        return self.run(max_events=max_events)

    # -- incremental driving ------------------------------------------------------------------
    #
    # The cluster's execution backends advance many independent simulators in
    # lockstep epochs: each shard repeatedly runs ``run(until=barrier)`` (a
    # horizon in the past is a no-op, so no shard tracks which barriers it
    # has reached), the barriers exchange certificates, and the loop needs to
    # know when each simulator will next do something.

    @property
    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when quiescent.

        Cancelled events at the head of the queue are discarded on the way, so
        the answer is exact, not an upper bound.
        """
        queue = self._queue
        while queue:
            time, _, _, _, event = queue[0]
            if event is None or not event.cancelled:
                return time
            heappop(queue)
            self._cancelled -= 1
        return None

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): the heap's length minus the cancelled entries still in it, not
        a queue scan — this property sits in ``__repr__`` and in the
        quiescence probes the epoch scheduler runs after every barrier.
        """
        return len(self._queue) - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events})"

