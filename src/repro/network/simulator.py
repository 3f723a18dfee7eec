"""The discrete-event engine.

A :class:`Simulator` owns virtual time and the queue of pending events.  Every
other message-passing component (the network, nodes, timers, workload
clients) schedules callbacks on it.  The engine is deliberately minimal: the
interesting modelling (latencies, CPU queues, Byzantine behaviour) lives in
:mod:`repro.network.node` and above.

The queue is one binary heap (:mod:`heapq`) of ``(time, sequence, event)``
tuples.  The **order contract** is the classic total order: events run by
increasing ``time``, ties broken by ``sequence``, the order in which they
were scheduled.  Sequence numbers are unique, so the comparison is decided
by the first two tuple items, inside the C heap — it never reaches the
:class:`Event` and never enters Python.  In the asynchronous model an
execution *is* its sequence of delivery events, so every seeded stream and
every fingerprint depends on this order and on nothing else the queue does.  Cancelled events stay in the heap and are dropped when they
surface; ``pending_events`` is a counter, not a scan.  ``schedule`` and
``schedule_at`` push onto the heap themselves, with no helper frame between
them and ``heappush``: every message calls each of them once.

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
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError


class Event:
    """A scheduled callback: the handle ``schedule`` returns, used to cancel.

    Events run in ``(time, sequence)`` order; the sequence number makes the
    order total and deterministic when several events share a timestamp.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "label", "_simulator")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        simulator: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self.label = label
        self._simulator = simulator

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        # Keep the owning simulator's live-event counter exact: an event
        # that already ran (or was already dropped) detached itself first.
        if self._simulator is not None:
            self._simulator._live -= 1
            self._simulator = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {state}, {self.label!r})"


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator is single-threaded: events run one at a time, in timestamp
    order, and may schedule further events.  ``run`` drives the loop until
    the queue drains, a time horizon is reached, or an event budget is
    exhausted (a guard against accidental livelock in protocol code).
    """

    def __init__(self) -> None:
        # The heap of (time, sequence, event); see the module docstring.
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._live = 0
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

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        time = self._now + delay
        sequence = self._sequence
        event = Event(time, sequence, action, label, self)
        self._sequence = sequence + 1
        self._live += 1
        heappush(self._queue, (time, sequence, event))
        return event

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} (current time is {self._now})"
            )
        sequence = self._sequence
        event = Event(time, sequence, action, label, self)
        self._sequence = sequence + 1
        self._live += 1
        heappush(self._queue, (time, sequence, event))
        return event

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
            past is a no-op (the clock never runs backwards).
        max_events:
            Stop after this many events (guards against livelock).  The
            budget errors only when exceeding it would have *mattered*: a
            queue that drains cleanly on exactly the last allowed event is a
            completed run, not a livelock.
        stop_when:
            Optional predicate checked after every event; the run stops as
            soon as it returns ``True`` (used to stop when a workload has
            fully committed).

        Returns the virtual time at which the run stopped.
        """
        queue = self._queue
        executed = 0
        try:
            while queue:
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    if until > self._now:
                        self._now = until
                    break
                heappop(queue)
                self._live -= 1
                event._simulator = None
                self._now = time
                event.action()
                self.processed_events += 1
                executed += 1
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and executed >= max_events:
                    if self._live:
                        raise SimulationError(
                            f"simulation exceeded the event budget of {max_events}; "
                            "a protocol is likely flooding the network"
                        )
                    break
        finally:
            if executed and self.metrics is not None:
                self.metrics.inc("sim.events", executed)
                self.metrics.inc("sim.runs")
        return self._now

    def run_until_quiescent(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (the common case in tests)."""
        return self.run(max_events=max_events)

    # -- incremental driving ------------------------------------------------------------------
    #
    # The cluster's execution backends advance many independent simulators in
    # lockstep epochs: each shard repeatedly runs *up to* the next settlement
    # barrier, the barriers exchange certificates, and the loop needs to know
    # when each simulator will next do something.  ``run`` already supports a
    # horizon; these two entry points make the epoch pattern first-class.

    def run_until(self, time: float, max_events: Optional[int] = None) -> float:
        """Run every event scheduled at or before ``time``; idempotent.

        :meth:`run` with a mandatory horizon.  A horizon in the past (or at
        the current time with nothing scheduled) is a no-op, so a scheduler
        can call ``run_until(barrier)`` for a fixed barrier sequence without
        tracking which simulators have already reached it.  The clock advances
        to ``time`` when undelivered events remain beyond the horizon, and
        stays at the last executed event when the queue drains.
        """
        return self.run(until=time, max_events=max_events)

    @property
    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when quiescent.

        Cancelled events at the head of the queue are discarded on the way, so
        the answer is exact, not an upper bound.
        """
        queue = self._queue
        while queue:
            if not queue[0][2].cancelled:
                return queue[0][0]
            heappop(queue)
        return None

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): a live counter maintained on schedule/cancel/pop, not a queue
        scan — this property sits in ``__repr__`` and in the quiescence
        probes the epoch scheduler runs after every barrier.
        """
        return self._live

    def live_event_labels(self) -> List[str]:
        """Labels of every not-yet-cancelled queued event (unordered scan).

        The checkpoint seam uses this to decide whether a shard is
        *protocol-quiescent*: a shard can only be checkpointed when every
        pending event is a client arrival that can be re-scheduled from the
        routed-submission spec.  In-flight protocol messages hold closures
        over live node state, so their presence blocks a checkpoint.
        """
        return [event.label for _, _, event in self._queue if not event.cancelled]

    def restore_counters(self, now: float, sequence: int, processed_events: int) -> None:
        """Force the clock and counters to a checkpoint's values.

        Used when rehydrating a shard from a checkpoint: the twin schedules
        the remaining client arrivals first (they take fresh low sequence
        numbers — all below the checkpoint's, preserving their relative order
        and their order against every post-checkpoint protocol event), then
        jumps the clock and the sequence counter here so deterministic
        re-execution assigns the exact sequence numbers of the original run.
        """
        if sequence < self._sequence:
            raise SimulationError(
                f"cannot rewind the sequence counter from {self._sequence} to {sequence}"
            )
        self._now = now
        self._sequence = sequence
        self.processed_events = processed_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events})"

