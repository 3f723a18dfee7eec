"""Differential property test: the event queue against its specification.

:class:`repro.network.simulator.Simulator` keeps its pending events on a binary
heap of ``(time, sequence, event)`` tuples.  Every seeded stream and every
fingerprint in the repository depends on the order it emits and on nothing
else it does, so this file keeps the obvious formulation as the reference — a
plain list of live events, the next one taken with ``min`` by ``(time,
sequence)`` — behind the same public methods, runs one random program against
both, and requires after **every** step the same executed order, ``now``,
``processed_events``, ``pending_events``, handle state
(``time``, ``sequence``, ``cancelled``), ``live_event_labels()`` as a multiset
and, on the steps that probe it, ``next_event_time`` (probing discards
cancelled heads, so doing it on every step would hide how ``run`` skips them).

A program mixes ``schedule`` / ``schedule_at`` (delays from a small grid, so
timestamps collide; now and then in the past, which must raise in both),
``cancel`` of any handle ever returned (queued, cancelled or long executed),
``run`` under every combination of ``until=`` (also in the past),
``max_events=`` (which raises when live events remain) and ``stop_when=``,
``run_until`` (also in the past), ``restore_counters`` (forwards, and
backwards in sequence, which must raise), and actions that, when they fire,
schedule at the current instant, at a shared timestamp or later, or cancel
another event.
"""

from functools import partial
from typing import Callable, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.network.simulator import Simulator

# -- the slow formulation: the specification -----------------------------------------------------


class _ReferenceEvent:
    def __init__(self, owner: "ReferenceSimulator", time: float, sequence: int, action, label):
        self._owner = owner
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self in self._owner.live:  # not yet executed
            self._owner.live.remove(self)


class ReferenceSimulator:
    """The engine's contract over a plain list: ``min`` by ``(time, sequence)``."""

    def __init__(self) -> None:
        self.live: List[_ReferenceEvent] = []
        self.now = 0.0
        self._sequence = 0
        self.processed_events = 0

    def schedule(self, delay: float, action: Callable[[], None], label: str = ""):
        if delay < 0:
            raise SimulationError("in the past")
        return self._add(self.now + delay, action, label)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = ""):
        if time < self.now:
            raise SimulationError("in the past")
        return self._add(time, action, label)

    def _add(self, time: float, action, label: str) -> _ReferenceEvent:
        event = _ReferenceEvent(self, time, self._sequence, action, label)
        self._sequence += 1
        self.live.append(event)
        return event

    def run(self, until=None, max_events=None, stop_when=None) -> float:
        executed = 0
        while self.live:
            event = min(self.live, key=lambda e: (e.time, e.sequence))
            if until is not None and event.time > until:
                self.now = max(self.now, until)
                break
            self.live.remove(event)
            self.now = event.time
            event.action()
            self.processed_events += 1
            executed += 1
            if stop_when is not None and stop_when():
                break
            if max_events is not None and executed >= max_events:
                if self.live:
                    raise SimulationError("event budget")
                break
        return self.now

    def run_until(self, time: float, max_events=None) -> float:
        return self.run(until=time, max_events=max_events)

    @property
    def next_event_time(self) -> Optional[float]:
        return min(event.time for event in self.live) if self.live else None

    @property
    def pending_events(self) -> int:
        return len(self.live)

    def live_event_labels(self) -> List[str]:
        return [event.label for event in self.live]

    def restore_counters(self, now: float, sequence: int, processed_events: int) -> None:
        if sequence < self._sequence:
            raise SimulationError("rewind")
        self.now = now
        self._sequence = sequence
        self.processed_events = processed_events


# -- one program, driven against either engine ---------------------------------------------------

NOOP = ("noop", 0)


class _Driver:
    """Applies program steps to one engine and records everything observable."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.executed: List[int] = []  # event idents, in the order they fired
        self.handles: list = []  # every handle ever returned, in creation order
        self.raised: List[int] = []  # indices of the steps that raised SimulationError

    def add(self, absolute: bool, when: float, behaviour: Tuple[str, float]) -> None:
        ident = len(self.handles)
        schedule = self.engine.schedule_at if absolute else self.engine.schedule
        # Labels repeat, so comparing them as a multiset means something.
        self.handles.append(schedule(when, partial(self.fire, ident, behaviour), f"label-{ident % 3}"))

    def fire(self, ident: int, behaviour: Tuple[str, float]) -> None:
        self.executed.append(ident)
        kind, argument = behaviour
        if kind == "spawn_now":
            self.add(True, self.engine.now, NOOP)
        elif kind == "spawn":
            self.add(False, argument, ("cancel", ident + 1))
        elif kind == "cancel":
            self.handles[int(argument) % len(self.handles)].cancel()

    def apply(self, index: int, step: tuple) -> None:
        engine, kind = self.engine, step[0]
        try:
            if kind == "schedule":
                self.add(False, step[1], step[2])
            elif kind == "schedule_at":
                self.add(True, engine.now + step[1], step[2])
            elif kind == "cancel":
                if self.handles:
                    self.handles[step[1] % len(self.handles)].cancel()
            elif kind == "run":
                _, horizon, budget, stop_after = step
                target = len(self.executed) + (stop_after or 0)
                engine.run(
                    until=None if horizon is None else engine.now + horizon,
                    max_events=budget,
                    stop_when=(lambda: len(self.executed) >= target) if stop_after else None,
                )
            elif kind == "run_until":
                engine.run_until(engine.now + step[1])
            elif kind == "restore_counters":
                _, advance, jump, processed = step
                # A checkpoint's clock never lies beyond a re-scheduled arrival.
                ahead = engine.next_event_time
                now = engine.now + advance if ahead is None else min(engine.now + advance, ahead)
                engine.restore_counters(now, engine._sequence + jump, engine.processed_events + processed)
        except SimulationError:
            self.raised.append(index)

    def observe(self, probe: bool) -> tuple:
        engine = self.engine
        return (
            list(self.executed),
            engine.now,
            engine.processed_events,
            engine.pending_events,
            [(handle.time, handle.sequence, handle.cancelled) for handle in self.handles],
            sorted(engine.live_event_labels()),
            list(self.raised),
            engine.next_event_time if probe else None,
        )


def assert_engine_matches_reference(program: List[Tuple[tuple, bool]]) -> _Driver:
    engine, reference = _Driver(Simulator()), _Driver(ReferenceSimulator())
    for index, (step, probe) in enumerate(program):
        engine.apply(index, step)
        reference.apply(index, step)
        assert engine.observe(probe) == reference.observe(probe), (index, step)
    return engine


# -- random programs -----------------------------------------------------------------------------

# Few distinct values, so events share timestamps and land on both sides of
# every horizon; -0.001 is the past.
DELAYS = st.sampled_from([0.0, 0.0, 0.001, 0.001, 0.002, 0.0035, 0.01, -0.001])
HORIZONS = st.sampled_from([None, -0.002, 0.0, 0.001, 0.0035, 0.02])
BEHAVIOURS = st.one_of(
    st.just(NOOP),
    st.just(("spawn_now", 0)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.001, 0.002, 0.05])),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
)
STEPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, BEHAVIOURS),
    st.tuples(st.just("schedule_at"), DELAYS, BEHAVIOURS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(
        st.just("run"),
        HORIZONS,
        st.one_of(st.none(), st.integers(1, 6)),
        st.one_of(st.none(), st.integers(1, 4)),
    ),
    st.tuples(st.just("run_until"), st.sampled_from([-0.002, 0.0, 0.001, 0.0035, 0.02])),
    st.tuples(
        st.just("restore_counters"),
        st.sampled_from([0.0, 0.0005, 0.003]),
        st.sampled_from([-1, 0, 3]),
        st.integers(0, 5),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(STEPS, st.booleans()), min_size=1, max_size=40))
def test_the_heap_is_the_list_with_min(program):
    assert_engine_matches_reference(program)


def test_a_fixed_program_reaches_every_mechanism():
    """One hand-written program; what it must reach is asserted, not assumed."""
    program = [
        # A lone head, three events on one timestamp, a lone follower, one far.
        (("schedule", 0.0005, NOOP), False),
        (("schedule", 0.001, ("spawn_now", 0)), False),
        (("schedule_at", 0.001, ("spawn", 0.001)), False),
        (("schedule", 0.0015, ("cancel", 0)), False),
        (("schedule", 0.01, NOOP), False),
        (("schedule", -0.001, NOOP), False),  # raises in both
        # Unprobed, so it is ``run`` that has to skip the cancelled head.
        (("cancel", 0), False),
        (("run", 0.001, None, None), False),
        # Probed: a cancelled head is not the next event time.
        (("cancel", 3), True),
        # Cancel after execution is a no-op; so is a horizon in the past.
        (("cancel", 1), True),
        (("run", -0.002, None, None), True),
        (("run_until", -0.002), True),
        (("schedule_at", -0.001, NOOP), False),  # raises in both
        (("run", None, 1, None), False),  # budget spent with a live event left: raises
        (("run", None, None, 1), True),
        (("restore_counters", 0.003, 3, 2), True),
        (("restore_counters", 0.0, -1, 0), False),  # rewinding raises
        (("schedule", 0.0, ("spawn_now", 0)), True),
        (("run", None, None, None), True),
    ]
    engine = assert_engine_matches_reference(program)
    simulator = engine.engine
    assert engine.raised == [5, 12, 13, 16]
    # Event 0 was cancelled; 5 is 1's child at 1's instant, behind 2; 3 was cancelled too.
    assert engine.executed == [1, 2, 5, 6, 4, 7, 8]
    assert simulator.pending_events == 0 and simulator.next_event_time is None
    assert any(handle.cancelled for handle in engine.handles)
    assert engine.handles[-1].sequence > len(engine.handles)  # the restored sequence counter stuck
