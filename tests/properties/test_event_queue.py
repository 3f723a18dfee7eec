"""Differential property test: the event queue against its specification.

:class:`repro.network.simulator.Simulator` keeps its pending events on a binary
heap of ``(time, sequence, action, args, event)`` tuples, where
``event`` is the cancellable handle ``schedule`` / ``schedule_at`` return and
``None`` for a handle-less ``post`` (the network's messages).  Every seeded
stream and every fingerprint in the repository depends on the order it emits
and on nothing else it does, so this file keeps the obvious formulation as the
reference — a plain list of live events, the next one taken with ``min`` by
``(time, sequence)`` — behind the same public methods, runs one random program
against both, and requires after **every** step the same executed order, ``now``,
``processed_events``, ``pending_events``, handle state
(``time``, ``sequence``, ``cancelled``), the ``(time, sequence)`` pairs of
every live queued event and, on the steps that probe it, ``next_event_time`` (probing discards
cancelled heads, so doing it on every step would hide how ``run`` skips them).

A program mixes ``schedule`` / ``schedule_at`` / ``post`` / ``post_many``
(delays from a small grid, so timestamps collide, posts with ``schedule_at``
entries too; now and then in the past, which must raise in both — mid-fan-out
for ``post_many``, whose reference is a loop of ``post``),
``cancel`` of any handle ever returned (queued, cancelled or long executed),
``run`` under every combination of ``until=`` (also in the past, and NaN,
which must raise), ``max_events=`` (which raises when the budget is spent and
a live event inside the horizon is next) and ``stop_when=``,
a bare ``run(until=...)`` (also in the past), and actions that, when they fire,
schedule, post or fan out at the current instant, at a shared timestamp or
later, or cancel another event.  A posted event has no handle: it is observed
through the executed order, the counters, the live ``(time, sequence)``
pairs and the sequence numbers the handles after it receive.
"""

from functools import partial
from math import inf, isnan
from typing import Callable, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.network.simulator import Simulator

# -- the slow formulation: the specification -----------------------------------------------------


class _ReferenceEvent:
    def __init__(self, owner: "ReferenceSimulator", time: float, sequence: int, action):
        self._owner = owner
        self.time = time
        self.sequence = sequence
        self.action = action
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

    def schedule(self, delay: float, action: Callable[[], None]):
        if not 0 <= delay < inf:
            raise SimulationError("in the past, or not finite")
        return self._add(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]):
        if not self.now <= time < inf:
            raise SimulationError("in the past, or not finite")
        return self._add(time, action)

    def post(self, time: float, action: Callable[..., None], args: tuple) -> None:
        """``schedule_at`` of ``action(*args)`` that hands nothing back."""
        self.schedule_at(time, partial(action, *args))

    def post_many(self, action: Callable[..., None], entries: list) -> None:
        """``post`` of each ``(time, args)`` in turn."""
        for time, args in entries:
            self.post(time, action, args)

    def _add(self, time: float, action) -> _ReferenceEvent:
        event = _ReferenceEvent(self, time, self._sequence, action)
        self._sequence += 1
        self.live.append(event)
        return event

    def run(self, until=None, max_events=None, stop_when=None) -> float:
        if until is not None and isnan(until):
            raise SimulationError("a NaN horizon")
        executed = 0
        while self.live:
            event = min(self.live, key=lambda e: (e.time, e.sequence))
            if until is not None and event.time > until:
                self.now = max(self.now, until)
                break
            # The budget is spent only if one more event inside the horizon
            # would run.
            if max_events is not None and executed >= max_events:
                raise SimulationError("event budget")
            self.live.remove(event)
            self.now = event.time
            event.action()
            self.processed_events += 1
            executed += 1
            if stop_when is not None and stop_when():
                break
        return self.now

    @property
    def next_event_time(self) -> Optional[float]:
        return min(event.time for event in self.live) if self.live else None

    @property
    def pending_events(self) -> int:
        return len(self.live)


def live_pairs(engine) -> List[Tuple[float, int]]:
    """The ``(time, sequence)`` of every live queued event, in order.

    The engine's heap holds cancelled entries until they surface; the
    reference removes them at once, so only the live ones are compared.
    """
    if isinstance(engine, ReferenceSimulator):
        return sorted((event.time, event.sequence) for event in engine.live)
    return sorted(
        (time, sequence)
        for time, sequence, _, _, event in engine._queue
        if event is None or not event.cancelled
    )


# -- one program, driven against either engine ---------------------------------------------------

NOOP = ("noop", 0)


class _Driver:
    """Applies program steps to one engine and records everything observable."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.executed: List[int] = []  # event idents, in the order they fired
        self.handles: list = []  # every handle ever returned, in creation order
        self.posts = 0  # posted events so far; the n-th has ident -n
        self.raised: List[int] = []  # indices of the steps that raised SimulationError

    def add(self, absolute: bool, when: float, behaviour: Tuple[str, float]) -> None:
        ident = len(self.handles)
        schedule = self.engine.schedule_at if absolute else self.engine.schedule
        self.handles.append(schedule(when, partial(self.fire, ident, behaviour)))

    def post(self, time: float, behaviour: Tuple[str, float]) -> None:
        ident = -1 - self.posts
        # The arguments ride in the entry, as the network's do.
        self.engine.post(time, self.fire, (ident, behaviour))
        self.posts += 1

    def post_many(self, times: Tuple[float, ...], behaviour: Tuple[str, float]) -> None:
        first = -1 - self.posts
        entries = [(time, (first - offset, behaviour)) for offset, time in enumerate(times)]
        # Every ident is spent, queued or not, so both sides stay aligned when one raises.
        self.posts += len(times)
        self.engine.post_many(self.fire, entries)

    def fire(self, ident: int, behaviour: Tuple[str, float]) -> None:
        self.executed.append(ident)
        kind, argument = behaviour
        if kind == "spawn_now":
            self.add(True, self.engine.now, NOOP)
        elif kind == "spawn":
            self.add(False, argument, ("cancel", ident + 1))
        elif kind == "post_now":
            self.post(self.engine.now, NOOP)
        elif kind == "post":
            self.post(self.engine.now + argument, ("cancel", ident))
        elif kind == "fan_out":
            now = self.engine.now
            self.post_many((now, now + argument, now + argument), NOOP)
        elif kind == "cancel":
            if self.handles:  # a posted event can fire before any handle exists
                self.handles[int(argument) % len(self.handles)].cancel()

    def apply(self, index: int, step: tuple) -> None:
        engine, kind = self.engine, step[0]
        try:
            if kind == "schedule":
                self.add(False, step[1], step[2])
            elif kind == "schedule_at":
                self.add(True, engine.now + step[1], step[2])
            elif kind == "post":
                self.post(engine.now + step[1], step[2])
            elif kind == "post_many":
                self.post_many(tuple(engine.now + delay for delay in step[1]), step[2])
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
            elif kind == "horizon":
                engine.run(until=engine.now + step[1])
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
            live_pairs(engine),
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
HORIZONS = st.sampled_from([None, -0.002, 0.0, 0.001, 0.0035, 0.02, float("nan")])
BEHAVIOURS = st.one_of(
    st.just(NOOP),
    st.just(("spawn_now", 0)),
    st.tuples(st.just("spawn"), st.sampled_from([0.0, 0.001, 0.002, 0.05])),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.just(("post_now", 0)),
    st.tuples(st.just("post"), st.sampled_from([0.0, 0.001, 0.05])),
    st.tuples(st.just("fan_out"), st.sampled_from([0.0, 0.001, 0.05])),
)
STEPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, BEHAVIOURS),
    st.tuples(st.just("schedule_at"), DELAYS, BEHAVIOURS),
    st.tuples(st.just("post"), DELAYS, BEHAVIOURS),
    st.tuples(st.just("post_many"), st.lists(DELAYS, max_size=4), BEHAVIOURS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(
        st.just("run"),
        HORIZONS,
        st.one_of(st.none(), st.integers(0, 6)),
        st.one_of(st.none(), st.integers(1, 4)),
    ),
    st.tuples(st.just("horizon"), st.sampled_from([-0.002, 0.0, 0.001, 0.0035, 0.02])),
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
        (("horizon", -0.002), True),
        (("schedule_at", -0.001, NOOP), False),  # raises in both
        (("run", None, 1, None), False),  # budget spent with a live event left: raises
        (("run", None, None, 1), True),
        (("schedule", 0.0, ("spawn_now", 0)), True),
        (("run", None, None, None), True),
    ]
    engine = assert_engine_matches_reference(program)
    simulator = engine.engine
    assert engine.raised == [5, 12, 13]
    # Event 0 was cancelled; 5 is 1's child at 1's instant, behind 2; 3 was cancelled too.
    assert engine.executed == [1, 2, 5, 6, 4, 7, 8]
    assert simulator.pending_events == 0 and simulator.next_event_time is None
    assert any(handle.cancelled for handle in engine.handles)


def test_a_fixed_program_reaches_every_post_mechanism():
    """Posts beside handles, hand-written; what it must reach is asserted."""
    program = [
        (("schedule_at", 0.001, NOOP), False),  # handle 0, sequence 0
        (("post", 0.001, ("post_now", 0)), False),  # -1 shares handle 0's timestamp
        (("schedule", 0.001, ("post", 0.001)), False),  # handle 1, behind -1
        (("post", 0.0, NOOP), True),  # -2 at the current instant
        (("post", 0.0035, ("cancel", 1)), False),  # -3, beyond the first horizon
        (("post", -0.001, NOOP), False),  # raises in both
        (("cancel", 0), True),
        # -2, then at 0.001: -1 (posts -4 at its own instant), 1 (posts -5 later), -4.
        (("run", 0.001, None, None), True),
        (("post", 0.001, NOOP), True),  # -6 shares -5's timestamp
        (("schedule_at", 0.001, NOOP), False),  # handle 2, behind -6
        (("horizon", 0.0015), True),
        (("post", inf, NOOP), False),  # raises in both
        (("post", float("nan"), NOOP), False),  # raises in both
        (("run", None, None, None), True),
    ]
    engine = assert_engine_matches_reference(program)
    simulator = engine.engine
    assert engine.raised == [5, 11, 12]
    assert engine.executed == [-2, -1, 1, -4, -5, -6, 2, -3]
    assert engine.posts == 6
    # Seven sequence numbers (four of them posts) before -6, which took 7.
    assert [handle.sequence for handle in engine.handles] == [0, 2, 8]
    assert simulator.pending_events == 0 and simulator.next_event_time is None


def test_a_fixed_program_reaches_every_fan_out_mechanism():
    """``post_many`` beside posts and handles, hand-written; what it must reach is asserted."""
    program = [
        (("schedule_at", 0.001, NOOP), False),  # handle 0, sequence 0
        # -1, -2, -3 take sequences 1..3 in the order given, not by time.
        (("post_many", (0.002, 0.001, 0.001), NOOP), True),
        (("post_many", (), NOOP), True),  # an empty fan-out queues nothing
        (("schedule_at", 0.001, ("fan_out", 0.001)), False),  # handle 1, sequence 4
        # -4 is queued; -5 lies in the past and raises; -6 is never queued.
        (("post_many", (0.0035, -0.001, 0.0), NOOP), True),
        # 0, -2, -3, then 1, which fans out -7 at 0.001 (run now) and -8, -9 at 0.002.
        (("run", 0.001, None, None), True),
        (("schedule", 0.0, NOOP), False),  # handle 2 at 0.001, ahead of everything at 0.002
        (("run", None, None, None), True),
    ]
    engine = assert_engine_matches_reference(program)
    simulator = engine.engine
    assert engine.raised == [4]
    assert engine.executed == [0, -2, -3, 1, -7, 2, -1, -8, -9, -4]
    assert engine.posts == 9
    # Sequences: 0, 1..3, 4, -4 took 5 (the raise left the counter there), -7..-9 took 6..8.
    assert [handle.sequence for handle in engine.handles] == [0, 4, 9]
    assert simulator.pending_events == 0 and simulator.next_event_time is None


def test_the_budget_counts_only_events_inside_the_horizon():
    """Spent budget with every remaining event beyond the horizon is a clean stop."""
    program = [
        (("schedule", 0.001, NOOP), False),
        (("schedule", 0.002, NOOP), False),
        (("schedule", 0.01, NOOP), False),
        (("run", 0.0035, 2, None), True),  # runs two events, stops on the horizon
        (("run", None, 0, None), True),  # a zero budget with a live event next raises
        (("run", float("nan"), None, None), False),  # raises in both
    ]
    engine = assert_engine_matches_reference(program)
    assert engine.raised == [4, 5]
    assert engine.executed == [0, 1]
    assert engine.engine.now == 0.0035 and engine.engine.pending_events == 1
