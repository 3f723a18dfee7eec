"""Unit tests for the discrete-event engine."""

import pytest

from repro.common.errors import SimulationError
from repro.network.node import Network
from repro.network.simulator import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(0.5, lambda: order.append("late"))
        simulator.schedule(0.1, lambda: order.append("early"))
        simulator.run_until_quiescent()
        assert order == ["early", "late"]
        assert simulator.now == pytest.approx(0.5)

    def test_ties_broken_by_scheduling_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(0.1, lambda: order.append(1))
        simulator.schedule(0.1, lambda: order.append(2))
        simulator.run_until_quiescent()
        assert order == [1, 2]

    def test_events_can_schedule_events(self):
        simulator = Simulator()
        seen = []

        def first():
            seen.append(simulator.now)
            simulator.schedule(0.2, lambda: seen.append(simulator.now))

        simulator.schedule(0.1, first)
        simulator.run_until_quiescent()
        assert seen == [pytest.approx(0.1), pytest.approx(0.3)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run_until_quiescent()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)

    def test_cancelled_events_are_skipped(self):
        simulator = Simulator()
        fired = []
        event = simulator.schedule(0.1, lambda: fired.append(True))
        event.cancel()
        simulator.run_until_quiescent()
        assert fired == []
        assert simulator.pending_events == 0

    def test_run_until_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(0.1, lambda: fired.append("a"))
        simulator.schedule(5.0, lambda: fired.append("b"))
        simulator.run(until=1.0)
        assert fired == ["a"]
        assert simulator.pending_events == 1

    def test_event_budget_guard(self):
        simulator = Simulator()

        def renew():
            simulator.schedule(0.001, renew)

        simulator.schedule(0.001, renew)
        with pytest.raises(SimulationError):
            simulator.run(max_events=50)

    def test_stop_when_predicate(self):
        simulator = Simulator()
        counter = []
        for index in range(10):
            simulator.schedule(0.01 * (index + 1), lambda: counter.append(1))
        simulator.run(stop_when=lambda: len(counter) >= 3)
        assert len(counter) == 3


class TestEventBudgetBoundary:
    """The budget guards livelock, not runs that finish on the last event."""

    def test_draining_on_exactly_the_last_allowed_event_is_clean(self):
        simulator = Simulator()
        fired = []
        for index in range(5):
            simulator.schedule(0.01 * (index + 1), lambda: fired.append(1))
        assert simulator.run(max_events=5) == pytest.approx(0.05)
        assert len(fired) == 5
        assert simulator.pending_events == 0

    def test_budget_still_raises_when_live_events_remain(self):
        simulator = Simulator()
        for index in range(6):
            simulator.schedule(0.01 * (index + 1), lambda: None)
        with pytest.raises(SimulationError):
            simulator.run(max_events=5)

    def test_trailing_cancelled_events_do_not_trip_the_budget(self):
        simulator = Simulator()
        for index in range(5):
            simulator.schedule(0.01 * (index + 1), lambda: None)
        simulator.schedule(1.0, lambda: None).cancel()
        assert simulator.run(max_events=5) == pytest.approx(0.05)

    def test_processed_events_still_accumulates_across_runs(self):
        simulator = Simulator()
        simulator.schedule(0.01, lambda: None)
        simulator.run(max_events=1)
        simulator.schedule(0.01, lambda: None)
        simulator.run(max_events=1)
        assert simulator.processed_events == 2


class TestPendingEventsAccounting:
    """pending_events is a live counter, exact under cancellation."""

    def test_schedule_cancel_pop_keep_the_counter_exact(self):
        simulator = Simulator()
        events = [simulator.schedule(0.01 * (i + 1), lambda: None) for i in range(4)]
        assert simulator.pending_events == 4
        events[1].cancel()
        events[3].cancel()
        assert simulator.pending_events == 2
        events[1].cancel()  # double-cancel must not double-count
        assert simulator.pending_events == 2
        simulator.run_until_quiescent()
        assert simulator.pending_events == 0
        assert simulator.processed_events == 2

    def test_cancel_after_execution_is_a_no_op(self):
        simulator = Simulator()
        event = simulator.schedule(0.01, lambda: None)
        simulator.run_until_quiescent()
        assert simulator.pending_events == 0
        event.cancel()
        assert simulator.pending_events == 0

    def test_next_event_time_skips_cancelled_heads(self):
        simulator = Simulator()
        head = simulator.schedule(0.01, lambda: None)
        simulator.schedule(0.02, lambda: None)
        head.cancel()
        assert simulator.next_event_time == pytest.approx(0.02)
        assert simulator.pending_events == 1

    def test_interleaved_scheduling_at_shared_timestamps_stays_fifo(self):
        # An event scheduled at the current instant runs after everything
        # already queued for it: the (time, sequence) order.
        simulator = Simulator()
        order = []

        def first():
            order.append("first")
            simulator.schedule_at(simulator.now, lambda: order.append("late"))

        simulator.schedule(0.0001, first)
        simulator.schedule_at(0.0001, lambda: order.append("second"))
        simulator.run_until_quiescent()
        assert order == ["first", "second", "late"]


class TestTheClockNeverRunsBackwards:
    """A horizon in the past is a no-op on ``run`` as on ``run_until``."""

    def test_run_with_a_past_horizon_keeps_the_clock(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_at(10.0, lambda: fired.append("far"))
        assert simulator.run(until=5.0) == 5.0
        assert simulator.run(until=3.0) == 5.0
        assert simulator.now == 5.0
        # Work "before" what the clock has already passed stays refused.
        with pytest.raises(SimulationError):
            simulator.schedule_at(4.0, lambda: None)
        assert simulator.run_until(3.0) == 5.0
        assert fired == [] and simulator.pending_events == 1

    def test_the_network_facade_inherits_it(self):
        simulator = Simulator()
        network = Network(simulator)
        simulator.schedule_at(10.0, lambda: None)
        network.run(until=5.0)
        network.run(until=3.0)
        assert simulator.now == 5.0
