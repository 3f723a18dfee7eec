"""Unit tests for the discrete-event engine."""

from math import inf, nan

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


class TestNonFiniteTimesAreRefused:
    """A NaN compares false with everything, so it would break the heap order unseen."""

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_schedule(self, value):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule(value, lambda: None)
        assert simulator.pending_events == 0

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_schedule_at(self, value):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule_at(value, lambda: None)
        assert simulator.pending_events == 0

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_post(self, value):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.post(value, print, ())
        assert simulator.pending_events == 0

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_post_many(self, value):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.post_many(print, [(0.1, ()), (value, ()), (0.2, ())])
        # The entry before the refused one stays queued, numbered as a post.
        assert simulator.pending_events == 1
        assert simulator.schedule(0.0, lambda: None).sequence == 1

    def test_a_nan_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(0.1, lambda: fired.append(1))
        with pytest.raises(SimulationError):
            simulator.run(until=nan)
        assert fired == [] and simulator.pending_events == 1


class TestPost:
    """The handle-less entry point: same order and counters, no handle."""

    def test_posts_and_handles_share_one_order(self):
        simulator = Simulator()
        order = []
        simulator.post(0.1, order.append, ("posted",))
        simulator.schedule_at(0.1, lambda: order.append("scheduled"))
        simulator.post(0.05, order.append, ("early",))
        assert simulator.post(0.1, order.append, ("last",)) is None
        assert simulator.pending_events == 4
        assert simulator.next_event_time == 0.05
        simulator.run_until_quiescent()
        assert order == ["early", "posted", "scheduled", "last"]
        assert simulator.processed_events == 4 and simulator.pending_events == 0

    def test_a_post_takes_a_sequence_number(self):
        simulator = Simulator()
        simulator.post(0.0, print, ())
        assert simulator.schedule(0.0, lambda: None).sequence == 1

    def test_a_fan_out_is_posts_in_the_order_given(self):
        simulator = Simulator()
        order = []
        simulator.post(0.2, order.append, ("single",))
        simulator.post_many(order.append, [(0.2, ("a",)), (0.1, ("b",)), (0.2, ("c",))])
        assert simulator.pending_events == 4
        assert simulator.schedule(0.0, lambda: None).sequence == 4
        simulator.run_until_quiescent()
        assert order == ["b", "single", "a", "c"]
        assert simulator.processed_events == 5

    def test_a_post_in_the_past_is_refused(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run_until_quiescent()
        with pytest.raises(SimulationError):
            simulator.post(0.5, print, ())


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

    def test_events_beyond_the_horizon_do_not_spend_the_budget(self):
        # The epoch scheduler hands each shard exactly this: a budget that
        # covers the epoch, with work queued past its barrier.
        simulator = Simulator()
        fired = []
        for at in (0.1, 0.2, 0.9):
            simulator.schedule_at(at, lambda at=at: fired.append(at))
        assert simulator.run(until=0.5, max_events=2) == 0.5
        assert fired == [0.1, 0.2]
        assert simulator.pending_events == 1 and simulator.processed_events == 2

    def test_a_zero_budget_runs_nothing(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(0.1, lambda: fired.append(1))
        with pytest.raises(SimulationError):
            simulator.run(max_events=0)
        assert fired == [] and simulator.now == 0.0
        assert simulator.pending_events == 1 and simulator.processed_events == 0

    @pytest.mark.parametrize("budget", [nan, -1, 2.5, True, inf])
    def test_a_budget_that_is_not_a_natural_is_refused(self, budget):
        """A NaN budget compares false, so it ran unbounded; -1 failed as
        "exceeded the event budget of -1"; 2.5 and True were accepted."""
        simulator = Simulator()
        fired = []
        simulator.schedule(0.1, lambda: fired.append(1))
        with pytest.raises(SimulationError, match="must be None or an int >= 0"):
            simulator.run(max_events=budget)
        assert fired == [] and simulator.pending_events == 1

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
    """A horizon in the past is a no-op on ``run``."""

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
        assert simulator.run(until=3.0) == 5.0
        assert fired == [] and simulator.pending_events == 1

    def test_the_network_facade_inherits_it(self):
        simulator = Simulator()
        network = Network(simulator)
        simulator.schedule_at(10.0, lambda: None)
        network.run(until=5.0)
        network.run(until=3.0)
        assert simulator.now == 5.0
