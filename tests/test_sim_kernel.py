"""Edge-case coverage for :mod:`repro.sim.kernel`.

The kernel now underpins every timed path — the fabric timeline's
service/arrival cascade, churn reconfiguration events, and (through
the execution core) the Fig. 10 harness — so its corner semantics are
load-bearing: the plain-tuple event list (no handle, no cancel), the
rejection of a non-finite time, the ``until`` horizon, the
``max_events`` guard, and re-entrant scheduling from inside handlers.
The basics (time order, FIFO ties, negative delay) live in
``tests/test_sim_perf.py``.
"""

import pytest

from repro.sim import Simulator
from repro.sim.kernel import SimulationError


class TestTupleEventList:
    """The heap holds plain ``(time, seq, handler, args)`` tuples, and
    scheduling hands nothing back: there is no event to cancel."""

    def test_schedule_returns_nothing_and_queues_a_plain_tuple(self):
        sim = Simulator()
        log = []
        assert sim.schedule(1.0, log.append, "a") is None
        assert sim.schedule_at(2.0, log.append, "b") is None
        assert sim._queue == [(1.0, 0, log.append, ("a",)),
                              (2.0, 1, log.append, ("b",))]
        sim.run()
        assert log == ["a", "b"] and sim._queue == []

    def test_fifo_among_simultaneous_events_from_different_instants(self):
        # Three events due at t = 2, scheduled at t = 0, t = 1 and from
        # inside the t = 2 handler: they run in the order scheduled.
        sim = Simulator()
        log = []

        def at_two(tag):
            log.append(tag)
            if tag == "first":
                sim.schedule(0.0, log.append, "reentrant")

        sim.schedule_at(2.0, at_two, "first")
        sim.schedule_at(1.0, lambda: sim.schedule(1.0, at_two, "second"))
        sim.run()
        assert log == ["first", "second", "reentrant"]
        assert sim.now == 2.0 and sim.events_processed == 4

    def test_pending_after_a_partial_run(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending() == 5
        sim.run(max_events=2)
        assert sim.pending() == 3 and sim.now == 2.0
        sim.run(until=4.5)
        assert sim.pending() == 1 and sim.now == 4.5
        sim.run()
        assert sim.pending() == 0 and sim.events_processed == 5

    def test_handler_gets_its_arguments_and_no_closure_is_needed(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda *args: seen.append((sim.now, args)),
                     "x", 2, None)
        sim.schedule(0.5, lambda: seen.append((sim.now, ())))
        sim.run()
        assert seen == [(0.5, ()), (1.0, ("x", 2, None))]


class TestNonFiniteDelay:
    """A NaN or infinite time is a ``SimulationError``: queued, a NaN
    time compares false with everything and breaks the heap order."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_schedule_rejects_it_and_queues_nothing(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError, match="must be finite"):
            sim.schedule(delay, lambda: None)
        assert sim.pending() == 0

    @pytest.mark.parametrize("time", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_schedule_at_rejects_it(self, time):
        sim = Simulator()
        with pytest.raises(SimulationError, match="must be finite"):
            sim.schedule_at(time, lambda: None)
        assert sim.pending() == 0

    def test_a_rejected_nan_leaves_the_order_intact(self):
        sim = Simulator()
        log = []
        for t in (3.0, 1.0):
            sim.schedule(t, log.append, t)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), log.append, "nan")
        sim.schedule(2.0, log.append, 2.0)
        sim.run()
        assert log == [1.0, 2.0, 3.0]

    def test_negative_infinity_is_still_the_past(self):
        with pytest.raises(SimulationError, match="into the past"):
            Simulator().schedule(float("-inf"), lambda: None)


class TestRunUntil:
    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("at"))
        sim.run(until=2.0)
        assert log == ["at"]
        assert sim.now == 2.0

    def test_later_events_stay_queued_and_resume(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(3.0, lambda: log.append(3))
        assert sim.run(until=2.0) == 2.0
        assert log == [1] and sim.pending() == 1
        assert sim.run() == 3.0
        assert log == [1, 3]

    def test_until_with_empty_queue_advances_the_clock(self):
        sim = Simulator()
        assert sim.run(until=7.5) == 7.5
        assert sim.now == 7.5

    def test_until_after_queue_drains_sets_final_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=10.0) == 10.0

    def test_until_before_the_clock_is_refused(self):
        # The clock reached 10: running "until 5" must not rewind it,
        # or an event scheduled next would fire before ones already
        # processed.
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="before now=10.0"):
            sim.run(until=5.0)
        assert sim.now == 10.0 and sim.pending() == 1
        assert sim.run(until=10.0) == 10.0  # the clock itself is fine
        assert sim.run() == 11.0

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_non_finite_until_is_refused(self, until):
        # NaN used to become the clock; so did infinity on an empty
        # queue, after which every event fired "at inf".
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="finite time, got"):
            sim.run(until=until)
        assert sim.now == 0.0 and sim.pending() == 1


class TestMaxEvents:
    def test_guard_stops_after_n_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        sim.run(max_events=2)
        assert log == [0, 1]
        assert sim.now == 2.0
        assert sim.pending() == 3

    def test_guard_bounds_a_runaway_self_scheduling_cascade(self):
        # The guard exists exactly for this: a handler that always
        # schedules a successor would otherwise never terminate.
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run(max_events=100)
        assert len(fired) == 100
        assert sim.pending() == 1  # the 101st, still queued

    def test_zero_budget_runs_nothing_and_keeps_the_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("ran"))
        assert sim.run(max_events=0) == 0.0
        assert log == [] and sim.pending() == 1

    def test_resuming_after_the_guard_completes_the_run(self):
        sim = Simulator()
        log = []
        for i in range(4):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        sim.run(max_events=3)
        sim.run()
        assert log == [0, 1, 2, 3]


class TestReentrantScheduling:
    def test_schedule_at_now_from_handler_runs_after_current(self):
        sim = Simulator()
        log = []

        def handler():
            log.append("outer")
            sim.schedule_at(sim.now, lambda: log.append("inner"))

        sim.schedule_at(1.0, handler)
        sim.schedule_at(1.0, lambda: log.append("sibling"))
        sim.run()
        # Same-time FIFO: the re-entrant event fires after everything
        # already queued for that instant.
        assert log == ["outer", "sibling", "inner"]
        assert sim.now == 1.0

    def test_schedule_at_into_the_past_raises_inside_handler(self):
        sim = Simulator()

        def handler():
            sim.schedule_at(0.5, lambda: None)

        sim.schedule_at(1.0, handler)
        with pytest.raises(SimulationError):
            sim.run()

    def test_reentrant_chain_respects_until(self):
        sim = Simulator()
        log = []

        def tick():
            log.append(sim.now)
            sim.schedule_at(sim.now + 1.0, tick)

        sim.schedule_at(1.0, tick)
        sim.run(until=3.0)
        assert log == [1.0, 2.0, 3.0]
        assert sim.pending() == 1  # the 4.0 tick, beyond the horizon
        assert sim.now == 3.0