"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, Resource, Task


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(2.0, lambda: fired.append("b"))
        eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(3.0, lambda: fired.append("c"))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = Engine()
        fired = []
        for i in range(10):
            eng.schedule(1.0, lambda i=i: fired.append(i))
        eng.run()
        assert fired == list(range(10))

    def test_now_advances_during_run(self):
        eng = Engine()
        seen = []
        eng.schedule(1.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1.5]
        assert eng.now == 1.5

    def test_callbacks_can_schedule_more(self):
        eng = Engine()
        fired = []

        def first():
            fired.append(eng.now)
            eng.schedule(1.0, lambda: fired.append(eng.now))

        eng.schedule(1.0, first)
        eng.run()
        assert fired == [1.0, 2.0]

    def test_zero_delay_runs_after_current_instant_events(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: (fired.append("x"),
                                   eng.schedule(0.0, lambda: fired.append("z"))))
        eng.schedule(1.0, lambda: fired.append("y"))
        eng.run()
        assert fired == ["x", "y", "z"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_nan_inf_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule(float("inf"), lambda: None)

    def test_schedule_into_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(1.0, lambda: None)


class TestRun:
    def test_run_until(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        eng.run()
        assert fired == [1, 10]

    def test_step(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(2.0, lambda: fired.append(2))
        assert eng.step() and fired == [1]
        assert eng.step() and fired == [1, 2]
        assert not eng.step()

    def test_not_reentrant(self):
        eng = Engine()
        err = []

        def bad():
            try:
                eng.run()
            except SimulationError as e:
                err.append(e)

        eng.schedule(1.0, bad)
        eng.run()
        assert len(err) == 1

    def test_events_processed_counter(self):
        eng = Engine()
        for _ in range(7):
            eng.schedule(1.0, lambda: None)
        eng.run()
        assert eng.events_processed == 7

    def test_pending_events(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.pending_events() == 2

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=50))
    def test_determinism_property(self, delays):
        def record(ds):
            eng = Engine()
            out = []
            for i, d in enumerate(ds):
                eng.schedule(d, lambda i=i: out.append((eng.now, i)))
            eng.run()
            return out

        assert record(delays) == record(delays)


class TestLivelockGuard:
    def test_self_rescheduling_callback_detected(self):
        eng = Engine()

        def forever():
            eng.schedule(0.001, forever)

        eng.schedule(0.0, forever)
        with pytest.raises(SimulationError) as exc:
            eng.run(max_events=1000)
        assert "max_events" in str(exc.value)
        assert "livelock" in str(exc.value)

    def test_attribute_cap_applies_to_every_run(self):
        eng = Engine()
        eng.max_events = 50

        def forever():
            eng.schedule(0.001, forever)

        eng.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            eng.run()

    def test_cap_counts_per_call_not_lifetime(self):
        """A well-behaved workload under the cap runs to quiescence in
        repeated calls without tripping the guard."""
        eng = Engine()
        fired = []
        for round_ in range(3):
            for i in range(40):
                eng.schedule(1.0, lambda i=i: fired.append(i))
            eng.run(max_events=50)
        assert len(fired) == 120


class _Recorder:
    """Defines every engine hook and logs each call under its name."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def task_started(self, task):
        self.log.append(("task_started", self.name, task.name))

    def task_finished(self, task):
        self.log.append(("task_finished", self.name, task.name))

    def resource_idle(self, resource, start, end):
        self.log.append(("resource_idle", self.name, resource.name,
                         start, end))

    def on_quiescence(self):
        self.log.append(("on_quiescence", self.name))


class TestSubscribe:
    def test_bare_engine_has_no_hooks(self):
        eng = Engine()
        assert eng.task_started_hooks == ()
        assert eng.task_finished_hooks == ()
        assert eng.resource_idle_hooks == ()
        assert eng.on_quiescence_hooks == ()

    def test_registers_only_the_hooks_an_object_defines(self):
        class StartsOnly:
            def task_started(self, task):
                pass

            def on_quiescence(self):
                pass

        eng, obj = Engine(), StartsOnly()
        eng.subscribe(obj)
        assert eng.task_started_hooks == (obj.task_started,)
        assert eng.on_quiescence_hooks == (obj.on_quiescence,)
        assert eng.task_finished_hooks == ()
        assert eng.resource_idle_hooks == ()

    def test_hooks_fan_out_in_subscription_order(self):
        eng, log = Engine(), []
        eng.subscribe(_Recorder("a", log))
        eng.subscribe(_Recorder("b", log))
        r = Resource(eng, "link")
        Task(eng, name="t", duration=2.0, resources=[r]).submit()
        eng.run()
        assert log == [
            ("task_started", "a", "t"), ("task_started", "b", "t"),
            ("resource_idle", "a", "link", 0.0, 2.0),
            ("resource_idle", "b", "link", 0.0, 2.0),
            ("task_finished", "a", "t"), ("task_finished", "b", "t"),
            ("on_quiescence", "a"), ("on_quiescence", "b"),
        ]

    def test_step_draining_the_queue_is_quiescence(self):
        eng, log = Engine(), []
        eng.subscribe(_Recorder("q", log))
        first = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.step()
        assert log == []                    # one event still queued
        eng.cancel(first)                   # already fired: a no-op
        assert eng.step()
        assert log == [("on_quiescence", "q")]
        # like run(), quiescence forgets cancellations
        assert eng._cancelled == set()
