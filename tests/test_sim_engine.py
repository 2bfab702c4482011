"""Tests for the discrete-event engine."""

import functools
import heapq

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_schedule_at_nan_inf_rejected(self):
        eng = Engine()
        for when in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                eng.schedule_at(when, lambda: None)
        assert eng.pending_events() == 0
        eng.run()
        assert eng.now == 0.0

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

    def test_run_until_before_now_rejected(self):
        eng = Engine()
        fired = []
        eng.schedule(2.0, lambda: fired.append(2))
        eng.schedule(3.0, lambda: fired.append(3))
        eng.run(until=2.5)
        with pytest.raises(SimulationError):
            eng.run(until=1.0)
        assert eng.now == 2.5 and fired == [2]
        eng.run(until=2.5)                  # until == now is allowed
        eng.run()
        assert fired == [2, 3] and eng.now == 3.0

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


class HeapEngine:
    """Reference: the engine as one heap ordered by ``(when, seq)``, with no
    same-instant lane.  The real engine must dispatch exactly like it."""

    def __init__(self):
        self.now, self.heap, self.seq = 0.0, [], 0
        self.cancelled, self.events_processed, self.quiescences = set(), 0, 0

    def schedule(self, delay, cb):
        return self.schedule_at(self.now + delay, cb)

    def schedule_at(self, when, cb):
        heapq.heappush(self.heap, (when, self.seq, cb))
        self.seq += 1
        return self.seq - 1

    def cancel(self, event_id):
        self.cancelled.add(event_id)

    def pending_events(self):
        return len(self.heap)

    def run(self, until=None, max_events=None):
        dispatched = 0
        while self.heap:
            when, seq, cb = self.heap[0]
            if seq in self.cancelled:
                heapq.heappop(self.heap)
                self.cancelled.discard(seq)
                continue
            if until is not None and when > until:
                self.now = until
                break
            if max_events is not None and dispatched >= max_events:
                raise SimulationError("max_events")
            heapq.heappop(self.heap)
            self.now = when
            self.events_processed += 1
            dispatched += 1
            cb()
        if not self.heap:
            self._quiesce()
        return self.now

    def step(self):
        ran = False
        while self.heap and not ran:
            when, seq, cb = heapq.heappop(self.heap)
            if seq in self.cancelled:
                self.cancelled.discard(seq)
                continue
            self.now = when
            self.events_processed += 1
            cb()
            ran = True
        if not self.heap:
            self._quiesce()
        return ran

    def _quiesce(self):
        self.cancelled.clear()
        self.quiescences += 1


class _Quiescences:
    def __init__(self):
        self.quiescences = 0

    def on_quiescence(self):
        self.quiescences += 1


_DELAYS = st.one_of(st.sampled_from((0.0, 0.5, 1.0)),
                    st.floats(min_value=0.0, max_value=3.0))
_ACTIONS = st.one_of(
    st.tuples(st.just("delay"), _DELAYS),
    st.tuples(st.just("now")),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
_OPS = st.one_of(
    _ACTIONS,
    st.tuples(st.just("run")),
    st.tuples(st.just("run_until"), st.sampled_from((0.0, 0.5, 1.0, 3.0))),
    st.tuples(st.just("run_cap"), st.integers(0, 6)),
    st.tuples(st.just("step"), st.integers(1, 4)),
)
_FIRE_LIMIT = 80


def _drive(eng, quiescences, program, ops):
    """Apply ``ops`` to ``eng``; the k-th dispatched callback runs the
    actions ``program[k % len(program)]`` (schedule more, schedule at now,
    cancel).  Returns every observation made along the way, including which
    event (by scheduling index) each dispatch ran."""
    fired, ids, log = [], [], []

    def fire(label):
        k = len(fired)
        fired.append((label, eng.now))
        if k < _FIRE_LIMIT:
            for act in program[k % len(program)]:
                do(act)

    def do(act):
        cb = functools.partial(fire, len(ids))
        if act[0] == "delay":
            ids.append(eng.schedule(act[1], cb))
        elif act[0] == "now":
            ids.append(eng.schedule_at(eng.now, cb))
        elif ids:
            eng.cancel(ids[act[1] % len(ids)])

    for op in ops:
        if op[0] == "run":
            eng.run()
        elif op[0] == "run_until":
            eng.run(until=eng.now + op[1])
        elif op[0] == "run_cap":
            try:
                eng.run(max_events=op[1])
                log.append("ok")
            except SimulationError:
                log.append("raised")
        elif op[0] == "step":
            log.extend(eng.step() for _ in range(op[1]))
        else:
            do(op)
        log.append((eng.now, eng.events_processed, eng.pending_events(),
                    quiescences()))
    return fired, ids, log


class TestSameInstantLane:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_ACTIONS, max_size=3), min_size=1, max_size=8),
           st.lists(_OPS, min_size=1, max_size=30))
    def test_matches_heap_only_reference(self, program, ops):
        eng, q = Engine(), _Quiescences()
        eng.subscribe(q)
        ref = HeapEngine()
        assert _drive(eng, lambda: q.quiescences, program, ops) == \
            _drive(ref, lambda: ref.quiescences, program, ops)

    @pytest.mark.parametrize("drain", ["run", "step"])
    def test_heap_entries_at_now_precede_the_lane(self, drain):
        eng = Engine()
        fired = []

        def first():
            fired.append("first")
            eng.schedule(0.0, lambda: fired.append("lane"))

        eng.schedule(1.0, first)
        eng.schedule(1.0, lambda: fired.append("second"))
        if drain == "run":
            eng.run()
        else:
            while eng.step():
                pass
        assert fired == ["first", "second", "lane"]


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
