"""Tests for dependency-graph tasks and signals."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Resource, Signal, Task


def make(eng, name, dur, res=(), deps=(), action=None):
    return Task(eng, name=name, duration=dur, resources=res, deps=deps,
                action=action).submit()


class TestBasics:
    def test_runs_and_completes(self):
        eng = Engine()
        t = make(eng, "t", 2.0)
        eng.run()
        assert t.completed
        assert t.start_time == 0.0
        assert t.completion_time == 2.0

    def test_dependency_ordering(self):
        eng = Engine()
        a = make(eng, "a", 1.0)
        b = make(eng, "b", 1.0, deps=[a])
        eng.run()
        assert b.start_time == 1.0

    def test_diamond_dependencies(self):
        eng = Engine()
        a = make(eng, "a", 1.0)
        b = make(eng, "b", 2.0, deps=[a])
        c = make(eng, "c", 3.0, deps=[a])
        d = make(eng, "d", 1.0, deps=[b, c])
        eng.run()
        assert d.start_time == 4.0  # max(1+2, 1+3)

    def test_completed_dep_is_noop(self):
        eng = Engine()
        a = make(eng, "a", 1.0)
        eng.run()
        b = make(eng, "b", 1.0, deps=[a])
        eng.run()
        assert b.completed

    def test_action_runs_at_completion(self):
        eng = Engine()
        seen = []
        make(eng, "t", 3.0, action=lambda: seen.append(eng.now))
        eng.run()
        assert seen == [3.0]

    def test_on_complete_callbacks(self):
        eng = Engine()
        t = make(eng, "t", 1.0)
        seen = []
        t.on_complete(lambda task: seen.append(task.name))
        eng.run()
        t.on_complete(lambda task: seen.append("late"))
        assert seen == ["t", "late"]

    def test_deps_empty_without_retain_dag(self):
        eng = Engine()
        a = make(eng, "a", 1.0)
        b = make(eng, "b", 1.0, deps=[a])
        eng.run()
        assert a.deps == () and b.deps == ()

    def test_deps_retained_with_retain_dag(self):
        eng = Engine()
        eng.retain_dag = True
        done = make(eng, "done", 1.0)
        eng.run()
        sig = Signal("s")
        a = make(eng, "a", 1.0)
        b = make(eng, "b", 1.0, deps=[done, a, sig])
        assert b.deps == (done, a, sig)     # the completed dep is kept too
        sig.fire(eng)
        eng.run()
        assert b.completed and b.deps == (done, a, sig)
        assert a.deps == ()

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Task(Engine(), name="t", duration=-1.0)

    def test_double_submit_rejected(self):
        eng = Engine()
        t = make(eng, "t", 1.0)
        with pytest.raises(SimulationError):
            t.submit()

    def test_add_dep_after_submit_rejected(self):
        eng = Engine()
        t = make(eng, "t", 1.0)
        with pytest.raises(SimulationError):
            t.add_dep(make(eng, "u", 1.0))


class TestResources:
    def test_tasks_contend(self):
        eng = Engine()
        r = Resource(eng, "r")
        a = make(eng, "a", 2.0, res=[r])
        b = make(eng, "b", 2.0, res=[r])
        eng.run()
        assert a.completion_time == 2.0
        assert b.start_time == 2.0

    def test_dep_then_resource(self):
        """A task waits for deps first, only then queues on resources."""
        eng = Engine()
        r = Resource(eng, "r")
        gate = make(eng, "gate", 3.0)
        filler = make(eng, "filler", 1.0, res=[r])
        late = make(eng, "late", 1.0, res=[r], deps=[gate])
        eng.run()
        assert filler.start_time == 0.0
        assert late.start_time == 3.0  # resource free by then


class TestSignals:
    def test_signal_gates_task(self):
        eng = Engine()
        s = Signal("go")
        t = make(eng, "t", 1.0, deps=[s])
        eng.schedule(5.0, lambda: s.fire(eng))
        eng.run()
        assert t.start_time == 5.0

    def test_fire_twice_rejected(self):
        eng = Engine()
        s = Signal("s")
        s.fire(eng)
        with pytest.raises(SimulationError):
            s.fire(eng)

    def test_completed_signal_dep_is_noop(self):
        eng = Engine()
        s = Signal("s")
        s.fire(eng)
        t = make(eng, "t", 1.0, deps=[s])
        eng.run()
        assert t.completed

    def test_signal_completion_time(self):
        eng = Engine()
        s = Signal("s")
        eng.schedule(2.5, lambda: s.fire(eng))
        eng.run()
        assert s.completion_time == 2.5


class TestGraphs:
    def test_chain_of_100(self):
        eng = Engine()
        prev = None
        tasks = []
        for i in range(100):
            t = Task(eng, name=f"t{i}", duration=0.5,
                     deps=[prev] if prev else [])
            t.submit()
            tasks.append(t)
            prev = t
        eng.run()
        assert tasks[-1].completion_time == pytest.approx(50.0)

    def test_wide_fanout_on_resource(self):
        eng = Engine()
        r = Resource(eng, "r", capacity=4)
        root = make(eng, "root", 1.0)
        leaves = [make(eng, f"l{i}", 1.0, res=[r], deps=[root])
                  for i in range(16)]
        eng.run()
        # 16 tasks, 4 at a time, 1s each => finishes at 1 + 4.
        assert max(t.completion_time for t in leaves) == pytest.approx(5.0)
