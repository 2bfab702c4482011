"""Finished tasks are freed by reference counting, not the cyclic collector.

A granted request drops its ``on_grant`` callback, so no task is kept in a
``Task -> AcquireRequest -> bound Task method`` cycle.  These tests pause
the collector around a run and then check that a collection finds nothing:
a cycle that creeps back in shows up as a non-zero count.
"""

import contextlib
import gc

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.sim import Engine, Resource, Task


@contextlib.contextmanager
def collector_paused():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_engine_tasks_leave_no_cyclic_garbage():
    with collector_paused():
        eng = Engine()
        link = Resource(eng, "link")
        engines = Resource(eng, "engines", capacity=2)
        prev = None
        for i in range(50):
            t = Task(eng, f"t{i}", 1.0, resources=[link, engines][: 1 + i % 2],
                     deps=[prev] if prev is not None and i % 3 else (),
                     action=lambda: None)
            t.submit()
            prev = t
        prev = t = None
        eng.run()
        assert gc.collect() == 0


def test_exchange_round_leaves_no_cyclic_garbage():
    dd, _cluster = build_domain(parse_config("1n/2r/6g/96"), sanitize=False,
                                metrics=False, precheck=False)
    dd.exchange()
    with collector_paused():
        dd.exchange()
        assert gc.collect() == 0
