"""Tests for resource contention and atomic multi-resource acquisition."""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, Resource, resources as resources_mod
from repro.sim.resources import AcquireRequest, acquire


def hold(eng, resources, duration, log, name):
    """Acquire, hold for `duration`, record [start, end] times."""
    def on_grant():
        log.append((name, "start", eng.now))
        eng.schedule(duration, finish)
    req = acquire(eng, resources, on_grant, label=name)

    def finish():
        log.append((name, "end", eng.now))
        req.release()
    return req


class TestSingleResource:
    def test_capacity_one_serializes(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        hold(eng, [r], 1.0, log, "a")
        hold(eng, [r], 1.0, log, "b")
        eng.run()
        assert log == [("a", "start", 0.0), ("a", "end", 1.0),
                       ("b", "start", 1.0), ("b", "end", 2.0)]

    def test_capacity_two_overlaps(self):
        eng = Engine()
        r = Resource(eng, "r", capacity=2)
        log = []
        for n in "abc":
            hold(eng, [r], 1.0, log, n)
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        assert starts["a"] == 0.0 and starts["b"] == 0.0
        assert starts["c"] == 1.0

    def test_fifo_order(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        for n in "abcd":
            hold(eng, [r], 1.0, log, n)
        eng.run()
        order = [n for (n, k, _) in log if k == "start"]
        assert order == list("abcd")

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), "r", capacity=0)

    def test_utilization(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        hold(eng, [r], 2.0, log, "a")
        eng.run()
        eng.schedule(2.0, lambda: None)  # idle period
        eng.run()
        assert r.utilization() == pytest.approx(0.5)


class TestMultiResource:
    def test_atomic_acquisition(self):
        """An op needing both A and B holds them together or not at all."""
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a], 1.0, log, "a_only")
        hold(eng, [a, b], 1.0, log, "both")
        hold(eng, [b], 1.0, log, "b_only")
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        # "both" can't start until a frees; "b_only" is work-conserving and
        # doesn't wait behind the blocked "both".
        assert starts["a_only"] == 0.0
        assert starts["b_only"] == 0.0
        assert starts["both"] == 1.0

    def test_work_conserving_skip(self):
        """A blocked request does not stall later independent requests."""
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a], 5.0, log, "long")
        hold(eng, [a, b], 1.0, log, "blocked")
        hold(eng, [b], 1.0, log, "indep")
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        assert starts["indep"] == 0.0
        assert starts["blocked"] == 5.0

    def test_no_deadlock_on_crossing_requests(self):
        """Opposite-order resource lists cannot deadlock (all-or-nothing)."""
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a, b], 1.0, log, "ab")
        hold(eng, [b, a], 1.0, log, "ba")
        eng.run()
        assert {n for (n, k, _) in log if k == "end"} == {"ab", "ba"}

    def test_duplicate_resources_collapsed(self):
        eng = Engine()
        a = Resource(eng, "a")
        log = []
        hold(eng, [a, a], 1.0, log, "dup")
        eng.run()
        assert ("dup", "end", 1.0) in log

    def test_empty_resource_set_grants_immediately(self):
        eng = Engine()
        log = []
        hold(eng, [], 1.0, log, "free")
        eng.run()
        assert log == [("free", "start", 0.0), ("free", "end", 1.0)]


class TestReleaseErrors:
    def test_double_release(self):
        eng = Engine()
        a = Resource(eng, "a")
        reqs = []
        reqs.append(acquire(eng, [a], lambda: None, "x"))
        eng.run()
        reqs[0].release()
        with pytest.raises(SimulationError):
            reqs[0].release()

    def test_release_before_grant(self):
        eng = Engine()
        a = Resource(eng, "a")
        held = acquire(eng, [a], lambda: None, "held")
        waiting = acquire(eng, [a], lambda: None, "waiting")
        with pytest.raises(SimulationError):
            waiting.release()
        eng.run()
        held.release()


class TestScale:
    def test_many_waiters_drain_in_order(self):
        eng = Engine()
        r = Resource(eng, "r")
        log = []
        for i in range(200):
            hold(eng, [r], 0.01, log, i)
        eng.run()
        order = [n for (n, k, _) in log if k == "start"]
        assert order == list(range(200))


class TestParking:
    """Each blocked request waits on exactly one full resource."""

    def test_waiter_reparks_until_its_other_resource_frees(self):
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a], 1.0, log, "x")
        hold(eng, [b], 2.0, log, "y")
        w = hold(eng, [a, b], 1.0, log, "w")
        assert (a._waiters, b._waiters) == ([w], [])
        eng.run(until=1.5)
        # a freed at t=1 but b is still full: w moved over to b
        assert (a._waiters, b._waiters) == ([], [w])
        eng.run()
        assert ("w", "start", 2.0) in log

    def test_capacity_two_with_three_waiters(self):
        eng = Engine()
        r = Resource(eng, "r", capacity=2)
        log = []
        hold(eng, [r], 1.0, log, "h1")
        hold(eng, [r], 2.0, log, "h2")
        ws = [hold(eng, [r], 1.0, log, n) for n in ("w1", "w2", "w3")]
        assert r._waiters == ws
        eng.run(until=1.5)
        assert r._waiters == ws[1:]     # re-parked in arrival order
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        assert (starts["w1"], starts["w2"], starts["w3"]) == (1.0, 2.0, 2.0)

    def test_reparks_on_a_resource_drained_earlier_in_the_same_wake(self):
        eng = Engine()
        a, b = Resource(eng, "a"), Resource(eng, "b")
        log = []
        hold(eng, [a, b], 1.0, log, "h")
        w1 = hold(eng, [a], 1.0, log, "w1")
        w2 = hold(eng, [b, a], 1.0, log, "w2")
        assert (a._waiters, b._waiters) == ([w1], [w2])
        eng.run(until=1.5)
        # one wake took both lists; w1 refilled a, so w2 parks on a
        assert (a._waiters, b._waiters) == ([w2], [])
        eng.run()
        starts = {n: t for (n, k, t) in log if k == "start"}
        assert (starts["w1"], starts["w2"]) == (1.0, 2.0)

    def test_granted_request_drops_its_callback(self):
        eng = Engine()
        a = Resource(eng, "a")
        held = acquire(eng, [a], lambda: None, "held")
        waiting = acquire(eng, [a], lambda: None, "waiting")
        assert held.on_grant is None and waiting.on_grant is not None
        eng.run()
        held.release()
        assert waiting.granted and waiting.on_grant is None
        eng.run()
        waiting.release()


def _scan_wake(queues):
    """The reference grant policy: every blocked request queues on all its
    resources, and a release re-checks every waiter of every released
    resource in arrival order."""
    def wake(engine, released):
        candidates = {w.seq: w for r in released for w in queues[r._id]}
        for seq in sorted(candidates):
            w = candidates[seq]
            if w._grantable():
                w._grant(engine)
                for r in w.resources:
                    queues[r._id].remove(w)

    def acquire_all_queues(engine, resources, on_grant, label=""):
        req = AcquireRequest(tuple({r._id: r for r in resources}.values()),
                             on_grant, label)
        req.request_time = engine.now
        if req._grantable():
            req._grant(engine)
        else:
            req.blocked_on = tuple(r for r in req.resources if r.free_slots <= 0)
            for r in req.resources:
                queues[r._id].append(req)
        return req
    return wake, acquire_all_queues


def _drive(capacities, stream, reference):
    """Run ``stream`` of (arrival, resource indices, duration) requests;
    return grant order with start times and per-resource accounting."""
    eng = Engine()
    res = [Resource(eng, f"r{i}", capacity=c) for i, c in enumerate(capacities)]
    acq, patch = acquire, contextlib.nullcontext()
    if reference:
        wake, acq = _scan_wake({r._id: [] for r in res})
        patch = mock.patch.object(resources_mod, "_wake_waiters", wake)
    grants = []

    def submit(i, idx, duration):
        def on_grant():
            grants.append((i, eng.now))
            eng.schedule(duration, req.release)
        req = acq(eng, [res[j] for j in idx], on_grant, label=str(i))

    for i, (arrival, idx, duration) in enumerate(stream):
        eng.schedule(arrival, lambda i=i, idx=idx, d=duration: submit(i, idx, d))
    with patch:
        eng.run()
    assert not any(r._waiters or r.in_use for r in res)
    return grants, [(r.busy_time, r.wait_time, r.wait_count) for r in res]


@st.composite
def request_streams(draw):
    n = draw(st.integers(2, 5))
    capacities = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    stream = draw(st.lists(st.tuples(
        st.integers(0, 4),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
        st.sampled_from((0, 1, 2))), min_size=1, max_size=30))
    return capacities, stream


class TestParkingMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(request_streams())
    def test_same_grants_times_and_accounting(self, case):
        capacities, stream = case
        assert _drive(capacities, stream, reference=False) == \
            _drive(capacities, stream, reference=True)
