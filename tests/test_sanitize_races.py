"""Seeded data races must be caught; synchronized code must stay clean.

The race detector's contract has two halves.  Positive: dropping a
``cudaStreamWaitEvent`` between a producer and a consumer on different
streams — the classic CUDA ordering bug — yields a race finding.
Negative: the identical access pattern *with* the event wait yields none.
The exchange-level test seeds the bug the way it happens in real codes: the
PEER_MEMCPY channel orders its cross-device copy before the unpack with an
event, and no-opping ``stream_wait_event`` makes the sanitizer light up.
"""

from types import SimpleNamespace

import pytest

import repro
from repro import Capability, Dim3
from repro.cuda.runtime import CudaContext
from repro.sanitize.races import RaceDetector
from repro.sanitize.report import SanitizerReport
from repro.sim import Engine, Task
from repro.topology import summit_machine


def make_ctx():
    cluster = repro.SimCluster.create(summit_machine(1), sanitize=True)
    world = repro.MpiWorld.create(cluster, 6)
    rank = world.ranks[0]
    return cluster, rank.ctx, rank.devices[0]


class TestKernelLevel:
    @pytest.mark.expect_findings
    def test_missing_event_wait_is_a_race(self):
        cluster, ctx, dev = make_ctx()
        buf = dev.alloc(1024)
        s1, s2 = ctx.create_stream(dev), ctx.create_stream(dev)
        ctx.launch_kernel(s1, 1024, what="writer", writes=[buf])
        ctx.launch_kernel(s2, 1024, what="reader", reads=[buf])
        cluster.run()
        report = cluster.finalize()
        races = report.by_checker("race")
        assert races, report.summary()
        assert any(buf.label in f.subjects for f in races)

    def test_event_wait_orders_the_streams(self):
        """Same access pattern, properly synchronized: zero findings."""
        cluster, ctx, dev = make_ctx()
        buf = dev.alloc(1024)
        s1, s2 = ctx.create_stream(dev), ctx.create_stream(dev)
        ctx.launch_kernel(s1, 1024, what="writer", writes=[buf])
        ev = ctx.event_record(s1)
        ctx.stream_wait_event(s2, ev)
        ctx.launch_kernel(s2, 1024, what="reader", reads=[buf])
        cluster.run()
        assert cluster.finalize().ok

    @pytest.mark.expect_findings
    def test_write_write_race(self):
        cluster, ctx, dev = make_ctx()
        buf = dev.alloc(512)
        s1, s2 = ctx.create_stream(dev), ctx.create_stream(dev)
        ctx.launch_kernel(s1, 512, what="w1", writes=[buf])
        ctx.launch_kernel(s2, 512, what="w2", writes=[buf])
        cluster.run()
        report = cluster.finalize()
        assert report.counts.get("race/write-write-race", 0) >= 1

    def test_disjoint_byte_ranges_do_not_race(self):
        """Box granularity: unordered writes to disjoint halves are legal
        (the consolidation staging pattern)."""
        cluster, ctx, dev = make_ctx()
        buf = dev.alloc(1024)
        s1, s2 = ctx.create_stream(dev), ctx.create_stream(dev)
        ctx.launch_kernel(s1, 512, what="lo", writes=[(buf, (0, 512))])
        ctx.launch_kernel(s2, 512, what="hi", writes=[(buf, (512, 512))])
        cluster.run()
        assert cluster.finalize().ok


class TestDedupe:
    """One finding per (earlier task, later task, buffer) triple."""

    @pytest.mark.expect_findings
    def test_two_writers_racing_one_reader_are_both_reported(self):
        cluster, ctx, dev = make_ctx()
        buf = dev.alloc(1024)
        s1, s2, s3 = (ctx.create_stream(dev) for _ in range(3))
        ctx.launch_kernel(s1, 512, what="lo", writes=[(buf, (0, 512))])
        ctx.launch_kernel(s2, 512, what="hi", writes=[(buf, (512, 512))])
        ctx.launch_kernel(s3, 1024, what="reader", reads=[buf])
        cluster.run()
        races = cluster.finalize().by_checker("race")
        assert [f.kind for f in races] == ["write-read-race"] * 2
        writers = sorted(f.tasks[0].split("/")[-1].split("#")[0] for f in races)
        assert writers == ["hi", "lo"]
        assert len({f.tasks[1] for f in races}) == 1

    def test_freed_earlier_task_does_not_hide_a_later_race(self):
        """The key survives the earlier task being freed and its address
        handed to a new task: both races are reported."""
        never_ordered = SimpleNamespace(happens_before=lambda prev, clock: False)
        report = SanitizerReport()
        det = RaceDetector(never_ordered, report)
        eng = Engine()
        buf = SimpleNamespace(label="buf")
        box = ("B", 0, 64)
        cur = Task(eng, "cur", 0.0)
        prev = Task(eng, "w1", 0.0)
        det._check_pair(buf, prev, "w", box, cur, "r", box, 0)
        del prev                      # freed by reference counting ...
        prev = Task(eng, "w2", 0.0)   # ... and CPython reuses the address
        det._check_pair(buf, prev, "w", box, cur, "r", box, 0)
        assert [f.tasks for f in report.findings] == [("w1", "cur"),
                                                      ("w2", "cur")]


class TestExchangeLevel:
    @pytest.mark.expect_findings
    def test_dropped_stream_wait_event_races_in_peer_channel(self, monkeypatch):
        """No-op ``cudaStreamWaitEvent``: the PEER_MEMCPY unpack no longer
        waits for the cross-device copy and the sanitizer must say so."""
        monkeypatch.setattr(CudaContext, "stream_wait_event",
                            lambda self, stream, event: None)
        cluster = repro.SimCluster.create(summit_machine(1), sanitize=True)
        world = repro.MpiWorld.create(cluster, 1)
        dd = repro.DistributedDomain(world, size=Dim3(18, 12, 12), radius=1,
                                     capabilities=Capability.plus_peer())
        dd.realize()
        from repro.core.methods import ExchangeMethod
        assert ExchangeMethod.PEER_MEMCPY in dd.plan.method_counts()
        dd.exchange()
        report = cluster.finalize()
        races = report.by_checker("race")
        assert races, report.summary()

    def test_intact_peer_channel_is_clean(self):
        """Control for the test above: with the event wait in place the
        same exchange has no findings."""
        cluster = repro.SimCluster.create(summit_machine(1), sanitize=True)
        world = repro.MpiWorld.create(cluster, 1)
        dd = repro.DistributedDomain(world, size=Dim3(18, 12, 12), radius=1,
                                     capabilities=Capability.plus_peer())
        dd.realize()
        dd.exchange()
        report = cluster.finalize()
        assert report.ok, report.summary()
