"""Contended resources with atomic multi-resource acquisition.

A :class:`Resource` models anything an operation can occupy exclusively for
a span of virtual time: a link (an NVLink brick, the X-Bus, a NIC port), a
GPU copy engine, a GPU kernel engine, a CPU issue thread, or an MPI progress
engine.  Resources have an integer ``capacity``: a copy engine with capacity
1 serializes copies; a kernel engine with capacity 4 lets four pack kernels
overlap.

Operations frequently need several resources *simultaneously* — a
cross-socket peer copy holds the source GPU's NVLink to its CPU, the X-Bus,
and the destination GPU's NVLink.  :class:`AcquireRequest` acquires a whole
set atomically (all-or-nothing), which rules out partial-hold deadlock by
construction: nothing is ever held while waiting.

Grant policy
------------
Requests are granted in global arrival order, but a blocked request does not
stall later requests whose resources are free (a "work-conserving FIFO").
This mirrors how independent DMA engines and links proceed in parallel on
real hardware while transfers sharing a link queue up, and it is fully
deterministic.

A blocked request is *parked* on exactly one of its full resources rather
than queued on all of them.  A release wakes only the requests parked on the
released resources; each is granted or re-parked on a resource that is still
full.  A request parked elsewhere sits on a full resource that the release
did not touch, so it could not have been granted anyway: the grant policy
above is unchanged, only the number of requests re-checked shrinks.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .engine import Engine

_resource_ids = itertools.count()


class Resource:
    """A named, capacity-limited resource.

    Parameters
    ----------
    engine:
        The owning event engine.
    name:
        Human-readable name, used in traces (e.g. ``"node0/gpu2/nvlink"``).
    capacity:
        Number of slots that may be held concurrently.
    bandwidth:
        Optional data rate in bytes/second.  Purely advisory — duration
        computation lives with the operation — but recorded here so link-type
        resources can expose their speed to cost models.
    """

    __slots__ = ("engine", "name", "capacity", "bandwidth", "bandwidth_scale",
                 "_in_use", "_waiters", "_id", "busy_time", "_last_busy_start",
                 "wait_time", "wait_count")

    def __init__(self, engine: Engine, name: str, capacity: int = 1,
                 bandwidth: Optional[float] = None) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.bandwidth = bandwidth
        #: multiplicative health factor on the effective data rate, in
        #: (0, 1].  1.0 means nominal; the fault layer lowers it during a
        #: ``link_degrade`` window and operations traversing this resource
        #: take 1/scale longer.  Nothing in the base simulator writes it.
        self.bandwidth_scale: float = 1.0
        self._in_use = 0
        #: blocked requests parked here; each is parked on one full resource
        self._waiters: List["AcquireRequest"] = []
        self._id = next(_resource_ids)
        # Utilization accounting (any slot held counts as busy).
        self.busy_time = 0.0
        self._last_busy_start: Optional[float] = None
        # Queueing accounting: total seconds granted requests spent waiting
        # while this resource had no free slot, and how many requests waited.
        self.wait_time = 0.0
        self.wait_count = 0

    # -- state ------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def free_slots(self) -> int:
        return self.capacity - self._in_use

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time at least one slot was held."""
        total = self.busy_time
        if self._last_busy_start is not None:
            total += self.engine.now - self._last_busy_start
        if elapsed is None:
            elapsed = self.engine.now
        return total / elapsed if elapsed > 0 else 0.0

    # -- internal occupancy bookkeeping -------------------------------------
    def _occupy(self) -> None:
        if self._in_use >= self.capacity:
            raise SimulationError(f"over-acquired resource {self.name}")
        if self._in_use == 0:
            self._last_busy_start = self.engine.now
        self._in_use += 1

    def _vacate(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"over-released resource {self.name}")
        self._in_use -= 1
        if self._in_use == 0 and self._last_busy_start is not None:
            now = self.engine.now
            self.busy_time += now - self._last_busy_start
            for hook in self.engine.resource_idle_hooks:
                hook(self, self._last_busy_start, now)
            self._last_busy_start = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource({self.name!r}, {self._in_use}/{self.capacity})"


_request_seq = itertools.count()


class AcquireRequest:
    """A pending atomic acquisition of a set of resources.

    Created via :func:`acquire`.  When every requested resource has a free
    slot the request is *granted*: slots are taken and ``on_grant`` is
    scheduled at the current instant, then dropped (so a granted request
    does not keep its holder alive through the callback).  The holder must
    later call :meth:`release` exactly once.
    """

    __slots__ = ("resources", "on_grant", "seq", "granted", "released", "label",
                 "request_time", "grant_time", "blocked_on")

    def __init__(self, resources: Tuple[Resource, ...],
                 on_grant: Callable[[], None], label: str = "") -> None:
        self.resources = resources
        self.on_grant: Optional[Callable[[], None]] = on_grant
        self.seq = next(_request_seq)
        self.granted = False
        self.released = False
        self.label = label
        # Queue-wait accounting, stamped by acquire()/_grant().
        self.request_time: Optional[float] = None
        self.grant_time: Optional[float] = None
        #: resources with no free slot at request time (the queueing culprits)
        self.blocked_on: Tuple[Resource, ...] = ()

    @property
    def wait(self) -> float:
        """Seconds this request spent queued before its grant (0 so far
        if still waiting)."""
        if self.request_time is None or self.grant_time is None:
            return 0.0
        return self.grant_time - self.request_time

    def _grantable(self) -> bool:
        for r in self.resources:
            if r._in_use >= r.capacity:
                return False
        return True

    def _grant(self, engine: Engine) -> None:
        self.granted = True
        self.grant_time = engine.now
        if self.request_time is not None:
            waited = self.grant_time - self.request_time
            if waited > 0.0:
                # Attribute the wait to the resources that were full when
                # the request arrived (every one of them gated the grant).
                for r in self.blocked_on or self.resources:
                    r.wait_time += waited
                    r.wait_count += 1
        for r in self.resources:
            r._occupy()
        # Defer the callback through the event queue so grants triggered by a
        # release all observe consistent resource state.  Dropping it breaks
        # the task -> request -> bound task method cycle.
        engine.schedule(0.0, self.on_grant)
        self.on_grant = None

    def _park(self) -> None:
        """Queue on the first full resource (the request is not grantable)."""
        for r in self.resources:
            if r._in_use >= r.capacity:
                r._waiters.append(self)
                return

    def release(self) -> None:
        """Release all held slots and wake eligible waiters."""
        if not self.granted:
            raise SimulationError(f"release before grant: {self.label}")
        if self.released:
            raise SimulationError(f"double release: {self.label}")
        self.released = True
        engine = self.resources[0].engine if self.resources else None
        for r in self.resources:
            r._vacate()
        if engine is not None:
            _wake_waiters(engine, self.resources)


def acquire(engine: Engine, resources: Sequence[Resource],
            on_grant: Callable[[], None], label: str = "") -> AcquireRequest:
    """Atomically acquire ``resources``; run ``on_grant`` when granted.

    Duplicate resources in the set are collapsed (an op never needs two
    slots of the same resource here).  Requests with an empty resource set
    are granted immediately.  A tuple without duplicates (the common case:
    a task's own ``resources``) is used as is, not copied.
    """
    if resources.__class__ is not tuple:
        resources = tuple(resources)
    if len(resources) > 1 and len(set(resources)) < len(resources):
        # Deduplicate, keeping the first-seen order (deterministic).
        resources = tuple(dict.fromkeys(resources))
    req = AcquireRequest(resources, on_grant, label)
    req.request_time = engine.now
    if req._grantable():
        req._grant(engine)
    else:
        req.blocked_on = tuple([r for r in resources
                                if r._in_use >= r.capacity])
        req.blocked_on[0]._waiters.append(req)
    return req


def _wake_waiters(engine: Engine, released: Iterable[Resource]) -> None:
    """After a release, grant every now-satisfiable waiter in arrival order.

    Takes the requests parked on the released resources and re-checks them
    in ``seq`` order, granting each one whose whole set has a free slot and
    re-parking the rest on their first still-full resource.  Requests parked
    on other resources stay put: their resource is full and nothing in this
    wake frees a slot there, so re-checking them could not grant them.
    """
    woken: List[AcquireRequest] = []
    for r in released:
        if r._waiters:
            woken += r._waiters
            r._waiters = []
    if len(woken) > 1:
        woken.sort(key=attrgetter("seq"))
    for w in woken:
        if w._grantable():
            w._grant(engine)
        else:
            w._park()
