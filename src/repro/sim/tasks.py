"""Dependency-graph tasks executed over the event engine.

A :class:`Task` is one primitive operation in an exchange: a kernel launch,
an async memcpy, an MPI wire transfer, a CPU issue slice.  Tasks declare

* ``deps`` — tasks/signals that must complete first (stream ordering, state
  machine phases, message matching),
* ``resources`` — the sim resources held while running (contention),
* ``duration`` — seconds of virtual time held, and
* ``action`` — an optional side effect (real data movement) applied at
  completion time, so observable memory state respects the virtual ordering.

:class:`Signal` is a manually-fired dependency used for conditions that are
not themselves operations (e.g. "a matching MPI receive has been posted").
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Union

from ..errors import SimulationError
from .engine import Engine
from .resources import Resource, acquire

_task_ids = itertools.count()

Dep = Union["Task", "Signal"]


class Signal:
    """A manually-completed dependency (a one-shot future).

    Tasks may depend on signals exactly as on other tasks.  ``fire()``
    completes the signal at the current virtual time.
    """

    __slots__ = ("name", "completed", "completion_time", "_dependents",
                 "source", "consumed")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.completed = False
        self.completion_time: Optional[float] = None
        self._dependents: List["Task"] = []
        #: the task whose completion fired this signal, when known — lets
        #: critical-path walks continue through request/condition boundaries
        self.source: Optional["Task"] = None
        #: True once some task depended on this signal — the event-driven
        #: sense of "the completion was observed" (MPI leak checking)
        self.consumed = False

    def fire(self, engine: Engine, source: Optional["Task"] = None) -> None:
        if self.completed:
            raise SimulationError(f"signal fired twice: {self.name}")
        self.completed = True
        self.completion_time = engine.now
        if source is not None:
            self.source = source
        dependents, self._dependents = self._dependents, []
        for t in dependents:
            t._dep_completed(engine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signal({self.name!r}, completed={self.completed})"


class Task:
    """One primitive simulated operation.

    Parameters
    ----------
    engine:
        Event engine providing the clock.
    name:
        Label for traces and error messages.
    duration:
        Seconds the operation holds its resources.
    resources:
        Resources held for the duration (may be empty).
    deps:
        Tasks or signals that must complete before this becomes eligible.
    action:
        Optional ``callable()`` run at *completion* time — used for the real
        data movement in data mode.
    lane / kind:
        Trace metadata: ``lane`` groups spans into a timeline row (e.g.
        ``"gpu0"``), ``kind`` categorizes (``"pack"``, ``"d2h"``, ...).
        A subscribed :class:`~repro.sim.trace.Tracer` records a span for
        every finished task with a ``lane``.
    bytes:
        Payload size, recorded in the trace (0 for non-transfer ops).

    Lifecycle: constructed → ``submit()`` → waits on deps → acquires
    resources → runs → completes (action, callbacks, dependents notified).
    A completed task keeps its timing and names but no longer its
    ``action``, callbacks or dependents.
    """

    __slots__ = ("engine", "name", "duration", "resources", "action",
                 "lane", "kind", "bytes", "_id", "_remaining_deps",
                 "_dependents", "_callbacks", "submitted", "started",
                 "completed", "start_time", "completion_time", "_request",
                 "_deps", "eligible_time")

    def __init__(self, engine: Engine, name: str, duration: float,
                 resources: Sequence[Resource] = (),
                 deps: Sequence[Dep] = (),
                 action: Optional[Callable[[], None]] = None,
                 lane: str = "", kind: str = "",
                 bytes: int = 0) -> None:
        if duration < 0:
            raise SimulationError(f"negative duration for task {name}")
        self.engine = engine
        self.name = name
        self.duration = duration
        self.resources = tuple(resources)
        self.action = action
        self.lane = lane
        self.kind = kind
        self.bytes = bytes
        self._id = next(_task_ids)
        # ``_dependents``, ``_callbacks`` and ``_deps`` start as None and
        # become lists on first append: most tasks get no callback, and
        # none keeps ``_deps`` unless the engine retains the DAG.
        self._dependents: Optional[List[Task]] = None
        self._callbacks: Optional[List[Callable[["Task"], None]]] = None
        self.submitted = False
        self.started = False
        self.completed = False
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.eligible_time: Optional[float] = None
        self._request = None
        self._remaining_deps = 0
        self._deps: Optional[List[Dep]] = None
        for d in deps:
            self.add_dep(d)

    # -- graph construction ---------------------------------------------------
    def add_dep(self, dep: Dep) -> None:
        """Add a dependency.  Must be called before :meth:`submit`."""
        if self.submitted:
            raise SimulationError(f"add_dep after submit: {self.name}")
        if dep is None:
            return
        if dep.__class__ is Signal:
            dep.consumed = True
        if self.engine.retain_dag:
            # Already-completed deps are kept too: the latest-finishing dep
            # determines eligibility regardless of when it was attached.
            if self._deps is None:
                self._deps = [dep]
            else:
                self._deps.append(dep)
        if dep.completed:
            return
        if dep._dependents is None:
            dep._dependents = [self]
        else:
            dep._dependents.append(self)
        self._remaining_deps += 1

    def on_complete(self, fn: Callable[["Task"], None]) -> None:
        """Register a completion callback (fires after ``action``)."""
        if self.completed:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    # -- execution ---------------------------------------------------------------
    def submit(self) -> "Task":
        """Make the task live: it runs once its dependencies complete."""
        if self.submitted:
            raise SimulationError(f"task submitted twice: {self.name}")
        self.submitted = True
        if self._remaining_deps == 0:
            self._acquire()
        return self

    def _dep_completed(self, engine: Engine) -> None:
        self._remaining_deps -= 1
        if self._remaining_deps < 0:
            raise SimulationError(f"dependency underflow in {self.name}")
        if self.submitted and self._remaining_deps == 0:
            self._acquire()

    def _acquire(self) -> None:
        self.eligible_time = self.engine.now
        self._request = acquire(self.engine, self.resources, self._start,
                                label=self.name)

    # -- profiling views ------------------------------------------------------
    @property
    def deps(self) -> Sequence[Dep]:
        """The recorded dependencies (empty unless ``engine.retain_dag``)."""
        return () if self._deps is None else tuple(self._deps)

    @property
    def queue_wait(self) -> float:
        """Seconds spent between eligibility (all deps done) and start —
        time queued for resources."""
        if self.start_time is None or self.eligible_time is None:
            return 0.0
        return self.start_time - self.eligible_time

    @property
    def blocked_resources(self) -> Sequence[Resource]:
        """The resources that were full when this task requested its set
        (empty if it never queued)."""
        if self._request is None:
            return ()
        return self._request.blocked_on

    def _start(self) -> None:
        self.started = True
        self.start_time = self.engine.now
        for hook in self.engine.task_started_hooks:
            hook(self)
        self.engine.schedule(self.duration, self._finish)

    def _finish(self) -> None:
        assert self._request is not None
        self._request.release()
        engine = self.engine
        self.completed = True
        self.completion_time = engine.now
        # A finished task drops its action (and the closure cells it pins):
        # tasks outlive their round as stream tails and in instruments.
        action = self.action
        if action is not None:
            self.action = None
            action()
        for hook in engine.task_finished_hooks:
            hook(self)
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for cb in callbacks:
                cb(self)
        dependents = self._dependents
        if dependents is not None:
            self._dependents = None
            for t in dependents:
                t._dep_completed(engine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("done" if self.completed else
                 "running" if self.started else
                 "waiting" if self.submitted else "new")
        return f"Task({self.name!r}, {state})"
