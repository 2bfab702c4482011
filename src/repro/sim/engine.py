"""The event loop: a calendar queue over virtual time.

:class:`Engine` is intentionally minimal — it knows nothing about resources
or tasks.  Higher layers schedule plain callbacks at absolute or relative
virtual times.  Determinism is guaranteed by breaking timestamp ties with a
monotonically increasing sequence number, so two events at the same instant
always fire in scheduling order.

Events live in two queues that together keep that one ``(when, seq)`` order.
An event scheduled for the current instant goes on a FIFO lane (a deque);
every other event goes on a binary heap.  The loop dispatches heap entries
due at ``now`` first, then the lane, and only then advances the clock to the
heap's head.  A heap entry due at ``now`` was scheduled before the clock
reached ``now``, so its ``seq`` is smaller than every lane entry's: the two
queues dispatch exactly as one heap would, while the many zero-delay events
(deferred grants, zero-duration tasks) skip the heap.

Instruments attach with :meth:`Engine.subscribe`; the engine holds their
hooks and the task and resource layers fire them.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError

Callback = Callable[[], None]


class Engine:
    """A deterministic discrete-event engine with a virtual clock.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(2.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.0, 2.0]
    """

    __slots__ = ("_now", "_heap", "_lane", "_seq", "_running",
                 "_events_processed", "_cancelled", "retain_dag", "max_events",
                 "task_started_hooks", "task_finished_hooks",
                 "resource_idle_hooks", "on_quiescence_hooks")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Callback]] = []
        #: events due at the current instant, in ``seq`` order
        self._lane: Deque[Tuple[int, Callback]] = deque()
        self._seq: int = 0
        self._running: bool = False
        self._events_processed: int = 0
        self._cancelled: set = set()
        #: when True, tasks keep references to their dependencies so the
        #: completed DAG can be walked afterwards (critical-path profiling).
        #: Off by default: retaining edges pins every predecessor in memory,
        #: which long sweeps (many exchange rounds) cannot afford.
        self.retain_dag: bool = False
        #: livelock guard: when set, a single :meth:`run` call raises after
        #: dispatching this many events (a buggy self-rescheduling callback
        #: fails with a diagnostic instead of hanging the process).
        self.max_events: Optional[int] = None
        #: the hooks :meth:`subscribe` registered, in subscription order;
        #: empty when nothing is attached (a bare run loops over ``()``)
        self.task_started_hooks: Tuple[Callable, ...] = ()
        self.task_finished_hooks: Tuple[Callable, ...] = ()
        self.resource_idle_hooks: Tuple[Callable, ...] = ()
        self.on_quiescence_hooks: Tuple[Callable, ...] = ()

    def subscribe(self, instrument) -> None:
        """Attach an instrument: register whichever of these hooks it defines.

        ``task_started(task)`` fires when a task is granted its resources,
        ``task_finished(task)`` after its action ran and before its
        dependents are released, ``resource_idle(resource, start, end)``
        when a resource's last slot is vacated, closing the busy episode
        ``[start, end]``, and ``on_quiescence()`` each time the queue drains.
        """
        for hook in ("task_started", "task_finished", "resource_idle",
                     "on_quiescence"):
            fn = getattr(instrument, hook, None)
            if fn is not None:
                attr = f"{hook}_hooks"
                setattr(self, attr, getattr(self, attr) + (fn,))

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks dispatched so far (diagnostics)."""
        return self._events_processed

    def pending_events(self) -> int:
        """Number of events currently queued."""
        return len(self._heap) + len(self._lane)

    # -- scheduling -------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; a zero delay runs the
        callback after all events already scheduled for the current instant.
        Returns an event id usable with :meth:`cancel`.
        """
        if not 0.0 <= delay < math.inf:
            raise SimulationError(f"invalid delay {delay!r}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when: float, callback: Callback) -> int:
        """Schedule ``callback`` at absolute virtual time ``when``.

        ``when`` must be finite and not before :attr:`now`.  Returns an
        event id usable with :meth:`cancel`.
        """
        # One chained test rejects the past, NaN and +-inf alike.
        if not self._now <= when < math.inf:
            if when < self._now:
                raise SimulationError(
                    f"cannot schedule into the past: when={when} "
                    f"< now={self._now}")
            raise SimulationError(f"invalid event time {when!r}")
        seq = self._seq
        self._seq = seq + 1
        if when == self._now:
            self._lane.append((seq, callback))
        else:
            heapq.heappush(self._heap, (when, seq, callback))
        return seq

    def cancel(self, event_id: int) -> None:
        """Cancel a scheduled event by the id ``schedule`` returned.

        Cancelled events are lazily discarded when they reach the head of
        the queue — *without* advancing the clock or counting toward the
        ``max_events`` cap.  This is how deadline/watchdog events (the
        fault layer's timeouts) avoid perturbing virtual time when the
        guarded operation completes early.  Cancelling an already-fired or
        unknown id is a no-op.
        """
        self._cancelled.add(event_id)

    # -- running -----------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue is empty (or past ``until``).

        Returns the final virtual time.  Callbacks may schedule further
        events; the loop continues until quiescence.  Re-entrant calls are
        rejected: callbacks must not call :meth:`run`.  ``until`` before
        :attr:`now` is rejected: the clock never runs backwards.

        ``max_events`` (here, or the :attr:`max_events` attribute) bounds
        the number of events one call may dispatch; exceeding it raises
        :class:`~repro.errors.SimulationError` — the livelock analogue of
        the deadlock check, for callbacks that reschedule themselves
        forever.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"cannot run until {until}: before now={self._now}")
        cap = max_events if max_events is not None else self.max_events
        dispatched = 0
        heap, lane, cancelled = self._heap, self._lane, self._cancelled
        pop_heap, pop_lane = functools.partial(heapq.heappop, heap), lane.popleft
        self._running = True
        try:
            while True:
                # Heap entries due now, then the lane, then the next instant.
                if lane and not (heap and heap[0][0] <= self._now):
                    seq, cb = lane[0]
                    when, pop = self._now, pop_lane
                elif heap:
                    when, seq, cb = heap[0]
                    pop = pop_heap
                else:
                    break
                if seq in cancelled:
                    # Discard without advancing the clock: a cancelled
                    # deadline must leave no trace in virtual time.
                    pop()
                    cancelled.discard(seq)
                    continue
                if until is not None and when > until:
                    self._now = until
                    break
                if cap is not None and dispatched >= cap:
                    raise SimulationError(
                        f"Engine.run() dispatched {dispatched} events "
                        f"without quiescing (max_events={cap}); next: "
                        f"t={when:.9f} with {self.pending_events()} queued — "
                        f"likely a livelocked (self-rescheduling) callback")
                pop()
                self._now = when
                self._events_processed += 1
                dispatched += 1
                cb()
        finally:
            self._running = False
        if not heap and not lane:
            self._quiesce()
        return self._now

    def step(self) -> bool:
        """Run a single event.  Returns False if the queue was empty.

        Ends like :meth:`run`: an empty queue afterwards is quiescence.
        """
        heap, lane = self._heap, self._lane
        ran = False
        while not ran and (heap or lane):
            if lane and not (heap and heap[0][0] <= self._now):
                seq, cb = lane.popleft()
                when = self._now
            else:
                when, seq, cb = heapq.heappop(heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._now = when
            self._events_processed += 1
            cb()
            ran = True
        if not heap and not lane:
            self._quiesce()
        return ran

    def _quiesce(self) -> None:
        # True quiescence: every scheduled effect has been applied, and the
        # (single) driving thread is about to observe that fact — a global
        # synchronization fence for happens-before purposes.
        self._cancelled.clear()
        for hook in self.on_quiescence_hooks:
            hook()
