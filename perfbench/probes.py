"""Wall-clock spans around the calls into each layer of ``repro``.

:class:`Probe` replaces selected functions and methods of the ``repro``
package with thin wrappers that time each call and count it, then puts the
original objects back.  Nothing under ``src/`` knows about it: every wrapper
is installed on the name its caller actually resolves (``repro.sim.tasks.
acquire``, not ``repro.sim.resources.acquire``; ``repro.stencils.jacobi.
apply_stencil``, not ``repro.stencils.operators.apply_stencil``).

A span's *self time* is its duration minus the time of the wrapped calls
nested inside it, so self times of all spans never overlap and add up to at
most the wall time of the traced region.  Time spent in code that is not
wrapped lands in the nearest enclosing span; for the event loop that means
``sim.dispatch`` holds everything the engine's callbacks do outside the
wrapped layers (task start/finish bookkeeping, MPI matching, signals).

Counts go to the bucket of the current *phase* (``setup``, ``warmup``,
``round``, ``finish``), which the caller switches with :meth:`Probe.phase`,
so setup work and per-round work are reported apart.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.cuda import DeviceBuffer, PinnedBuffer
from repro.mpi.transport import OBJECT_NBYTES

#: wrap every public function of the class (plus ``__init__``)
PUBLIC = ("*",)


def _copy_nbytes(args, kwargs) -> int:
    """Bytes a ``copy_from`` call really moves (0 on symbolic buffers)."""
    dst, src = args[0], args[1]
    if dst.array is None or src.array is None:
        return 0
    return src.nbytes


def _isend_nbytes(args, kwargs) -> int:
    """Payload bytes of ``Rank.isend(payload, ...)`` as the transport
    charges them (buffers by size, small objects by its fixed size)."""
    payload = args[1] if len(args) > 1 else kwargs["payload"]
    if isinstance(payload, (DeviceBuffer, PinnedBuffer)):
        return payload.nbytes
    return OBJECT_NBYTES


@dataclass(frozen=True)
class Target:
    """One group of names to wrap.

    ``owner`` is a class name inside ``module`` or ``None`` for module-level
    functions.  ``span`` names the self-time bucket, ``count`` the call
    counter (default ``span``).  ``kind`` is ``"span"`` (time and count),
    ``"count"`` (count only: the call's time stays with its caller) or
    ``"builder"`` (the function returns a closure; the closure is timed).
    ``amount`` maps a call's arguments to a quantity summed under
    ``amount_key`` (bytes moved).
    """

    module: str
    owner: Optional[str]
    attrs: Tuple[str, ...]
    span: str
    count: Optional[str] = None
    kind: str = "span"
    amount: Optional[Callable] = None
    amount_key: str = ""


TARGETS: Tuple[Target, ...] = (
    # setup layers
    Target("repro.runtime.cluster", "SimCluster", ("create",), "runtime.create"),
    Target("repro.mpi.world", "MpiWorld", ("create",), "runtime.create"),
    Target("repro.core.partition", "HierarchicalPartition", PUBLIC,
           "core.partition"),
    Target("repro.core.distributed", None, ("place_all_nodes",),
           "core.placement"),
    Target("repro.core.qap", None, ("solve",), "core.placement",
           count="core.qap_solves"),
    Target("repro.core.exchange", "ExchangePlan", ("__init__",),
           "core.plan_build"),
    Target("repro.core.exchange", "ExchangePlan", ("setup",), "core.plan_setup"),
    Target("repro.analyze", None, ("analyze_plan",), "analyze.precheck"),
    # simulation kernel
    Target("repro.sim.engine", "Engine", ("run",), "sim.dispatch"),
    Target("repro.sim.tasks", "Task", ("submit",), "sim.tasks", kind="count"),
    Target("repro.sim.tasks", None, ("acquire",), "sim.acquire"),
    Target("repro.sim.resources", "AcquireRequest", ("release",),
           "sim.release"),
    # exchange issue path
    Target("repro.core.channels", "Channel",
           ("post_recv", "enqueue_src", "enqueue_dst"), "core.issue"),
    Target("repro.cuda.runtime", "CudaContext", PUBLIC, "cuda.issue",
           count="cuda.calls"),
    Target("repro.mpi.world", "Rank", ("isend",), "mpi.issue",
           count="mpi.messages", amount=_isend_nbytes, amount_key="mpi.bytes"),
    Target("repro.mpi.world", "Rank", ("irecv",), "mpi.issue",
           count="mpi.irecvs"),
    Target("repro.mpi.world", "MpiWorld", ("barrier",), "mpi.issue",
           count="mpi.barriers"),
    # data movement and compute (real bytes only in data mode)
    Target("repro.core.channels", None,
           ("pack_action", "unpack_action", "direct_access_action",
            "self_exchange_action"), "core.packing", kind="builder"),
    Target("repro.cuda.memory", "_BufferBase", ("copy_from",), "cuda.copy",
           amount=_copy_nbytes, amount_key="cuda.copy_bytes"),
    Target("repro.stencils.jacobi", None, ("apply_stencil",),
           "stencils.compute"),
    # opt-in instruments
    Target("repro.sim.trace", "Tracer", ("record",), "sim.trace.record"),
    Target("repro.metrics", "Metrics",
           ("counter", "gauge", "histogram", "emit"), "metrics.hook"),
    Target("repro.sanitize.core", "Sanitizer",
           ("task_started", "on_quiescence"), "sanitize.hook"),
    # the runtime layers call ``san.races.annotate`` / ``san.mpi.*``
    # directly, never ``Sanitizer.annotate``
    Target("repro.sanitize.races", "RaceDetector", ("annotate",),
           "sanitize.hook"),
    Target("repro.sanitize.mpi", "MpiChecker",
           ("register", "mark_wait", "on_match"), "sanitize.hook"),
    Target("repro.sanitize.core", "Sanitizer", ("finalize",),
           "sanitize.finalize"),
    Target("repro.faults.injector", "FaultInjector",
           ("transfer_verdict", "backoff_delay", "scaled_duration",
            "peer_revoked", "cuda_aware_revoked", "alloc_attempt"),
           "faults.hook"),
    Target("repro.core.exchange", None, ("critical_path_report",),
           "sim.profile"),
)


class Bucket:
    """Self seconds, call counts and summed amounts for one phase."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.amount: Dict[str, int] = defaultdict(int)

    def to_dict(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "amount": dict(self.amount)}


def _public_names(cls: type) -> Tuple[str, ...]:
    names = ["__init__"] if "__init__" in cls.__dict__ else []
    names += [n for n, v in cls.__dict__.items()
              if not n.startswith("_") and inspect.isfunction(v)]
    return tuple(names)


class Probe:
    """Installs the :data:`TARGETS` wrappers; use as a context manager.

    ::

        probe = Probe()
        with probe:
            probe.phase("setup")
            ...
        assert probe.restored()
    """

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.buckets: Dict[str, Bucket] = defaultdict(Bucket)
        self.bucket = self.buckets["other"]
        #: child-time accumulators of the open spans, innermost last
        self._stack: List[float] = []
        #: (namespace, attr, original raw object) for every patched name
        self._patched: List[Tuple[object, str, object]] = []
        self._installed = False

    # -- phases ---------------------------------------------------------------
    def phase(self, name: str) -> None:
        """Send subsequent counts to the ``name`` bucket."""
        self.bucket = self.buckets[name]

    def count(self, key: str) -> int:
        """Calls counted under ``key`` across every phase so far."""
        return sum(b.calls.get(key, 0) for b in self.buckets.values())

    def to_dict(self) -> dict:
        return {name: b.to_dict() for name, b in self.buckets.items()}

    # -- wrappers -------------------------------------------------------------
    def _span(self, fn: Callable, t: Target) -> Callable:
        stack = self._stack
        span, count = t.span, t.count or t.span
        amount, amount_key = t.amount, t.amount_key
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                b = probe.bucket
                b.self_s[span] += dt - stack.pop()
                b.calls[count] += 1
                if amount is not None:
                    b.amount[amount_key] += amount(args, kwargs)
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counter(self, fn: Callable, t: Target) -> Callable:
        count = t.count or t.span
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe.bucket.calls[count] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _builder(self, fn: Callable, t: Target) -> Callable:
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(fn(*args, **kwargs), t)
        return wrapper

    def _wrap(self, raw: object, t: Target) -> object:
        make = {"span": self._span, "count": self._counter,
                "builder": self._builder}[t.kind]
        if isinstance(raw, classmethod):
            return classmethod(make(raw.__func__, t))
        if isinstance(raw, staticmethod):
            return staticmethod(make(raw.__func__, t))
        return make(raw, t)

    # -- install / remove -------------------------------------------------------
    def _namespaces(self, t: Target):
        module = importlib.import_module(t.module)
        ns = module if t.owner is None else getattr(module, t.owner)
        attrs = _public_names(ns) if t.attrs == PUBLIC else t.attrs
        return ns, attrs

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("a probe is installed only once")
        self._installed = True
        try:
            for t in self.targets:
                ns, attrs = self._namespaces(t)
                for attr in attrs:
                    raw = vars(ns)[attr]  # KeyError: not defined right here
                    self._patched.append((ns, attr, raw))
                    setattr(ns, attr, self._wrap(raw, t))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original object back (in reverse install order)."""
        for ns, attr, raw in reversed(self._patched):
            setattr(ns, attr, raw)
        self._installed = False

    def restored(self) -> bool:
        """True once removed and every patched name is bound to its
        original object again."""
        return not self._installed and all(
            vars(ns)[attr] is raw for ns, attr, raw in self._patched)

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
