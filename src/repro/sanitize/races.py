"""Happens-before data-race detection over simulated buffers.

The runtime annotates data-moving tasks (kernels, async copies, MPI wire
transfers) with the buffers they read and write.  When an annotated task
*starts*, the detector compares its accesses against the per-buffer access
history: a write/write or read/write pair touching overlapping bytes with
no happens-before path between the tasks is a race — the virtual-hardware
analogue of what ``compute-sanitizer --tool racecheck`` (or TSan) reports.

Granularity matters: distinct channels legitimately unpack into *disjoint*
halo regions of one subdomain buffer on unordered streams, and message
consolidation stages into disjoint slices of one pinned allocation.  So
accesses are boxes, not whole buffers: 3-D ``(z, y, x)`` interval boxes for
subdomain-region accesses, byte ranges for flat buffers, with pinned-slice
aliases resolved to (base allocation, offset).  Two accesses conflict only
when their boxes actually intersect.

History is pruned per exact box (last write + reads since), which stays
bounded across exchange rounds because rounds reuse the same boxes, and is
dropped entirely at each quiescence fence together with the HB epoch (see
:mod:`repro.sanitize.hb`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..cuda.memory import _BufferBase
from ..core.halo import Region
from ..sim.tasks import Task
from .hb import ClockTracker
from .report import Finding, SanitizerReport

#: an access target: a buffer (whole), (buffer, Region), or
#: (buffer, (offset, nbytes))
AccessSpec = Union[_BufferBase, Tuple[_BufferBase, Region],
                   Tuple[_BufferBase, Tuple[int, int]]]

# A box is ("B", lo, hi) in bytes or ("R", z0, z1, y0, y1, x0, x1) in cells.
Box = Tuple


def _resolve_base(buf: _BufferBase) -> Tuple[_BufferBase, int]:
    """Collapse pinned-slice aliases to (base allocation, byte offset)."""
    base = getattr(buf, "base", None)
    if base is None:
        return buf, 0
    return base, getattr(buf, "base_offset", 0)


def _normalize(spec: AccessSpec) -> Tuple[_BufferBase, Box]:
    if isinstance(spec, _BufferBase):
        base, off = _resolve_base(spec)
        return base, ("B", off, off + spec.nbytes)
    buf, where = spec
    if isinstance(where, Region):
        o, e = where.offset, where.extent
        return buf, ("R", o.z, o.z + e.z, o.y, o.y + e.y, o.x, o.x + e.x)
    off, nbytes = where
    base, base_off = _resolve_base(buf)
    return base, ("B", base_off + off, base_off + off + nbytes)


def _overlaps(a: Box, b: Box) -> bool:
    if a[0] != b[0]:
        return True  # mixed byte/region granularity: conservative
    if a[0] == "B":
        return a[1] < b[2] and b[1] < a[2]
    for i in (1, 3, 5):
        if a[i + 1] <= b[i] or b[i + 1] <= a[i]:
            return False
    return True


def describe_box(box: Box) -> str:
    if box[0] == "B":
        return f"bytes [{box[1]}, {box[2]})"
    return (f"region z[{box[1]}:{box[2]}] y[{box[3]}:{box[4]}] "
            f"x[{box[5]}:{box[6]}]")


@dataclass
class _BoxHistory:
    write: Optional[Task] = None
    reads: List[Task] = field(default_factory=list)


class RaceDetector:
    """Per-buffer access history + HB conflict checking (see module doc)."""

    def __init__(self, hb: ClockTracker, report: SanitizerReport) -> None:
        self.hb = hb
        self.report = report
        self._pending: Dict[Task, List[Tuple[str, _BufferBase, Box]]] = {}
        # id(base buffer) -> (buffer, {box: history}); keyed by id because
        # buffers are plain objects, with the buffer kept alive alongside.
        self._history: Dict[int, Tuple[_BufferBase, Dict[Box, _BoxHistory]]] = {}
        self._reported: set = set()
        self.accesses_checked = 0

    # -- annotation (at task creation) ----------------------------------------
    def annotate(self, task: Task, reads: Iterable[AccessSpec] = (),
                 writes: Iterable[AccessSpec] = ()) -> None:
        if task.started:
            # Defensive: accesses must be declared before the task starts,
            # or the HB comparison window is lost.
            self._check_task(task, self._collect(reads, writes))
            return
        self._pending.setdefault(task, []).extend(
            self._collect(reads, writes))

    @staticmethod
    def _collect(reads: Iterable[AccessSpec],
                 writes: Iterable[AccessSpec]
                 ) -> List[Tuple[str, _BufferBase, Box]]:
        out: List[Tuple[str, _BufferBase, Box]] = []
        for spec in reads:
            base, box = _normalize(spec)
            out.append(("r", base, box))
        for spec in writes:
            base, box = _normalize(spec)
            out.append(("w", base, box))
        return out

    # -- checking (at task start) ----------------------------------------------
    def task_started(self, task: Task) -> None:
        specs = self._pending.pop(task, None)
        if specs:
            self._check_task(task, specs)

    def _check_task(self, task: Task,
                    specs: List[Tuple[str, _BufferBase, Box]]) -> None:
        clock = self.hb.clock_of(task)
        for kind, base, box in specs:
            self.accesses_checked += 1
            entry = self._history.get(id(base))
            if entry is None:
                entry = self._history[id(base)] = (base, {})
            _, boxes = entry
            for obox, hist in boxes.items():
                if not _overlaps(box, obox):
                    continue
                if hist.write is not None and hist.write is not task:
                    self._check_pair(base, hist.write, "w", obox,
                                     task, kind, box, clock)
                if kind == "w":
                    for rd in hist.reads:
                        if rd is not task:
                            self._check_pair(base, rd, "r", obox,
                                             task, "w", box, clock)
            hist = boxes.get(box)
            if hist is None:
                hist = boxes[box] = _BoxHistory()
            if kind == "w":
                hist.write = task
                hist.reads = []
            elif task not in hist.reads:
                hist.reads.append(task)

    def _check_pair(self, buf: _BufferBase, prev: Task, prev_kind: str,
                    prev_box: Box, cur: Task, cur_kind: str, cur_box: Box,
                    cur_clock: int) -> None:
        if self.hb.happens_before(prev, cur_clock):
            return
        # Task ids, not object ids: an overwritten history entry frees its
        # task, and a later task may reuse the address.  The buffer stays
        # alive in ``_history``, so its id is stable for the epoch.
        key = (prev._id, cur._id, id(buf))
        if key in self._reported:
            return
        self._reported.add(key)
        names = {"r": "read", "w": "write"}
        kind = f"{names[prev_kind]}-{names[cur_kind]}-race"
        self.report.add(Finding(
            checker="race",
            kind=kind,
            message=(f"unsynchronized {names[cur_kind]} of buffer "
                     f"{buf.label!r} ({describe_box(cur_box)}) by "
                     f"{cur.name!r} conflicts with {names[prev_kind]} "
                     f"({describe_box(prev_box)}) by {prev.name!r}: no "
                     f"happens-before edge (missing stream/event/request "
                     f"synchronization)"),
            subjects=(buf.label,),
            tasks=(prev.name, cur.name),
            time=cur.engine.now,
        ))

    # -- epochs -----------------------------------------------------------------
    def reset_epoch(self) -> None:
        """Drop history at a global quiescence fence (with the HB epoch)."""
        self._pending.clear()
        self._history.clear()
        self._reported.clear()
