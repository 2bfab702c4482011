"""The benchmark's workloads: what each one runs and why.

Pure data, importable without ``repro`` (the orchestrator in ``run.py``
reads it before anything is built).  ``child.py`` turns a :class:`Workload`
into a live simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    """One fixed simulation configuration and its per-process schedule.

    Every process that runs a workload sets it up once, then runs
    ``warmup`` unmeasured rounds followed by ``measured`` timed rounds.  The
    schedule is fixed, not time-bounded, so the round index of each timing
    and digest is the same in every process (the committed digests are
    keyed by it, and the absolute virtual clock shifts float rounding from
    round to round).
    """

    name: str
    config: str               #: ``Xn/Xr/Xg/NNNN[/ca]`` (see repro.bench.config)
    why: str
    quantities: int = 4
    data: bool = False         #: real NumPy buffers instead of symbolic ones
    instruments: bool = False  #: trace, metrics, sanitize, precheck, faults {}
    jacobi: bool = False       #: a round is JacobiHeat.step(overlap=True)
    warmup: int = 1
    measured: int = 4

    @property
    def rounds(self) -> int:
        return self.warmup + self.measured


RADIUS = 2
ALPHA = 0.1  # Jacobi diffusion coefficient (JacobiHeat's default)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "weak-16n", "16n/6r/6g/3434",
        "Fig. 12b weak-scaling traffic at 96 GPUs, symbolic, no instruments: "
        "the event engine and resource grants under heavy contention",
        measured=2),
    Workload(
        "observed-4n-ca", "4n/6r/6g/2163/ca",
        "all five instruments plus profile=True on CUDA-aware MPI: what "
        "trace, metrics, sanitize, precheck and faults cost",
        instruments=True, measured=4),
    Workload(
        "jacobi-2n", "2n/2r/6g/192",
        "overlapped Jacobi heat steps on real f4 data: packing, copies and "
        "stencil compute, little contention and only 2 QAP solves",
        quantities=1, data=True, jacobi=True, measured=5),
)}
