"""Run one workload once, in this fresh interpreter, and print the record.

Usage (``run.py`` does this; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload weak-16n --seed 1 [--trace]
    python3 perfbench/child.py --workload jacobi-2n --seed 1 --reference

The last line of standard output is one JSON object: set-up seconds,
per-round seconds, per-round digests of the virtual results, end-of-run
checks, peak RSS and a calibration time.  With ``--trace`` the layer probes
(``probes.py``) are installed for the whole run and their buckets are added.
``--reference`` instead prints the SHA-256 of the single-array Jacobi
reference field for the seed (the ground truth ``jacobi-2n`` must match).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from repro.bench.config import parse_config
from repro.bench.harness import build_domain
from repro.core.capabilities import Capability
from repro.stencils.jacobi import JacobiHeat
from repro.stencils.reference import reference_jacobi_heat

from probes import Probe
from workloads import ALPHA, RADIUS, WORKLOADS, Workload


@dataclass
class Live:
    """A set-up workload: the realized domain and, for Jacobi, its solver."""

    dd: object
    cluster: object
    heat: Optional[JacobiHeat]


def calibrate(reps: int = 5, n: int = 100_000) -> float:
    """Median seconds of a fixed pure-Python loop (dict and int work, like
    the simulator's).  A diagnostic of machine speed, never a gated metric."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        d: dict = {}
        for i in range(n):
            k = i & 1023
            d[k] = d.get(k, 0) + i
        times.append(perf_counter() - t0)
    return statistics.median(times)


def initial_field(w: Workload, seed: int) -> np.ndarray:
    extent = parse_config(w.config).extent
    rng = np.random.default_rng(seed)
    return rng.random((extent,) * 3, dtype=np.float32)


def setup(w: Workload) -> Live:
    """Everything ``setup_s`` times: ``SimCluster.create`` through
    ``realize()`` returning, plus the solver on Jacobi workloads."""
    on = w.instruments
    dd, cluster = build_domain(
        parse_config(w.config), Capability.all(), quantities=w.quantities,
        radius=RADIUS, dtype="f4", data_mode=w.data, trace=on, sanitize=on,
        metrics=on, precheck=on, faults={} if on else None)
    heat = JacobiHeat(dd, alpha=ALPHA) if w.jacobi else None
    return Live(dd, cluster, heat)


def one_round(w: Workload, live: Live):
    """One measured unit of work; returns its ExchangeResult."""
    if live.heat is not None:
        return live.heat.step(overlap=True).exchange
    return live.dd.exchange(profile=w.instruments)


def digest(result, events: int, messages: int) -> dict:
    """The virtual results of one round that must never change."""
    return {
        "elapsed": result.elapsed,
        "methods": {m.value: [n, result.method_bytes[m]]
                    for m, n in sorted(result.method_counts.items(),
                                       key=lambda kv: kv[0].value)},
        "events": events,
        "messages": messages,
    }


def finish_checks(w: Workload, live: Live) -> dict:
    checks = {"no_unmatched_mpi": not live.cluster.check_unmatched()}
    if w.instruments:
        report = live.cluster.finalize()
        checks["sanitizer_ok"] = report is not None and report.ok
        # realize() raises AnalysisError on a failing precheck, so getting
        # here with precheck on means it passed
        checks["precheck_ran"] = live.cluster.precheck is True
        checks["faults_zero"] = not any(live.cluster.faults.counters.values())
    return checks


def run(w: Workload, seed: int, probe: Optional[Probe]) -> dict:
    phase = probe.phase if probe is not None else (lambda _name: None)
    phase("setup")
    t0 = perf_counter()
    live = setup(w)
    setup_s = perf_counter() - t0
    phase("other")
    if w.data:
        live.dd.set_global(0, initial_field(w, seed))
    engine, transport = live.cluster.engine, live.dd.world.transport
    round_s, digests, traced_counts = [], [], []
    for i in range(w.rounds):
        phase("warmup" if i < w.warmup else "round")
        e0, m0 = engine.events_processed, transport.messages_delivered
        if probe is not None:
            k0 = probe.count("sim.tasks"), probe.count("mpi.messages")
        t0 = perf_counter()
        result = one_round(w, live)
        dt = perf_counter() - t0
        digests.append(digest(result, engine.events_processed - e0,
                              transport.messages_delivered - m0))
        if probe is not None:
            traced_counts.append({
                "tasks": probe.count("sim.tasks") - k0[0],
                "isends": probe.count("mpi.messages") - k0[1]})
        if i >= w.warmup:
            round_s.append(dt)
    phase("finish")
    out = {
        "setup_s": setup_s,
        "round_s": round_s,
        "digests": digests,
        "checks": finish_checks(w, live),
        "qap_solves": sum(p.method.startswith("node_aware")
                          for p in live.dd.placements.values()),
        "channels": len(live.dd.plan.channels),
    }
    if live.heat is not None:
        out["field_sha256"] = hashlib.sha256(
            live.heat.solution().tobytes()).hexdigest()
    if probe is not None:
        out["traced_counts"] = traced_counts
    return out


def reference_sha256(w: Workload, seed: int) -> str:
    field = reference_jacobi_heat(initial_field(w, seed), ALPHA, w.rounds,
                                  radius=RADIUS)
    return hashlib.sha256(field.tobytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.reference:
        print(json.dumps({"field_sha256": reference_sha256(w, args.seed)}))
        return 0
    calib_s = calibrate()
    probe = Probe() if args.trace else None
    with probe or contextlib.nullcontext():
        out = run(w, args.seed, probe)
    if probe is not None:
        out["restored"] = probe.restored()
        out["layers"] = probe.to_dict()
    out["traced"] = probe is not None
    out["calib_s"] = calib_s
    # ru_maxrss is in KiB on Linux
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
