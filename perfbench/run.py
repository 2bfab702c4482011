"""Wall-clock benchmark of the ``repro`` simulator.

Run from the repository root::

    python3 perfbench/run.py --workload weak-16n --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each workload (``workloads.py``) runs in fresh interpreters, one after
another, until ``--seconds`` of measuring are used up.  Every interpreter
sets the workload up once and runs a fixed schedule of rounds
(``child.py``).  With ``--trace 0`` the end-to-end metrics are printed:
``setup_s``, ``round_s`` (an interpreter's mean over its measured rounds)
and ``peak_rss_mb``, each the median over interpreters.  With
``--trace 1`` untraced and traced interpreters alternate, and the per-layer
metrics from the traced ones (``probes.py``) are printed, with
``trace_overhead``.

Every round's virtual results are checked against ``digests.json``; a round
that differs counts as a failed operation, and so does an interpreter whose
end-of-run checks fail.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero without that line when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: no interpreter may outlive this; the whole command must end in 180 s
CHILD_TIMEOUT_S = 150
#: fewest interpreters per measurement, whatever --seconds says
MIN_CHILDREN = 2

END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MB"))

#: (metric, bucket field, probe key, unit) per traced set-up
SETUP_LAYERS = (
    ("runtime.create_s", "self_s", "runtime.create", "s"),
    ("core.partition_s", "self_s", "core.partition", "s"),
    ("core.placement_s", "self_s", "core.placement", "s"),
    ("core.qap_solves", "calls", "core.qap_solves", "count"),
    ("core.plan_build_s", "self_s", "core.plan_build", "s"),
    ("core.plan_setup_s", "self_s", "core.plan_setup", "s"),
    ("analyze.precheck_s", "self_s", "analyze.precheck", "s"),
)
#: ... per traced measured round
ROUND_LAYERS = (
    ("sim.dispatch_s", "self_s", "sim.dispatch", "s"),
    ("sim.tasks", "calls", "sim.tasks", "count"),
    ("sim.acquire_s", "self_s", "sim.acquire", "s"),
    ("sim.acquire_calls", "calls", "sim.acquire", "count"),
    ("sim.release_s", "self_s", "sim.release", "s"),
    ("sim.release_calls", "calls", "sim.release", "count"),
    ("core.issue_s", "self_s", "core.issue", "s"),
    ("cuda.issue_s", "self_s", "cuda.issue", "s"),
    ("cuda.calls", "calls", "cuda.calls", "count"),
    ("mpi.issue_s", "self_s", "mpi.issue", "s"),
    ("mpi.messages", "calls", "mpi.messages", "count"),
    ("mpi.bytes", "amount", "mpi.bytes", "B"),
    ("core.packing_s", "self_s", "core.packing", "s"),
    ("cuda.copy_s", "self_s", "cuda.copy", "s"),
    ("cuda.copy_bytes", "amount", "cuda.copy_bytes", "B"),
    ("stencils.compute_s", "self_s", "stencils.compute", "s"),
    ("sim.trace.record_s", "self_s", "sim.trace.record", "s"),
    ("sim.trace.record_calls", "calls", "sim.trace.record", "count"),
    ("metrics.hook_s", "self_s", "metrics.hook", "s"),
    ("metrics.hook_calls", "calls", "metrics.hook", "count"),
    ("sanitize.hook_s", "self_s", "sanitize.hook", "s"),
    ("sanitize.hook_calls", "calls", "sanitize.hook", "count"),
    ("faults.hook_s", "self_s", "faults.hook", "s"),
    ("faults.hook_calls", "calls", "faults.hook", "count"),
    ("sim.profile_s", "self_s", "sim.profile", "s"),
    ("sim.profile_calls", "calls", "sim.profile", "count"),
)
#: ... per traced interpreter's end-of-run checks
FINISH_LAYERS = (
    ("sanitize.finalize_s", "self_s", "sanitize.finalize", "s"),
)
#: metrics computed from whole records rather than one probe bucket
DERIVED = (("core.channels", "count"), ("sim.events", "count"),
           ("sim.us_per_event", "us"), ("traced_round_s", "s"),
           ("trace_overhead", "ratio"))


class BenchError(Exception):
    """The program could not be run (as opposed to: it ran and was wrong)."""


def child_env() -> Dict[str, str]:
    # The workloads say exactly which instruments are on: drop the REPRO_*
    # switches that would turn more on behind their back.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(args: List[str], deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON record."""
    timeout = min(CHILD_TIMEOUT_S, deadline - perf_counter())
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            deadline: float) -> List[dict]:
    """Fresh interpreters one after another until ``seconds`` are used.

    A new interpreter starts only if one as long as the longest so far
    still fits.  With ``trace`` untraced and traced interpreters alternate,
    starting untraced.
    """
    records: List[dict] = []
    start = perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(records) % 2 == 1
        args = ["--workload", w.name, "--seed", str(seed)]
        if traced:
            args.append("--trace")
        t0 = perf_counter()
        records.append(spawn(args, deadline))
        longest = max(longest, perf_counter() - t0)
        used = perf_counter() - start
        if len(records) >= MIN_CHILDREN and used + longest > seconds:
            return records


def check(w: Workload, records: List[dict], reference: dict,
          field_sha256: str) -> Tuple[int, List[str]]:
    """Count operations and describe failures; return (attempted, problems).

    An operation is one round (its digest must equal the committed one at
    the same round index) or one interpreter's end-of-run checks (program
    checks, the Jacobi field, and for traced interpreters the probe checks:
    every patched name restored, counts equal to the untraced ones).
    """
    attempted = 0
    problems: List[str] = []
    untraced = [r for r in records if not r["traced"]]
    for n, r in enumerate(records):
        who = f"interpreter {n}{' (traced)' if r['traced'] else ''}"
        for i, d in enumerate(r["digests"]):
            attempted += 1
            if i >= len(reference["rounds"]) or d != reference["rounds"][i]:
                problems.append(f"{who}: round {i} digest differs: {d}")
        bad = [k for k, ok in r["checks"].items() if not ok]
        if w.jacobi and r["field_sha256"] != field_sha256:
            bad.append("field != reference_jacobi_heat")
        if r["traced"]:
            bad += probe_problems(r, untraced, reference)
        attempted += 1
        if bad:
            problems.append(f"{who}: end-of-run checks failed: {bad}")
    return attempted, problems


def probe_problems(r: dict, untraced: List[dict], reference: dict) -> List[str]:
    """Ways a traced interpreter was perturbed by, or leaked, its probes."""
    bad = []
    if not r["restored"]:
        bad.append("patched names not restored")
    if any(r["digests"] != u["digests"] for u in untraced):
        bad.append("digests differ from the untraced run")
    if any(r["qap_solves"] != u["qap_solves"] for u in untraced):
        bad.append("qap solves differ from the untraced run")
    calls = r["layers"].get("setup", {}).get("calls", {})
    if calls.get("core.qap_solves", 0) != r["qap_solves"]:
        bad.append("probed qap.solve calls != placements solved")
    for i, (c, d) in enumerate(zip(r["traced_counts"], r["digests"])):
        if c["isends"] != d["messages"]:
            bad.append(f"round {i}: Rank.isend calls != messages delivered")
        if c["tasks"] != reference["tasks"][i]:
            bad.append(f"round {i}: Task.submit calls != committed count")
    return bad


def round_s(records: List[dict]) -> float:
    """Median over interpreters of each one's mean measured round.

    The interpreter is the independent sample: its rounds share one heap
    and one collector history, and on workloads whose heap grows the later
    rounds are slower, so pooling rounds would mix two populations.
    """
    return statistics.median(statistics.mean(r["round_s"]) for r in records)


def end_to_end(records: List[dict]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "round_s": round_s(records),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }


def per_layer(w: Workload, records: List[dict]) -> Dict[str, float]:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    rounds = sum(len(r["round_s"]) for r in traced)
    out: Dict[str, float] = {}
    for table, phase, per in ((SETUP_LAYERS, "setup", len(traced)),
                              (ROUND_LAYERS, "round", rounds),
                              (FINISH_LAYERS, "finish", len(traced))):
        for name, field, key, _unit in table:
            total = sum(r["layers"].get(phase, {}).get(field, {}).get(key, 0)
                        for r in traced)
            out[name] = total / per
    events = statistics.mean(d["events"] for r in records
                             for d in r["digests"][w.warmup:])
    bare, probed = round_s(untraced), round_s(traced)
    out["core.channels"] = traced[0]["channels"]
    out["sim.events"] = events
    out["sim.us_per_event"] = bare / events * 1e6
    out["traced_round_s"] = probed
    out["trace_overhead"] = probed / bare
    return out


def units(trace: bool) -> Dict[str, str]:
    if not trace:
        return dict(END_TO_END)
    tables = SETUP_LAYERS + ROUND_LAYERS + FINISH_LAYERS
    return {**{t[0]: t[3] for t in tables}, **dict(DERIVED)}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 deadline: float) -> Tuple[int, int, Dict[str, float]]:
    reference = json.loads((HERE / "digests.json").read_text())[w.name]
    field_sha256 = ""
    if w.jacobi:  # ground truth, computed before and outside the timing
        field_sha256 = spawn(["--workload", w.name, "--seed", str(seed),
                              "--reference"], deadline)["field_sha256"]
    records = measure(w, seed, seconds, trace, deadline)
    attempted, problems = check(w, records, reference, field_sha256)
    metrics = per_layer(w, records) if trace else end_to_end(records)

    print(f"== {w.name}  ({w.config}; {w.why})")
    if not w.data:  # the seed only sets real initial data
        print("   seed: no effect (symbolic buffers: the inputs are fixed)")
    for p in problems:
        print(f"   FAILED {p}")
    unit = units(trace)
    for name, value in metrics.items():
        print(f"   {name:<24} {value:>16.6g} {unit[name]}")
    print(f"   {'ops_attempted':<24} {attempted:>16d}")
    print(f"   {'ops_failed':<24} {len(problems):>16d}")
    # machine drift: a fixed pure-Python loop timed in every interpreter
    calib = statistics.median(r["calib_s"] for r in records)
    bare = [r for r in records if not r["traced"]]
    print(f"   diagnostic: calib_s {calib:.6f}, untraced round_s/calib_s "
          f"{round_s(bare) / calib:.1f}, {len(records)} interpreters, "
          f"{sum(len(r['round_s']) for r in bare)} untraced measured rounds")
    return attempted, len(problems), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = perf_counter() + 170 * len(names)
    attempted, failed, metrics = 0, 0, {}
    unit = units(bool(args.trace))
    try:
        for name in names:
            a, f, m = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), deadline)
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": unit[k]}
                            for k, v in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
