"""Fast checks of the benchmark's own machinery on tiny configurations.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
from probes import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "bare": dataclasses.replace(WORKLOADS["weak-16n"], name="tiny-bare",
                                config="2n/2r/2g/48", warmup=1, measured=2),
    "observed": dataclasses.replace(WORKLOADS["observed-4n-ca"],
                                    name="tiny-observed",
                                    config="1n/2r/4g/48/ca", warmup=1,
                                    measured=2),
    "jacobi": dataclasses.replace(WORKLOADS["jacobi-2n"], name="tiny-jacobi",
                                  config="2n/1r/2g/24", warmup=1, measured=2),
}


def bindings(probe: Probe) -> dict:
    """Every name the probe targets, mapped to the object bound to it."""
    out = {}
    for t in probe.targets:
        ns, attrs = probe._namespaces(t)
        for attr in attrs:
            out[(t.module, t.owner, attr)] = vars(ns)[attr]
    return out


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_matches_untraced_and_restores(kind):
    w = TINY[kind]
    bare = child.run(w, seed=7, probe=None)
    probe = Probe()
    before = bindings(probe)
    with probe:
        assert bindings(probe) != before  # the wrappers really are in place
        traced = child.run(w, seed=7, probe=probe)
    assert probe.restored()
    after = bindings(probe)
    assert all(after[k] is v for k, v in before.items())

    assert traced["digests"] == bare["digests"]
    assert traced["qap_solves"] == bare["qap_solves"]
    assert traced["checks"] == bare["checks"]
    assert all(traced["checks"].values())
    assert traced.get("field_sha256") == bare.get("field_sha256")
    setup_calls = probe.buckets["setup"].calls
    assert setup_calls["core.qap_solves"] == bare["qap_solves"]
    for counts, d in zip(traced["traced_counts"], traced["digests"]):
        assert counts["isends"] == d["messages"]
        assert counts["tasks"] > 0


def test_instrument_hooks_fire_only_when_instruments_are_on():
    hooks = ("sim.trace.record", "metrics.hook", "sanitize.hook",
             "faults.hook", "sim.profile")
    for kind, on in (("bare", False), ("observed", True), ("jacobi", False)):
        probe = Probe()
        with probe:
            child.run(TINY[kind], seed=1, probe=probe)
        calls = probe.buckets["round"].calls
        for h in hooks:
            assert (calls.get(h, 0) > 0) == on, (kind, h)


def test_jacobi_field_matches_reference():
    w = TINY["jacobi"]
    out = child.run(w, seed=3, probe=None)
    assert out["field_sha256"] == child.reference_sha256(w, seed=3)
    assert out["field_sha256"] != child.reference_sha256(w, seed=4)


def test_probe_self_time_excludes_nested_spans():
    w = TINY["bare"]
    probe = Probe()
    with probe:
        child.run(w, seed=1, probe=probe)
    b = probe.buckets["round"]
    assert all(v >= 0.0 for v in b.self_s.values())
    assert b.calls["sim.acquire"] == b.calls["sim.tasks"]
    assert b.calls["sim.release"] == b.calls["sim.tasks"]


def test_benchmark_json_names_match_the_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.units(False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.units(True)
