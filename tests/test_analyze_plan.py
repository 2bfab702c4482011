"""The static plan verifier: check battery, cross-validation, precheck."""

import dataclasses

import pytest

import repro
from repro import Capability, Dim3
from repro.errors import AnalysisError
from repro.analyze import (AnalysisReport, analyze_graph, analyze_plan,
                           graph_for_domain, graph_from_plan, plan_section,
                           static_message_graph)
from repro.analyze.plan import check_crossvalidation
from repro.bench.baselines import BASELINES, RUNGS
from repro.bench.config import parse_config
from repro.bench.harness import (DEFAULT_DTYPE, DEFAULT_QUANTITIES,
                                 DEFAULT_RADIUS, build_domain,
                                 profile_exchange_config)
from repro.core import channels as channels_mod
from repro.core.capabilities import Capabilities
from repro.core.partition import HierarchicalPartition
from repro.core.placement import place_all_nodes
from repro.radius import Radius
from repro.topology.summit import summit_node

import numpy as np


def static_graph(config_str, rung, consolidate=False):
    cfg = parse_config(config_str)
    node = summit_node(n_gpus=cfg.gpus_per_node)
    partition = HierarchicalPartition(cfg.size, cfg.nodes, cfg.gpus_per_node)
    radius = Radius.constant(DEFAULT_RADIUS)
    itemsize = np.dtype(DEFAULT_DTYPE).itemsize
    placements = place_all_nodes(partition, node, radius,
                                 DEFAULT_QUANTITIES, itemsize)
    caps = Capabilities(RUNGS[rung], cfg.cuda_aware)
    return static_message_graph(partition, placements, node,
                                cfg.ranks_per_node, caps, radius,
                                DEFAULT_QUANTITIES, itemsize,
                                consolidate_remote=consolidate)


def realized_domain(config_str, rung, **kwargs):
    dd, cluster = build_domain(parse_config(config_str), RUNGS[rung],
                               **kwargs)
    dd.realize()
    return dd


# -- clean verdicts over the committed baseline configurations --------------------

@pytest.mark.parametrize("config_str,rung", BASELINES)
def test_baseline_static_graphs_are_clean(config_str, rung):
    report = analyze_graph(static_graph(config_str, rung))
    assert report.ok, report.summary()


@pytest.mark.parametrize("config_str,rung", BASELINES)
def test_baseline_realized_plans_match_static_prediction(config_str, rung):
    dd = realized_domain(config_str, rung)
    report = analyze_plan(dd)
    assert report.ok, report.summary()
    static = graph_for_domain(dd)
    realized = graph_from_plan(dd)
    assert sorted(e.key() for e in static.edges) == \
        sorted(e.key() for e in realized.edges)
    assert static.mpi_summary() == realized.mpi_summary()
    assert static.messages_saved == realized.messages_saved


def test_consolidated_static_graph_matches_plan():
    cluster = repro.SimCluster.create(repro.summit_machine(2, n_gpus=2))
    world = repro.MpiWorld.create(cluster, 1)
    dd3 = repro.DistributedDomain(world, size=Dim3(64, 64, 64), radius=2,
                                  capabilities=Capability.all(),
                                  consolidate_remote=True)
    dd3.realize()
    report = analyze_plan(dd3)
    assert report.ok, report.summary()
    static = graph_for_domain(dd3)
    realized = graph_from_plan(dd3)
    assert static.messages_saved == realized.messages_saved > 0
    assert static.mpi_summary() == realized.mpi_summary()


# -- the check battery catches seeded breakage ------------------------------------

def broken(graph, **edits):
    """Return a copy of the graph with the first MPI message edited."""
    msg = dataclasses.replace(graph.mpi_messages[0], **edits)
    graph.mpi_messages = [msg] + graph.mpi_messages[1:]
    return graph


def kinds(report):
    return {f.kind for f in report.findings}


def rebuild_messages(g):
    from repro.analyze.plan import _edges_to_messages
    g.mpi_messages, g.messages_saved = _edges_to_messages(
        g.edges, g.world_size, False)
    return g


def test_uncovered_halo_detected():
    g = static_graph("2n/1r/2g/128", "+direct")
    g.edges = g.edges[1:]                       # drop one transfer
    rebuild_messages(g)
    assert "uncovered-halo" in kinds(analyze_graph(g))


def one_sided_domain(precheck):
    # The +x neighbour fills the -x halo only: send direction (1, 0, 0),
    # receive side (-1, 0, 0).
    cluster = repro.SimCluster.create(repro.summit_machine(1),
                                      precheck=precheck)
    world = repro.MpiWorld.create(cluster, 6)
    return repro.DistributedDomain(world, size=Dim3(18, 12, 12),
                                   radius=Radius(1, 0, 0, 0, 0, 0),
                                   boundary="fixed").realize()


def test_one_sided_radius_realizes_under_precheck():
    dd = one_sided_domain(precheck=True)
    assert dd.plan is not None
    report = analyze_graph(graph_for_domain(dd))
    assert report.ok, report.summary()


def test_one_sided_radius_missing_sender_is_uncovered():
    g = graph_for_domain(one_sided_domain(precheck=False))
    assert g.edges and {e.recv_direction for e in g.edges} == {(-1, 0, 0)}
    g.edges = g.edges[1:]                       # drop one one-sided sender
    rebuild_messages(g)
    assert kinds(analyze_graph(g)) == {"uncovered-halo"}


def test_multi_sourced_halo_detected():
    g = static_graph("2n/1r/2g/128", "+direct")
    g.edges = [g.edges[0]] + g.edges            # duplicate one transfer
    rebuild_messages(g)
    report = analyze_graph(g)
    assert "multi-sourced-halo" in kinds(report)


def test_duplicate_tag_detected():
    g = static_graph("2n/1r/2g/128", "+direct")
    a, b = g.mpi_messages[0], g.mpi_messages[1]
    g.mpi_messages[1] = dataclasses.replace(b, src_rank=a.src_rank,
                                            dst_rank=a.dst_rank, tag=a.tag)
    assert "duplicate-tag" in kinds(analyze_graph(g))


def test_tag_overflow_detected():
    from repro.core.consolidation import GROUP_TAG_BASE
    g = static_graph("2n/1r/2g/128", "+direct")
    g = broken(g, tag=GROUP_TAG_BASE + 1)       # channel tag in group space
    assert "tag-overflow" in kinds(analyze_graph(g))


def test_size_mismatch_detected():
    g = static_graph("2n/1r/2g/128", "+direct")
    e = dataclasses.replace(g.edges[0], nbytes=g.edges[0].nbytes + 8)
    g.edges = [e] + g.edges[1:]
    assert "size-mismatch" in kinds(analyze_graph(g))


def test_illegal_method_cross_node_peer_detected():
    from repro.core.methods import ExchangeMethod
    g = static_graph("2n/1r/2g/128", "+direct")
    cross = next(i for i, e in enumerate(g.edges)
                 if e.src_node != e.dst_node)
    g.edges[cross] = dataclasses.replace(
        g.edges[cross], method=ExchangeMethod.PEER_MEMCPY, tag=None)
    report = analyze_graph(g)
    assert "illegal-method" in kinds(report)
    assert any("cross" in f.message or "nodes" in f.message
               for f in report.findings if f.kind == "illegal-method")


def test_disabled_capability_detected():
    from repro.core.methods import ExchangeMethod
    g = static_graph("2n/1r/2g/128", "+kernel")  # DIRECT not enabled
    same = next(i for i, e in enumerate(g.edges)
                if e.src_rank == e.dst_rank and e.src_sub != e.dst_sub)
    g.edges[same] = dataclasses.replace(
        g.edges[same], method=ExchangeMethod.DIRECT_ACCESS, tag=None)
    assert "disabled-capability" in kinds(analyze_graph(g))


def test_recv_after_send_detected():
    g = static_graph("2n/1r/2g/128", "+direct")
    g = broken(g, recv_phase=5)
    assert "recv-after-send" in kinds(analyze_graph(g))


def test_crossvalidation_flags_divergence():
    a = static_graph("2n/1r/2g/128", "+direct")
    b = static_graph("2n/1r/2g/128", "+direct")
    b.edges = b.edges[1:]
    report = AnalysisReport()
    check_crossvalidation(a, b, report)
    assert "plan-divergence" in kinds(report)


# -- precheck hook ----------------------------------------------------------------

def test_precheck_passes_on_clean_plan():
    dd = realized_domain("1n/2r/6g/96", "+kernel", precheck=True)
    assert dd.plan is not None   # realize completed under precheck


def test_precheck_env_variable(monkeypatch):
    monkeypatch.setenv("REPRO_PRECHECK", "1")
    cluster = repro.SimCluster.create(repro.summit_machine(1))
    assert cluster.precheck
    monkeypatch.setenv("REPRO_PRECHECK", "0")
    cluster = repro.SimCluster.create(repro.summit_machine(1))
    assert not cluster.precheck


def test_precheck_raises_before_launch_on_broken_plan(monkeypatch):
    # Sabotage the tag function so every channel collides on tag 0: the
    # realized plan diverges from the static prediction and collides
    # (src, dst, tag) triples.  Precheck must raise before plan.setup().
    monkeypatch.setattr(channels_mod, "channel_tag", lambda *_: 0)
    with pytest.raises(AnalysisError) as exc:
        realized_domain("2n/1r/2g/128", "+direct", precheck=True)
    msg = str(exc.value)
    assert "duplicate-tag" in msg or "plan-divergence" in msg


# -- metrics cross-validation (the acceptance criterion) --------------------------

@pytest.mark.parametrize("config_str,rung", BASELINES)
def test_static_counts_match_metrics_counters(config_str, rung):
    """Static per-scope message count and bytes × reps == measured."""
    reps = 2
    run = profile_exchange_config(parse_config(config_str), RUNGS[rung],
                                  reps=reps, warmup=1, profile=False,
                                  trace=False, metrics=True, data_mode=True)
    snap = run.cluster.metrics.registry.snapshot()
    measured = {}
    for name, field in (("mpi.messages", "count"), ("mpi.bytes", "bytes")):
        for series in snap.get(name, {}).get("series", []):
            scope = series["labels"]["scope"]
            measured.setdefault(scope, {"count": 0, "bytes": 0})
            measured[scope][field] += series["value"]
    predicted = {
        scope: {"count": row["count"] * reps, "bytes": row["bytes"] * reps}
        for scope, row in graph_from_plan(run.dd).mpi_summary().items()}
    assert predicted == measured


# -- summaries and the bench plan section -----------------------------------------

def test_graph_summaries_are_consistent():
    g = static_graph("2n/2r/2g/128/ca", "+kernel")
    d = g.to_dict()
    assert d["transfers"] == len(g.edges)
    assert d["total_bytes"] == sum(r["bytes"] for r in d["by_method"].values())
    assert d["total_bytes"] == sum(r["bytes"] for r in d["by_scope"].values())
    assert d["mpi_messages"] == sum(r["count"]
                                    for r in d["mpi_by_scope"].values())
    assert "message graph" in g.summary()


def test_plan_section_shape_and_validation():
    from repro.bench.reporting import validate_bench_record
    dd = realized_domain("1n/2r/6g/96", "+kernel")
    section = plan_section(dd)
    assert section["verdict"] == "ok"
    assert section["findings"] == 0
    assert section["message_graph"]["transfers"] == len(dd.plan.channels)

    run = profile_exchange_config(parse_config("1n/2r/6g/96"),
                                  RUNGS["+kernel"], reps=1, warmup=1,
                                  profile=False, trace=False)
    from repro.bench.reporting import bench_record
    record = bench_record(run)
    assert record["plan"]["verdict"] == "ok"
    validate_bench_record(record)

    bad = dict(record)
    bad["plan"] = {"verdict": "maybe", "findings": 0, "message_graph": {}}
    with pytest.raises(ValueError):
        validate_bench_record(bad)


def test_mpi_message_phases():
    g = static_graph("2n/1r/2g/128", "+direct", consolidate=True)
    assert g.messages_saved > 0
    for m in g.mpi_messages:
        assert m.recv_phase <= m.send_phase
        if len(m.members) > 1:                 # consolidated group message
            assert m.payload == "host"
