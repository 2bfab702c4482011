"""Pass 1 — the static exchange-plan verifier.

The library decides its entire communication structure *before* any
iteration runs: which halo faces go over which senders (kernel / peer /
colocated / CUDA-aware / staged), with which tags and buffer sizes.  Every
plan-level property is therefore decidable from the
``(Partition, Placement, Topology, method-selection)`` tuple alone —
no discrete-event engine, no allocated buffers, no virtual time.

This module builds the **static message graph** two independent ways:

* :func:`static_message_graph` — from first principles: partition
  geometry (:mod:`repro.core.halo` / :mod:`repro.core.partition`),
  placement, the declarative :class:`~repro.topology.node.NodeTopology`
  and the paper's method-selection order
  (:func:`repro.core.methods.select_method` over lightweight stand-in
  objects — never a live :class:`~repro.cuda.device.Device`);
* :func:`graph_from_plan` — from a realized
  :class:`~repro.core.exchange.ExchangePlan`'s channels and
  consolidation groups.

and then checks either graph (:func:`analyze_graph`) for:

* **coverage** — every ghost region is sourced by exactly one sender,
  and no two incoming transfers overlap in the destination array;
* **matching** — every MPI send has a matching receive with a unique
  ``(src rank, dst rank, tag)`` triple, and channel/group/setup tag
  spaces stay disjoint;
* **sizes** — buffer sizes equal halo extents × quantities × dtype, and
  neighboring subdomains agree on the shared face;
* **legality** — the selected method is enabled and physically possible
  (no peer/IPC path across nodes, no colocated path within a rank, no
  CUDA-aware traffic on a non-CUDA-aware world);
* **deadlock freedom** — every receive is posted in a round phase no
  later than its send, and matching is a bijection; with nonblocking
  posting plus the polling loop, that makes the round deadlock-free by
  construction.

:func:`analyze_plan` runs both builders over a
:class:`~repro.core.distributed.DistributedDomain`, cross-checks that the
realized plan equals the static prediction, and reports through the
shared :mod:`repro.findings` format.  ``SimCluster.create(precheck=True)``
runs it automatically and raises :class:`~repro.errors.AnalysisError`
before launch.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..dim3 import Dim3
from ..findings import Finding, FindingsReport
from ..mpi.world import rank_index_for_gpu
from ..radius import Radius
from ..core.capabilities import Capabilities
from ..core.channels import SETUP_TAG_BASE, channel_tag
from ..core.consolidation import GROUP_TAG_BASE, group_tag
from ..core.halo import Region, exchange_directions, recv_region, send_region
from ..core.methods import ExchangeMethod, select_method
from ..core.partition import HierarchicalPartition
from ..core.placement import Placement
from ..topology.node import NodeTopology

#: the scheduled round phase in which each kind of MPI endpoint is posted
#: (mirrors ``ExchangePlan._run_exchange``'s issue order)
PHASE_POST_RECV = 0
PHASE_ENQUEUE_SRC = 1
PHASE_GROUP_SEND = 2

#: methods whose per-round transfer rides an MPI message
MPI_METHODS = (ExchangeMethod.CUDA_AWARE_MPI, ExchangeMethod.STAGED)


class AnalysisReport(FindingsReport):
    """All findings of one static analysis (plan and/or lint)."""

    title = "analyze"


@dataclass(frozen=True)
class MessageEdge:
    """One directed halo transfer of the plan, method-specialized."""

    src_sub: int                       #: source subdomain linear id
    dst_sub: int                       #: destination subdomain linear id
    direction: Tuple[int, int, int]    #: send direction (src → dst)
    method: ExchangeMethod
    nbytes: int
    src_rank: int
    dst_rank: int
    src_gpu: int                       #: global GPU index
    dst_gpu: int
    src_node: int                      #: physical node index
    dst_node: int
    send_region: Region                #: in the source's local array
    recv_region: Region                #: in the destination's local array
    tag: Optional[int]                 #: MPI tag (None for non-MPI methods)
    peer_ok: bool                      #: topology allows peer access src↔dst

    @property
    def scope(self) -> str:
        """Rank-relative scope, matching ``repro.metrics`` labels."""
        if self.src_rank == self.dst_rank:
            return "self"
        if self.src_node == self.dst_node:
            return "intra"
        return "inter"

    @property
    def recv_direction(self) -> Tuple[int, int, int]:
        """The destination-side halo direction this edge fills."""
        dx, dy, dz = self.direction
        return (-dx, -dy, -dz)

    def key(self) -> tuple:
        """Identity for cross-checking two graph derivations."""
        return (self.src_sub, self.dst_sub, self.direction,
                self.method.value, self.nbytes, self.tag)


@dataclass(frozen=True)
class MpiMessage:
    """One per-round MPI message (a channel's, or a consolidated group's)."""

    src_rank: int
    dst_rank: int
    tag: int
    nbytes: int
    scope: str                       #: "self" | "intra" | "inter"
    payload: str                     #: "device" | "host"
    members: Tuple[int, ...]         #: edge indices carried by this message
    recv_phase: int = PHASE_POST_RECV
    send_phase: int = PHASE_ENQUEUE_SRC

    def key(self) -> tuple:
        return (self.src_rank, self.dst_rank, self.tag, self.nbytes,
                self.payload)

    @property
    def triple(self) -> Tuple[int, int, int]:
        return (self.src_rank, self.dst_rank, self.tag)


@dataclass
class MessageGraph:
    """The full static message structure of one exchange round."""

    global_dims: Dim3
    radius: Radius
    quantities: int
    itemsize: int
    periodic: bool
    capabilities: Capabilities
    world_size: int
    edges: List[MessageEdge] = field(default_factory=list)
    mpi_messages: List[MpiMessage] = field(default_factory=list)
    #: MPI messages merged away by §VI consolidation
    messages_saved: int = 0

    # -- summaries -------------------------------------------------------------
    def method_summary(self) -> Dict[str, Dict[str, int]]:
        """``{method: {"count", "bytes"}}`` over all halo transfers."""
        out: Dict[str, Dict[str, int]] = {}
        for e in self.edges:
            row = out.setdefault(e.method.value, {"count": 0, "bytes": 0})
            row["count"] += 1
            row["bytes"] += e.nbytes
        return {k: out[k] for k in sorted(out)}

    def scope_summary(self) -> Dict[str, Dict[str, int]]:
        """``{scope: {"count", "bytes"}}`` over all halo transfers."""
        out: Dict[str, Dict[str, int]] = {}
        for e in self.edges:
            row = out.setdefault(e.scope, {"count": 0, "bytes": 0})
            row["count"] += 1
            row["bytes"] += e.nbytes
        return {k: out[k] for k in sorted(out)}

    def mpi_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-round MPI traffic ``{scope: {"count", "bytes"}}``.

        Comparable 1:1 with the ``mpi.messages`` / ``mpi.bytes`` counters
        of a metrics-enabled run (summed over protocol/buffer labels,
        divided by the number of measured rounds).
        """
        out: Dict[str, Dict[str, int]] = {}
        for m in self.mpi_messages:
            row = out.setdefault(m.scope, {"count": 0, "bytes": 0})
            row["count"] += 1
            row["bytes"] += m.nbytes
        return {k: out[k] for k in sorted(out)}

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.edges)

    def summary(self) -> str:
        lines = [
            f"message graph: {self.global_dims.as_tuple()} subdomains, "
            f"{len(self.edges)} transfers, {len(self.mpi_messages)} MPI "
            f"messages/round, {self.total_bytes / 1e6:.2f} MB/round",
        ]
        for meth, row in self.method_summary().items():
            lines.append(f"  method {meth:<10} {row['count']:>5} transfers  "
                         f"{row['bytes'] / 1e6:>9.2f} MB")
        for scope, row in self.mpi_summary().items():
            lines.append(f"  mpi/{scope:<9} {row['count']:>5} messages   "
                         f"{row['bytes'] / 1e6:>9.2f} MB")
        if self.messages_saved:
            lines.append(f"  consolidation saved {self.messages_saved} "
                         f"messages/round")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Stable JSON shape for ``BENCH_<config>.json``."""
        return {
            "transfers": len(self.edges),
            "total_bytes": self.total_bytes,
            "by_method": self.method_summary(),
            "by_scope": self.scope_summary(),
            "mpi_by_scope": self.mpi_summary(),
            "mpi_messages": len(self.mpi_messages),
            "messages_saved": self.messages_saved,
        }


# -- stand-in hardware objects (identity-compared, never simulated) -----------------

class _StaticNode:
    __slots__ = ("index", "topology")

    def __init__(self, index: int, topology: NodeTopology) -> None:
        self.index = index
        self.topology = topology


class _StaticDevice:
    """Just enough of :class:`repro.cuda.Device` for method selection."""

    __slots__ = ("node", "local_index", "global_index")

    def __init__(self, node: _StaticNode, local_index: int) -> None:
        self.node = node
        self.local_index = local_index
        self.global_index = node.index * node.topology.n_gpus + local_index

    def can_access_peer(self, other: "_StaticDevice") -> bool:
        if other is self:
            return True
        if self.node is not other.node:
            return False
        return self.node.topology.peer_accessible(self.local_index,
                                                  other.local_index)


class _StaticRank:
    __slots__ = ("index", "node")

    def __init__(self, index: int, node: _StaticNode) -> None:
        self.index = index
        self.node = node


class _StaticSub:
    __slots__ = ("linear_id", "extent", "global_idx", "device", "rank")

    def __init__(self, linear_id: int, extent: Dim3, global_idx: Dim3,
                 device: _StaticDevice, rank: _StaticRank) -> None:
        self.linear_id = linear_id
        self.extent = extent
        self.global_idx = global_idx
        self.device = device
        self.rank = rank


def _consolidate(edges: List[MessageEdge], messages: List[MpiMessage],
                 world_size: int) -> Tuple[List[MpiMessage], int]:
    """Replay §VI consolidation over the static graph's STAGED messages.

    Mirrors :func:`repro.core.consolidation.build_groups`: inter-node
    STAGED traffic between one (src rank, dst rank) pair with ≥ 2 members
    merges into a single host message under the group tag.
    """
    buckets: Dict[Tuple[int, int], List[MpiMessage]] = defaultdict(list)
    keep: List[MpiMessage] = []
    for m in messages:
        e = edges[m.members[0]]
        if (e.method is ExchangeMethod.STAGED and m.scope == "inter"):
            buckets[(m.src_rank, m.dst_rank)].append(m)
        else:
            keep.append(m)
    saved = 0
    grouped: List[MpiMessage] = []
    for key in sorted(buckets):
        members = buckets[key]
        if len(members) < 2:
            keep.extend(members)
            continue
        saved += len(members) - 1
        src, dst = key
        grouped.append(MpiMessage(
            src_rank=src, dst_rank=dst,
            tag=group_tag(src, dst, world_size),
            nbytes=sum(m.nbytes for m in members),
            scope="inter", payload="host",
            members=tuple(i for m in members for i in m.members),
            recv_phase=PHASE_POST_RECV, send_phase=PHASE_GROUP_SEND))
    return keep + grouped, saved


def _edges_to_messages(edges: List[MessageEdge], world_size: int,
                       consolidate_remote: bool
                       ) -> Tuple[List[MpiMessage], int]:
    messages: List[MpiMessage] = []
    for i, e in enumerate(edges):
        if e.method not in MPI_METHODS:
            continue
        payload = ("device" if e.method is ExchangeMethod.CUDA_AWARE_MPI
                   else "host")
        messages.append(MpiMessage(
            src_rank=e.src_rank, dst_rank=e.dst_rank, tag=e.tag,
            nbytes=e.nbytes, scope=e.scope, payload=payload, members=(i,)))
    if consolidate_remote:
        return _consolidate(edges, messages, world_size)
    return messages, 0


def static_message_graph(partition: HierarchicalPartition,
                         placements: Mapping[Tuple[int, int, int], Placement],
                         node_topology: NodeTopology,
                         ranks_per_node: int,
                         capabilities: Capabilities,
                         radius: Radius,
                         quantities: int,
                         itemsize: int,
                         periodic: bool = True,
                         consolidate_remote: bool = False) -> MessageGraph:
    """Build the message graph from first principles — engine-free.

    Replays the three setup phases symbolically: subdomain → GPU from the
    placements, GPU → rank from the node-major layout, then the paper's
    first-applicable method selection per directed neighbor pair.
    """
    n_gpus = node_topology.n_gpus
    nodes = [_StaticNode(i, node_topology) for i in range(partition.n_nodes)]
    ranks = [_StaticRank(i, nodes[i // ranks_per_node])
             for i in range(partition.n_nodes * ranks_per_node)]
    devices = {(n.index, g): _StaticDevice(n, g)
               for n in nodes for g in range(n_gpus)}

    subs: Dict[int, _StaticSub] = {}
    by_gidx: Dict[Tuple[int, int, int], _StaticSub] = {}
    for node_idx in partition.node_dims.indices():
        placement = placements[node_idx.as_tuple()]
        phys_node = partition.node_linear(node_idx)
        for i, spec in enumerate(partition.node_subdomains(node_idx)):
            local_gpu = placement.gpu_of[i]
            device = devices[(phys_node, local_gpu)]
            rank = ranks[rank_index_for_gpu(phys_node, local_gpu,
                                            ranks_per_node, n_gpus)]
            linear = partition.global_dims.linearize(spec.global_idx)
            sub = _StaticSub(linear, spec.extent, spec.global_idx,
                             device, rank)
            subs[linear] = sub
            by_gidx[spec.global_idx.as_tuple()] = sub

    edges: List[MessageEdge] = []
    dirs = exchange_directions(radius)
    for linear in sorted(subs):
        src = subs[linear]
        for d in dirs:
            nbr = partition.neighbor_or_none(src.global_idx, d, periodic)
            if nbr is None:
                continue
            dst = by_gidx[nbr.as_tuple()]
            method = select_method(src, dst, capabilities)
            sreg = send_region(src.extent, radius, d)
            rreg = recv_region(dst.extent, radius, -d)
            edges.append(MessageEdge(
                src_sub=src.linear_id, dst_sub=dst.linear_id,
                direction=d.as_tuple(), method=method,
                nbytes=sreg.volume * quantities * itemsize,
                src_rank=src.rank.index, dst_rank=dst.rank.index,
                src_gpu=src.device.global_index,
                dst_gpu=dst.device.global_index,
                src_node=src.device.node.index,
                dst_node=dst.device.node.index,
                send_region=sreg, recv_region=rreg,
                tag=(channel_tag(src.linear_id, d)
                     if method in MPI_METHODS else None),
                peer_ok=src.device.can_access_peer(dst.device)))

    graph = MessageGraph(
        global_dims=partition.global_dims, radius=radius,
        quantities=quantities, itemsize=itemsize, periodic=periodic,
        capabilities=capabilities,
        world_size=partition.n_nodes * ranks_per_node, edges=edges)
    graph.mpi_messages, graph.messages_saved = _edges_to_messages(
        edges, graph.world_size, consolidate_remote)
    return graph


def graph_from_plan(dd) -> MessageGraph:
    """Build the message graph from a realized plan's live channels.

    The second, independent derivation: whatever
    :class:`~repro.core.exchange.ExchangePlan` actually constructed —
    including consolidation groups — re-expressed in graph form so it can
    be checked and cross-validated against :func:`static_message_graph`.
    """
    plan = dd.plan
    if plan is None:
        raise ValueError("domain has no plan; call realize() first "
                         "(or use static_message_graph)")
    edges: List[MessageEdge] = []
    edge_index: Dict[int, int] = {}     # id(channel) -> edge index
    for ch in plan.channels:
        edge_index[id(ch)] = len(edges)
        edges.append(MessageEdge(
            src_sub=ch.src.linear_id, dst_sub=ch.dst.linear_id,
            direction=ch.direction.as_tuple(), method=ch.method,
            nbytes=ch.nbytes,
            src_rank=ch.src.rank.index, dst_rank=ch.dst.rank.index,
            src_gpu=ch.src.device.global_index,
            dst_gpu=ch.dst.device.global_index,
            src_node=ch.src.device.node.index,
            dst_node=ch.dst.device.node.index,
            send_region=ch.send_reg, recv_region=ch.recv_reg,
            tag=ch.tag if ch.method in MPI_METHODS else None,
            peer_ok=ch.src.device.can_access_peer(ch.dst.device)))

    messages: List[MpiMessage] = []
    for ch in plan.channels:
        if ch.method not in MPI_METHODS or ch.group is not None:
            continue
        i = edge_index[id(ch)]
        e = edges[i]
        payload = ("device" if ch.method is ExchangeMethod.CUDA_AWARE_MPI
                   else "host")
        messages.append(MpiMessage(
            src_rank=e.src_rank, dst_rank=e.dst_rank, tag=ch.tag,
            nbytes=ch.nbytes, scope=e.scope, payload=payload, members=(i,)))
    for g in plan.groups:
        members = tuple(edge_index[id(ch)] for ch in g.members)
        messages.append(MpiMessage(
            src_rank=g.src_rank.index, dst_rank=g.dst_rank.index,
            tag=g.tag, nbytes=g.total_bytes,
            scope=("intra" if g.src_rank.node is g.dst_rank.node else "inter"),
            payload="host", members=members,
            recv_phase=PHASE_POST_RECV, send_phase=PHASE_GROUP_SEND))

    return MessageGraph(
        global_dims=dd.partition.global_dims, radius=dd.radius,
        quantities=dd.quantities, itemsize=dd.dtype.itemsize,
        periodic=dd.periodic, capabilities=dd.capabilities,
        world_size=dd.world.size, edges=edges, mpi_messages=messages,
        messages_saved=plan.messages_saved)


def graph_for_domain(dd) -> MessageGraph:
    """The engine-free static graph for a domain's configuration."""
    return static_message_graph(
        dd.partition, dd.placements, dd.cluster.machine.node,
        dd.world.ranks_per_node, dd.capabilities, dd.radius,
        dd.quantities, dd.dtype.itemsize, dd.periodic,
        dd.consolidate_remote)


# -- checks ------------------------------------------------------------------------

def _finding(kind: str, message: str, subjects: Iterable[str] = ()) -> Finding:
    return Finding(checker="plan", kind=kind, message=message,
                   subjects=tuple(subjects))


def check_coverage(graph: MessageGraph, report: AnalysisReport) -> None:
    """Every ghost region sourced exactly once; incoming writes disjoint."""
    # A halo side s is filled by the neighbour at s sending in direction -s,
    # so the expected receive sides are the negated send directions (they
    # differ from the send directions when the radius is one-sided).
    dirs = [(-d).as_tuple() for d in exchange_directions(graph.radius)]
    incoming: Dict[int, List[MessageEdge]] = defaultdict(list)
    for e in graph.edges:
        incoming[e.dst_sub].append(e)

    n_subs = graph.global_dims.volume
    expected = set(dirs)
    for sub in range(n_subs):
        gidx = graph.global_dims.delinearize(sub)
        got: Dict[Tuple[int, int, int], int] = defaultdict(int)
        for e in incoming.get(sub, ()):
            got[e.recv_direction] += 1
        for d in dirs:
            # A direction is expected iff a neighbor exists on that side.
            exists = graph.periodic or graph.global_dims.contains_index(
                gidx + Dim3(*d))
            n = got.pop(d, 0)
            if exists and n == 0:
                report.add(_finding(
                    "uncovered-halo",
                    f"subdomain {sub}: ghost region on side {d} has no "
                    f"sender", (f"sub{sub}", f"dir{d}")))
            elif exists and n > 1:
                report.add(_finding(
                    "multi-sourced-halo",
                    f"subdomain {sub}: ghost region on side {d} written by "
                    f"{n} senders", (f"sub{sub}", f"dir{d}")))
            elif not exists and n > 0:
                report.add(_finding(
                    "phantom-sender",
                    f"subdomain {sub}: side {d} has {n} sender(s) but no "
                    f"neighbor (non-periodic boundary)",
                    (f"sub{sub}", f"dir{d}")))
        for d, n in got.items():
            report.add(_finding(
                "phantom-sender",
                f"subdomain {sub}: transfer fills unexpected side {d}",
                (f"sub{sub}", f"dir{d}")))
        # No-overlap: incoming halo writes must be pairwise disjoint boxes.
        es = incoming.get(sub, ())
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                a, b = es[i], es[j]
                if a.recv_direction == b.recv_direction:
                    continue  # already reported as multi-sourced
                if a.recv_region.intersects(b.recv_region):
                    report.add(_finding(
                        "overlapping-writes",
                        f"subdomain {sub}: halo writes from subdomains "
                        f"{a.src_sub} (side {a.recv_direction}) and "
                        f"{b.src_sub} (side {b.recv_direction}) overlap",
                        (f"sub{sub}",)))


def check_matching(graph: MessageGraph, report: AnalysisReport) -> None:
    """Unique (src, dst, tag) triples; tag spaces disjoint."""
    seen: Dict[Tuple[int, int, int], int] = defaultdict(int)
    for m in graph.mpi_messages:
        seen[m.triple] += 1
        is_group = len(m.members) > 1
        lo, hi = ((GROUP_TAG_BASE, SETUP_TAG_BASE) if is_group
                  else (0, GROUP_TAG_BASE))
        if not lo <= m.tag < hi:
            report.add(_finding(
                "tag-overflow",
                f"{'group' if is_group else 'channel'} tag {m.tag} of "
                f"r{m.src_rank}->r{m.dst_rank} escapes its reserved space "
                f"[{lo}, {hi}) — would collide with "
                f"{'setup handshakes' if is_group else 'group messages'}",
                (f"r{m.src_rank}>r{m.dst_rank}.t{m.tag}",)))
    for triple, n in seen.items():
        if n > 1:
            src, dst, tag = triple
            report.add(_finding(
                "duplicate-tag",
                f"{n} messages share (src r{src}, dst r{dst}, tag {tag}); "
                f"MPI matching would pair them nondeterministically",
                (f"r{src}>r{dst}.t{tag}",)))


def check_sizes(graph: MessageGraph, report: AnalysisReport) -> None:
    """Buffer sizes equal halo extents × quantities × dtype."""
    per_point = graph.quantities * graph.itemsize
    for e in graph.edges:
        if e.send_region.extent != e.recv_region.extent:
            report.add(_finding(
                "region-mismatch",
                f"transfer {e.src_sub}->{e.dst_sub} dir {e.direction}: send "
                f"extent {e.send_region.extent.as_tuple()} != recv extent "
                f"{e.recv_region.extent.as_tuple()} — neighbors disagree on "
                f"the shared face", (f"sub{e.src_sub}>sub{e.dst_sub}",)))
        want = e.send_region.volume * per_point
        if e.nbytes != want:
            report.add(_finding(
                "size-mismatch",
                f"transfer {e.src_sub}->{e.dst_sub} dir {e.direction}: "
                f"{e.nbytes} B buffered but the halo region is {want} B "
                f"({e.send_region.extent.as_tuple()} x {graph.quantities} "
                f"quantities x {graph.itemsize} B)",
                (f"sub{e.src_sub}>sub{e.dst_sub}",)))
    for m in graph.mpi_messages:
        want = sum(graph.edges[i].nbytes for i in m.members)
        if m.nbytes != want:
            report.add(_finding(
                "size-mismatch",
                f"MPI message r{m.src_rank}->r{m.dst_rank} tag {m.tag}: "
                f"{m.nbytes} B sent but members stage {want} B",
                (f"r{m.src_rank}>r{m.dst_rank}.t{m.tag}",)))


def check_legality(graph: MessageGraph, report: AnalysisReport) -> None:
    """Method selection legal for the topology and enabled capabilities."""
    caps = graph.capabilities
    for e in graph.edges:
        subj = (f"sub{e.src_sub}>sub{e.dst_sub}", e.method.value)
        cross_node = e.src_node != e.dst_node
        same_rank = e.src_rank == e.dst_rank
        m = e.method

        enabled = {
            ExchangeMethod.KERNEL: caps.kernel,
            ExchangeMethod.DIRECT_ACCESS: caps.direct,
            ExchangeMethod.PEER_MEMCPY: caps.peer,
            ExchangeMethod.COLOCATED_MEMCPY: caps.colocated,
            ExchangeMethod.CUDA_AWARE_MPI: caps.cuda_aware,
            ExchangeMethod.STAGED: caps.staged,
        }[m]
        if not enabled:
            report.add(_finding(
                "disabled-capability",
                f"transfer {e.src_sub}->{e.dst_sub} uses {m.value} but that "
                f"capability is not enabled "
                f"(caps={caps.flags}, cuda_aware={caps.mpi_cuda_aware})",
                subj))
            continue

        if m in (ExchangeMethod.KERNEL, ExchangeMethod.DIRECT_ACCESS,
                 ExchangeMethod.PEER_MEMCPY, ExchangeMethod.COLOCATED_MEMCPY) \
                and cross_node:
            report.add(_finding(
                "illegal-method",
                f"transfer {e.src_sub}->{e.dst_sub} uses {m.value} across "
                f"nodes n{e.src_node}->n{e.dst_node}; peer/IPC paths do not "
                f"cross nodes", subj))
            continue
        if m is ExchangeMethod.KERNEL and e.src_sub != e.dst_sub:
            report.add(_finding(
                "illegal-method",
                f"KERNEL self-exchange selected for distinct subdomains "
                f"{e.src_sub}->{e.dst_sub}", subj))
        elif m in (ExchangeMethod.DIRECT_ACCESS, ExchangeMethod.PEER_MEMCPY):
            if not same_rank:
                report.add(_finding(
                    "illegal-method",
                    f"{m.value} requires one owning rank but "
                    f"r{e.src_rank} != r{e.dst_rank} "
                    f"({e.src_sub}->{e.dst_sub})", subj))
            elif not e.peer_ok:
                report.add(_finding(
                    "illegal-method",
                    f"{m.value} between gpu{e.src_gpu} and gpu{e.dst_gpu} "
                    f"without peer access ({e.src_sub}->{e.dst_sub})", subj))
        elif m is ExchangeMethod.COLOCATED_MEMCPY:
            if same_rank:
                report.add(_finding(
                    "illegal-method",
                    f"colocated (IPC) path within rank r{e.src_rank} "
                    f"({e.src_sub}->{e.dst_sub}); IPC handles are for "
                    f"*cross-process* buffers", subj))
            elif not e.peer_ok:
                report.add(_finding(
                    "illegal-method",
                    f"colocated copy between gpu{e.src_gpu} and "
                    f"gpu{e.dst_gpu} without peer access "
                    f"({e.src_sub}->{e.dst_sub})", subj))


def check_deadlock_free(graph: MessageGraph, report: AnalysisReport) -> None:
    """Receives post no later than sends; matching is a bijection.

    Every MPI endpoint in the plan is nonblocking and the polling loop
    issues gated operations in completion order, so the round is
    deadlock-free by construction *provided* (a) each message's receive is
    posted in a phase ≤ its send's phase — no rank can sit in a completion
    join waiting for a receive that was never posted — and (b) the
    (src, dst, tag) matching is a bijection (checked by
    :func:`check_matching`).
    """
    for m in graph.mpi_messages:
        if m.recv_phase > m.send_phase:
            report.add(_finding(
                "recv-after-send",
                f"message r{m.src_rank}->r{m.dst_rank} tag {m.tag}: receive "
                f"posted in phase {m.recv_phase}, after its send (phase "
                f"{m.send_phase}) — an unexpected-message stall at best, a "
                f"deadlock at worst",
                (f"r{m.src_rank}>r{m.dst_rank}.t{m.tag}",)))


def check_crossvalidation(static: MessageGraph, realized: MessageGraph,
                          report: AnalysisReport) -> None:
    """The realized plan must equal the static prediction edge-for-edge."""
    a = sorted(e.key() for e in static.edges)
    b = sorted(e.key() for e in realized.edges)
    if a != b:
        only_static = [k for k in a if k not in set(b)]
        only_plan = [k for k in b if k not in set(a)]
        report.add(_finding(
            "plan-divergence",
            f"static graph ({len(a)} edges) != realized plan ({len(b)} "
            f"edges); e.g. static-only {only_static[:3]}, plan-only "
            f"{only_plan[:3]}"))
    am = sorted(m.key() for m in static.mpi_messages)
    bm = sorted(m.key() for m in realized.mpi_messages)
    if am != bm:
        report.add(_finding(
            "plan-divergence",
            f"static MPI message set ({len(am)}) != realized plan's "
            f"({len(bm)})"))


def analyze_graph(graph: MessageGraph,
                  report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Run every static check over one message graph."""
    if report is None:
        report = AnalysisReport()
    check_coverage(graph, report)
    check_matching(graph, report)
    check_sizes(graph, report)
    check_legality(graph, report)
    check_deadlock_free(graph, report)
    return report


def analyze_plan(dd) -> AnalysisReport:
    """Full plan verification for a domain.

    Checks the graph derived from the *realized* plan (the structure that
    will actually execute) when one exists — the static first-principles
    graph otherwise — and, when both are available, cross-validates that
    the two independent derivations agree.
    """
    static = graph_for_domain(dd)
    if dd.plan is not None:
        realized = graph_from_plan(dd)
        report = analyze_graph(realized)
        check_crossvalidation(static, realized, report)
    else:
        report = analyze_graph(static)
    return report


def plan_section(dd) -> dict:
    """The ``plan`` section of a bench record: verdict + graph summary."""
    graph = (graph_from_plan(dd) if dd.plan is not None
             else graph_for_domain(dd))
    report = analyze_plan(dd)
    return {
        "verdict": "ok" if report.ok else "findings",
        "findings": report.total,
        "message_graph": graph.to_dict(),
    }
