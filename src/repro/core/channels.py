"""Exchange channels: one per (source subdomain, direction).

A :class:`Channel` owns everything one directed halo transfer needs across
its lifetime — streams, pack/recv buffers, pinned staging buffers, the IPC
handle handshake — allocated once during setup and reused by every
exchange, exactly as the paper's library caches its Sender/Receiver objects.

Each exchange round, a channel contributes operations in up to three
phases, mirroring the library's structure (§III-D):

* ``post_recv``  (destination rank, straight-line): post ``MPI_Irecv`` for
  MPI-based methods and create the *gated* finish operations (H2D + unpack)
  that the polling loop will issue when the receive lands.
* ``enqueue_src`` (source rank, straight-line): enqueue pack (+ D2H, + peer
  copy, + same-rank unpack) into streams back-to-back; MPI sends are gated
  on the staging copy and issued from the polling loop.
* ``enqueue_dst`` (destination rank, straight-line): for COLOCATED, enqueue
  the unpack behind the shared IPC event (device-side gating — the CPU does
  not wait).

The tasks returned feed the per-rank completion joins that time the
exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..dim3 import Dim3
from ..errors import ConfigurationError
from ..sim import Task
from ..sim.tasks import Dep
from ..cuda.ipc import ipc_get_mem_handle, ipc_open_mem_handle
from ..cuda.memory import DeviceBuffer, PinnedBuffer
from ..cuda.stream import Stream
from .halo import ALL_DIRECTIONS, Region
from .methods import ExchangeMethod
from .packing import (
    direct_access_action,
    pack_action,
    self_exchange_action,
    unpack_action,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distributed import DistributedDomain, Subdomain

#: tag space layout: exchange tags below, setup-handshake tags above
SETUP_TAG_BASE = 1 << 24
_SETUP_TAG_BASE = SETUP_TAG_BASE

_DIR_INDEX = {d.as_tuple(): i for i, d in enumerate(ALL_DIRECTIONS)}


def channel_tag(src_linear_id: int, direction: Dim3) -> int:
    """The MPI tag of the channel sending from subdomain ``src_linear_id``
    toward ``direction``.

    Pure function of the plan — exposed so :mod:`repro.analyze` can build
    the static message graph (and check tag-space disjointness) without
    constructing channels.
    """
    return src_linear_id * len(ALL_DIRECTIONS) + _DIR_INDEX[direction.as_tuple()]


@dataclass
class RoundOps:
    """Tasks/signals a channel contributed to one exchange round."""

    src_terminals: List[Dep] = field(default_factory=list)
    dst_terminals: List[Dep] = field(default_factory=list)


class Channel:
    """One directed halo transfer, specialized to an exchange method."""

    def __init__(self, dd: "DistributedDomain", src: "Subdomain",
                 dst: "Subdomain", direction: Dim3,
                 method: ExchangeMethod) -> None:
        self.dd = dd
        self.src = src
        self.dst = dst
        self.direction = direction
        self.method = method
        self.send_reg: Region = src.domain.send_region(direction)
        self.recv_reg: Region = dst.domain.recv_region(-direction)
        if self.send_reg.extent != self.recv_reg.extent:
            raise ConfigurationError(
                f"halo region mismatch {self.send_reg.extent} vs "
                f"{self.recv_reg.extent} for dir {direction}: neighboring "
                f"subdomains disagree on the shared face")
        self.nbytes = src.domain.region_nbytes(self.send_reg)
        self.tag = channel_tag(src.linear_id, direction)
        # Populated by setup():
        self.s_src: Optional[Stream] = None
        self.s_dst: Optional[Stream] = None
        self.pack_buf: Optional[DeviceBuffer] = None
        self.recv_buf: Optional[DeviceBuffer] = None
        self.pin_send: Optional[PinnedBuffer] = None
        self.pin_recv: Optional[PinnedBuffer] = None
        self.remote_buf: Optional[DeviceBuffer] = None  # IPC-opened view
        self._handle_req = None
        self._handle_send_req = None
        self._colo_copy: Optional[Task] = None
        #: set by a ConsolidatedGroup when this STAGED channel's message is
        #: merged into a single per-rank-pair transfer (§VI consolidation)
        self.group = None
        #: methods this channel lost to mid-run faults (degradation ladder)
        self.excluded: set = set()

    # -- setup ------------------------------------------------------------------
    def setup_phase1(self) -> None:
        """Allocate streams/buffers; start the COLOCATED IPC handshake."""
        m = self.method
        sctx, dctx = self.src.rank.ctx, self.dst.rank.ctx
        if m is ExchangeMethod.KERNEL:
            self.s_src = sctx.create_stream(self.src.device)
            return
        if m is ExchangeMethod.DIRECT_ACCESS:
            # The kernel runs on the destination device, loading the
            # source subdomain's interior remotely: the *destination* must
            # have peer access to the source.
            self.dst.device.enable_peer_access(self.src.device)
            self.s_dst = dctx.create_stream(self.dst.device)
            return
        self.s_src = sctx.create_stream(self.src.device)
        self.s_dst = dctx.create_stream(self.dst.device)
        self.pack_buf = self.src.device.alloc(
            self.nbytes, f"ch{self.tag}/pack")
        if m is ExchangeMethod.PEER_MEMCPY:
            self.src.device.enable_peer_access(self.dst.device)
            self.recv_buf = self.dst.device.alloc(
                self.nbytes, f"ch{self.tag}/recv")
        elif m is ExchangeMethod.COLOCATED_MEMCPY:
            self.src.device.enable_peer_access(self.dst.device)
            self.recv_buf = self.dst.device.alloc(
                self.nbytes, f"ch{self.tag}/recv")
            handle = ipc_get_mem_handle(dctx, self.recv_buf,
                                        self.dst.rank.index)
            self._handle_send_req = self.dst.rank.isend(
                handle, self.src.rank.index, _SETUP_TAG_BASE + self.tag)
            self._handle_req = self.src.rank.irecv(
                None, self.dst.rank.index, _SETUP_TAG_BASE + self.tag)
            self.dst.rank.wait(self._handle_send_req)
            self.src.rank.wait(self._handle_req)
        elif m is ExchangeMethod.CUDA_AWARE_MPI:
            self.recv_buf = self.dst.device.alloc(
                self.nbytes, f"ch{self.tag}/recv")
        elif m is ExchangeMethod.STAGED:
            self.recv_buf = self.dst.device.alloc(
                self.nbytes, f"ch{self.tag}/stage")
            if self.group is None:
                self.pin_send = self.src.rank.alloc_pinned(
                    self.nbytes, f"ch{self.tag}/pinS")
                self.pin_recv = self.dst.rank.alloc_pinned(
                    self.nbytes, f"ch{self.tag}/pinR")
            # grouped channels receive pinned slices from their group

    def setup_phase2(self) -> None:
        """After the setup-time engine run: open received IPC handles."""
        if self.method is ExchangeMethod.COLOCATED_MEMCPY:
            assert self._handle_req is not None and self._handle_req.completed, \
                "IPC handle never arrived (setup engine run missing?)"
            self.remote_buf = ipc_open_mem_handle(
                self.src.rank.ctx, self._handle_req.data,
                self.src.rank.index, self.src.rank.node.index)
            assert self.remote_buf is self.recv_buf

    # -- graceful degradation -------------------------------------------------------
    def method_healthy(self, method: ExchangeMethod) -> bool:
        """Whether ``method`` would still work for this pair *right now*.

        Probes the live capability the method depends on — peer access for
        the memcpy/direct methods (which a ``peer_revoke`` fault withdraws
        mid-run), CUDA-aware library support for CUDA_AWARE_MPI.  KERNEL
        and STAGED need nothing revocable; STAGED is the terminal fallback.
        """
        if method in (ExchangeMethod.PEER_MEMCPY,
                      ExchangeMethod.COLOCATED_MEMCPY):
            return self.src.device.can_access_peer(self.dst.device)
        if method is ExchangeMethod.DIRECT_ACCESS:
            return self.dst.device.can_access_peer(self.src.device)
        if method is ExchangeMethod.CUDA_AWARE_MPI:
            faults = self.dd.cluster.faults
            return faults is None or not faults.cuda_aware_revoked()
        return True

    def healthy(self) -> bool:
        """Whether this channel's current method still works."""
        return self.method_healthy(self.method)

    def demote(self, new_method: ExchangeMethod) -> None:
        """Re-specialize this channel to ``new_method``.

        Frees the old method's buffers and re-runs phase-1 setup (the
        caller drains the engine and runs :meth:`setup_phase2` afterwards,
        exactly like first-time setup).  Only call at quiescence — no
        in-flight round may reference the old buffers.
        """
        for buf in (self.pack_buf, self.recv_buf, self.pin_send,
                    self.pin_recv):
            if buf is not None and not buf.freed:
                buf.free()
        # remote_buf is the IPC view of recv_buf (same object for
        # COLOCATED) — already freed above, just drop the reference.
        self.pack_buf = self.recv_buf = None
        self.pin_send = self.pin_recv = None
        self.remote_buf = None
        self._handle_req = self._handle_send_req = None
        self._colo_copy = None
        self.method = new_method
        self.setup_phase1()

    # -- one exchange round --------------------------------------------------------
    def post_recv(self, ops: RoundOps) -> None:
        """Destination-side receive posting + gated finish ops."""
        m = self.method
        if m is ExchangeMethod.STAGED:
            dctx = self.dst.rank.ctx
            if self.group is None:
                rreq = self.dst.rank.irecv(self.pin_recv,
                                           self.src.rank.index, self.tag)
                gate = rreq.signal
            else:
                # Consolidated: the group posted one receive for the whole
                # rank-pair message; finish ops gate on it.
                gate = self.group.recv_gate
            # Polling loop: once the message lands, H2D then unpack.  Both
            # gated on the receive; the stream orders them on the device.
            dctx.memcpy_async(self.recv_buf, self.pin_recv, self.s_dst,
                              what="h2d", deps=[gate], ordered=False)
            unpack = dctx.launch_kernel(
                self.s_dst, self.nbytes,
                action=unpack_action(self.dst.domain, self.recv_reg,
                                     self.recv_buf),
                what="unpack", kind="unpack",
                deps=[gate], ordered=False,
                reads=[self.recv_buf],
                writes=[(self.dst.domain.buffer, self.recv_reg)])
            ops.dst_terminals.append(unpack)
        elif m is ExchangeMethod.CUDA_AWARE_MPI:
            dctx = self.dst.rank.ctx
            rreq = self.dst.rank.irecv(self.recv_buf, self.src.rank.index,
                                       self.tag)
            unpack = dctx.launch_kernel(
                self.s_dst, self.nbytes,
                action=unpack_action(self.dst.domain, self.recv_reg,
                                     self.recv_buf),
                what="unpack", kind="unpack",
                deps=[rreq.signal], ordered=False,
                reads=[self.recv_buf],
                writes=[(self.dst.domain.buffer, self.recv_reg)])
            ops.dst_terminals.append(unpack)

    def enqueue_src(self, ops: RoundOps) -> None:
        """Source-side straight-line enqueues (+ gated MPI sends)."""
        m = self.method
        sctx = self.src.rank.ctx
        if m is ExchangeMethod.KERNEL:
            k = sctx.launch_kernel(
                self.s_src, self.nbytes,
                action=self_exchange_action(self.src.domain, self.direction),
                what="selfx", kind="kernel",
                reads=[(self.src.domain.buffer, self.send_reg)],
                writes=[(self.dst.domain.buffer, self.recv_reg)])
            ops.src_terminals.append(k)
            return
        if m is ExchangeMethod.DIRECT_ACCESS:
            # One kernel on the destination GPU: remote loads from the
            # source's send region over the peer links, local stores into
            # the halo.  No pack buffer, no copy, no unpack.
            cost = self.dd.cluster.cost
            node = self.dst.device.node
            links = node.path_resources(self.src.device.component,
                                        self.dst.device.component)
            bw = node.path_bandwidth(self.src.device.component,
                                     self.dst.device.component)
            dur = (self.dst.device.spec.kernel_launch_overhead
                   + node.path_latency(self.src.device.component,
                                       self.dst.device.component)
                   + self.nbytes / (bw * cost.direct_access_efficiency))
            k = sctx.launch_kernel(
                self.s_dst, self.nbytes,
                action=direct_access_action(self.src.domain, self.send_reg,
                                            self.dst.domain, self.recv_reg),
                what="directx", kind="kernel", duration=dur,
                extra_resources=links,
                reads=[(self.src.domain.buffer, self.send_reg)],
                writes=[(self.dst.domain.buffer, self.recv_reg)])
            ops.src_terminals.append(k)
            return
        pack = sctx.launch_kernel(
            self.s_src, self.nbytes,
            action=pack_action(self.src.domain, self.send_reg, self.pack_buf),
            what="pack", kind="pack",
            reads=[(self.src.domain.buffer, self.send_reg)],
            writes=[self.pack_buf])
        if m is ExchangeMethod.PEER_MEMCPY:
            sctx.memcpy_peer_async(self.recv_buf, self.pack_buf, self.s_src,
                                   what="peercpy")
            ev = sctx.event_record(self.s_src)
            sctx.stream_wait_event(self.s_dst, ev)
            unpack = sctx.launch_kernel(
                self.s_dst, self.nbytes,
                action=unpack_action(self.dst.domain, self.recv_reg,
                                     self.recv_buf),
                what="unpack", kind="unpack",
                reads=[self.recv_buf],
                writes=[(self.dst.domain.buffer, self.recv_reg)])
            ops.src_terminals.append(unpack)
        elif m is ExchangeMethod.COLOCATED_MEMCPY:
            copy = sctx.memcpy_peer_async(self.remote_buf, self.pack_buf,
                                          self.s_src, what="colocpy")
            self._colo_copy = copy
            ops.src_terminals.append(copy)
        elif m is ExchangeMethod.CUDA_AWARE_MPI:
            sreq = self.src.rank.isend(self.pack_buf, self.dst.rank.index,
                                       self.tag, deps=[pack], ordered=False)
            ops.src_terminals.append(sreq.signal)
        elif m is ExchangeMethod.STAGED:
            d2h = sctx.memcpy_async(self.pin_send, self.pack_buf, self.s_src,
                                    what="d2h")
            if self.group is None:
                sreq = self.src.rank.isend(self.pin_send,
                                           self.dst.rank.index, self.tag,
                                           deps=[d2h], ordered=False)
                ops.src_terminals.append(sreq.signal)
            else:
                # Consolidated: the single group send goes out once every
                # member's staging copy has landed in the shared buffer.
                self.group.add_staged(d2h)

    def enqueue_dst(self, ops: RoundOps) -> None:
        """Destination-side straight-line enqueues (COLOCATED unpack)."""
        if self.method is not ExchangeMethod.COLOCATED_MEMCPY:
            return
        dctx = self.dst.rank.ctx
        cluster = self.dd.cluster
        # Cross-process synchronization through the shared IPC event: the
        # unpack may start only after the peer copy lands, plus a small
        # event-visibility cost.
        sync = Task(cluster.engine,
                    name=f"ch{self.tag}/ipc-sync",
                    duration=cluster.cost.ipc_event_sync_overhead,
                    deps=[self._colo_copy],
                    lane=self.dst.device.lane, kind="sync")
        sync.submit()
        unpack = dctx.launch_kernel(
            self.s_dst, self.nbytes,
            action=unpack_action(self.dst.domain, self.recv_reg,
                                 self.recv_buf),
            what="unpack", kind="unpack",
            gate_deps=[sync],
            reads=[self.recv_buf],
            writes=[(self.dst.domain.buffer, self.recv_reg)])
        ops.dst_terminals.append(unpack)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Channel({self.src.linear_id}->{self.dst.linear_id} "
                f"dir={self.direction.as_tuple()} {self.method.value} "
                f"{self.nbytes}B)")
