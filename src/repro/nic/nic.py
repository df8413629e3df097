"""The StRoM NIC: RoCE v2 stack + DMA engine + TLB + kernels (Figure 1).

One :class:`StromNic` owns:

- the receiving and transmitting data paths of the RoCE stack (Figure 2),
  including PSN state machines, MSN/address tracking for multi-packet
  writes, ACK/NAK generation and go-back-N retransmission;
- the Multi-Queue tracking outstanding RDMA READs;
- the TLB and DMA engine reaching host memory over PCIe;
- the StRoM integration: RPC op-code matching, kernel stream adapters,
  and arbitration of kernel-originated RDMA WRITEs into the TX path.

Timing model: the cable paces frames at line rate; the TX path charges
pipeline-fill plus per-word store-and-forward (the ICRC cost of §7.1);
the RX path charges a fixed parse/PSN-check latency.  DMA operations pay
PCIe latency plus occupancy of the shared PCIe bandwidth link.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..config import NicConfig
from ..core.guard import (ABORT_SENTINEL, InvocationBudget, KernelGuard,
                          ProtectionDomain)
from ..core.kernel import MemCmd, RoceMeta, StromKernel
from ..core.payload import as_bytes
from ..core.registry import KernelRegistry
from ..core.rpc import (RPC_ERROR_NO_KERNEL, RPC_ERROR_QUARANTINED,
                        RpcPreamble, rpc_error_bytes)
from ..memory import PhysicalMemory
from ..net.link import Cable
from ..roce import burst
from ..roce.headers import AETH_NAK_PSN_SEQ_ERROR, Aeth, Bth, Reth
from ..roce.multiqueue import MultiQueue
from ..roce.opcodes import (
    AETH_OPCODES,
    TAIL_OPCODES,
    Opcode,
    is_first,
    is_only,
    is_read_response,
    is_rpc_write,
    is_write,
)
from ..roce.packet import RocePacket, make_ack, make_cnp
from ..roce.packetizer import (
    read_response_packet_count,
    segment_read_response,
    segment_rpc_params,
    segment_rpc_write,
    segment_write,
)
from ..obs.runtime import observers_for, registry_for
from ..roce.qp import (
    PsnVerdict,
    QpError,
    QueuePairTable,
    UnackedEntry,
    psn_add,
    psn_distance,
)
from ..roce.retransmit import RetransmissionTimer
from ..sim import (Event, Resource, Simulator, Stream, process_step,
                   terminated)
from .dma import DmaEngine, StreamChunks
from .tlb import Tlb


# Module-level aliases for the per-packet paths: an Enum class-attribute
# read costs several times a global load.
_ACKNOWLEDGE = Opcode.ACKNOWLEDGE
_CNP = Opcode.CNP
_READ_REQUEST = Opcode.READ_REQUEST
_RPC_PARAMS = Opcode.RPC_PARAMS
_DUPLICATE = PsnVerdict.DUPLICATE
_OUT_OF_ORDER = PsnVerdict.OUT_OF_ORDER

#: Reserved QPN addressing the local host: kernel output RoCE metadata
#: targeting this QPN is DMA-written to local memory instead of being
#: sent over the network (local StRoM invocation, Sections 3.5/5.2).
LOCAL_QPN = 0


@dataclass
class NicCommand:
    """One host-issued command (a single AVX2 store's worth of params)."""

    kind: str               # 'write' | 'read' | 'rpc' | 'rpc_write'
                            # | 'local_rpc' | 'local_rpc_write'
    qpn: int
    laddr: int = 0          # payload source (write) / data target (read)
    raddr: int = 0          # remote virtual address (write/read)
    length: int = 0
    rpc_op: int = 0         # RPC op-code (rpc / rpc_write)
    params: bytes = b""     # inline RPC parameters (rpc)
    payload_inline: Optional[bytes] = None  # kernel-originated payload
    completion: Optional[Event] = None


@dataclass(slots=True)
class _ReadContext:
    """Requester-side state for one outstanding READ (Multi-Queue value)."""

    laddr: int
    length: int
    first_psn: int
    packet_count: int
    completion: Optional[Event]
    next_index: int = 0
    bytes_received: int = 0
    span: Optional[object] = None  # open trace span while in flight


class StromNic:
    """One StRoM NIC attached to a host's physical memory and to a cable."""

    def __init__(self, env: Simulator, config: NicConfig,
                 memory: PhysicalMemory, ip: int,
                 name: str = "nic") -> None:
        self.env = env
        self.config = config
        self.memory = memory
        self.ip = ip
        self.name = name

        self.tlb = Tlb(config)
        self.dma = DmaEngine(env, config, memory, self.tlb, name=f"{name}.dma")
        self.qps = QueuePairTable(config.num_queue_pairs,
                                  registry=registry_for(env),
                                  prefix=f"{name}.qps")
        self.multiqueue = MultiQueue(config.num_queue_pairs,
                                     config.max_outstanding_reads)
        self.registry = KernelRegistry()
        self.read_credits = Resource(env, config.max_outstanding_reads)
        self.timer = RetransmissionTimer(
            env, config.retransmit_timeout, self._on_retransmit_timeout,
            name=f"{name}.timer",
            max_retries=config.retransmit_max_retries,
            backoff_cap=config.retransmit_backoff_cap,
            jitter=config.retransmit_jitter,
            on_exhausted=self._on_retry_exhausted)
        #: False while the node hosting this NIC is crashed: every frame
        #: in either direction is dropped until :meth:`power_on`.
        self.powered = True
        #: Congestion-control plane (DCQCN), installed by
        #: :meth:`enable_congestion_control`; None = legacy behavior
        #: (no CNPs, no pacing, bit-identical schedules).
        self.cc = None

        # Per-QP completions waiting for ACKs: qpn -> ordered entries.
        self._rpc_write_target: Dict[int, Optional[StromKernel]] = {}
        self._nak_pending: Dict[int, bool] = {}
        # qpn -> pending Event while a go-back-N burst is in flight.
        # Only consulted when the CC plane is on: pacing stretches a
        # retransmission over hundreds of microseconds, long enough for
        # concurrently emitted *new* packets to interleave and keep the
        # responder permanently out of order (hardware instead rewinds
        # the send pointer, which this gate approximates).
        self._rtx_busy: Dict[int, Event] = {}
        self._tx_gate: Event = Event(env)
        self._tx_gate.succeed()
        self._fetch_gate: Event = Event(env)
        self._fetch_gate.succeed()
        self._resp_gate: Event = Event(env)
        self._resp_gate.succeed()

        self._cable: Optional[Cable] = None
        self._cable_side: Optional[str] = None

        # Fixed pipeline delays, precomputed once (config is immutable):
        # the TX/RX hot paths run per packet.
        self._tx_delay = config.cycles(
            config.tx_pipeline_cycles + config.strom_arbitration_cycles)
        self._rx_delay = config.cycles(config.rx_pipeline_cycles)
        self._arb_delay = config.cycles(config.strom_arbitration_cycles)

        # Statistics
        from .controller import Controller
        self.controller = Controller(self)
        metrics = registry_for(env)
        self.metrics = metrics
        #: Observer slot (trace, gauge sampling, invariant monitors:
        #: repro.obs.runtime); None unless the run is observed.
        self.obs = observers_for(env)
        if self.obs is not None:
            self.obs.on_nic(self)

        self.packets_sent = metrics.counter(f"{name}.pkts_tx")
        self.packets_received = metrics.counter(f"{name}.pkts_rx")
        self.packets_dropped = metrics.counter(f"{name}.pkts_dropped")
        self.acks_sent = metrics.counter(f"{name}.acks_tx")
        self.naks_sent = metrics.counter(f"{name}.naks_tx")
        self.retransmitted = metrics.counter(f"{name}.retransmits")
        self.duplicates = metrics.counter(f"{name}.duplicates")
        self.payload_bytes_sent = metrics.counter(f"{name}.payload_tx")
        self.payload_bytes_received = metrics.counter(f"{name}.payload_rx")
        #: QPs transitioned to the error state (retry budget exhausted).
        self.qp_errors = metrics.counter(f"{name}.qp_errors")
        #: Commands rejected because their QP was already in error.
        self.commands_rejected = metrics.counter(f"{name}.cmds_rejected")
        #: Frames discarded in either direction while powered off.
        self.crash_drops = metrics.counter(f"{name}.crash_drops")
        #: Sampled time series of in-flight READs (Multi-Queue load).
        self._outstanding_reads = metrics.gauge(
            f"{name}.outstanding_reads")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, cable: Cable, side: str) -> None:
        """Connect this NIC to one side ('a' or 'b') of a cable."""
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        self._cable = cable
        self._cable_side = side
        cable.connect(side, self)
        # Frames arrive via the receiver hook (no rx stream, no per-NIC
        # rx loop process, no per-frame stream wake); the RX parse
        # pipeline delay is folded into the cable's arrival callback.
        cable.set_receiver(side, self._rx_arrive, self._rx_delay)

    def create_queue_pair(self, qpn: int, dest_qpn: int,
                          dest_ip: int) -> None:
        """Install one queue pair (driver/Controller path)."""
        self.qps.create(qpn, dest_qpn, dest_ip)

    def enable_congestion_control(self, config=None) -> None:
        """Turn on the DCQCN plane for this NIC: CE-marked arrivals
        generate CNPs, received CNPs throttle the addressed QP, and
        every outbound data packet passes the per-QP pacer.  Pair with
        an ``ecn`` entry in the switch config (or use
        :meth:`repro.cluster.topology.Cluster.enable_congestion_control`
        to do both ends at once)."""
        fold = self.env.fold
        if fold is not None:
            fold.on_hop(self)
        from ..cc.plane import CcConfig, NicCongestionControl
        if config is None:
            config = CcConfig()
        self.cc = NicCongestionControl(
            self.env, config, self.name, self.config.line_rate_bps,
            self._send_cnp, self.metrics)

    def deploy_kernel(self, rpc_opcode: int, kernel: StromKernel,
                      sequential_dma: bool = True,
                      protection: Optional[ProtectionDomain] = None,
                      budget: Optional[InvocationBudget] = None,
                      quarantine_threshold: int = 3) -> None:
        """Deploy a StRoM kernel and start its stream adapters.

        ``protection`` / ``budget`` harden the deployment: DMA is
        confined to the protection domain, invocations are bounded by
        the budget, and ``quarantine_threshold`` consecutive aborts
        quarantine the kernel (further RPCs answered with
        ``RPC_ERROR_QUARANTINED``).  Both default to off, leaving the
        kernel guard-free and its schedules untouched."""
        kernel.sequential_dma = sequential_dma
        kernel.trace_source = f"{self.name}.kernel.{kernel.name}"
        if protection is not None or budget is not None:
            kernel.guard = KernelGuard(
                protection=protection, budget=budget,
                quarantine_threshold=quarantine_threshold)
        self.registry.deploy(rpc_opcode, kernel)
        glue = _KernelGlue(self, kernel)
        self.env.call_soon(glue.serve_dma)
        self.env.call_soon(glue.serve_tx)

    # ------------------------------------------------------------------
    # Power state (whole-node crash/restart fault injection)
    # ------------------------------------------------------------------
    def power_off(self) -> None:
        """Crash the node: every frame in either direction is dropped.

        QP and memory state is preserved (a *warm* restart model): after
        :meth:`power_on` the peers' retransmissions find the responder
        state where it was, so in-flight operations can still complete.
        """
        if not self.powered:
            return
        fold = self.env.fold
        if fold is not None:
            fold.on_hop(self)
        self.powered = False
        if self.obs is not None:
            self.obs.record(self.name, "power_off")

    def power_on(self) -> None:
        """Restore a crashed node."""
        if self.powered:
            return
        self.powered = True
        if self.obs is not None:
            self.obs.record(self.name, "power_on")

    # ------------------------------------------------------------------
    # QP error state (retry budget exhausted)
    # ------------------------------------------------------------------
    def _on_retry_exhausted(self, qpn: int) -> None:
        self._fail_queue_pair(qpn, "retry budget exhausted")

    def _fail_queue_pair(self, qpn: int, reason: str) -> None:
        """Transition ``qpn`` to the error state: stop retransmitting and
        complete every outstanding work request with error status."""
        qp = self.qps.get(qpn)
        if qp.in_error:
            return
        qp.fail(reason)
        self.qp_errors.add()
        self.timer.disarm(qpn)
        error = QpError(qpn, reason)
        for entry in qp.requester.unacked:
            if entry.completion is not None \
                    and not entry.completion.triggered:
                entry.completion.succeed(error)
        qp.requester.unacked.clear()
        while not self.multiqueue.is_empty(qpn):
            context = self.multiqueue.pop(qpn)
            self._end_span(context.span)
            if context.completion is not None \
                    and not context.completion.triggered:
                context.completion.succeed(error)
            self.read_credits.release()
        if self.obs is not None:
            self.obs.on_qp_error(self, qpn, reason)

    # ------------------------------------------------------------------
    # Observer spans and gauges
    # ------------------------------------------------------------------
    def _begin_span(self, qpn: int, name: str, **details):
        """Open a QP span (None when the run keeps no trace)."""
        if self.obs is None:
            return None
        return self.obs.begin_span(f"{self.name}.qp{qpn}", name, **details)

    def _end_span(self, span) -> None:
        if self.obs is not None:
            self.obs.end_span(span)

    def _sample_reads(self) -> None:
        """One point of the in-flight READ (Multi-Queue load) series."""
        if self.obs is not None:
            self.obs.sample(self._outstanding_reads,
                            self.read_credits.in_use)

    # ------------------------------------------------------------------
    # Host command entry point (called by the MMIO path)
    # ------------------------------------------------------------------
    def submit(self, command: NicCommand) -> None:
        """Accept one command from the Controller."""
        if command.kind in ("write", "read", "rpc", "rpc_write") \
                and command.qpn in self.qps \
                and self.qps.get(command.qpn).in_error:
            # Error-state QPs accept no new work: complete immediately
            # with error status instead of silently blackholing.
            self.commands_rejected.add()
            if command.completion is not None:
                command.completion.succeed(
                    QpError(command.qpn,
                            self.qps.get(command.qpn).error_reason))
            return
        if command.kind == "read":
            self.env.process(self._post_read(command))
        elif command.kind in ("write", "rpc", "rpc_write"):
            self._post_send(command)
        elif command.kind == "local_rpc":
            self.env.process(self._local_rpc(command))
        elif command.kind == "local_rpc_write":
            self.env.process(self._local_rpc_write(command))
        else:
            raise ValueError(f"unknown command kind {command.kind!r}")

    # ------------------------------------------------------------------
    # Local StRoM invocation (Sections 3.5 / 5.2)
    # ------------------------------------------------------------------
    def _local_rpc(self, command: NicCommand):
        """Invoke a kernel on this NIC directly: the Controller feeds the
        QPN and parameters into the kernel streams without a network hop.
        ``command.qpn`` selects where kernel *output* goes: LOCAL_QPN for
        local memory, or a connected QP to use the kernel as a send-side
        processor."""
        kernel, status = self.registry.resolve(command.rpc_op)
        if kernel is None:
            raise KeyError(
                f"no kernel deployed for RPC op-code {command.rpc_op:#x}")
        yield self.env.timeout(self._arb_delay)
        if status == "quarantined":
            # Answer locally without feeding the quarantined kernel.
            try:
                preamble = RpcPreamble.unpack(command.params)
            except ValueError:
                self.commands_rejected.add()
            else:
                yield from self.dma.write(
                    preamble.response_vaddr,
                    rpc_error_bytes(RPC_ERROR_QUARANTINED))
            if command.completion is not None:
                command.completion.succeed(self.env.now)
            return
        yield kernel.streams.qpn_in.put(command.qpn)
        yield kernel.streams.param_in.put(command.params)
        if command.completion is not None:
            command.completion.succeed(self.env.now)

    def _local_rpc_write(self, command: NicCommand):
        """Stream a local buffer through a kernel (send kernel): the
        payload is fetched over PCIe and fed to roceDataIn in data-path
        chunks, exactly as network RPC WRITE payload would arrive."""
        kernel, status = self.registry.resolve(command.rpc_op)
        if kernel is None:
            raise KeyError(
                f"no kernel deployed for RPC op-code {command.rpc_op:#x}")
        if status == "quarantined":
            # The paired RPC_PARAMS already answered with the error;
            # do not feed payload into a quarantined kernel.
            self.commands_rejected.add()
            if command.completion is not None:
                command.completion.succeed(self.env.now)
            return
        segments = segment_rpc_write(command.length)
        fetch_queue = Stream(self.env)
        self.env.process(self.dma.read_stream(
            command.laddr, segments, fetch_queue, stable=True))
        for i, seg in enumerate(segments):
            chunk = yield fetch_queue.get()
            tail = i == len(segments) - 1
            yield self.env.timeout(self._arb_delay)
            # Kernels inspect their input: materialize the fetched view.
            yield kernel.streams.roce_data_in.put(
                (command.qpn, as_bytes(chunk), tail))
        if command.completion is not None:
            command.completion.succeed(self.env.now)

    # ------------------------------------------------------------------
    # TX data path
    # ------------------------------------------------------------------
    def _post_send(self, command: NicCommand) -> None:
        qp = self.qps.get(command.qpn)
        if command.kind == "write":
            segments = segment_write(command.length)
        elif command.kind == "rpc":
            segments = segment_rpc_params(len(command.params))
        else:
            segments = segment_rpc_write(command.length)
        first_psn = qp.requester.allocate_psns(len(segments))
        fetch = None
        if command.payload_inline is None \
                and command.kind in ("write", "rpc_write") \
                and command.length > 0:
            # stable=True: send buffers are contract-protected.
            fetch = self._fetch(command.laddr, segments, stable=True)
        prev_gate, gate = self._tx_gate, Event(self.env)
        self._tx_gate = gate
        self.env.process(
            self._send_message(command, qp, segments, first_psn,
                               prev_gate, gate, fetch))

    def _fetch(self, vaddr: int, segments, stable: bool = False):
        """Streaming payload fetch: bursts served in issue order, read
        latencies overlapping between outstanding bursts."""
        if self.config.per_word_accounting:
            # Validation mode keeps the explicit chunk-delivery
            # process (per-word PCIe charges).
            fetch_queue = Stream(self.env)
            self.env.process(self.dma.read_stream(
                vaddr, segments, fetch_queue, stable=stable))
            return StreamChunks(fetch_queue)
        # Fast path: chunk arrival times are arithmetic — zero scheduler
        # events per fetched packet in steady state.
        return self.dma.read_plan(vaddr, segments, stable=stable)

    def _send_message(self, command, qp, segments, first_psn,
                      prev_gate, gate, fetch=None):
        """Emit the message's packets in order behind all previously
        posted messages.  Memory-sourced payloads are fetched over PCIe
        as a *stream* overlapping transmission (descriptor bypass).
        The per-packet waits (chunk arrival, pacing, the TX charge) are
        inline timeouts; only validation mode's per-word charges and a
        throttled QP's pacer run as sub-generators."""
        payload = command.params if command.kind == "rpc" \
            else command.payload_inline
        per_word = self.config.per_word_accounting
        yield prev_gate
        # New traffic claims the fabric: any pending fold must hand
        # back to the per-packet machinery *before* this message
        # creates its first event (see burst.unfold_pending).
        burst.unfold_pending(self.env)
        if command.kind == "write" and payload is None \
                and fetch is not None:
            if burst.try_fold(self, qp, segments, first_psn, fetch, gate,
                              command=command):
                return
        span = self._begin_span(qp.qpn, "tx_message", kind=command.kind,
                                length=command.length)
        for i, seg in enumerate(segments):
            if fetch is not None and seg.length > 0:
                if per_word:
                    chunk = yield from fetch.next_chunk()
                else:
                    due = fetch.due()
                    if due > self.env.now:
                        yield self.env.timeout(due - self.env.now)
                    chunk = fetch.take()
            elif payload is not None:
                chunk = payload[seg.offset:seg.offset + seg.length]
            else:
                chunk = b""
            packet, entry = self.message_packet(
                command, qp, seg, psn_add(first_psn, i), chunk)
            qp.requester.unacked.append(entry)
            self.payload_bytes_sent.add(len(packet.payload))
            if self.cc is not None:
                busy = self._rtx_busy.get(qp.qpn)
                if busy is not None and not busy.triggered:
                    # Go-back-N in flight: hold new packets back until
                    # the rewound window has been resent.
                    yield busy
                if not self.cc.unthrottled(qp.qpn):
                    yield from self.cc.pace(qp.qpn, packet.wire_bytes)
            # II=1 store-and-forward through the TX pipeline (ICRC).
            if per_word:
                yield from self.config.streaming_charge(
                    self.env, packet.l3_bytes)
            else:
                yield self.env.timeout(
                    self.config.streaming_time(packet.l3_bytes))
            self._tx_deliver(packet, qp)
            if self.cc is not None and not qp.in_error \
                    and self.cc.is_throttled(qp.qpn):
                # Paced transmission is forward progress: a throttled
                # message can legally outlast the retransmission
                # timeout, so push the deadline out per packet sent
                # (DCQCN deployments likewise keep the QP timer well
                # above the pacer's inter-packet gaps).
                self.timer.arm(qp.qpn)
        self._end_span(span)
        if not qp.in_error:
            self.timer.arm(qp.qpn)
        gate.succeed()

    def message_packet(self, command: NicCommand, qp, seg, psn: int,
                       payload) -> Tuple[RocePacket, UnackedEntry]:
        """Packet ``psn`` (segment ``seg``) of a WRITE, RPC or RPC WRITE
        message and its retransmit entry (send loop and burst unfold)."""
        # Positional arguments (field order) throughout: keyword
        # matching costs a dataclass __init__ a third more, per packet.
        opcode = seg.opcode
        tail = opcode in TAIL_OPCODES
        reth = None
        if seg.carries_reth:
            kind = command.kind
            reth = Reth(command.raddr if kind == "write" else command.rpc_op,
                        0, len(command.params) if kind == "rpc"
                        else command.length)
        packet = RocePacket(self.ip, qp.dest_ip,
                            Bth(opcode, qp.dest_qpn, psn, tail), reth, None,
                            payload)
        return packet, UnackedEntry(
            psn, psn, command.kind, packet,
            command.completion if tail else None, tail)

    def _post_read(self, command: NicCommand):
        yield self.read_credits.acquire()
        self._sample_reads()
        qp = self.qps.get(command.qpn)
        count = read_response_packet_count(command.length)
        first_psn = qp.requester.allocate_psns(count)
        context = _ReadContext(laddr=command.laddr, length=command.length,
                               first_psn=first_psn, packet_count=count,
                               completion=command.completion,
                               span=self._begin_span(
                                   qp.qpn, "read", length=command.length,
                                   psn=first_psn))
        # read_credits keep the Multi-Queue from overflowing.
        self.multiqueue.push(qp.qpn, context)
        reth = Reth(vaddr=command.raddr, rkey=0, dma_length=command.length)
        bth = Bth(opcode=_READ_REQUEST, dest_qp=qp.dest_qpn,
                  psn=first_psn, ack_request=True)
        packet = RocePacket(src_ip=self.ip, dst_ip=qp.dest_ip,
                            bth=bth, reth=reth)
        entry = UnackedEntry(first_psn=first_psn,
                             last_psn=psn_add(first_psn, count - 1),
                             kind="read", packet=packet)
        prev_gate, gate = self._tx_gate, Event(self.env)
        self._tx_gate = gate
        yield prev_gate
        burst.unfold_pending(self.env)
        qp.requester.unacked.append(entry)
        if self.cc is not None and not self.cc.unthrottled(qp.qpn):
            yield from self.cc.pace(qp.qpn, packet.wire_bytes)
        if self.config.per_word_accounting:
            yield from self.config.streaming_charge(
                self.env, packet.l3_bytes)
        else:
            yield self.env.timeout(
                self.config.streaming_time(packet.l3_bytes))
        self._tx_deliver(packet, qp)
        if not qp.in_error:
            self.timer.arm(qp.qpn)
        gate.succeed()

    def _tx_deliver(self, packet: RocePacket, qp=None) -> None:
        """Hand the frame to the cable.  The fixed TX pipeline latency
        is folded into the wire reservation's floor (``ready``), so
        pipeline + serialization + propagation + the peer's RX parse
        cost a single scheduler event on the fault-free path."""
        obs = self.obs
        if obs is not None:
            # Before the powered check: a crashed NIC drops the frame,
            # but its PSN was already consumed from the QP's sequence —
            # the monitors track allocation, not delivery.
            obs.on_tx(self, packet, qp)
        if not self.powered:
            self.crash_drops.add()
            return
        self.packets_sent.add()
        if obs is not None:
            obs.record(self.name, "tx", opcode=packet.bth.opcode.name,
                       psn=packet.bth.psn, payload=len(packet.payload))
        self._cable.send(self._cable_side, packet,
                         ready=self.env.now + self._tx_delay)

    # ------------------------------------------------------------------
    # RX data path
    # ------------------------------------------------------------------
    def _rx_arrive(self, packet: RocePacket) -> None:
        """Cable receiver hook (RX pipeline delay already charged)."""
        fold = self.env.fold
        if fold is not None:
            # A per-packet frame reached a NIC: if it participates in
            # the folded burst, the analytic schedule no longer owns its
            # arrival order — unfold before dispatching.
            fold.on_hop(self)
        if not self.powered:
            self.crash_drops.add()
            return
        self._rx_dispatch(packet)

    def _rx_dispatch(self, packet: RocePacket) -> None:
        """Classify one received frame.  Runs synchronously so PSN/MSN
        state updates, ACK emission and gate chaining happen strictly in
        arrival order; READ serving continues as a process and the
        kernel stream feeds as callback chains."""
        self.packets_received.add()
        obs = self.obs
        if obs is not None:
            obs.record(self.name, "rx", opcode=packet.bth.opcode.name,
                       psn=packet.bth.psn, payload=len(packet.payload),
                       corrupted=packet.corrupted)
        if packet.corrupted:
            # ICRC validation fails -> Packet Dropper discards silently;
            # the requester's retransmission timer recovers.
            self.packets_dropped.add()
            return
        if packet.bth.dest_qp not in self.qps:
            self.packets_dropped.add()
            return
        qp = self.qps.get(packet.bth.dest_qp)
        if obs is not None:
            obs.on_rx(self, qp, packet)
        opcode = packet.bth.opcode
        if opcode == _CNP:
            # Congestion notification: throttle the addressed QP and
            # stop — a CNP carries no PSN meaning and is never ACKed.
            if self.cc is not None:
                self.cc.on_cnp(packet.bth.dest_qp)
            else:
                self.packets_dropped.add()
            return
        if packet.ecn_ce and self.cc is not None:
            self.cc.note_ce(qp)
        if opcode == _ACKNOWLEDGE:
            self._handle_ack(qp, packet)
        elif is_read_response(opcode):
            self._handle_read_response(qp, packet)
        else:
            self._handle_request(qp, packet)

    # ----------------------- responder side ---------------------------
    def _handle_request(self, qp, packet: RocePacket) -> None:
        responder = qp.responder
        verdict = responder.classify(packet.bth.psn)
        if verdict is _OUT_OF_ORDER:
            if not self._nak_pending.get(qp.qpn):
                self._nak_pending[qp.qpn] = True
                self._send_ack(qp, responder.expected_psn, responder.msn,
                               syndrome=AETH_NAK_PSN_SEQ_ERROR)
            self.packets_dropped.add()
            return
        if verdict is _DUPLICATE:
            self.duplicates.add()
            opcode = packet.bth.opcode
            if opcode == _READ_REQUEST:
                # Duplicate reads are re-executed (idempotent).
                self.env.process(self._responder_read(qp, packet))
            else:
                self._send_ack(qp, packet.bth.psn, responder.msn)
            return

        self._nak_pending[qp.qpn] = False
        opcode = packet.bth.opcode
        if is_write(opcode):
            self._responder_write(qp, packet)
        elif opcode == _READ_REQUEST:
            count = read_response_packet_count(packet.reth.dma_length)
            responder.expected_psn = psn_add(packet.bth.psn, count)
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            self.env.process(self._responder_read(qp, packet))
        elif opcode == _RPC_PARAMS:
            responder.expected_psn = psn_add(packet.bth.psn, 1)
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            self._send_ack(qp, packet.bth.psn, responder.msn)
            self.env.call_soon(self._dispatch_rpc, (qp, packet))
        elif is_rpc_write(opcode):
            self._responder_rpc_write(qp, packet)
        else:
            self.packets_dropped.add()

    def _responder_write(self, qp, packet: RocePacket) -> None:
        opcode = packet.bth.opcode
        cursor = packet.reth.vaddr if is_first(opcode) or is_only(opcode) \
            else qp.responder.write_cursor
        if cursor is None:
            qp.responder.expected_psn = psn_add(packet.bth.psn, 1)
            self.packets_dropped.add()
            return
        self.payload_bytes_received.add(len(packet.payload))
        self.write_arrived(qp, packet.bth.psn, cursor + len(packet.payload),
                           opcode in TAIL_OPCODES)
        if packet.payload:
            # Posted: the ACK above never waited for the write anyway.
            self.dma.write_posted(cursor, packet.payload)

    def write_arrived(self, qp, psn: int, cursor: int, tail: bool) -> None:
        """Responder state once in-order WRITE packet ``psn`` (payload
        ending at ``cursor``) has arrived; at the ``tail`` the MSN step
        and the ACK.  A burst fold passes its last arrived packet."""
        responder = qp.responder
        responder.expected_psn = psn_add(psn, 1)
        self._nak_pending[qp.qpn] = False
        if tail:
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            responder.write_cursor = None
            self._send_ack(qp, psn, responder.msn)
        else:
            responder.write_cursor = cursor

    def _responder_read(self, qp, packet: RocePacket):
        """Serve one READ: stream the payload from host memory over PCIe
        while emitting response packets (fetch overlaps transmit)."""
        prev_gate, gate = self._resp_gate, Event(self.env)
        self._resp_gate = gate
        segments = segment_read_response(packet.reth.dma_length)
        # stable stays False: READ-served memory may legally race local
        # writes (see repro.core.payload).
        fetch = self._fetch(packet.reth.vaddr, segments)
        yield prev_gate
        burst.unfold_pending(self.env)
        if burst.try_fold(self, qp, segments, packet.bth.psn, fetch, gate,
                          request=packet):
            return
        span = self._begin_span(qp.qpn, "serve_read",
                                length=packet.reth.dma_length,
                                psn=packet.bth.psn)
        per_word = self.config.per_word_accounting
        for i, seg in enumerate(segments):
            if per_word:
                chunk = yield from fetch.next_chunk()
            else:
                due = fetch.due()
                if due > self.env.now:
                    yield self.env.timeout(due - self.env.now)
                chunk = fetch.take()
            response = self.response_packet(
                qp, seg, psn_add(packet.bth.psn, i), qp.responder.msn, chunk)
            if self.cc is not None and not self.cc.unthrottled(qp.qpn):
                yield from self.cc.pace(qp.qpn, response.wire_bytes)
            if per_word:
                yield from self.config.streaming_charge(
                    self.env, response.l3_bytes)
            else:
                yield self.env.timeout(
                    self.config.streaming_time(response.l3_bytes))
            self._tx_deliver(response)
        self._end_span(span)
        gate.succeed()

    def response_packet(self, qp, seg, psn: int, msn: int,
                        payload) -> RocePacket:
        """READ response ``psn`` (segment ``seg``); its first and last
        packets acknowledge ``msn``."""
        opcode = seg.opcode
        aeth = Aeth(0, msn) if opcode in AETH_OPCODES else None
        return RocePacket(self.ip, qp.dest_ip, Bth(opcode, qp.dest_qpn, psn),
                          None, aeth, payload)

    def _responder_rpc_write(self, qp, packet: RocePacket) -> None:
        responder = qp.responder
        responder.expected_psn = psn_add(packet.bth.psn, 1)
        opcode = packet.bth.opcode
        if is_first(opcode) or is_only(opcode):
            kernel, status = self.registry.resolve(packet.reth.vaddr)
            if status != "match":
                kernel = None  # missed or quarantined: drop the stream
            self._rpc_write_target[qp.qpn] = kernel
        kernel = self._rpc_write_target.get(qp.qpn)
        tail = opcode in TAIL_OPCODES
        if tail:
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            self._send_ack(qp, packet.bth.psn, responder.msn)
        self.payload_bytes_received.add(len(packet.payload))
        if kernel is None:
            self.packets_dropped.add()
            return
        self.env.call_soon(self._rpc_write_start,
                           (kernel, qp.qpn, packet.payload, tail))

    # The kernel feeds are callback chains with the entries of the
    # processes they replace: start, the arbitration delay, the stream
    # put(s), termination.  Kernel input streams are unbounded, so a
    # feed's put never blocks.
    def _rpc_write_start(self, feed) -> None:
        # Arbitration into the kernel adds a few cycles (Section 5.1).
        self.env.call_at(self._arb_delay, self._rpc_write_feed, feed)

    def _rpc_write_feed(self, feed) -> None:
        kernel, qpn, payload, tail = feed
        if kernel.guard is not None and kernel.guard.quarantined:
            # Quarantined while the payload was in flight: drop it
            # rather than grow an unconsumed input stream forever.
            self.packets_dropped.add()
        else:
            # Kernels inspect their input: materialize forwarded views.
            kernel.streams.roce_data_in.put((qpn, as_bytes(payload), tail))
        self.env.call_soon(terminated)

    def _dispatch_rpc(self, request) -> None:
        qp, packet = request
        rpc_opcode = packet.reth.vaddr
        kernel, status = self.registry.resolve(rpc_opcode)
        if status == "match":
            self.env.call_at(self._arb_delay, self._invoke_kernel,
                             (kernel, qp.qpn, packet.payload))
            return
        if status == "miss" and self.registry.fallback is not None:
            self.registry.fallbacks.add()
            self.env.process(self.registry.fallback(
                qp.qpn, rpc_opcode, as_bytes(packet.payload)))
        else:
            self._answer_rpc_error(qp, packet, status)
        self.env.call_soon(terminated)

    def _invoke_kernel(self, invocation) -> None:
        kernel, qpn, params = invocation
        kernel.streams.qpn_in.put(qpn)
        kernel.streams.param_in.put(as_bytes(params))
        self.env.call_soon(terminated)

    def _answer_rpc_error(self, qp, packet: RocePacket, status: str) -> None:
        """No kernel / no fallback / quarantined kernel: write an error
        code back to the requesting node (Section 5.1)."""
        error_code = RPC_ERROR_QUARANTINED if status == "quarantined" \
            else RPC_ERROR_NO_KERNEL
        try:
            preamble = RpcPreamble.unpack(as_bytes(packet.payload))
        except ValueError:
            self.packets_dropped.add()
            return
        error = rpc_error_bytes(error_code)
        self._post_send(NicCommand(
            kind="write", qpn=qp.qpn, raddr=preamble.response_vaddr,
            length=len(error), payload_inline=error))

    def _send_ack(self, qp, psn: int, msn: int, syndrome: int = 0) -> None:
        ack = make_ack(src_ip=self.ip, dst_ip=qp.dest_ip,
                       dest_qp=qp.dest_qpn, psn=psn, msn=msn,
                       syndrome=syndrome)
        nak = syndrome == AETH_NAK_PSN_SEQ_ERROR
        (self.naks_sent if nak else self.acks_sent).add()
        if self.obs is not None:
            self.obs.record(self.name, "nak" if nak else "ack", psn=psn,
                            msn=msn)
        self._tx_deliver(ack)

    def _send_cnp(self, qp) -> None:
        """Emit one CNP toward ``qp``'s peer (the congested sender).
        Unpaced and ahead of any queued data: congestion feedback must
        not itself be throttled by the congestion it reports."""
        cnp = make_cnp(src_ip=self.ip, dst_ip=qp.dest_ip,
                       dest_qp=qp.dest_qpn)
        if self.obs is not None:
            self.obs.record(self.name, "cnp", qpn=qp.qpn)
        self._tx_deliver(cnp)

    # ----------------------- requester side ---------------------------
    def _handle_ack(self, qp, packet: RocePacket) -> None:
        aeth = packet.aeth
        requester = qp.requester
        if aeth.is_nak:
            self._go_back_n(qp, packet.bth.psn)
            return
        acked_psn = packet.bth.psn
        progressed = False
        while requester.unacked:
            entry = requester.unacked[0]
            if psn_distance(entry.last_psn, acked_psn) > (1 << 23):
                break  # entry is beyond the acked PSN
            if entry.kind == "read":
                break  # reads complete via their responses only
            requester.unacked.pop(0)
            requester.oldest_unacked_psn = psn_add(entry.last_psn, 1)
            progressed = True
            if entry.completion is not None and not entry.completion.triggered:
                entry.completion.succeed(self.env.now)
        if progressed:
            self.timer.note_progress(qp.qpn)
        if requester.unacked:
            self.timer.arm(qp.qpn)
        else:
            self.timer.disarm(qp.qpn)

    def _handle_read_response(self, qp, packet: RocePacket) -> None:
        if self.multiqueue.is_empty(qp.qpn):
            self.packets_dropped.add()
            return
        context: _ReadContext = self.multiqueue.peek(qp.qpn)
        expected = psn_add(context.first_psn, context.next_index)
        if packet.bth.psn != expected:
            self.packets_dropped.add()
            return
        offset = context.bytes_received
        self.payload_bytes_received.add(len(packet.payload))
        self.timer.note_progress(qp.qpn)
        final = self.read_arrived(qp, context, context.next_index + 1,
                                  offset + len(packet.payload))
        if packet.payload:
            # Posted write-back; the READ completes (and its credit
            # frees) only once the final packet's data has landed —
            # exactly when the old blocking write resumed.
            on_done = partial(self._finish_read, qp, context) if final \
                else None
            self.dma.write_posted(context.laddr + offset, packet.payload,
                                  on_done=on_done)
        elif final:
            self._finish_read(qp, context)

    def read_arrived(self, qp, context: _ReadContext, count: int,
                     received: int) -> bool:
        """Requester state once ``count`` responses (``received`` bytes)
        of the READ have arrived; True at the final one (a fold's too)."""
        context.next_index = count
        context.bytes_received = received
        if count < context.packet_count:
            return False
        self.multiqueue.pop(qp.qpn)
        unacked = qp.requester.unacked
        for i, entry in enumerate(unacked):
            if entry.kind == "read" and entry.first_psn == context.first_psn:
                del unacked[i]
                break
        self._end_span(context.span)
        context.span = None
        return True

    def _finish_read(self, qp, context: _ReadContext) -> None:
        if context.completion is not None \
                and not context.completion.triggered:
            context.completion.succeed(self.env.now)
        self.read_credits.release()
        self._sample_reads()
        if qp.requester.unacked:
            self.timer.arm(qp.qpn)
        else:
            self.timer.disarm(qp.qpn)

    # ----------------------- reliability -------------------------------
    def _go_back_n(self, qp, from_psn: int) -> None:
        """NAK handling: retransmit everything from ``from_psn`` on."""
        self.env.process(self._retransmit_from(qp, from_psn))

    def _on_retransmit_timeout(self, qpn: int):
        qp = self.qps.get(qpn)
        if not qp.requester.unacked:
            return None
        return self._retransmit_from(qp, qp.requester.unacked[0].first_psn)

    def _retransmit_from(self, qp, from_psn: int):
        busy = None
        if self.cc is not None:
            # Serialize bursts: a second NAK/timeout while one paced
            # go-back-N is still draining must wait, not interleave.
            while True:
                busy = self._rtx_busy.get(qp.qpn)
                if busy is None or busy.triggered:
                    break
                yield busy
            busy = Event(self.env)
            self._rtx_busy[qp.qpn] = busy
        try:
            yield from self._retransmit_entries(qp, from_psn)
        finally:
            if busy is not None:
                busy.succeed()

    def _retransmit_entries(self, qp, from_psn: int):
        burst.unfold_pending(self.env)
        # A folded burst leaves one spanning entry with no packet:
        # materialize the real per-packet entries before retransmitting.
        for entry in list(qp.requester.unacked):
            if entry.packet is None and entry.burst is not None:
                entry.burst.ensure_entries()
        entries = [e for e in qp.requester.unacked
                   if psn_distance(from_psn, e.first_psn) < (1 << 23)
                   or e.first_psn == from_psn]
        if not entries:
            return
        qp_retransmits = self.metrics.counter(
            f"{self.name}.qp{qp.qpn}.retransmits")
        for entry in entries:
            if entry.kind == "read":
                # Reset the response context; re-execution is idempotent.
                if not self.multiqueue.is_empty(qp.qpn):
                    context = self.multiqueue.peek(qp.qpn)
                    if context.first_psn == entry.first_psn:
                        context.next_index = 0
                        context.bytes_received = 0
            self.retransmitted.add()
            qp_retransmits.add()
            if self.obs is not None:
                self.obs.record(self.name, "retransmit",
                                psn=entry.first_psn, kind=entry.kind)
            if self.cc is not None and not self.cc.unthrottled(qp.qpn):
                yield from self.cc.pace(qp.qpn, entry.packet.wire_bytes)
            if self.config.per_word_accounting:
                yield from self.config.streaming_charge(
                    self.env, entry.packet.l3_bytes)
            else:
                yield self.env.timeout(
                    self.config.streaming_time(entry.packet.l3_bytes))
            self._tx_deliver(entry.packet, qp)
            if self.cc is not None and not qp.in_error \
                    and self.cc.is_throttled(qp.qpn):
                # As in _send_message: paced retransmission in flight
                # must not itself trip another timeout.
                self.timer.arm(qp.qpn)
        if not qp.in_error:
            # A paced burst can outlive the retry budget: the timer may
            # have fired mid-burst and moved the QP to the error state,
            # and re-arming here would resurrect a dead QP's timer.
            self.timer.arm(qp.qpn)


class _KernelGlue:
    """The NIC side of one deployed kernel's streams (Figure 4 wiring).

    Two servers written as callback chains, each parked on its stream
    (:meth:`repro.sim.Stream.park`) while idle, the way the switch ports
    are: the DMA adapter serves ``dmaCmdOut``/``dmaDataOut``/``dmaDataIn``
    against the DMA engine, one command at a time; the TX adapter turns
    ``roceMetaOut``/``roceDataOut`` pairs into RDMA WRITEs, or into local
    DMA writes for ``LOCAL_QPN`` (local invocation, Section 3.5).  Every
    wait (a command's data, a read's burst) is an entry drawn where the
    adapter process it replaces drew its event.  Each entry is a
    :func:`repro.sim.process_step`: a kernel whose data length differs
    from its command or metadata ends the run in ``SimulationError``,
    as the process did.

    For hardened deployments every command is validated against the
    kernel's protection domain *here*, before it reaches the DMA engine
    — the kernel-side checks in the issue helpers are the fast path,
    this adapter is the authoritative gate.  A violating command is
    discarded (never forwarded to :mod:`repro.nic.dma`) and the
    invocation is marked doomed; a blocked kernel is woken with the
    abort sentinel.
    """

    __slots__ = ("nic", "env", "kernel", "streams", "sequential", "cmd",
                 "epoch", "meta")

    def __init__(self, nic: StromNic, kernel: StromKernel) -> None:
        self.nic = nic
        self.env = nic.env
        self.kernel = kernel
        self.streams = kernel.streams
        self.sequential = kernel.sequential_dma
        #: The write command awaiting its data (None: discard the data
        #: of a refused write).
        self.cmd: Optional[MemCmd] = None
        #: The guard epoch a read was issued in: data of an aborted
        #: invocation is dropped.
        self.epoch = 0
        #: The TX metadata awaiting its data.
        self.meta: Optional[RoceMeta] = None

    # DMA adapter.  Each step returns True when the adapter is free
    # again at once and False when it parked or scheduled a wait that
    # resumes the chain.
    @process_step
    def serve_dma(self, _arg=None) -> None:
        self._dma_idle()

    def _dma_idle(self) -> None:
        """Serve queued commands until one has to wait; park when empty."""
        cmd_out = self.streams.dma_cmd_out
        while len(cmd_out):
            if not self._dma_command(cmd_out.get().value):
                return
        cmd_out.park(self._dma_wake)

    @process_step
    def _dma_wake(self, cmd: MemCmd) -> None:
        if self._dma_command(cmd):
            self._dma_idle()

    def _dma_command(self, cmd: MemCmd) -> bool:
        kernel = self.kernel
        guard = kernel.guard
        self.epoch = guard.epoch if guard is not None else 0
        if guard is not None \
                and not guard.admit_dma(cmd.vaddr, cmd.length, cmd.is_write):
            if cmd.is_write:
                self.cmd = None
                return self._dma_take_data()
            self.streams.dma_data_in.put(ABORT_SENTINEL)
            return True
        nic = self.nic
        if guard is not None and nic.obs is not None:
            nic.obs.on_kernel_dma(nic, kernel, cmd)
        if cmd.is_write:
            self.cmd = cmd
            return self._dma_take_data()
        nic.dma.read_posted(cmd.vaddr, cmd.length, self.sequential,
                            self._dma_read_done)
        return False

    def _dma_take_data(self) -> bool:
        data_out = self.streams.dma_data_out
        if len(data_out):
            self._dma_write(data_out.get().value)
            return True
        data_out.park(self._dma_data_wake)
        return False

    @process_step
    def _dma_data_wake(self, data) -> None:
        self._dma_write(data)
        self._dma_idle()

    def _dma_write(self, data) -> None:
        cmd = self.cmd
        if cmd is None:
            return  # a refused write's data: discarded
        if len(data) != cmd.length:
            raise ValueError(
                f"kernel {self.kernel.name}: DMA write length mismatch "
                f"({len(data)} != {cmd.length})")
        self._post_write(cmd.vaddr, data, self.sequential)

    @process_step
    def _dma_read_done(self, data: bytes) -> None:
        guard = self.kernel.guard
        if guard is None or guard.epoch == self.epoch:
            self.streams.dma_data_in.put(data)
        # else: the invocation aborted mid-read, the data is stale.
        self._dma_idle()

    # TX adapter.
    @process_step
    def serve_tx(self, _arg=None) -> None:
        self._tx_idle()

    def _tx_idle(self) -> None:
        """Send queued metadata until one has to wait; park when empty."""
        meta_out = self.streams.roce_meta_out
        while len(meta_out):
            if not self._tx_meta(meta_out.get().value):
                return
        meta_out.park(self._tx_wake)

    @process_step
    def _tx_wake(self, meta: RoceMeta) -> None:
        if self._tx_meta(meta):
            self._tx_idle()

    def _tx_meta(self, meta: RoceMeta) -> bool:
        data_out = self.streams.roce_data_out
        if len(data_out):
            self._tx_send(meta, data_out.get().value)
            return True
        self.meta = meta
        data_out.park(self._tx_data_wake)
        return False

    @process_step
    def _tx_data_wake(self, data) -> None:
        self._tx_send(self.meta, data)
        self._tx_idle()

    def _tx_send(self, meta: RoceMeta, data) -> None:
        if len(data) != meta.length:
            raise ValueError(
                f"kernel {self.kernel.name}: TX length mismatch "
                f"({len(data)} != {meta.length})")
        if meta.qpn == LOCAL_QPN:
            # Local invocation: the "response" lands in local memory.
            self._post_write(meta.target_vaddr, data, True)
            return
        self.nic._post_send(NicCommand(
            kind="write", qpn=meta.qpn, raddr=meta.target_vaddr,
            length=meta.length, payload_inline=data))

    # Posted writes (kernel DMA and LOCAL_QPN): the kernel never stalls
    # on their completion.  A callback chain with the entries of the
    # process it replaces: start, the burst's commit
    # (:meth:`DmaEngine.write_posted`), termination.
    def _post_write(self, vaddr: int, data, sequential: bool) -> None:
        self.env.call_soon(self._write_start, (vaddr, data, sequential))

    @process_step
    def _write_start(self, write) -> None:
        vaddr, data, sequential = write
        self.nic.dma.write_posted(vaddr, data, sequential,
                                  on_done=self._write_done)

    def _write_done(self) -> None:
        self.env.call_soon(terminated)
