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

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..check import checker_for
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
from ..roce.headers import AETH_NAK_PSN_SEQ_ERROR, Aeth, Bth, Reth
from ..roce.multiqueue import MultiQueue, MultiQueueFullError
from ..roce.opcodes import (
    Opcode,
    is_first,
    is_last,
    is_only,
    is_read_response,
    is_rpc_write,
    is_write,
)
from ..roce.packet import RocePacket, make_ack, make_cnp
from ..roce.packetizer import (
    read_response_packet_count,
    segment_read_response,
    segment_rpc_write,
    segment_write,
)
from ..obs.runtime import registry_for, trace_for
from ..roce.qp import (
    PsnVerdict,
    QpError,
    QueuePairTable,
    psn_add,
    psn_distance,
)
from ..roce.retransmit import RetransmissionTimer
from ..sim import Event, Resource, Simulator, Stream
from .dma import DmaEngine, StreamChunks
from .tlb import Tlb


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


@dataclass
class _UnackedEntry:
    """Retransmit-buffer entry: one sent, not-yet-acknowledged packet.

    The burst fast path appends a single *spanning* entry
    (``packet=None``, ``burst`` set) covering a whole folded message;
    any path that needs real packets (retransmission, unfold) calls
    ``burst.ensure_entries()`` first, which expands the span in place.
    """

    first_psn: int
    last_psn: int
    kind: str                # 'write' | 'rpc' | 'rpc_write' | 'read'
    packet: Optional[RocePacket]
    completion: Optional[Event] = None
    is_message_tail: bool = False
    burst: Optional[object] = None


@dataclass
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

        from ..net.arp import ArpCache
        self.arp = ArpCache(env, ip)
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
        #: Optional flight recorder (see repro.sim.trace.EventTrace);
        #: populated while an obs session is active, else None.
        self.trace = trace_for(env)
        #: Optional invariant monitors (see repro.check); None unless
        #: installed — every hook below guards on that.
        self.check = checker_for(env)
        if self.check is not None:
            self.check.register_timer_guard(
                self.timer.name,
                lambda qpn: qpn in self.qps
                and self.qps.get(qpn).in_error)

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
        self.env.process(self._kernel_dma_adapter(kernel))
        self.env.process(self._kernel_tx_adapter(kernel))

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
        if self.trace is not None:
            self.trace.record(self.name, "power_off")

    def power_on(self) -> None:
        """Restore a crashed node."""
        if self.powered:
            return
        self.powered = True
        if self.trace is not None:
            self.trace.record(self.name, "power_on")

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
        if self.trace is not None:
            self.trace.record(self.name, "qp_error", qpn=qpn, reason=reason)
        self.timer.disarm(qpn)
        error = QpError(qpn, reason)
        for entry in qp.requester.unacked:
            if entry.completion is not None \
                    and not entry.completion.triggered:
                entry.completion.succeed(error)
        qp.requester.unacked.clear()
        while not self.multiqueue.is_empty(qpn):
            context = self.multiqueue.pop(qpn)
            if self.trace is not None and context.span is not None:
                self.trace.end_span(context.span)
                context.span = None
            if context.completion is not None \
                    and not context.completion.triggered:
                context.completion.succeed(error)
            self.read_credits.release()
        if self.check is not None:
            self.check.on_qp_error(self, qpn, reason)

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
            command.laddr, segments.lengths(), fetch_queue,
            stable=True))
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
            segments = None  # single RPC_PARAMS packet
        else:
            segments = segment_rpc_write(command.length)
        count = 1 if segments is None else len(segments)
        first_psn = qp.requester.allocate_psns(count)
        fetch = None
        if command.payload_inline is None \
                and command.kind in ("write", "rpc_write") \
                and command.length > 0:
            # Streaming payload fetch.  Bursts are served in issue order
            # by the PCIe host->card lanes (FIFO inside the DMA engine),
            # while read latencies overlap between outstanding bursts.
            lengths = segments.lengths()
            if self.config.per_word_accounting:
                # Validation mode keeps the explicit chunk-delivery
                # process (per-word PCIe charges).
                fetch_queue = Stream(self.env)
                self.env.process(self.dma.read_stream(
                    command.laddr, lengths, fetch_queue, stable=True))
                fetch = StreamChunks(fetch_queue)
            else:
                # Fast path: chunk arrival times are arithmetic — zero
                # scheduler events per fetched packet in steady state.
                # stable=True: send buffers are contract-protected.
                fetch = self.dma.read_plan(command.laddr, lengths,
                                           stable=True)
        prev_gate, gate = self._tx_gate, Event(self.env)
        self._tx_gate = gate
        self.env.process(
            self._send_message(command, qp, segments, first_psn,
                               prev_gate, gate, fetch))

    def _send_message(self, command, qp, segments, first_psn,
                      prev_gate, gate, fetch=None):
        """Emit the message's packets in order behind all previously
        posted messages.  Memory-sourced payloads are fetched over PCIe
        as a *stream* overlapping transmission (descriptor bypass).
        The per-packet waits (chunk arrival, pacing, the TX charge) are
        inline timeouts; only validation mode's per-word charges and a
        throttled QP's pacer run as sub-generators."""
        payload = command.payload_inline
        per_word = self.config.per_word_accounting
        yield prev_gate
        from ..roce import burst
        # New traffic claims the fabric: any pending fold must hand
        # back to the per-packet machinery *before* this message
        # creates its first event (see burst.unfold_pending).
        burst.unfold_pending(self.env)
        if command.kind == "write" and payload is None \
                and fetch is not None:
            if burst.try_fold_write(self, command, qp, segments,
                                    first_psn, fetch, gate):
                return
        span = None if self.trace is None else self.trace.begin_span(
            f"{self.name}.qp{qp.qpn}", "tx_message", kind=command.kind,
            length=command.length)

        if command.kind == "rpc":
            reth = Reth(vaddr=command.rpc_op, rkey=0,
                        dma_length=len(command.params))
            bth = Bth(opcode=Opcode.RPC_PARAMS, dest_qp=qp.dest_qpn,
                      psn=first_psn, ack_request=True)
            plan = [(RocePacket(src_ip=self.ip, dst_ip=qp.dest_ip,
                                bth=bth, reth=reth,
                                payload=command.params), True)]
            plan_iter = iter(plan)
            segments = [None]

        for i, seg in enumerate(segments):
            if command.kind == "rpc":
                packet, tail = next(plan_iter)
            else:
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
                reth = None
                if seg.carries_reth:
                    if command.kind == "rpc_write":
                        reth = Reth(vaddr=command.rpc_op, rkey=0,
                                    dma_length=command.length)
                    else:
                        reth = Reth(vaddr=command.raddr, rkey=0,
                                    dma_length=command.length)
                tail = is_last(seg.opcode) or is_only(seg.opcode)
                bth = Bth(opcode=seg.opcode, dest_qp=qp.dest_qpn,
                          psn=psn_add(first_psn, i), ack_request=tail)
                packet = RocePacket(src_ip=self.ip, dst_ip=qp.dest_ip,
                                    bth=bth, reth=reth, payload=chunk)
            entry = _UnackedEntry(
                first_psn=packet.bth.psn, last_psn=packet.bth.psn,
                kind=command.kind, packet=packet,
                completion=command.completion if tail else None,
                is_message_tail=tail)
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
        if self.trace is not None:
            self.trace.end_span(span)
        if not qp.in_error:
            self.timer.arm(qp.qpn)
        gate.succeed()

    def _post_read(self, command: NicCommand):
        yield self.read_credits.acquire()
        if self.metrics.sampling_enabled:
            self._outstanding_reads.sample(self.env.now,
                                           self.read_credits.in_use)
        qp = self.qps.get(command.qpn)
        count = read_response_packet_count(command.length)
        first_psn = qp.requester.allocate_psns(count)
        context = _ReadContext(laddr=command.laddr, length=command.length,
                               first_psn=first_psn, packet_count=count,
                               completion=command.completion)
        if self.trace is not None:
            context.span = self.trace.begin_span(
                f"{self.name}.qp{qp.qpn}", "read", length=command.length,
                psn=first_psn)
        try:
            self.multiqueue.push(qp.qpn, context)
        except MultiQueueFullError:
            # read_credits should prevent this; treat as fatal config error.
            raise
        reth = Reth(vaddr=command.raddr, rkey=0, dma_length=command.length)
        bth = Bth(opcode=Opcode.READ_REQUEST, dest_qp=qp.dest_qpn,
                  psn=first_psn, ack_request=True)
        packet = RocePacket(src_ip=self.ip, dst_ip=qp.dest_ip,
                            bth=bth, reth=reth)
        entry = _UnackedEntry(first_psn=first_psn,
                              last_psn=psn_add(first_psn, count - 1),
                              kind="read", packet=packet)
        prev_gate, gate = self._tx_gate, Event(self.env)
        self._tx_gate = gate
        yield prev_gate
        from ..roce import burst
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
        if self.check is not None:
            # Before the powered check: a crashed NIC drops the frame,
            # but its PSN was already consumed from the QP's sequence —
            # the monitors track allocation, not delivery.
            self.check.on_tx(self, packet, qp)
        if not self.powered:
            self.crash_drops.add()
            return
        self.packets_sent.add()
        if self.trace is not None:
            self.trace.record(self.name, "tx",
                              opcode=packet.bth.opcode.name,
                              psn=packet.bth.psn,
                              payload=len(packet.payload))
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
        arrival order; only tails that genuinely wait (READ serving,
        kernel stream feeds) continue as processes."""
        self.packets_received.add()
        if self.trace is not None:
            self.trace.record(self.name, "rx",
                              opcode=packet.bth.opcode.name,
                              psn=packet.bth.psn,
                              payload=len(packet.payload),
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
        if self.check is not None:
            self.check.on_rx(self, qp, packet)
        opcode = packet.bth.opcode
        if opcode == Opcode.CNP:
            # Congestion notification: throttle the addressed QP and
            # stop — a CNP carries no PSN meaning and is never ACKed.
            if self.cc is not None:
                self.cc.on_cnp(packet.bth.dest_qp)
            else:
                self.packets_dropped.add()
            return
        if packet.ecn_ce and self.cc is not None:
            self.cc.note_ce(qp)
        if opcode == Opcode.ACKNOWLEDGE:
            self._handle_ack(qp, packet)
        elif is_read_response(opcode):
            self._handle_read_response(qp, packet)
        else:
            self._handle_request(qp, packet)

    # ----------------------- responder side ---------------------------
    def _handle_request(self, qp, packet: RocePacket) -> None:
        responder = qp.responder
        verdict = responder.classify(packet.bth.psn)
        if verdict is PsnVerdict.OUT_OF_ORDER:
            if not self._nak_pending.get(qp.qpn):
                self._nak_pending[qp.qpn] = True
                self._send_ack(qp, responder.expected_psn, responder.msn,
                               syndrome=AETH_NAK_PSN_SEQ_ERROR)
            self.packets_dropped.add()
            return
        if verdict is PsnVerdict.DUPLICATE:
            self.duplicates.add()
            opcode = packet.bth.opcode
            if opcode == Opcode.READ_REQUEST:
                # Duplicate reads are re-executed (idempotent).
                self.env.process(self._responder_read(qp, packet))
            else:
                self._send_ack(qp, packet.bth.psn, responder.msn)
            return

        self._nak_pending[qp.qpn] = False
        opcode = packet.bth.opcode
        if is_write(opcode):
            self._responder_write(qp, packet)
        elif opcode == Opcode.READ_REQUEST:
            count = read_response_packet_count(packet.reth.dma_length)
            responder.expected_psn = psn_add(packet.bth.psn, count)
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            self.env.process(self._responder_read(qp, packet))
        elif opcode == Opcode.RPC_PARAMS:
            responder.expected_psn = psn_add(packet.bth.psn, 1)
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            self._send_ack(qp, packet.bth.psn, responder.msn)
            self.env.process(self._dispatch_rpc(qp, packet))
        elif is_rpc_write(opcode):
            self._responder_rpc_write(qp, packet)
        else:
            self.packets_dropped.add()

    def _responder_write(self, qp, packet: RocePacket) -> None:
        responder = qp.responder
        responder.expected_psn = psn_add(packet.bth.psn, 1)
        opcode = packet.bth.opcode
        if is_first(opcode) or is_only(opcode):
            responder.write_cursor = packet.reth.vaddr
        cursor = responder.write_cursor
        if cursor is None:
            self.packets_dropped.add()
            return
        responder.write_cursor = cursor + len(packet.payload)
        self.payload_bytes_received.add(len(packet.payload))
        tail = is_last(opcode) or is_only(opcode)
        if tail:
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            responder.write_cursor = None
            self._send_ack(qp, packet.bth.psn, responder.msn)
        if packet.payload:
            # Posted: the ACK above never waited for the write anyway.
            self.dma.write_posted(cursor, packet.payload)

    def _responder_read(self, qp, packet: RocePacket):
        """Serve one READ: stream the payload from host memory over PCIe
        while emitting response packets (fetch overlaps transmit)."""
        from ..roce.opcodes import carries_aeth
        prev_gate, gate = self._resp_gate, Event(self.env)
        self._resp_gate = gate
        segments = segment_read_response(packet.reth.dma_length)
        lengths = segments.lengths()
        if self.config.per_word_accounting:
            fetch_queue = Stream(self.env)
            self.env.process(self.dma.read_stream(
                packet.reth.vaddr, lengths, fetch_queue))
            fetch = StreamChunks(fetch_queue)
        else:
            # Zero-event fetch; stable stays False — READ-served memory
            # may legally race local writes (see repro.core.payload).
            fetch = self.dma.read_plan(packet.reth.vaddr, lengths)
        yield prev_gate
        from ..roce import burst
        burst.unfold_pending(self.env)
        if burst.try_fold_read(self, qp, packet, segments, fetch, gate):
            return
        span = None if self.trace is None else self.trace.begin_span(
            f"{self.name}.qp{qp.qpn}", "serve_read",
            length=packet.reth.dma_length, psn=packet.bth.psn)
        per_word = self.config.per_word_accounting
        for i, seg in enumerate(segments):
            if per_word:
                chunk = yield from fetch.next_chunk()
            else:
                due = fetch.due()
                if due > self.env.now:
                    yield self.env.timeout(due - self.env.now)
                chunk = fetch.take()
            aeth = None
            if carries_aeth(seg.opcode):
                aeth = Aeth(syndrome=0, msn=qp.responder.msn)
            bth = Bth(opcode=seg.opcode, dest_qp=qp.dest_qpn,
                      psn=psn_add(packet.bth.psn, i))
            response = RocePacket(src_ip=self.ip, dst_ip=qp.dest_ip,
                                  bth=bth, aeth=aeth, payload=chunk)
            if self.cc is not None and not self.cc.unthrottled(qp.qpn):
                yield from self.cc.pace(qp.qpn, response.wire_bytes)
            if per_word:
                yield from self.config.streaming_charge(
                    self.env, response.l3_bytes)
            else:
                yield self.env.timeout(
                    self.config.streaming_time(response.l3_bytes))
            self._tx_deliver(response)
        if self.trace is not None:
            self.trace.end_span(span)
        gate.succeed()

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
        tail = is_last(opcode) or is_only(opcode)
        if tail:
            responder.msn = (responder.msn + 1) & 0xFFFFFF
            self._send_ack(qp, packet.bth.psn, responder.msn)
        self.payload_bytes_received.add(len(packet.payload))
        if kernel is None:
            self.packets_dropped.add()
            return
        self.env.process(
            self._rpc_write_feed(kernel, qp.qpn, packet.payload, tail))

    def _rpc_write_feed(self, kernel, qpn: int, payload, tail: bool):
        # Arbitration into the kernel adds a few cycles (Section 5.1).
        yield self.env.timeout(self._arb_delay)
        if kernel.guard is not None and kernel.guard.quarantined:
            # Quarantined while the payload was in flight: drop it
            # rather than grow an unconsumed input stream forever.
            self.packets_dropped.add()
            return
        # Kernels inspect their input: materialize forwarded views here.
        yield kernel.streams.roce_data_in.put((qpn, as_bytes(payload), tail))

    def _dispatch_rpc(self, qp, packet: RocePacket):
        rpc_opcode = packet.reth.vaddr
        kernel, status = self.registry.resolve(rpc_opcode)
        if status == "match":
            yield self.env.timeout(self._arb_delay)
            yield kernel.streams.qpn_in.put(qp.qpn)
            yield kernel.streams.param_in.put(as_bytes(packet.payload))
            return
        if status == "miss" and self.registry.fallback is not None:
            self.registry.fallbacks.add()
            self.env.process(self.registry.fallback(
                qp.qpn, rpc_opcode, as_bytes(packet.payload)))
            return
        # No kernel / no fallback / quarantined kernel: write an error
        # code back to the requesting node (Section 5.1).
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
        if syndrome == AETH_NAK_PSN_SEQ_ERROR:
            self.naks_sent.add()
            if self.trace is not None:
                self.trace.record(self.name, "nak", psn=psn, msn=msn)
        else:
            self.acks_sent.add()
            if self.trace is not None:
                self.trace.record(self.name, "ack", psn=psn, msn=msn)
        self._tx_deliver(ack)

    def _send_cnp(self, qp) -> None:
        """Emit one CNP toward ``qp``'s peer (the congested sender).
        Unpaced and ahead of any queued data: congestion feedback must
        not itself be throttled by the congestion it reports."""
        cnp = make_cnp(src_ip=self.ip, dst_ip=qp.dest_ip,
                       dest_qp=qp.dest_qpn)
        if self.trace is not None:
            self.trace.record(self.name, "cnp", qpn=qp.qpn)
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
        context.next_index += 1
        offset = context.bytes_received
        context.bytes_received += len(packet.payload)
        self.payload_bytes_received.add(len(packet.payload))
        self.timer.note_progress(qp.qpn)
        final = context.next_index >= context.packet_count
        if final:
            self.multiqueue.pop(qp.qpn)
            self._release_read_entry(qp, context)
            if self.trace is not None and context.span is not None:
                self.trace.end_span(context.span)
                context.span = None
        if packet.payload:
            # Posted write-back; the READ completes (and its credit
            # frees) only once the final packet's data has landed —
            # exactly when the old blocking write resumed.
            on_done = None
            if final:
                on_done = lambda qp=qp, context=context: \
                    self._finish_read(qp, context)
            self.dma.write_posted(context.laddr + offset, packet.payload,
                                  on_done=on_done)
        elif final:
            self._finish_read(qp, context)

    def _finish_read(self, qp, context: _ReadContext) -> None:
        if context.completion is not None \
                and not context.completion.triggered:
            context.completion.succeed(self.env.now)
        self.read_credits.release()
        if self.metrics.sampling_enabled:
            self._outstanding_reads.sample(self.env.now,
                                           self.read_credits.in_use)
        if qp.requester.unacked:
            self.timer.arm(qp.qpn)
        else:
            self.timer.disarm(qp.qpn)

    def _release_read_entry(self, qp, context: _ReadContext) -> None:
        requester = qp.requester
        for i, entry in enumerate(requester.unacked):
            if entry.kind == "read" and entry.first_psn == context.first_psn:
                requester.unacked.pop(i)
                return

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
        from ..roce import burst
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
            if self.trace is not None:
                self.trace.record(self.name, "retransmit",
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

    # ------------------------------------------------------------------
    # Kernel stream adapters (Figure 4 wiring)
    # ------------------------------------------------------------------
    def _kernel_dma_adapter(self, kernel: StromKernel):
        """Serve the kernel's DMA command/data streams.

        For hardened deployments every command is validated against the
        kernel's protection domain *here*, before it reaches the DMA
        engine — the kernel-side checks in the issue helpers are the
        fast path, this adapter is the authoritative gate.  A violating
        command is discarded (never forwarded to :mod:`repro.nic.dma`)
        and the invocation is marked doomed; a blocked kernel is woken
        with the abort sentinel."""
        sequential = getattr(kernel, "sequential_dma", True)
        while True:
            cmd: MemCmd = yield kernel.streams.dma_cmd_out.get()
            guard = kernel.guard
            epoch = guard.epoch if guard is not None else 0
            if guard is not None \
                    and not guard.admit_dma(cmd.vaddr, cmd.length,
                                            cmd.is_write):
                if cmd.is_write:
                    yield kernel.streams.dma_data_out.get()  # discard
                else:
                    yield kernel.streams.dma_data_in.put(ABORT_SENTINEL)
                continue
            if guard is not None and self.check is not None:
                self.check.on_kernel_dma(self, kernel, cmd)
            if cmd.is_write:
                data = yield kernel.streams.dma_data_out.get()
                if len(data) != cmd.length:
                    raise ValueError(
                        f"kernel {kernel.name}: DMA write length mismatch "
                        f"({len(data)} != {cmd.length})")
                # Posted write: do not stall the kernel on completion.
                self.env.process(
                    self.dma.write(cmd.vaddr, data, sequential=sequential))
            else:
                data = yield from self.dma.read(cmd.vaddr, cmd.length,
                                                sequential=sequential)
                if guard is not None and guard.epoch != epoch:
                    continue  # invocation aborted mid-read: stale data
                yield kernel.streams.dma_data_in.put(data)

    def _kernel_tx_adapter(self, kernel: StromKernel):
        """Turn the kernel's roceMetaOut/roceDataOut into RDMA WRITEs."""
        while True:
            meta: RoceMeta = yield kernel.streams.roce_meta_out.get()
            data: bytes = yield kernel.streams.roce_data_out.get()
            if len(data) != meta.length:
                raise ValueError(
                    f"kernel {kernel.name}: TX length mismatch "
                    f"({len(data)} != {meta.length})")
            if meta.qpn == LOCAL_QPN:
                # Local invocation: the "response" lands in local memory.
                self.env.process(
                    self.dma.write(meta.target_vaddr, data))
                continue
            self._post_send(NicCommand(
                kind="write", qpn=meta.qpn, raddr=meta.target_vaddr,
                length=meta.length, payload_inline=data))
