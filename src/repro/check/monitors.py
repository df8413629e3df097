"""Live protocol-invariant monitors over the simulated datapath.

One :class:`InvariantChecker` attaches to one :class:`~repro.sim.
Simulator` (the same per-env pattern as :mod:`repro.obs.runtime`):
instrumented components fetch it once at construction via
:func:`checker_for` and guard every hook with ``if self.check is not
None``, so disabled runs pay a single attribute test per component and
schedule bit-identically.  Monitors only *observe* — no hook ever
yields, allocates simulation events, or touches seeded RNGs — which is
what lets the conformance harness promise that a violating seed replays
to the same violation.

Invariant catalog (the hook that enforces each):

==========================  =============================================
``psn-skip``                TX of a new request packet whose PSN is ahead
                            of the QP's shadow next-PSN (monotonicity).
``rtx-window``              TX of a retransmitted PSN outside the
                            go-back-N window [oldest_unacked, next).
``ack-never-sent``          RX of an ACK/NAK whose PSN the local QP never
                            transmitted.
``cnp-acked``               An ACK emitted synchronously while the NIC
                            was dispatching a received CNP.
``cnp-malformed``           TX of a CNP with a PSN or a payload (CNPs are
                            BTH-only, PSN 0).
``responder-psn-regressed`` A responder's expected PSN moved backwards.
``dma-page-spill``          A committed DMA piece crosses its 2 MB page.
``dma-out-of-bounds``       A committed DMA piece lands past physical
                            memory (the TLB/MR bound).
``dma-length-mismatch``     Sum of committed pieces != the DMA length.
``switch-queue-underflow``  Dequeue from an output queue the checker
                            never saw an enqueue for.
``switch-fifo-order``       Dequeue order diverged from enqueue order.
``switch-conservation``     End of run: enqueue attempts != dequeues +
                            tail drops + still-queued frames (or byte
                            totals disagree) for some output port.
``pacer-overspend``         Token bucket went negative (sent without
                            credit).
``pacer-overflow``          Token bucket banked beyond its burst cap.
``pacer-rate``              A throttled QP pushed more wire bytes in a
                            window than its sampled DCQCN rate allows
                            (with a 4-burst slack against sampling skew).
``timer-rearm-in-error``    The retransmission timer re-armed for a QP
                            already in the error state.
``qp-error-timer-armed``    A QP finished its error transition with its
                            timer still armed.
``payload-aliasing``        A stable send-buffer payload diverged from
                            its fetch-time snapshot by TX time (only
                            active under copy-validation mode).
``kernel-dma-out-of-pd``    The kernel-DMA adapter forwarded a command
                            outside the kernel's protection domain to
                            the DMA engine (enforcement leaked).
``invocation-leak``         A guarded invocation completed cleanly with
                            unconsumed DMA read data still queued on
                            dmaDataIn.
``quarantine-coherence``    A quarantined kernel entered serve(), or a
                            kernel latched quarantine without reaching
                            its consecutive-abort threshold.
==========================  =============================================

Every violation raises :class:`InvariantViolation` carrying the fault
seed, the simulated time, and a replay command line.

Monitors and the burst fast path are mutually exclusive by design:
these checks hook every per-packet TX/RX edge, so a folded message
would be invisible to them.  Installing a checker sets ``nic.check``
(and ``switch.check``), which the burst plane (``repro.roce.burst``)
treats as a slow-path condition — folding is refused on any NIC or
switch with a checker attached, and the ``REPRO_CHECK=1`` tier-1 leg
therefore exercises the pure per-packet schedule.  Burst correctness
is covered by the ``REPRO_VALIDATE=1`` leg instead, which runs the
per-packet shadow schedule beside every fold and asserts bit-identical
timestamps (both switches: the run-mode table in :mod:`repro.runmode`
and README).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..core.payload import PayloadRef
from ..obs.metrics import Counter
from ..roce.opcodes import Opcode, is_read_response
from ..roce.packetizer import read_response_packet_count
from ..roce.qp import psn_add, psn_distance
from ..runmode import active

# Module-level aliases: the TX/RX hooks run per packet.
_ACKNOWLEDGE = Opcode.ACKNOWLEDGE
_CNP = Opcode.CNP
_READ_REQUEST = Opcode.READ_REQUEST

#: Attribute used to attach the checker to a Simulator.
_CHECK_ATTR = "_check_monitors"

#: Half the PSN space: ``psn_distance(a, b) <= _HALF`` means ``a`` is
#: at-or-behind ``b`` under RoCE's modular comparison.
_HALF = 1 << 23


class InvariantViolation(AssertionError):
    """A protocol invariant failed; carries everything needed to replay.

    Attributes: ``invariant`` (catalog key), ``source`` (component
    name), ``detail``, ``sim_time`` (ps), ``seed`` (the run's fault
    seed, if known), ``replay`` (command line reproducing the run).
    """

    def __init__(self, invariant: str, source: str, detail: str,
                 sim_time: int, seed: Optional[int],
                 replay: Optional[str]) -> None:
        self.invariant = invariant
        self.source = source
        self.detail = detail
        self.sim_time = sim_time
        self.seed = seed
        self.replay = replay
        seed_text = "unknown" if seed is None else str(seed)
        replay_text = replay if replay is not None else \
            "re-run the same command with REPRO_CHECK=1"
        super().__init__(
            f"invariant '{invariant}' violated at {source} "
            f"(t={sim_time} ps, seed={seed_text}): {detail}\n"
            f"  replay: {replay_text}")


class _PortState:
    """Per-output-queue accounting for conservation + FIFO checks."""

    __slots__ = ("enq", "deq", "tail_drops", "enq_bytes", "deq_bytes",
                 "fifo")

    def __init__(self) -> None:
        self.enq = 0
        self.deq = 0
        self.tail_drops = 0
        self.enq_bytes = 0
        self.deq_bytes = 0
        self.fifo: deque = deque()


class InvariantChecker:
    """All monitor state for one simulator; raises on first violation."""

    def __init__(self, env, seed: Optional[int] = None,
                 replay: Optional[str] = None) -> None:
        self.env = env
        self.seed = seed
        self.replay = replay
        #: Total hook invocations — proof the monitors actually ran.
        #: Deliberately *unregistered* counters: the flaky-guard runs
        #: existing suites under REPRO_CHECK=1, and golden metric
        #: snapshots must not grow new keys just because monitors are on.
        self.assertions = Counter("check.assertions")
        self.violations = Counter("check.violations")
        # Requester-side shadow: next never-before-sent PSN per
        # (nic name, local qpn).
        self._tx_next: Dict[Tuple[str, int], int] = {}
        # Responder-side last observed expected PSN per (nic, local qpn).
        self._resp_expected: Dict[Tuple[str, int], int] = {}
        # The RX dispatch currently on the stack: (id(nic), now, is_cnp).
        self._rx_ctx: Optional[Tuple[int, int, bool]] = None
        # Switch accounting, keyed (switch name, port index).
        self._ports: Dict[Tuple[str, int], _PortState] = {}
        self._switches: List[object] = []
        # Pacer windows: (cc name, qpn) -> [window start, bytes, allowance].
        self._pacer: Dict[Tuple[str, int], List[float]] = {}
        # Timer name -> qpn-in-error predicate (registered by the NIC).
        self._timer_guards: Dict[str, Callable[[int], bool]] = {}

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def assertion_count(self) -> int:
        return self.assertions.value

    def _violate(self, invariant: str, source: str, detail: str) -> None:
        self.violations.add()
        raise InvariantViolation(invariant, source, detail,
                                 sim_time=self.env.now, seed=self.seed,
                                 replay=self.replay)

    # ------------------------------------------------------------------
    # NIC TX/RX
    # ------------------------------------------------------------------
    def on_tx(self, nic, packet, qp=None) -> None:
        """Every frame leaving a powered NIC, data and control alike."""
        self.assertions.add()
        opcode = packet.bth.opcode
        if opcode is _ACKNOWLEDGE:
            ctx = self._rx_ctx
            if ctx is not None and ctx[0] == id(nic) \
                    and ctx[1] == self.env.now and ctx[2]:
                self._violate(
                    "cnp-acked", nic.name,
                    f"ACK (psn={packet.bth.psn}) emitted while "
                    f"dispatching a received CNP")
            return
        if opcode is _CNP:
            if packet.bth.psn != 0 or len(packet.payload):
                self._violate(
                    "cnp-malformed", nic.name,
                    f"CNP with psn={packet.bth.psn} "
                    f"payload={len(packet.payload)}B (must be BTH-only, "
                    f"PSN 0)")
            return
        if is_read_response(opcode):
            return
        self._check_payload_snapshot(nic, packet)
        if qp is None:
            return
        # Request packets: PSN monotonicity + go-back-N window.
        psn = packet.bth.psn
        count = 1
        if opcode is _READ_REQUEST:
            count = read_response_packet_count(packet.reth.dma_length)
        key = (nic.name, qp.qpn)
        shadow = self._tx_next.get(key)
        if shadow is None or psn == shadow:
            # New transmission: the PSN stream advances contiguously.
            self._tx_next[key] = psn_add(psn, count)
            return
        ahead = psn_distance(shadow, psn)
        if 0 < ahead < _HALF:
            self._violate(
                "psn-skip", nic.name,
                f"qp{qp.qpn} transmitted new psn={psn} but the next "
                f"unsent PSN is {shadow} ({ahead} skipped)")
        # Retransmission of a previously sent PSN.  A *spurious*
        # retransmit behind the window is legal (a paced go-back-N
        # burst can outlive the ACK that retired its entries; the
        # responder dedups), but the window itself must be sane: its
        # low edge never passes the high edge.
        oldest = qp.requester.oldest_unacked_psn
        if psn_distance(oldest, shadow) > _HALF:
            self._violate(
                "rtx-window", nic.name,
                f"qp{qp.qpn} go-back-N window is corrupt: oldest "
                f"unacked {oldest} is ahead of the next unsent "
                f"PSN {shadow} (retransmitting psn={psn})")

    def _check_payload_snapshot(self, nic, packet) -> None:
        """Aliasing safety: a *stable* payload (requester send buffer)
        must still match its fetch-time snapshot when it hits the wire.
        Snapshots exist only under copy-validation mode; the comparison
        bypasses ``tobytes`` so it never touches PAYLOAD_STATS."""
        payload = packet.payload
        if not isinstance(payload, PayloadRef):
            return
        snapshot = payload._snapshot
        if snapshot is None or not payload._stable:
            return
        live = b"".join(bytes(memoryview(seg))
                        for seg in payload._segments)
        if live != snapshot:
            changed = sum(a != b for a, b in zip(snapshot, live))
            self._violate(
                "payload-aliasing", nic.name,
                f"stable payload (psn={packet.bth.psn}, "
                f"{len(snapshot)}B) diverged from its fetch snapshot "
                f"by {changed} bytes before TX")

    def on_rx(self, nic, qp, packet) -> None:
        """Every uncorrupted frame arriving for a known QP."""
        self.assertions.add()
        opcode = packet.bth.opcode
        self._rx_ctx = (id(nic), self.env.now, opcode is _CNP)
        key = (nic.name, packet.bth.dest_qp)
        if opcode is _ACKNOWLEDGE:
            psn = packet.bth.psn
            shadow = self._tx_next.get(key)
            if shadow is None:
                self._violate(
                    "ack-never-sent", nic.name,
                    f"qp{packet.bth.dest_qp} received an ACK for "
                    f"psn={psn} but never transmitted a request")
            behind = psn_distance(psn, shadow)
            if not 0 < behind <= _HALF:
                kind = "NAK" if (packet.aeth is not None
                                 and packet.aeth.is_nak) else "ACK"
                self._violate(
                    "ack-never-sent", nic.name,
                    f"qp{packet.bth.dest_qp} received a {kind} for "
                    f"psn={psn}, which was never sent "
                    f"(next unsent PSN is {shadow})")
            return
        if opcode is _CNP or is_read_response(opcode):
            return
        # Request arriving at the responder: expected PSN is monotonic.
        prev = self._resp_expected.get(key)
        cur = qp.responder.expected_psn
        if prev is not None and prev != cur \
                and psn_distance(prev, cur) > _HALF:
            self._violate(
                "responder-psn-regressed", nic.name,
                f"qp{packet.bth.dest_qp} responder expected PSN moved "
                f"backwards: {prev} -> {cur}")
        self._resp_expected[key] = cur

    # ------------------------------------------------------------------
    # QP state transitions
    # ------------------------------------------------------------------
    def register_timer_guard(self, timer_name: str,
                             in_error: Callable[[int], bool]) -> None:
        """The NIC registers ``qpn -> is that QP in the error state``
        for its retransmission timer."""
        self._timer_guards[timer_name] = in_error

    def on_timer_arm(self, timer, qpn: int) -> None:
        self.assertions.add()
        guard = self._timer_guards.get(timer.name)
        if guard is not None and guard(qpn):
            self._violate(
                "timer-rearm-in-error", timer.name,
                f"retransmission timer re-armed for qp{qpn}, which is "
                f"already in the error state")

    def on_qp_error(self, nic, qpn: int, reason: str) -> None:
        """The error transition just completed: outstanding work is
        errored out and the timer must be quiescent."""
        self.assertions.add()
        if nic.timer.is_armed(qpn):
            self._violate(
                "qp-error-timer-armed", nic.name,
                f"qp{qpn} entered the error state ({reason}) with its "
                f"retransmission timer still armed")

    # ------------------------------------------------------------------
    # Kernel guard plane (protection domains, watchdog, quarantine)
    # ------------------------------------------------------------------
    def on_kernel_dma(self, nic, kernel, cmd) -> None:
        """A guarded kernel's DMA command is about to be forwarded to
        the DMA engine: re-verify the protection domain."""
        self.assertions.add()
        guard = kernel.guard
        if guard is None or guard.protection is None:
            return
        if not guard.protection.permits(cmd.vaddr, cmd.length,
                                        cmd.is_write):
            kind = "write" if cmd.is_write else "read"
            self._violate(
                "kernel-dma-out-of-pd", f"{nic.name}.{kernel.name}",
                f"DMA {kind} ({cmd.vaddr:#x}, +{cmd.length}) forwarded "
                f"to the DMA engine outside the protection domain")

    def on_kernel_serve(self, kernel) -> None:
        """A guarded kernel is about to serve an invocation."""
        self.assertions.add()
        guard = kernel.guard
        if guard.quarantined:
            self._violate(
                "quarantine-coherence", kernel.trace_source,
                "quarantined kernel entered serve()")
        if guard.consecutive_aborts >= guard.quarantine_threshold:
            self._violate(
                "quarantine-coherence", kernel.trace_source,
                f"{guard.consecutive_aborts} consecutive aborts "
                f">= threshold {guard.quarantine_threshold} without "
                f"the quarantine latching")

    def on_kernel_finish(self, kernel) -> None:
        """A guarded invocation completed cleanly: every DMA read the
        kernel issued must have been consumed."""
        self.assertions.add()
        if len(kernel.streams.dma_data_in) > 0:
            self._violate(
                "invocation-leak", kernel.trace_source,
                f"{len(kernel.streams.dma_data_in)} unconsumed DMA "
                f"completions on dmaDataIn after a clean invocation")

    # ------------------------------------------------------------------
    # DMA commit (MR bounds via the TLB)
    # ------------------------------------------------------------------
    def on_dma_commit(self, dma, vaddr: int, pieces, length: int) -> None:
        self.assertions.add()
        page = dma.tlb.page_bytes
        size = dma.memory.size_bytes
        total = 0
        for paddr, n in pieces:
            total += n
            if n <= 0 or (paddr % page) + n > page:
                self._violate(
                    "dma-page-spill", dma.name,
                    f"write piece ({paddr:#x}, {n}B) for vaddr "
                    f"{vaddr:#x} crosses its {page}B page")
            if paddr + n > size:
                self._violate(
                    "dma-out-of-bounds", dma.name,
                    f"write piece ({paddr:#x}, {n}B) lands past "
                    f"physical memory ({size:#x})")
        if total != length:
            self._violate(
                "dma-length-mismatch", dma.name,
                f"committed {total}B for a {length}B write at "
                f"vaddr {vaddr:#x}")

    # ------------------------------------------------------------------
    # Switch enqueue/dequeue (byte/frame conservation)
    # ------------------------------------------------------------------
    def register_switch(self, switch) -> None:
        self._switches.append(switch)

    def _port_state(self, switch, port) -> _PortState:
        key = (switch.name, port.index)
        state = self._ports.get(key)
        if state is None:
            state = self._ports[key] = _PortState()
        return state

    def on_switch_enqueue(self, switch, port, packet) -> None:
        self.assertions.add()
        state = self._port_state(switch, port)
        state.enq += 1
        state.enq_bytes += packet.wire_bytes
        state.fifo.append(id(packet))

    def on_switch_drop(self, switch, port, packet) -> None:
        self.assertions.add()
        self._port_state(switch, port).tail_drops += 1

    def on_switch_dequeue(self, switch, port, packet) -> None:
        self.assertions.add()
        state = self._port_state(switch, port)
        if not state.fifo:
            self._violate(
                "switch-queue-underflow", port.name,
                f"dequeued a frame (psn={packet.bth.psn}) from an "
                f"output queue with no recorded enqueue")
        if state.fifo.popleft() != id(packet):
            self._violate(
                "switch-fifo-order", port.name,
                f"dequeued frame (psn={packet.bth.psn}) is not the "
                f"oldest enqueued frame")
        state.deq += 1
        state.deq_bytes += packet.wire_bytes

    def _verify_switch(self, switch) -> None:
        for port in switch.ports:
            state = self._ports.get((switch.name, port.index))
            if state is None:
                continue
            queued = len(port.queue)
            if state.enq != state.deq + queued:
                self._violate(
                    "switch-conservation", port.name,
                    f"frames in ({state.enq + state.tail_drops}) != "
                    f"out ({state.deq}) + tail drops "
                    f"({state.tail_drops}) + queued ({queued})")
            queued_bytes = sum(p.wire_bytes
                               for p in port.queue._items)
            if state.enq_bytes != state.deq_bytes + queued_bytes:
                self._violate(
                    "switch-conservation", port.name,
                    f"bytes in ({state.enq_bytes}) != out "
                    f"({state.deq_bytes}) + queued ({queued_bytes})")

    # ------------------------------------------------------------------
    # Pacer (rate <= configured DCQCN rate)
    # ------------------------------------------------------------------
    def on_pacer_idle(self, cc_name: str, qpn: int) -> None:
        """The QP is unthrottled: close its rate window."""
        self._pacer.pop((cc_name, qpn), None)

    def on_paced(self, cc_name: str, qpn: int, machine, pacer,
                 wire_bytes: int) -> None:
        self.assertions.add()
        source = f"{cc_name}.cc.qp{qpn}"
        if pacer._tokens < -1e-6:
            self._violate(
                "pacer-overspend", source,
                f"token bucket went negative ({pacer._tokens:.3f}) "
                f"after a {wire_bytes}B send")
        if pacer._tokens > pacer.burst_bytes + 1e-6:
            self._violate(
                "pacer-overflow", source,
                f"token bucket holds {pacer._tokens:.3f}B, beyond its "
                f"{pacer.burst_bytes}B burst cap")
        now = self.env.now
        rate = machine.rate_bps
        window = self._pacer.get((cc_name, qpn))
        if window is None:
            # [window start, bytes sent, max rate sampled in window].
            self._pacer[(cc_name, qpn)] = [now, float(wire_bytes), rate]
            return
        window[1] += wire_bytes
        # Refills inside pace() run at the machine's sampled rate; the
        # max of all samples seen this window bounds what the bucket
        # could have earned, and the 4-burst slack absorbs the skew of
        # a mid-wait recovery-then-cut.
        window[2] = max(window[2], rate)
        elapsed = now - window[0]
        allowed = window[2] * elapsed / 8e12 + 4.0 * pacer.burst_bytes
        if window[1] > allowed + wire_bytes:
            self._violate(
                "pacer-rate", source,
                f"{window[1]:.0f} wire bytes in {elapsed} ps exceeds "
                f"the allowed rate ({window[2]:.3g} bps + burst)")

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Run the end-state checks (switch conservation).  The harness
        calls this after the workload drains; it is safe to call on a
        still-running simulation (queued frames count as queued)."""
        for switch in self._switches:
            self._verify_switch(switch)


def checker_for(env) -> Optional[InvariantChecker]:
    """The simulator's checker, or None when monitors are off.

    Components cache the result at construction and guard hooks with
    ``if self.check is not None`` — the same contract as
    :func:`repro.obs.runtime.trace_for`.
    """
    checker = getattr(env, _CHECK_ATTR, None)
    if checker is None and active().check:
        checker = InvariantChecker(env)
        setattr(env, _CHECK_ATTR, checker)
    return checker


def install_monitors(env, seed: Optional[int] = None,
                     replay: Optional[str] = None) -> InvariantChecker:
    """Attach a checker to ``env`` explicitly (call *before* building
    the topology — components bind their checker at construction)."""
    checker = getattr(env, _CHECK_ATTR, None)
    if checker is None:
        checker = InvariantChecker(env, seed=seed, replay=replay)
        setattr(env, _CHECK_ATTR, checker)
    else:
        if seed is not None:
            checker.seed = seed
        if replay is not None:
            checker.replay = replay
    return checker
