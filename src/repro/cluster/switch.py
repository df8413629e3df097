"""A store-and-forward Ethernet switch for multi-node StRoM clusters.

The paper's testbed removes the switch "to remove the potential noise
introduced by a switch" (Section 6.1) — which is exactly why a cluster
substrate has to put one back: at scale-out every flow crosses shared
switch ports, and queueing there is where tail latency is made.

Model
-----
- **Store-and-forward.**  A frame is forwarded only after it has been
  fully received (each attached :class:`~repro.net.link.Cable` already
  delivers whole frames after paying serialization), then pays a fixed
  ``forwarding_latency`` for lookup + crossbar transit.
- **MAC learning.**  The switch learns ``source MAC -> ingress port`` on
  every frame, using the ARP module's deterministic IP->MAC mapping
  (:func:`repro.net.arp.mac_for_ip`).  Unknown destinations are flooded
  to every other port, exactly like a learning L2 switch; gratuitous ARP
  announcements at link-up (issued by the topology builder) pre-populate
  the table so steady state never floods.
- **Per-output-port queues with tail-drop.**  Each output port owns a
  bounded FIFO of ``buffer_frames`` frames.  A frame arriving to a full
  queue is dropped (tail-drop) and counted, and the port's high-water
  occupancy is tracked in a ``max_queue_depth`` gauge; RoCE's go-back-N
  retransmission recovers the loss, at a latency cost.  With no ECN
  configured that is the failure mode of a real RoCE deployment without
  PFC or congestion control.
- **Optional ECN marking.**  With an :class:`~repro.cc.ecn.EcnConfig`
  (``SwitchConfig.ecn`` or :meth:`Switch.enable_ecn`, normally via
  ``Cluster.enable_congestion_control``), enqueue runs the RED-style
  Kmin/Kmax ramp over the *instantaneous* queue depth and sets the CE
  codepoint on a copy of the frame (queued packets alias retransmit
  buffers), feeding the DCQCN loop in :mod:`repro.cc`.
- **Line-rate egress.**  Each output port paces frames at its cable's
  line rate so the bounded queue, not the cable's stream, is the buffer.
- **Callback servers, not processes.**  Each port runs two FIFO servers
  (ingress: pickup + forwarding latency + enqueue; egress: dequeue +
  pacing) written as plain callbacks.  An idle server parks a callback
  getter on its stream (``port.rx`` / ``port.queue``, see
  :meth:`repro.sim.Stream.park`) and each wait is a
  :meth:`~repro.sim.Simulator.call_at` entry.  They schedule the same
  entries, at the same points, as the ``while True`` loop processes they
  replace (including one ``call_soon`` per server at attach, where each
  process's bootstrap was), so the event stream is unchanged.  Enqueue is
  still ``port.queue.try_put`` and dequeue ``port.queue.get()``: burst
  unfold re-injection, the invariant monitors and instance-level queue
  hooks all see every frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import Deque, Dict, List, Optional

from ..cc.ecn import EcnConfig, EcnMarker
from ..cc.plane import CC_STATS
from ..check import checker_for
from ..net.arp import mac_for_ip
from ..net.link import Cable
from ..obs.runtime import registry_for, trace_for
from ..sim import Simulator, Stream, timebase
from ..sim.timebase import NS


@dataclass(frozen=True)
class SwitchConfig:
    """Parameters of one switch (defaults sized for the 10 G parts)."""

    #: Lookup + crossbar latency per forwarded frame (store-and-forward
    #: adds the full serialization delay on the ingress cable already).
    forwarding_latency: int = 300 * NS
    #: Per-output-port queue depth in frames; tail-drop beyond it.
    buffer_frames: int = 64
    #: ECN marking at egress enqueue (the DCQCN congestion signal);
    #: ``None`` disables marking — no RNG, no code-path change.
    ecn: Optional[EcnConfig] = None


SWITCH_DEFAULT = SwitchConfig()


class SwitchPort:
    """One attached cable plus the output queue draining toward it."""

    def __init__(self, env: Simulator, index: int, cable: Cable,
                 side: str, config: SwitchConfig, name: str) -> None:
        if side == "a":
            self.tx, self.rx = cable.a_tx, cable.a_rx
        elif side == "b":
            self.tx, self.rx = cable.b_tx, cable.b_rx
        else:
            raise ValueError("side must be 'a' or 'b'")
        self.side = side
        self.env = env
        self.index = index
        self.cable = cable
        self.name = name
        #: Back-reference installed by :meth:`Switch.attach` (burst-fold
        #: path discovery walks cable -> port -> switch).
        self.switch: Optional["Switch"] = None
        #: False while the port is blacked out (fault injection): frames
        #: in either direction are discarded at the port.
        self.up = True
        #: Busy-until cursors for the two per-port loops.  Maintained by
        #: the loops themselves (pickup/dequeue may not begin before the
        #: previous frame's forwarding-latency / pacing window ends) and
        #: *written forward* by a burst unfold so replayed frames resume
        #: mid-pipeline at exactly the per-packet times (see
        #: repro.roce.burst).  In normal operation the floor equals the
        #: loop's natural resume time, so the wait never fires.
        self._ingress_floor = 0
        self._egress_floor = 0
        #: The frame each server holds across its current wait.
        self._ingress_packet = None
        self._egress_packet = None
        #: The servers' parked callback getters (set by Switch.attach).
        self._ingress_getter = None
        self._egress_getter = None
        #: Bounded output queue: ``try_put`` failure == tail-drop.
        self.queue = Stream(env, capacity=config.buffer_frames,
                            name=f"{name}.q")
        metrics = registry_for(env)
        self.metrics = metrics
        self.frames_in = metrics.counter(f"{name}.in")
        self.frames_out = metrics.counter(f"{name}.out")
        self.tail_drops = metrics.counter(f"{name}.tail_drops")
        #: Frames discarded (either direction) while blacked out.
        self.blackout_drops = metrics.counter(f"{name}.blackout_drops")
        #: Sampled queue-depth time series (only while observing).
        self.depth_gauge = metrics.gauge(f"{name}.queue_depth")
        #: High-water mark of the output queue — a plain gauge ``set``,
        #: maintained unconditionally so drops are diagnosable (was the
        #: queue ever actually full?) without an observe() session.
        self.max_depth_gauge = metrics.gauge(f"{name}.max_queue_depth")
        self._max_depth = 0
        #: Frames CE-marked at enqueue onto this output queue.
        self.ce_marks = metrics.counter(f"{name}.ce_marks")
        #: Queue-residency span handles, FIFO with the queue itself.
        self._span_queue: Deque = deque()

    @property
    def queue_depth(self) -> int:
        return len(self.queue)


class Switch:
    """An N-port learning switch; ports are added with :meth:`attach`."""

    def __init__(self, env: Simulator, config: SwitchConfig = SWITCH_DEFAULT,
                 name: str = "switch") -> None:
        self.env = env
        self.config = config
        self.name = name
        self.ports: List[SwitchPort] = []
        self._mac_table: Dict[bytes, int] = {}
        #: RED/DCQCN marker shared by all output queues (one seeded RNG
        #: per switch); ``None`` when the config carries no ecn entry.
        self.ecn_marker = EcnMarker(config.ecn) if config.ecn else None
        metrics = registry_for(env)
        self.metrics = metrics
        self.trace = trace_for(env)
        self.check = checker_for(env)
        if self.check is not None:
            self.check.register_switch(self)
        self.frames_forwarded = metrics.counter(f"{name}.forwarded")
        self.frames_flooded = metrics.counter(f"{name}.flooded")
        self.frames_filtered = metrics.counter(f"{name}.filtered")
        self.frames_dropped = metrics.counter(f"{name}.dropped")
        self.macs_learned = metrics.counter(f"{name}.macs_learned")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, cable: Cable, side: str = "b") -> int:
        """Connect one cable end to a new port; returns the port index.

        Hosts conventionally take side 'a' of their access cable and the
        switch side 'b'; switch-to-switch uplinks use one side each.
        """
        index = len(self.ports)
        port = SwitchPort(self.env, index, cable, side, self.config,
                          name=f"{self.name}.p{index}")
        port.switch = self
        cable._switch_ports[side] = port
        self.ports.append(port)
        port._ingress_getter = partial(self._ingress_wake, port)
        port._egress_getter = partial(self._egress_wake, port)
        # Both servers start idle: their first run parks them.
        self.env.call_soon(self._ingress_idle, port)
        self.env.call_soon(self._egress_idle, port)
        return index

    # ------------------------------------------------------------------
    # MAC table
    # ------------------------------------------------------------------
    def learn(self, mac: bytes, port_index: int) -> None:
        """Install/refresh ``mac -> port`` (snooped or gratuitous ARP)."""
        if not 0 <= port_index < len(self.ports):
            raise ValueError(f"no such port {port_index}")
        if self._mac_table.get(mac) != port_index:
            self.macs_learned.add()
        self._mac_table[mac] = port_index

    def announce(self, ip: int, port_index: int) -> None:
        """Gratuitous ARP at link-up: learn the host's deterministic MAC
        on its access port (the ARP module's IP->MAC mapping)."""
        self.learn(mac_for_ip(ip), port_index)

    def port_for_mac(self, mac: bytes) -> Optional[int]:
        return self._mac_table.get(mac)

    def enable_ecn(self, config: EcnConfig) -> None:
        """Turn on ECN marking after construction (the cluster-level
        ``enable_congestion_control`` path for already-built fabrics)."""
        fold = self.env.fold
        if fold is not None:
            fold.on_hop(self)
        self.ecn_marker = EcnMarker(config)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_port_up(self, port_index: int, up: bool) -> None:
        """Black out (or restore) one port: while down, frames arriving
        on the port and frames dequeued toward it are discarded.  The MAC
        table is left intact — a blackout models a dead transceiver or a
        pulled cable at the switch end, not a topology change."""
        if not 0 <= port_index < len(self.ports):
            raise ValueError(f"no such port {port_index}")
        port = self.ports[port_index]
        if port.up != up:
            fold = self.env.fold
            if fold is not None:
                fold.on_hop(self)
            if self.trace is not None:
                self.trace.record(port.name,
                                  "port_up" if up else "port_blackout")
        port.up = up

    def __len__(self) -> int:
        return len(self.ports)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    # Ingress server: pickup (after the floor) -> forwarding latency ->
    # lookup + enqueue -> next frame.  Each step returns True when the
    # server is free again at once (the frame was dropped) and False
    # when it scheduled a wait that resumes the chain.
    def _ingress_idle(self, port: SwitchPort) -> None:
        """Serve queued frames until one has to wait; park when empty."""
        rx = port.rx
        while len(rx):
            if not self._ingress_start(port, rx.get().value):
                return
        rx.park(port._ingress_getter)

    def _ingress_wake(self, port: SwitchPort, packet) -> None:
        if self._ingress_start(port, packet):
            self._ingress_idle(port)

    def _ingress_start(self, port: SwitchPort, packet) -> bool:
        fold = self.env.fold
        if fold is not None:
            # A real frame must never interleave with an analytic
            # burst schedule across this switch: push it back to the
            # per-packet machinery first.
            fold.on_hop(self)
        now = self.env.now
        if port._ingress_floor > now:
            # An unfold re-injected frames mid-pipeline: pickup may not
            # begin before the replayed backlog clears.
            port._ingress_packet = packet
            self.env.call_at(port._ingress_floor - now,
                             self._ingress_after_floor, port)
            return False
        return self._ingress_pickup(port, packet)

    def _ingress_after_floor(self, port: SwitchPort) -> None:
        if self._ingress_pickup(port, port._ingress_packet):
            self._ingress_idle(port)

    def _ingress_pickup(self, port: SwitchPort, packet) -> bool:
        """Learn and start the lookup.  Forwarding is pure size
        accounting on the zero-copy payload plane: the packet object
        (payload views included) is passed through untouched."""
        if not port.up:
            port.blackout_drops.add()
            self.frames_dropped.add()
            return True
        port.frames_in.add()
        self.learn(mac_for_ip(packet.src_ip), port.index)
        latency = self.config.forwarding_latency
        port._ingress_floor = self.env.now + latency
        port._ingress_packet = packet
        self.env.call_at(latency, self._ingress_forward, port)
        return False

    def _ingress_forward(self, port: SwitchPort) -> None:
        """Lookup done: filter, flood or enqueue; then the next frame."""
        packet = port._ingress_packet
        out = self._mac_table.get(mac_for_ip(packet.dst_ip))
        if out == port.index:
            # Destination lives on the ingress segment: filter.
            self.frames_filtered.add()
            self._ingress_idle(port)
            return
        if out is None:
            self.frames_flooded.add()
            targets = [p for p in self.ports if p.index != port.index]
        else:
            self.frames_forwarded.add()
            targets = [self.ports[out]]
        for target in targets:
            depth = len(target.queue)
            out_packet = packet
            if self.ecn_marker is not None and not packet.ecn_ce \
                    and self.ecn_marker.should_mark(depth):
                # Copy-on-mark: queued packets alias sender-side
                # retransmit buffers (and, when flooding, each other),
                # so the CE bit is never set in place.
                out_packet = replace(packet, ecn_ce=True)
                target.ce_marks.add()
                CC_STATS.ce_marks += 1
            if not target.queue.try_put(out_packet):
                target.tail_drops.add()
                self.frames_dropped.add()
                if self.check is not None:
                    self.check.on_switch_drop(self, target, out_packet)
                continue
            if self.check is not None:
                self.check.on_switch_enqueue(self, target, out_packet)
            depth += 1
            if depth > target._max_depth:
                target._max_depth = depth
                target.max_depth_gauge.set(depth)
            if self.trace is not None:
                target._span_queue.append(self.trace.begin_span(
                    target.name, "queued", psn=packet.bth.psn,
                    opcode=packet.bth.opcode.name))
            if self.metrics.sampling_enabled:
                target.depth_gauge.sample(self.env.now, len(target.queue))
        self._ingress_idle(port)

    # Egress server: dequeue (after the floor) -> hand to the cable ->
    # pacing window -> next frame.  The cable serializes in parallel
    # with the pacing delay, so pacing adds no latency — it only makes
    # the bounded queue (not the cable's unbounded stream) the buffer.
    def _egress_idle(self, port: SwitchPort) -> None:
        """Drain queued frames until one has to wait; park when empty."""
        queue = port.queue
        while len(queue):
            if not self._egress_start(port, queue.get().value):
                return
        queue.park(port._egress_getter)

    def _egress_wake(self, port: SwitchPort, packet) -> None:
        if self._egress_start(port, packet):
            self._egress_idle(port)

    def _egress_start(self, port: SwitchPort, packet) -> bool:
        now = self.env.now
        if port._egress_floor > now:
            # An unfold handed frames back mid-drain: dequeue may not
            # begin before the analytic pacing window ends.
            port._egress_packet = packet
            self.env.call_at(port._egress_floor - now,
                             self._egress_after_floor, port)
            return False
        return self._egress_send(port, packet)

    def _egress_after_floor(self, port: SwitchPort) -> None:
        if self._egress_send(port, port._egress_packet):
            self._egress_idle(port)

    def _egress_send(self, port: SwitchPort, packet) -> bool:
        if self.check is not None:
            self.check.on_switch_dequeue(self, port, packet)
        if self.trace is not None and port._span_queue:
            self.trace.end_span(port._span_queue.popleft())
        if self.metrics.sampling_enabled:
            port.depth_gauge.sample(self.env.now, len(port.queue))
        if not port.up:
            port.blackout_drops.add()
            self.frames_dropped.add()
            return True
        port.frames_out.add()
        # Hand the frame straight to the cable (same instant a tx-stream
        # put would have reached the pump).
        port.cable.send(port.side, packet)
        pacing = timebase.transfer_time_ps(packet.wire_bytes,
                                           port.cable.bits_per_second)
        port._egress_floor = self.env.now + pacing
        self.env.call_at(pacing, self._egress_idle, port)
        return False
