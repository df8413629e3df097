"""The per-NIC congestion-control plane.

:class:`NicCongestionControl` is the object a :class:`~repro.nic.nic.StromNic`
owns once ``enable_congestion_control`` has been called.  It bundles,
per queue pair and created lazily on first use:

- the receive side: ``note_ce`` turns CE-marked arrivals into CNPs via
  the NIC-supplied send callback, rate-limited per QP (DCQCN's CNP
  interval — many marked packets in one window cost one CNP);
- the send side: ``on_cnp`` feeds the QP's
  :class:`~repro.cc.dcqcn.DcqcnRateMachine`, and ``pace`` routes every
  outbound data packet through the QP's
  :class:`~repro.cc.pacing.TokenBucketPacer`.

:data:`CC_STATS` is the process-wide tally (mirror of
:data:`repro.core.payload.PAYLOAD_STATS`) that the benchmark harness
reads to print per-scenario congestion-control activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..check import checker_for
from ..config import MTU_BYTES, wire_bytes_for_frame
from .dcqcn import DcqcnConfig, DcqcnRateMachine
from .ecn import EcnConfig
from .pacing import TokenBucketPacer


class CcStats:
    """Process-wide tally of congestion-control activity."""

    __slots__ = ("ce_marks", "cnps_sent", "cnps_received",
                 "rate_cuts", "paced_packets")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.ce_marks = 0
        self.cnps_sent = 0
        self.cnps_received = 0
        self.rate_cuts = 0
        self.paced_packets = 0

    def snapshot(self) -> dict:
        return {
            "ce_marks": self.ce_marks,
            "cnps_sent": self.cnps_sent,
            "cnps_received": self.cnps_received,
            "rate_cuts": self.rate_cuts,
            "paced_packets": self.paced_packets,
        }


#: The global congestion-control accounting instance.
CC_STATS = CcStats()

#: Wire bytes of one full MTU frame — the pacer's burst unit.
_FULL_FRAME_WIRE_BYTES = wire_bytes_for_frame(MTU_BYTES)


@dataclass(frozen=True)
class CcConfig:
    """Everything one NIC (and the switches it talks through) needs.

    The same object parameterizes both ends: NICs consume ``dcqcn``
    and ``burst_bytes``; :func:`~repro.cluster.topology.Cluster.
    enable_congestion_control` hands ``ecn`` to every switch.
    """

    dcqcn: DcqcnConfig = field(default_factory=DcqcnConfig)
    ecn: EcnConfig = field(default_factory=EcnConfig)
    #: Token-bucket burst: two full frames, so a paced QP can always
    #: put one MTU packet on the wire while the next one accrues.
    burst_bytes: int = 2 * _FULL_FRAME_WIRE_BYTES

    def __post_init__(self) -> None:
        if self.burst_bytes < _FULL_FRAME_WIRE_BYTES:
            raise ValueError("burst must cover at least one full frame")


class NicCongestionControl:
    """Per-NIC DCQCN state: lazily created per-QP machines and pacers,
    the per-QP CNP rate limiter, and the CC metric counters."""

    def __init__(self, env, config: CcConfig, name: str,
                 line_rate_bps: float, send_cnp, registry=None) -> None:
        self.env = env
        self.config = config
        self.name = name
        self.line_rate_bps = line_rate_bps
        self._send_cnp = send_cnp
        self.metrics = registry
        self.check = checker_for(env)
        self._machines = {}
        self._pacers = {}
        #: qpn -> time the last CNP was generated for that QP.
        self._last_cnp_sent = {}
        self.ce_rx = self.cnps_tx = self.cnps_rx = None
        if registry is not None:
            self.ce_rx = registry.counter(f"{name}.cc.ce_rx")
            self.cnps_tx = registry.counter(f"{name}.cc.cnps_tx")
            self.cnps_rx = registry.counter(f"{name}.cc.cnps_rx")

    # ------------------------------------------------------------------
    # Per-QP state
    # ------------------------------------------------------------------
    def machine_for(self, qpn: int) -> DcqcnRateMachine:
        machine = self._machines.get(qpn)
        if machine is None:
            machine = DcqcnRateMachine(
                self.env, self.config.dcqcn, self.line_rate_bps,
                f"{self.name}.cc.qp{qpn}", self.metrics)
            self._machines[qpn] = machine
        return machine

    def _pacer_for(self, qpn: int) -> TokenBucketPacer:
        pacer = self._pacers.get(qpn)
        if pacer is None:
            pacer = TokenBucketPacer(self.env, self.machine_for(qpn),
                                     self.config.burst_bytes)
            self._pacers[qpn] = pacer
        return pacer

    # ------------------------------------------------------------------
    # Receive side: CE-marked arrivals -> CNPs
    # ------------------------------------------------------------------
    def note_ce(self, qp) -> None:
        """A CE-marked packet arrived for ``qp``: send a CNP back to
        its peer unless one was sent within the CNP interval."""
        if self.ce_rx is not None:
            self.ce_rx.add()
        now = self.env.now
        last = self._last_cnp_sent.get(qp.qpn)
        if last is not None \
                and now - last < self.config.dcqcn.cnp_interval:
            return
        self._last_cnp_sent[qp.qpn] = now
        if self.cnps_tx is not None:
            self.cnps_tx.add()
        CC_STATS.cnps_sent += 1
        self._send_cnp(qp)

    # ------------------------------------------------------------------
    # Send side: CNPs -> rate cuts; data packets -> pacing
    # ------------------------------------------------------------------
    def on_cnp(self, qpn: int) -> None:
        """A CNP arrived for local queue pair ``qpn``."""
        if self.cnps_rx is not None:
            self.cnps_rx.add()
        CC_STATS.cnps_received += 1
        CC_STATS.rate_cuts += 1
        self.machine_for(qpn).on_cnp()

    def is_throttled(self, qpn: int) -> bool:
        """True while ``qpn``'s rate machine holds it below line rate
        (False for QPs that never saw a CNP)."""
        machine = self._machines.get(qpn)
        return machine is not None and machine.throttled

    def unthrottled(self, qpn: int) -> bool:
        """The line-rate half of :meth:`pace`, as a plain call: True
        (with the QP's bucket pinned full) when ``qpn`` needs no pacing.
        The TX loops call this first and only ``yield from pace`` when
        it returns False."""
        machine = self._machines.get(qpn)
        if machine is not None and machine.throttled:
            return False
        # Never throttled (or fully recovered with a full bucket's worth
        # of headroom guaranteed by the pacer reset): no per-packet
        # bookkeeping at all on the common path.
        pacer = self._pacers.get(qpn)
        if pacer is not None:
            pacer._tokens = float(pacer.burst_bytes)
            pacer._last_refill = self.env.now
        if self.check is not None:
            self.check.on_pacer_idle(self.name, qpn)
        return True

    def pace(self, qpn: int, wire_bytes: int):
        """Charge ``wire_bytes`` against the QP's allowed rate,
        sleeping as needed.  Zero events while the QP is unthrottled."""
        if self.unthrottled(qpn):
            return
        machine = self._machines[qpn]
        CC_STATS.paced_packets += 1
        pacer = self._pacer_for(qpn)
        yield from pacer.pace(wire_bytes)
        if self.check is not None:
            self.check.on_paced(self.name, qpn, machine, pacer,
                                wire_bytes)
