"""Point-to-point Ethernet cable model.

The paper's testbed directly connects two StRoM NICs "to remove the
potential noise introduced by a switch" (Section 6.1); this model does the
same.  Each direction serializes frames at line rate (store-and-forward),
then delivers after a fixed propagation/PHY delay, in order.  Loss and
corruption injection exercise the retransmission path.

Fault model (see DESIGN.md, "Fault model & recovery"):

- **Uniform loss/corruption/duplication** — independent per-frame draws,
  the original :class:`LinkFaults` knobs.
- **Gilbert-Elliott bursty loss** — a two-state (good/bad) Markov channel
  (:class:`GilbertElliott`): per-frame transition draws move the channel
  between a near-lossless good state and a heavily lossy bad state, so
  drops arrive in bursts of configurable mean length instead of the
  memoryless uniform pattern.  This is the loss regime go-back-N is worst
  at (one burst costs one full retransmission round per lost frame).
- **Link flaps** — :meth:`Cable.set_up` models carrier loss: while the
  link is down every frame completing serialization is discarded (both
  directions) and counted separately from stochastic drops.
- **Latency spikes** — :meth:`Cable.set_extra_latency` adds a transient
  extra propagation delay (re-routing, PFC pause storms, shallow-buffer
  incast) without touching the serialization rate.

All stochastic draws come from one seeded RNG per cable; with per-link
seed derivation (:func:`link_seed`) every cable in a topology owns an
independent, reproducible fault schedule.  Set ``REPRO_FAULT_SEED`` (the
run-mode table in :mod:`repro.runmode` and README) to pin every link to
one known seed when reproducing a stress-test failure (the tests print
the effective seeds on failure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from ..obs.runtime import registry_for, trace_for
from ..runmode import active
from ..sim import Simulator, Stream, timebase


def effective_fault_seed(seed: int) -> int:
    """``seed``, unless the run mode's ``fault_seed`` pins a global
    override (reproduction aid: protocol-stress failures print the
    effective seed; pinning it re-runs the exact same fault schedule
    regardless of derivation)."""
    pinned = active().fault_seed
    return seed if pinned is None else pinned


def link_seed(seed: int, link_name: str) -> int:
    """Per-link RNG seed: ``seed`` XOR a *stable* hash of the link name.

    Python's builtin ``hash`` is salted per process, so it cannot seed a
    reproducible fault schedule; FNV-1a over the name is stable across
    runs and machines.  Deriving each link's seed from its own name means
    adding a link to a topology never perturbs another link's drop
    schedule (they share no RNG and their seeds do not shift).
    """
    from ..algos.hashing import fnv1a64
    return seed ^ (fnv1a64(link_name.encode("utf-8")) & 0x7FFF_FFFF)


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov loss channel (Gilbert-Elliott).

    Per delivered frame the channel first draws a state transition
    (good->bad with :attr:`p_good_to_bad`, bad->good with
    :attr:`p_bad_to_good`), then drops the frame with the loss
    probability of the resulting state.  The long-run loss rate is

        ``pi_bad * loss_bad + (1 - pi_bad) * loss_good``

    with ``pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good)``,
    and the mean bad-burst length is ``1 / p_bad_to_good`` frames.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self) -> None:
        for p in (self.p_good_to_bad, self.p_bad_to_good,
                  self.loss_good, self.loss_bad):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be within [0, 1]")
        if self.p_bad_to_good <= 0.0:
            raise ValueError("p_bad_to_good must be positive "
                             "(the bad state must be escapable)")

    @property
    def stationary_bad(self) -> float:
        """Long-run fraction of frames seen in the bad state."""
        total = self.p_good_to_bad + self.p_bad_to_good
        return self.p_good_to_bad / total if total > 0 else 0.0

    @property
    def mean_loss(self) -> float:
        """Long-run per-frame loss probability."""
        pi_bad = self.stationary_bad
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    @classmethod
    def from_mean_loss(cls, mean_loss: float, burst_frames: float = 8.0,
                       loss_bad: float = 0.5) -> "GilbertElliott":
        """A channel with long-run loss ``mean_loss`` whose bad bursts
        last ``burst_frames`` frames on average (clean good state).

        This is the sweep axis of the fault-sweep experiment: the mean
        loss varies while the burst shape stays fixed, so goodput curves
        isolate the effect of loss *rate* at constant burstiness.
        """
        if not 0.0 <= mean_loss < loss_bad:
            raise ValueError(
                f"mean loss must be within [0, loss_bad={loss_bad})")
        if burst_frames < 1.0:
            raise ValueError("bursts last at least one frame")
        p_exit = 1.0 / burst_frames
        pi_bad = mean_loss / loss_bad
        if pi_bad >= 1.0:
            raise ValueError("unreachable stationary distribution")
        p_enter = p_exit * pi_bad / (1.0 - pi_bad)
        return cls(p_good_to_bad=min(p_enter, 1.0), p_bad_to_good=p_exit,
                   loss_good=0.0, loss_bad=loss_bad)


@dataclass
class LinkFaults:
    """Fault-injection knobs for one cable direction."""

    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    #: Deliver the frame twice (stresses the responder's duplicate-PSN
    #: handling and the requester's stale-ACK tolerance).
    duplicate_probability: float = 0.0
    #: Bursty (two-state) loss; when set it *replaces* the uniform
    #: ``drop_probability`` draw so the two models never stack.
    burst: Optional[GilbertElliott] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for p in (self.drop_probability, self.corrupt_probability,
                  self.duplicate_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be within [0, 1]")

    def for_link(self, link_name: str) -> "LinkFaults":
        """A copy whose RNG seed is derived from this link's name, so
        every link in a topology gets an independent, stable fault
        schedule (see :func:`link_seed`)."""
        return replace(self, seed=link_seed(self.seed, link_name))


class Cable:
    """A full-duplex cable between two NIC ports.

    Endpoints either call :meth:`send` directly (the NIC fast path) or
    put frames into the ``a_tx`` / ``b_tx`` streams; each direction
    serializes independently, so bidirectional traffic does not serialize
    against itself — matching the stack's "independent processing on the
    two paths" design goal.

    Serialization is enforced *arithmetically*: each direction keeps a
    FIFO ``free_at`` cursor (like :class:`~repro.sim.BandwidthLink`), so
    a frame's serialization-end and arrival times are computed at send
    time instead of being discovered by a per-direction pump process.  A
    fault-free frame costs exactly one scheduler event (the arrival
    callback); when fault injection or utilization sampling is active the
    per-frame draws still happen at serialization end, on a second
    callback, preserving the RNG draw schedule of the process-based
    formulation.  Frames are delivered to a receiver hook registered via
    :meth:`set_receiver` (zero-copy: the same packet object, payload
    views included, crosses the wire) or, when none is set, into the
    ``a_rx`` / ``b_rx`` streams.
    """

    def __init__(self, env: Simulator, bits_per_second: float,
                 propagation: int, faults: Optional[LinkFaults] = None,
                 name: str = "cable") -> None:
        if bits_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation < 0:
            raise ValueError("propagation delay must be non-negative")
        self.env = env
        self.bits_per_second = bits_per_second
        self.propagation = propagation
        self.faults = faults or LinkFaults()
        self.name = name
        #: The seed actually feeding this cable's RNG (after any
        #: ``REPRO_FAULT_SEED`` pin) — printed by stress tests on failure.
        self.fault_seed = effective_fault_seed(self.faults.seed)
        self._rng = random.Random(self.fault_seed)
        #: Carrier state: False models a downed link (fault injection).
        self.up = True
        #: Transient extra one-way delay (latency-spike injection).
        self.extra_latency = 0
        #: Gilbert-Elliott channel state, one per direction (keyed by the
        #: sending side), True while in the bad state.
        self._burst_bad = {}
        #: FIFO serialization cursor per direction (keyed by the sending
        #: side): the time the wire frees up for the next frame.
        self._free_at = {"a": 0, "b": 0}
        #: Receiver hooks keyed by the *receiving* side; frames fall back
        #: to the rx streams when no hook is registered.
        self._receivers = {"a": None, "b": None}
        #: Receiver-side pipeline delay folded into the arrival callback
        #: (the NIC's RX parse latency), keyed by receiving side.
        self._receiver_delay = {"a": 0, "b": 0}
        #: SwitchPort attached at a side (installed by Switch.attach);
        #: the burst fast path walks cable -> port -> switch to fold
        #: across a one-switch leg.
        self._switch_ports = {"a": None, "b": None}

        self.a_tx: Stream = Stream(env, name=f"{name}.a_tx")
        self.b_tx: Stream = Stream(env, name=f"{name}.b_tx")
        self.a_rx: Stream = Stream(env, name=f"{name}.a_rx")
        self.b_rx: Stream = Stream(env, name=f"{name}.b_rx")

        self.metrics = registry_for(env)
        self.trace = trace_for(env)
        self.frames_delivered = self.metrics.counter(f"{name}.delivered")
        self.frames_dropped = self.metrics.counter(f"{name}.dropped")
        self.frames_corrupted = self.metrics.counter(f"{name}.corrupted")
        self.frames_duplicated = self.metrics.counter(f"{name}.duplicated")
        #: Drops attributable to the Gilbert-Elliott bad state (also
        #: counted in ``dropped``).
        self.burst_drops = self.metrics.counter(f"{name}.burst_drops")
        #: Frames discarded because the carrier was down.
        self.link_down_drops = self.metrics.counter(
            f"{name}.link_down_drops")
        self.link_flaps = self.metrics.counter(f"{name}.link_flaps")
        self.bytes_on_wire = self.metrics.counter(f"{name}.wire_bytes")
        #: Sampled time series of wire utilization (fraction of the time
        #: since the previous sample spent serializing), collected only
        #: while observing.
        self._utilization = self.metrics.gauge(f"{name}.utilization")
        self._util_anchor_time = 0
        self._util_anchor_bytes = 0

        env.process(self._pump(self.a_tx, "a"))
        env.process(self._pump(self.b_tx, "b"))

    def set_receiver(self, side: str, receiver,
                     pipeline_delay: int = 0) -> None:
        """Deliver frames arriving at ``side`` ('a' or 'b') by calling
        ``receiver(packet)`` instead of queueing them into the rx stream
        (saves a stream wake plus a consumer-loop resume per frame).

        ``pipeline_delay`` is charged before the call — folding the
        receiver's fixed parse latency into the arrival callback, so the
        whole cable crossing plus RX pipeline costs one event on the
        fault-free path."""
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        if pipeline_delay < 0:
            raise ValueError("pipeline delay must be non-negative")
        self._receivers[side] = receiver
        self._receiver_delay[side] = pipeline_delay

    # ------------------------------------------------------------------
    # Fault-injection surface (driven by repro.faults.FaultSchedule)
    # ------------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Raise or cut the carrier.  While down, frames finishing
        serialization are discarded in both directions (the retransmission
        machinery recovers once the link returns)."""
        if up != self.up:
            fold = self.env.fold
            if fold is not None:
                fold.on_hop(self)
            self.link_flaps.add()
            if self.trace is not None:
                self.trace.record(self.name,
                                  "link_up" if up else "link_down")
        self.up = up

    def set_extra_latency(self, extra_ps: int) -> None:
        """Add (or clear, with 0) a transient one-way delay."""
        if extra_ps < 0:
            raise ValueError("extra latency must be non-negative")
        if extra_ps != self.extra_latency:
            fold = self.env.fold
            if fold is not None:
                fold.on_hop(self)
            if self.trace is not None:
                self.trace.record(self.name, "latency_spike",
                                  extra_ps=extra_ps)
        self.extra_latency = extra_ps

    # ------------------------------------------------------------------
    # Loss draws
    # ------------------------------------------------------------------
    def _drops_frame(self, direction) -> bool:
        """One per-frame loss draw: Gilbert-Elliott when configured,
        otherwise the uniform probability."""
        burst = self.faults.burst
        if burst is None:
            return self._rng.random() < self.faults.drop_probability
        bad = self._burst_bad.get(direction, False)
        if bad:
            if self._rng.random() < burst.p_bad_to_good:
                bad = False
        else:
            if self._rng.random() < burst.p_good_to_bad:
                bad = True
        self._burst_bad[direction] = bad
        loss = burst.loss_bad if bad else burst.loss_good
        if loss and self._rng.random() < loss:
            if bad:
                self.burst_drops.add()
            return True
        return False

    def _pump(self, tx: Stream, side: str):
        """Compatibility path: feed frames put into a TX stream through
        :meth:`send` (the switch's egress and direct-stream tests)."""
        while True:
            packet = yield tx.get()
            self.send(side, packet)

    def send(self, side: str, packet, ready: Optional[int] = None) -> None:
        """Transmit ``packet`` from endpoint ``side`` ('a' or 'b').

        Reserves the directional wire arithmetically (serialization
        holds it — frames cannot overtake each other; propagation
        overlaps with the next frame's serialization) and schedules the
        arrival.  ``ready`` sets a floor on the serialization start (the
        sender's fixed TX pipeline latency, folded into the reservation
        the same way DMA folds PCIe latency).  The fault-free, unsampled
        case costs a single timeout callback — covering serialization,
        propagation and the receiver's registered pipeline delay; any
        fault knob, a downed carrier, or active metric sampling routes
        through a serialization-end callback that keeps the per-frame
        RNG draws at the exact times the pump process drew them.  Both
        are callback entries (:meth:`Simulator.call_at`)."""
        fold = self.env.fold
        if fold is not None:
            # A folded burst may own this direction's serialization
            # cursor; it must unfold (restoring the true cursor) before
            # this frame reserves the wire.
            fold.on_cable_send(self, side)
        wire_bytes = packet.wire_bytes
        self.bytes_on_wire.add(wire_bytes)
        duration = timebase.transfer_time_ps(wire_bytes,
                                             self.bits_per_second)
        now = self.env.now
        start = self._free_at[side]
        if ready is not None and start < ready:
            start = ready
        if start < now:
            start = now
        end = start + duration
        self._free_at[side] = end
        dest = "b" if side == "a" else "a"
        faults = self.faults
        if (faults.drop_probability or faults.corrupt_probability
                or faults.duplicate_probability or faults.burst is not None
                or not self.up or self.metrics.sampling_enabled):
            self.env.call_at(end - now, self._on_serialized,
                             (packet, side, dest))
            return
        self.env.call_at(
            end - now + self.propagation + self.extra_latency
            + self._receiver_delay[dest], self._arrive, (packet, dest))

    def _arrive(self, arrival) -> None:
        """Fast-path arrival of ``(packet, dest)``: carrier check, then
        straight into the receiver hook (or rx stream) — pipeline delay
        already charged."""
        packet, dest = arrival
        if not self.up:
            self.frames_dropped.add()
            self.link_down_drops.add()
            return
        self.frames_delivered.add()
        receiver = self._receivers[dest]
        if receiver is not None:
            receiver(packet)
            return
        (self.a_rx if dest == "a" else self.b_rx).put(packet)

    def _on_serialized(self, frame) -> None:
        """Serialization of ``(packet, side, dest)`` finished: sample,
        then run the fault draws in the order (and at the time) the pump
        process ran them."""
        packet, side, dest = frame
        if self.metrics.sampling_enabled:
            self._sample_utilization()
        if not self.up:
            self.frames_dropped.add()
            self.link_down_drops.add()
            return
        if self._drops_frame(side):
            self.frames_dropped.add()
            return
        if self._rng.random() < self.faults.corrupt_probability:
            self.frames_corrupted.add()
            # Corrupt a copy: the sender's retransmit buffer keeps a
            # reference to the original, clean packet.
            packet = replace(packet, corrupted=True)
        if self._rng.random() < self.faults.duplicate_probability:
            self.frames_duplicated.add()
            self._deliver(replace(packet), dest)
        self._deliver(packet, dest)

    def _sample_utilization(self) -> None:
        """Utilization over the window since the previous sample (not
        since t=0: a cumulative reading would let long idle warmups
        permanently depress the gauge)."""
        now = self.env.now
        elapsed = now - self._util_anchor_time
        if elapsed <= 0:
            return
        window_bytes = self.bytes_on_wire.value - self._util_anchor_bytes
        busy = window_bytes * 8 / self.bits_per_second
        self._utilization.sample(
            now, busy / timebase.to_seconds(elapsed))
        self._util_anchor_time = now
        self._util_anchor_bytes = self.bytes_on_wire.value

    def _deliver(self, packet, dest: str) -> None:
        """Schedule arrival after propagation as a callback entry (no
        per-frame process).  The payload itself is never touched: the
        same packet object — views included — crosses the wire."""
        self.env.call_at(self.propagation + self.extra_latency,
                         self._deliver_now, (packet, dest))

    def _deliver_now(self, arrival) -> None:
        packet, dest = arrival
        if not self.up:
            # Carrier dropped while the frame was in flight.
            self.frames_dropped.add()
            self.link_down_drops.add()
            return
        self.frames_delivered.add()
        receiver = self._receivers[dest]
        if receiver is None:
            (self.a_rx if dest == "a" else self.b_rx).put(packet)
            return
        delay = self._receiver_delay[dest]
        if delay:
            self.env.call_at(delay, receiver, packet)
        else:
            receiver(packet)
