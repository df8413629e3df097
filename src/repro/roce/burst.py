"""Burst fast path: O(1) simulator events per multi-packet message.

StRoM's pitch is that the hardware pipeline never touches a packet
twice; the simulator should not touch a *fault-free* packet even once.
When a multi-packet WRITE (requester TX) or READ response stream
(responder TX) traverses a clean direct cable — no fault knobs, no
congestion control, no monitors/trace/sampling, no outstanding
retransmit state — the whole message is *folded* into one
:class:`BurstFlight` descriptor.  Every per-packet timestamp the
per-packet machinery would have produced is computed analytically at
commit time (the schedule below), and the message then costs exactly
three scheduler events end to end:

- **E1** at ``C[n-1]``: the TX pipeline finishes the last packet — the
  send gate opens and (for WRITEs) the retransmission timer arms,
  exactly as the per-packet loop would have done;
- **E2** at ``A[n-1]``: the last packet arrives — responder PSN/MSN
  state jumps to its final value and the single coalesced ACK (the one
  the per-packet tail would have triggered) is sent through the real
  ACK path;
- **E3** at ``wend[n-1]``: the last DMA write-back lands — the
  message's payload view is committed to the destination pages, one
  commit per contiguous physical run (zero copy; ``writes`` still
  advances per packet) and, for READs, the completion fires.

A folded message costs host work per page touched and per distinct
packet size, not per packet: its segments are closed form
(:class:`~repro.roce.packetizer.Segments`: no per-packet objects until
an unfold, a replay or the validation walk asks for packet ``i``); the
flight holds one message-level :class:`~repro.core.payload.PayloadRef`;
TLB splits come from :meth:`~repro.nic.tlb.Tlb.chunk_run` (one probe per
page, piece lists only for page-straddling chunks); and every column is
a numpy prefix-max scan over per-size constants (:func:`fifo_ends`):
int64 columns, listed only at an unfold — the commit reads their last
entries, and one bound from scalars refuses a schedule that could reach
:data:`COLUMN_LIMIT_PS` before any is built.  The destination TLB is
charged lazily for the write-back translations
(:attr:`~repro.nic.tlb.Tlb.pending_charge`): by E2 all of them, at an
unfold only the arrived prefix (the replay translates the rest itself).

The analytic schedule (all integer picoseconds, mirroring the code
paths in :mod:`repro.nic.nic`, :mod:`repro.net.link` and
:mod:`repro.nic.dma` line for line).  Each stage is a FIFO server,
``end[i] = max(end[i-1], start[i]) + dur[i]``, computed by
:func:`fifo_ends` as ``cum[i] + max(floor, max_{j<=i} start[j] -
cum[j-1])``:

- TX charge done:  ``C = fifo_ends(fetch_start + fetch_cum,
  streaming_time(l3), t0)``; loop resume ``F = C - streaming_time(l3)``
- first wire:      ``E1c = fifo_ends(C + tx_delay, transfer_time(wire),
  free_at)``; arrival ``A = E1c + propagation + rx_delay``
- write-back slot: ``wend = fifo_ends(A + pcie_write_latency,
  burst_duration(pieces), wfree)``

Fold *guards* keep the illusion honest.  Every send path unfolds the
pending flight before it may fold (:func:`unfold_pending`), so a
simulator holds at most one folded flight, in one slot
(:attr:`Simulator.fold`).  The flight knows its path (both NICs, the
cable, and for a switch leg the switch and the second cable); a hop
with slow-path activity — a frame arriving at a NIC or at switch
ingress, a crash, CC or ECN activation, a link flap, latency spike or
port blackout — asks the slot (:meth:`BurstFlight.on_hop`), and a send
on the folded cable direction asks :meth:`BurstFlight.on_cable_send`.
The landing resources keep their own guards until E3, because several
delivered flights may still be landing on disjoint hosts: the DMA
engines (:attr:`DmaEngine.burst_guard`), both memories
(:attr:`PhysicalMemory.store_guard`) and the destination TLB
(:attr:`Tlb.pending_charge`).  Any mid-flight trigger on the path, or
a competing DMA write or watch, *unfolds* the burst at the correct PSN
boundary: already-elapsed effects are applied as the per-packet
path would have left them, in-flight frames are re-scheduled at their
exact arrival times, not-yet-sent packets are replayed organically
through the real TX path, and eagerly reserved wire/DMA time beyond the
boundary is rewound.  One documented approximation: an external trigger
landing at *exactly* the same picosecond as a column entry treats that
entry as already-elapsed (``bisect_right`` tie semantics), where the
per-packet interleaving at that instant would depend on event ids.

Folding is on by default; the gates above choose the per-packet path.
Under ``REPRO_VALIDATE`` (the run-mode table in :mod:`repro.runmode`
and README) every committed schedule is re-walked with the real
per-packet arithmetic (real :class:`RocePacket` sizes, explicit
max-chains, a stepped :class:`ResponderState` clone) and asserted
bit-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..config import wire_bytes_for_frame
from ..net.arp import mac_for_ip
from ..runmode import active
from ..sim import timebase
from .headers import Aeth, Bth, Reth
from .opcodes import carries_aeth, is_last, is_only
from .packet import RocePacket
from .packetizer import l3_sizes
from .qp import psn_add

#: Messages shorter than this many packets are not worth folding: the
#: fixed commit cost (column computation + shadow walk) outweighs the
#: saved events.
FOLD_MIN_PACKETS = 4

#: Column values stay below this (int64 cumsums wrap silently); a
#: schedule that could reach it is refused and runs per packet.
COLUMN_LIMIT_PS = 1 << 62

# Flight states.
_FOLDED = 0      # in flight, analytic schedule authoritative
_DELIVERED = 1   # all packets arrived (E2 ran); write-backs pending
_UNFOLDED = 2    # mid-flight unfold: per-packet machinery took over
_DONE = 3        # E3 ran (or flushed): nothing pending


def unfold_pending(env) -> None:
    """Unfold the in-flight fold, if any, before new traffic enters the
    fabric.

    Called at the head of every message/retransmission send path.  The
    simulator breaks same-picosecond ties by event-creation order, so a
    fold is only bit-identical while no *other* flow schedules events
    that could tie with the folded schedule.  Catching the competitor at
    post time — before it has created a single event — lets the replay
    re-create the folded flow's event chain *ahead* of the newcomer's,
    exactly the relative order the per-packet machinery would have
    produced.  Waiting for the competitor's first frame to physically
    reach a shared hop (the guards' job) is too late for that: by then
    the competitor's chain holds earlier-created events and the replay
    loses every tie it should win.  With no pending fold (the common
    case, and any purely sequential workload) this is one attribute
    probe."""
    fold = env.fold
    if fold is not None:
        fold.unfold()


def _started(generator):
    """Run ``generator`` to its first yield now and return a process body
    that waits on that event, then hands over to the generator.

    The replay's first wait must be created at unfold time, not when a
    new process bootstraps: the per-packet sender created it before the
    competitor whose post triggered the unfold, and same-picosecond ties
    go by event-creation order."""
    first = next(generator)

    def body():
        yield first
        yield from generator
    return body()


def fifo_ends(start: np.ndarray, dur: np.ndarray, floor: int) -> np.ndarray:
    """End times of a FIFO server fed jobs in order: ``end[i] =
    max(end[i-1], start[i]) + dur[i]`` with ``end[-1] = floor``.

    Unrolled, ``end[i] = cum[i] + max(floor, max_{j<=i} start[j] -
    cum[j-1])`` (``cum`` the running sum of ``dur``): one cumsum and one
    prefix-max scan over int64.  Raises OverflowError — refusing the
    fold — when the last (largest) end reaches :data:`COLUMN_LIMIT_PS`;
    the caller keeps ``max(floor, start) + sum(dur)`` below it, so
    nothing wraps first."""
    cum = dur.cumsum()
    lead = start - cum
    lead += dur
    if lead[0] < floor:
        lead[0] = floor   # the floor joins every prefix max through lead[0]
    np.maximum.accumulate(lead, out=lead)
    lead += cum
    if lead[-1] >= COLUMN_LIMIT_PS:
        raise OverflowError("schedule exceeds the int64 column range")
    return lead


# ----------------------------------------------------------------------
# Fold gates
# ----------------------------------------------------------------------
def _sender_clean(nic, qp) -> bool:
    """No slow-path feature on the sending NIC.  A CC plane always
    refuses: its token-bucket pacer debits per-packet wire bytes and its
    DCQCN machines sample per-packet arrivals even while a QP is
    unthrottled, so a fold would skip that bookkeeping and diverge the
    moment any QP on the NIC gets its first CNP (enabling CC mid-flight
    unfolds)."""
    return (nic.powered and nic.cc is None and nic.check is None
            and nic.trace is None
            and not nic.config.per_word_accounting
            and not nic.metrics.sampling_enabled
            and not qp.in_error
            and nic.memory.store_guard is None
            and nic._cable is not None)


def _cable_clean(cable) -> bool:
    """No fault knob active."""
    faults = cable.faults
    return (cable.up and cable.extra_latency == 0
            and not faults.drop_probability
            and not faults.corrupt_probability
            and not faults.duplicate_probability
            and faults.burst is None)


def _resolve_receiver(cable, dest: str):
    """The StromNic whose ``_rx_arrive`` hook terminates ``dest``, or
    None when the far side is not a directly attached NIC."""
    from ..nic.nic import StromNic
    hook = cable._receivers[dest]
    nic = getattr(hook, "__self__", None)
    if not isinstance(nic, StromNic):
        return None
    if getattr(hook, "__func__", None) is not StromNic._rx_arrive:
        return None
    return nic


def _receiver_clean(recv) -> bool:
    return (recv.powered and recv.cc is None and recv.check is None
            and recv.trace is None
            and not recv.config.per_word_accounting
            and recv.dma.burst_guard is None
            and recv.memory.store_guard is None
            and not recv.dma._watches)


# ----------------------------------------------------------------------
# The flight
# ----------------------------------------------------------------------
class BurstFlight:
    """One folded multi-packet message on a clean direct-cable path."""

    __slots__ = (
        "env", "kind", "src", "dst", "src_qp", "dst_qp", "cable", "side",
        "dest", "segments", "first_psn", "last_psn", "n", "t0", "gate",
        "view", "pieces", "tlb_charged", "l3", "wire", "total",
        "total_wire", "F", "C", "E1c", "A1", "A", "dur", "dur_total",
        "wend", "pre_free1", "pre_wfree", "fetch_start", "fetch_cum",
        "base_addr", "raddr", "msg_length", "completion", "msn0", "ctx",
        "state", "e1_done", "_packets", "c_unfolds", "path",
    )

    #: The int64 schedule columns, listed once by an unfold or a flush.
    _COLUMNS = ("F", "C", "E1c", "A1", "A", "wend", "wire", "dur")

    def __init__(self, kind, src, dst, src_qp, dst_qp, segments,
                 first_psn, fetch, gate, base_addr, raddr, msg_length,
                 completion, ctx) -> None:
        self.env = src.env
        self.kind = kind                 # 'write' | 'read'
        self.src = src                   # sending NIC
        self.dst = dst                   # receiving NIC
        self.src_qp = src_qp             # QP at src (names dest_qpn/ip)
        self.dst_qp = dst_qp             # QP at dst (peer state)
        self.cable = src._cable
        self.side = src._cable_side
        self.dest = "b" if self.side == "a" else "a"
        #: The hops whose slow-path activity unfolds this flight.
        self.path = (src, dst, self.cable)
        self.segments = segments
        self.first_psn = first_psn
        self.n = len(segments)
        self.last_psn = psn_add(first_psn, self.n - 1)
        self.t0 = self.env.now
        self.gate = gate
        self.base_addr = base_addr       # destination vaddr of packet 0
        self.raddr = raddr               # RETH vaddr (WRITE) / 0 (READ)
        self.msg_length = msg_length     # RETH dma_length / READ length
        self.completion = completion     # WRITE tail completion (or None)
        self.msn0 = dst_qp.responder.msn if kind == "write" \
            else src_qp.responder.msn
        self.ctx = ctx                   # READ: requester _ReadContext
        self.fetch_start = fetch._start
        self.fetch_cum = fetch.ends_column()
        self.state = _FOLDED
        self.e1_done = False
        self._packets: List[Optional[RocePacket]] = [None] * self.n
        self.c_unfolds = None
        # One view of the whole source buffer (zero copy end to end);
        # packet i's payload is its slice, built only when needed.
        self.view = fetch.message_view()
        self.tlb_charged = 0
        self.total = segments.total

    # ------------------------------------------------------------------
    # Schedule computation (pure: no side effects; raises to refuse)
    # ------------------------------------------------------------------
    def compute_schedule(self) -> None:
        """Every column, from per-frame constants evaluated once per
        distinct frame size.  No entry can exceed the latest floor or
        fetch-ready time plus every stage's summed durations and fixed
        latencies: that bound, from scalars, refuses a schedule that
        could reach :data:`COLUMN_LIMIT_PS` before any column is built."""
        src, cable, dst = self.src, self.cable, self.dst
        self.l3 = l3 = l3_sizes(self.segments,
                                response=self.kind == "read")
        wire = tuple(map(wire_bytes_for_frame, l3))
        self.wire, self.total_wire = self._per_frame(wire)
        charge, charge_total = self._per_frame(
            map(src.config.streaming_time, l3))
        bps = cable.bits_per_second
        serialize, serialize_total = self._per_frame(
            timebase.transfer_time_ps(size, bps) for size in wire)
        prop = cable.propagation + cable.extra_latency \
            + cable._receiver_delay[self.dest]
        # Destination write-back lane (receiver's card->host PCIe).  Pure
        # lookups: the TLB is charged as the packets arrive
        # (_settle_tlb), where per-packet write_posted translates.
        wlink = dst.dma.write_link
        self.pieces = dst.tlb.chunk_run(self.base_addr, self.segments,
                                        charge=False)
        self.dur = dst.dma._chunk_durations(wlink, self.pieces,
                                            True).column()
        self.dur_total = int(self.dur.sum())
        wlat = dst.config.pcie_write_latency
        self.pre_free1 = cable._free_at[self.side]
        self.pre_wfree = wlink._free_at
        path_floor, path_span = self._path_bound(wire)
        if (max(self.t0, self.fetch_start + int(self.fetch_cum[-1]),
                self.pre_free1, self.pre_wfree, path_floor)
                + charge_total + src._tx_delay + serialize_total + prop
                + path_span + wlat + self.dur_total) >= COLUMN_LIMIT_PS:
            raise OverflowError("schedule exceeds the int64 column range")

        C = fifo_ends(self.fetch_cum + self.fetch_start, charge, self.t0)
        E1c = fifo_ends(C + src._tx_delay, serialize, self.pre_free1)
        self.F, self.C, self.E1c = C - charge, C, E1c
        self.A1 = E1c + prop
        self.A = A = self._path(self.A1)
        # Chained in arrival order.
        self.wend = fifo_ends(A + wlat, self.dur, self.pre_wfree)

    def _per_frame(self, values) -> Tuple[np.ndarray, int]:
        """A per-frame constant as an int64 column, from its first,
        middle and last values, and the column's sum."""
        first, middle, last = values
        return (self.segments.column(first, middle, last),
                first + middle * (self.n - 2) + last)

    def _path_bound(self, wire) -> Tuple[int, int]:
        """Floor and summed durations of the hops beyond the first
        cable, for the schedule bound (a direct cable has none)."""
        return 0, 0

    def _path(self, arrivals: np.ndarray) -> np.ndarray:
        """Arrival times at the receiving NIC from those at the first
        cable's far side (direct cable: the same)."""
        return arrivals

    def _list_columns(self) -> None:
        """Lists for the per-packet work of an unfold or a flush."""
        for name in self._COLUMNS:
            setattr(self, name, getattr(self, name).tolist())

    def _counters(self):
        """This path's fold counters, resolved at its first fold: folds,
        those advanced by the packet count, and unfolds."""
        cache = self.env.fold_counters
        counters = cache.get(self.path)
        if counters is None:
            counter = self.src.metrics.counter
            src, dst, *hops = self.path
            counters = cache[self.path] = (
                counter(f"{src.name}.burst.folds"),
                [counter(f"{src.name}.burst.folded_packets"),
                 counter(f"{dst.name}.burst.folded_rx")]
                + [counter(f"{hop.name}.burst.folded_frames")
                   for hop in hops],
                counter(f"{src.name}.burst.unfolds"))
        return counters

    # ------------------------------------------------------------------
    # Commit: reservations, registrations, the three deferred events
    # ------------------------------------------------------------------
    def commit(self) -> None:
        env = self.env
        assert env.fold is None, "a simulator holds one folded flight"
        src, dst = self.src, self.dst
        # Eager wire reservation: interferers queue behind the whole
        # burst (or unfold it first, which rewinds this cursor).
        self.cable._free_at[self.side] = int(self.E1c[-1])
        # Eager write-lane reservation, chained in arrival order.
        wlink = dst.dma.write_link
        wend = int(self.wend[-1])
        wlink._free_at = wend
        wlink.busy_time += self.dur_total
        wlink.bytes_transferred += self.total

        env.fold = self
        dst.dma.burst_guard = self._dma_guard
        if self.kind == "read":
            # Served views are stable=False: a responder-local DMA write
            # racing the stream must unfold so commits keep per-packet
            # memory ordering.
            src.dma.burst_guard = self._dma_guard
        # Raw host stores deref nothing until a commit reads the source
        # (or lands in the destination) — per-packet that happens at
        # each wend[i], so a mid-flight store to either memory must
        # first push the flight back to per-packet commit times.
        src.memory.store_guard = self._dma_guard
        dst.memory.store_guard = self._dma_guard
        dst.tlb.pending_charge = self._settle_tlb

        if self.kind == "write":
            from ..nic.nic import _UnackedEntry
            # The entry points at the flight, never back: a finished
            # flight is freed by reference counting, not the cycle GC.
            self.src_qp.requester.unacked.append(_UnackedEntry(
                first_psn=self.first_psn, last_psn=self.last_psn,
                kind="write", packet=None, completion=self.completion,
                is_message_tail=True, burst=self))

        folds, per_frame, self.c_unfolds = self._counters()
        folds.add()
        for counter in per_frame:
            counter.add(self.n)

        now = env.now
        env.call_at(int(self.C[-1]) - now, self._on_e1)
        env.call_at(int(self.A[-1]) - now, self._on_e2)
        env.call_at(wend - now, self._on_e3)
        if active().validate:
            self._shadow_check()

    # ------------------------------------------------------------------
    # Packet materialization (unfold/replay/validation only)
    # ------------------------------------------------------------------
    def _view(self, i: int):
        """Packet ``i``'s payload: its slice of the message view."""
        return self.view.slice(self.segments.offset(i),
                               self.segments.length(i))

    def _packet(self, i: int) -> RocePacket:
        packet = self._packets[i]
        if packet is not None:
            return packet
        seg = self.segments[i]
        qp = self.src_qp
        psn = psn_add(self.first_psn, i)
        if self.kind == "write":
            reth = Reth(vaddr=self.raddr, rkey=0,
                        dma_length=self.msg_length) \
                if seg.carries_reth else None
            tail = is_last(seg.opcode) or is_only(seg.opcode)
            bth = Bth(opcode=seg.opcode, dest_qp=qp.dest_qpn, psn=psn,
                      ack_request=tail)
            packet = RocePacket(src_ip=self.src.ip, dst_ip=qp.dest_ip,
                                bth=bth, reth=reth, payload=self._view(i))
        else:
            aeth = Aeth(syndrome=0, msn=self.msn0) \
                if carries_aeth(seg.opcode) else None
            bth = Bth(opcode=seg.opcode, dest_qp=qp.dest_qpn, psn=psn)
            packet = RocePacket(src_ip=self.src.ip, dst_ip=qp.dest_ip,
                                bth=bth, aeth=aeth, payload=self._view(i))
        self._packets[i] = packet
        return packet

    # ------------------------------------------------------------------
    # Deferred events
    # ------------------------------------------------------------------
    def _on_e1(self, _arg) -> None:
        if self.state is not _FOLDED or self.e1_done:
            return
        self.src.packets_sent.add(self.n)
        self.cable.bytes_on_wire.add(self.total_wire)
        if self.kind == "write":
            self.src.payload_bytes_sent.add(self.total)
        self._finish_tx()

    def _finish_tx(self) -> None:
        """Tail effects of the per-packet TX loop (gate + timer)."""
        self.e1_done = True
        if self.kind == "write" and not self.src_qp.in_error:
            self.src.timer.arm(self.src_qp.qpn)
        if not self.gate.triggered:
            self.gate.succeed()

    def _on_e2(self, _arg) -> None:
        if self.state is not _FOLDED:
            return
        self._deregister()
        self._path_counters()
        dst = self.dst
        dst.packets_received.add(self.n)
        dst.payload_bytes_received.add(self.total)
        if self.kind == "write":
            self._e2_write_state()
        else:
            self._e2_read_state()
        self.state = _DELIVERED

    def _path_counters(self) -> None:
        """Network-path counters for the whole message, batched at E2
        (per-packet timing of counter increments is unobservable: metric
        snapshots are only taken at run end)."""
        self.cable.frames_delivered.add(self.n)

    def _e2_write_state(self) -> None:
        """Responder jump + the coalesced ACK, at exactly the time the
        per-packet tail arrival would have produced them."""
        dst, dst_qp = self.dst, self.dst_qp
        responder = dst_qp.responder
        responder.expected_psn = psn_add(self.first_psn, self.n)
        responder.msn = (responder.msn + 1) & 0xFFFFFF
        responder.write_cursor = None
        dst._nak_pending[dst_qp.qpn] = False
        dst._send_ack(dst_qp, self.last_psn, responder.msn)

    def _e2_read_state(self) -> None:
        dst, dst_qp, ctx = self.dst, self.dst_qp, self.ctx
        ctx.next_index = self.n
        ctx.bytes_received = self.total
        dst.multiqueue.pop(dst_qp.qpn)
        dst._release_read_entry(dst_qp, ctx)

    def _on_e3(self, _arg) -> None:
        if self.state is not _DELIVERED:
            return
        self.state = _DONE
        self._clear_guards()
        # Every write-back has landed by now and nothing observed the
        # destination in between (a competing write, watch or store
        # flushes first): land the message in one commit per physical
        # run, still counted as one DMA write per packet.
        self.dst.dma._commit_write(self.base_addr, self.pieces.span(),
                                   self.view, self.total, None,
                                   count=self.n)
        if self.kind == "read":
            self.dst._finish_read(self.dst_qp, self.ctx)

    def _commit_index(self, i: int) -> None:
        self.dst.dma._commit_write(
            self.base_addr + self.segments.offset(i), self.pieces[i],
            self._view(i), self.segments.length(i), None)

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def on_hop(self, hop) -> None:
        """Slow-path activity at ``hop`` (a NIC, cable or switch): a
        frame arriving, a crash, a CC/ECN or fault-surface change.  A hop
        on our path would interleave with the analytic schedule —
        unfold; any other hop leaves it authoritative."""
        if hop in self.path:
            self.unfold()

    def on_cable_send(self, cable, side) -> None:
        """A frame wants direction ``side`` of ``cable``.  On the folded
        direction after E1 this is benign: all our frames are on the
        wire and the eager ``free_at`` equals what per-packet operation
        would show, so the newcomer queues behind bit-identically.
        Before E1 it would race our analytically scheduled
        serialization — unfold."""
        if cable is self.cable and side == self.side and not self.e1_done:
            self.unfold()

    def _dma_guard(self) -> None:
        """A competing write/watch on a guarded DMA engine."""
        if self.state is _FOLDED:
            self.unfold()
        elif self.state is _DELIVERED:
            self._flush_delivered()

    def _settle_tlb(self) -> None:
        """Charge the destination TLB for the write-back translations
        the per-packet path has made by now — one ``split_command`` per
        arrived packet (``bisect_right`` tie semantics, as at every
        unfold boundary).  Runs only while the columns are arrays."""
        k = int(self.A.searchsorted(self.env.now, "right"))
        j = self.tlb_charged
        if k <= j:
            return
        self.tlb_charged = k
        start = self.segments.offset(j)
        self.dst.tlb.charge_run(
            self.base_addr + start, self.segments.end(k - 1) - start,
            k - j, self.pieces.piece_count(j, k))

    def _deregister(self) -> None:
        # E2 (every packet arrived) or an unfold (the arrived prefix;
        # the replay translates the rest through write_posted).
        self._settle_tlb()
        tlb = self.dst.tlb
        if getattr(tlb.pending_charge, "__self__", None) is self:
            tlb.pending_charge = None
        # Only a _FOLDED flight deregisters, and it owns the slot: the
        # slot never holds a flight in any other state.
        self.env.fold = None

    def _clear_guards(self) -> None:
        # Compare via __self__: each `self._dma_guard` access builds a
        # fresh bound method, so `is` on the methods never matches.
        for dma in (self.dst.dma, self.src.dma):
            guard = dma.burst_guard
            if guard is not None \
                    and getattr(guard, "__self__", None) is self:
                dma.burst_guard = None
        for memory in (self.dst.memory, self.src.memory):
            guard = memory.store_guard
            if guard is not None \
                    and getattr(guard, "__self__", None) is self:
                memory.store_guard = None

    # ------------------------------------------------------------------
    # Retransmit-buffer expansion
    # ------------------------------------------------------------------
    def _entry_for(self, i: int):
        """The per-packet retransmit entry the send loop would have
        appended for packet ``i``."""
        from ..nic.nic import _UnackedEntry
        packet = self._packet(i)
        tail = i == self.n - 1
        return _UnackedEntry(
            first_psn=packet.bth.psn, last_psn=packet.bth.psn,
            kind="write", packet=packet,
            completion=self.completion if tail else None,
            is_message_tail=tail)

    def ensure_entries(self, upto: Optional[int] = None) -> None:
        """Replace the spanning retransmit entry with real per-packet
        entries for packets ``[0, upto)`` (idempotent; no-op once the
        entry is gone).  The per-packet loop appends packet ``i``'s
        entry at ``F[i]``, *before* its TX charge — so a mid-flight
        unfold must expand only the entries that exist at that instant
        (``bisect_right(F, now)``) and let the replay append the rest
        at their exact per-packet times; a NAK's go-back-N snapshot of
        the unacked list must never see not-yet-sent packets."""
        unacked = self.src_qp.requester.unacked
        for index, entry in enumerate(unacked):
            if entry.burst is self:
                break
        else:
            return
        count = self.n if upto is None else upto
        unacked[index:index + 1] = [self._entry_for(i)
                                    for i in range(count)]

    # ------------------------------------------------------------------
    # Unfold: hand the remainder back to the per-packet machinery
    # ------------------------------------------------------------------
    def unfold(self) -> None:
        if self.state is not _FOLDED:
            if self.state is _DELIVERED:
                self._flush_delivered()
            return
        self.state = _UNFOLDED
        env = self.env
        t = env._burst_unfold_at = env.now
        self._deregister()
        self._clear_guards()
        self._list_columns()
        self.c_unfolds.add()
        n_tx = bisect_right(self.C, t)
        n_arr = bisect_right(self.A, t)   # arrived at the NIC
        if self.kind == "write":
            self.ensure_entries(bisect_right(self.F, t))
        self._unfold_sender(t, n_tx)
        self._unfold_path(t, n_tx, n_arr)
        if n_arr:
            self._receiver_prefix(n_arr)
        self._unfold_wlane(n_arr, t)

    def _unfold_path(self, t: int, n_tx: int, n_arr: int) -> None:
        """Frames sent but not yet across the first cable: in flight on
        it (``n_arr`` of them are across)."""
        for i in range(n_arr, n_tx):
            self.env.call_at(self.A1[i] - t, self.cable._arrive,
                             (self._packet(i), self.dest))
        self.cable.frames_delivered.add(n_arr)

    def _unfold_sender(self, t: int, n_tx: int) -> None:
        """Sender-side unfold: counters for the sent prefix, wire-cursor
        rewind, and organic replay of the unsent tail."""
        if self.e1_done:
            return
        self.src.packets_sent.add(n_tx)
        self.cable.bytes_on_wire.add(sum(self.wire[:n_tx]))
        if self.kind == "write":
            # The replay path delivers through _tx_deliver, which
            # never touches payload_tx — count the full message here.
            self.src.payload_bytes_sent.add(self.total)
        if n_tx < self.n:
            self.cable._free_at[self.side] = \
                self.E1c[n_tx - 1] if n_tx else self.pre_free1
            self.env.process(_started(
                self._replay_tx(n_tx, bisect_right(self.F, t))))
        else:
            self._finish_tx()

    def _receiver_prefix(self, n_arr: int) -> None:
        """Receiver-side unfold: counters and PSN/cursor state as the
        per-packet path would have left them after ``n_arr`` arrivals."""
        dst, dst_qp, n = self.dst, self.dst_qp, self.n
        prefix_bytes = self.segments.end(n_arr - 1)
        dst.packets_received.add(n_arr)
        dst.payload_bytes_received.add(prefix_bytes)
        if self.kind == "write":
            if n_arr == n:
                self._e2_write_state()
            else:
                responder = dst_qp.responder
                responder.expected_psn = psn_add(self.first_psn, n_arr)
                responder.write_cursor = self.base_addr + prefix_bytes
                dst._nak_pending[dst_qp.qpn] = False
        else:
            self.ctx.next_index = n_arr
            self.ctx.bytes_received = prefix_bytes
            if n_arr == n:
                self._e2_read_state()

    def _unfold_wlane(self, n_arr: int, t: int) -> None:
        """Write-back lane unfold: rewind the eager suffix reservation
        and land the arrived prefix's commits at per-packet times."""
        dst, n = self.dst, self.n
        wlink = dst.dma.write_link
        if n_arr < n:
            # Rewind the eager suffix: arrivals >= n_arr will reserve
            # organically through write_posted.
            wlink._free_at = self.wend[n_arr - 1] if n_arr \
                else self.pre_wfree
            wlink.busy_time -= sum(self.dur[n_arr:])
            wlink.bytes_transferred -= self.total - (
                self.segments.end(n_arr - 1) if n_arr else 0)
        self._land_from(n_arr, t)

    def _land_from(self, count: int, t: int) -> None:
        """Land packets ``< count``' write-backs at their per-packet
        times: overdue ones now, in order, the rest as callbacks."""
        for i in range(count):
            if self.wend[i] <= t:
                self._land(i)
            else:
                self.env.call_at(self.wend[i] - t, self._land, i)

    def _land(self, i: int) -> None:
        """Packet ``i``'s write-back lands (at its per-packet time)."""
        self._commit_index(i)
        if i == self.n - 1 and self.kind == "read":
            self.dst._finish_read(self.dst_qp, self.ctx)

    def _flush_delivered(self) -> None:
        """All frames arrived, write-backs pending, and someone wants
        the destination DMA engine: convert the batched E3 into
        per-packet commits at their exact per-packet times (overdue ones
        land now, in order, before the interferer proceeds)."""
        self.state = _DONE
        self._clear_guards()
        self._list_columns()
        self._land_from(self.n, self.env.now)

    def _replay_tx(self, start: int, appended: int):
        """Deliver the not-yet-sent tail through the real TX path:
        packet ``i``'s retransmit entry lands at ``F[i]`` (where the
        per-packet loop appends it, before the TX charge) and the frame
        at its charge-completion time ``C[i]``."""
        env = self.env
        for i in range(start, self.n):
            if self.kind == "write" and i >= appended:
                if self.F[i] > env.now:
                    yield env.timeout(self.F[i] - env.now)
                self.src_qp.requester.unacked.append(self._entry_for(i))
            if self.C[i] > env.now:
                yield env.timeout(self.C[i] - env.now)
            packet = self._packet(i)
            if self.kind == "write":
                self.src._tx_deliver(packet, self.src_qp)
            else:
                self.src._tx_deliver(packet)
        self._finish_tx()

    # ------------------------------------------------------------------
    # Shadow validation
    # ------------------------------------------------------------------
    def _shadow_check(self) -> None:
        """Re-walk the schedule with the per-packet arithmetic (real
        packet objects, explicit max-chains, stepped responder clone)
        and assert bit-identity with the committed columns, each listed
        once for the comparison."""
        arrivals = self._shadow_tx()
        arrivals = self._shadow_path(arrivals)
        self._shadow_wlane(arrivals)
        if self.kind == "write":
            self._shadow_responder()

    def _shadow_tx(self) -> List[int]:
        """Per-packet re-walk of the TX pipeline and the first hop."""
        src, cable = self.src, self.cable
        streaming_time = src.config.streaming_time
        bps = cable.bits_per_second
        prop = cable.propagation + cable.extra_latency \
            + cable._receiver_delay[self.dest]
        fetch_cum = self.fetch_cum.tolist()
        c, e = self.t0, self.pre_free1
        rows = []
        for i in range(self.n):
            packet = self._packet(i)
            c = max(c, self.fetch_start + fetch_cum[i]) \
                + streaming_time(packet.l3_bytes)
            e = max(e, c + src._tx_delay) \
                + timebase.transfer_time_ps(packet.wire_bytes, bps)
            rows.append((packet.l3_bytes, packet.wire_bytes, c, e, e + prop))
        return self._assert_walk(rows, l3=self.segments.column(*self.l3),
                                 wire=self.wire, C=self.C, E1c=self.E1c,
                                 A1=self.A1)

    def _shadow_path(self, arrivals: List[int]) -> List[int]:
        """Direct cable: the first-hop arrival is the arrival."""
        return arrivals

    def _shadow_wlane(self, arrivals: List[int]) -> None:
        wlat = self.dst.config.pcie_write_latency
        we = self.pre_wfree
        rows = []
        for arrival, dur in zip(arrivals, self.dur.tolist()):
            we = max(we, arrival + wlat) + dur
            rows.append((we,))
        self._assert_walk(rows, wend=self.wend)

    def _assert_walk(self, rows, **columns) -> List[int]:
        """The shadow walk's per-packet ``rows`` equal the committed
        ``columns``, field by field; returns the last field."""
        for (name, column), walked in zip(columns.items(), zip(*rows)):
            listed = column.tolist()
            if list(walked) != listed:
                i = next(i for i, pair in enumerate(zip(walked, listed))
                         if pair[0] != pair[1])
                raise AssertionError(
                    (self.kind, name, i, walked[i], listed[i]))
        return [row[-1] for row in rows]

    def _shadow_responder(self) -> None:
        clone = self.dst_qp.responder.clone()
        cursor = None
        from .qp import PsnVerdict
        for i in range(self.n):
            packet = self._packet(i)
            assert clone.classify(packet.bth.psn) is \
                PsnVerdict.EXPECTED, (i, packet.bth.psn)
            clone.expected_psn = psn_add(packet.bth.psn, 1)
            if packet.reth is not None:
                clone.write_cursor = packet.reth.vaddr
            cursor = clone.write_cursor
            addr = self.base_addr + self.segments.offset(i)
            assert cursor == addr, (i, cursor, addr)
            clone.write_cursor = cursor + len(packet.payload)
            if i == self.n - 1:
                clone.msn = (clone.msn + 1) & 0xFFFFFF
                clone.write_cursor = None
        assert clone.expected_psn == psn_add(self.first_psn, self.n)
        assert clone.msn == ((self.msn0 + 1) & 0xFFFFFF)
        assert clone.write_cursor is None


# ----------------------------------------------------------------------
# One-switch leg
# ----------------------------------------------------------------------
class _SwitchLeg(NamedTuple):
    """Resolved path through one store-and-forward switch."""

    switch: object
    port_in: object
    port_out: object
    cable2: object
    dest2: str
    recv: object


def _resolve_switch_leg(nic, cable, dest, dest_ip) -> Optional[_SwitchLeg]:
    """When ``dest`` terminates at a switch port, resolve the clean
    two-hop path to the destination NIC, or None to refuse the fold:
    no ECN/checker/trace, both ports up and idle
    (empty queues, no in-progress forwarding or pacing window), both
    MACs already learned on the right ports."""
    port_in = cable._switch_ports.get(dest)
    if port_in is None:
        return None
    switch = port_in.switch
    if (switch.check is not None or switch.trace is not None
            or switch.ecn_marker is not None):
        return None
    if switch._mac_table.get(mac_for_ip(nic.ip)) != port_in.index:
        return None  # learn() would mutate the table mid-schedule
    out = switch._mac_table.get(mac_for_ip(dest_ip))
    if out is None or out == port_in.index:
        return None  # flood / hairpin: per-packet path
    port_out = switch.ports[out]
    if not port_in.up or not port_out.up:
        return None
    now = nic.env.now
    for port in switch.ports:
        # A frame inside any forwarding-latency window is already past
        # the ingress unfold guard and could enqueue mid-schedule.
        if port._ingress_floor > now:
            return None
    if (port_out._egress_floor > now or len(port_out.queue)
            or len(port_in.rx)):
        return None
    cable2 = port_out.cable
    if not _cable_clean(cable2):
        return None
    dest2 = "b" if port_out.side == "a" else "a"
    recv = _resolve_receiver(cable2, dest2)
    if recv is None:
        return None
    return _SwitchLeg(switch, port_in, port_out, cable2, dest2, recv)


class SwitchBurstFlight(BurstFlight):
    """A folded message crossing one store-and-forward switch.

    Adds the switch-leg columns (all integer picoseconds, mirroring
    :class:`~repro.cluster.switch.Switch` line for line):

    - ingress done (lookup + enqueue): ``I = fifo_ends(A1, fwd, 0)``
    - egress pacing end:    ``P = fifo_ends(I, tt, 0)`` with ``tt =
      transfer_time(wire)``; dequeue/send ``D = P - tt``
    - second-hop serialization: ``E2c = fifo_ends(D, tt, free2)``
    - arrival at the NIC:   ``A2 = E2c + prop2 + rx_delay``

    plus the output queue's analytic depth at each enqueue, ``i + 1 -
    min(i, searchsorted(D, I[i], 'right'))`` (the ``max_queue_depth``
    gauge the per-packet path would have set).  The switch and the
    second cable join the flight's path (any real frame picked up by any
    ingress loop unfolds it first); an unfold re-injects every stage at
    its exact per-packet time, using the port loops' busy-until floors
    to resume the pipeline mid-schedule.
    """

    __slots__ = ("switch", "port_in", "port_out", "cable2", "side2",
                 "dest2", "I", "D", "P", "E2c", "pre_free2", "depths",
                 "peak", "tt", "prop2")

    _COLUMNS = BurstFlight._COLUMNS + ("I", "D", "P", "E2c", "depths")

    def __init__(self, leg: _SwitchLeg, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.switch = leg.switch
        self.port_in = leg.port_in
        self.port_out = leg.port_out
        self.cable2 = leg.cable2
        self.side2 = leg.port_out.side
        self.dest2 = leg.dest2
        self.path += (leg.switch, leg.cable2)

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------
    def _path_bound(self, wire) -> Tuple[int, int]:
        cable2 = self.cable2
        bps2 = cable2.bits_per_second
        self.tt, tt_total = self._per_frame(
            timebase.transfer_time_ps(size, bps2) for size in wire)
        self.pre_free2 = cable2._free_at[self.side2]
        self.prop2 = cable2.propagation + cable2.extra_latency \
            + cable2._receiver_delay[self.dest2]
        fwd = self.switch.config.forwarding_latency
        return self.pre_free2, self.n * fwd + 2 * tt_total + self.prop2

    def _path(self, arrivals: np.ndarray) -> np.ndarray:
        switch, tt = self.switch, self.tt
        fwd = np.full(self.n, switch.config.forwarding_latency, np.int64)
        self.I = I = fifo_ends(arrivals, fwd, 0)
        self.P = P = fifo_ends(I, tt, 0)
        self.D = D = P - tt
        self.E2c = E2c = fifo_ends(D, tt, self.pre_free2)
        # Enqueues so far minus dequeues at-or-before (bisect_right tie
        # semantics; min() keeps our own later dequeue out).
        index = np.arange(self.n)
        self.depths = depths = index + 1 - np.minimum(
            index, D.searchsorted(I, "right"))
        self.peak = int(depths.max())
        if self.peak > switch.config.buffer_frames:
            raise RuntimeError("analytic schedule would tail-drop")
        return E2c + self.prop2

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self) -> None:
        self.cable2._free_at[self.side2] = int(self.E2c[-1])
        super().commit()

    def on_cable_send(self, cable, side) -> None:
        if cable is not self.cable2 or side != self.side2:
            super().on_cable_send(cable, side)
        elif self.env.now < int(self.D[-1]):
            # Belt-and-braces: an egress send on the second hop before
            # all our frames are out (the ingress guard normally unfolds
            # first, since any real frame must cross an ingress loop).
            self.unfold()

    def _path_counters(self) -> None:
        self.cable.frames_delivered.add(self.n)
        self.port_in.frames_in.add(self.n)
        self.switch.frames_forwarded.add(self.n)
        self.port_out.frames_out.add(self.n)
        self.cable2.bytes_on_wire.add(self.total_wire)
        self.cable2.frames_delivered.add(self.n)
        self._apply_peak(self.peak)

    def _apply_peak(self, peak: int) -> None:
        """Raise the output port's ``max_queue_depth`` high-water mark to
        ``peak``, the deepest queue a run of the enqueues produced."""
        port = self.port_out
        if peak > port._max_depth:
            port._max_depth = peak
            port.max_depth_gauge.set(peak)

    # ------------------------------------------------------------------
    # Unfold
    # ------------------------------------------------------------------
    def _unfold_path(self, t: int, n_tx: int, n_arr: int) -> None:
        env, cable2 = self.env, self.cable2
        n_a1 = bisect_right(self.A1, t)   # arrived at the switch
        n_fwd = bisect_right(self.I, t)   # through lookup, enqueued
        n_out = bisect_right(self.D, t)   # sent on the second hop
        # In flight on the first hop: organic arrival into the port's rx
        # stream (the real ingress loop takes over from there).
        super()._unfold_path(t, n_tx, n_a1)
        if n_a1:
            self.port_in.frames_in.add(n_a1)
            # Ingress is busy until the last picked-up frame's lookup
            # completes; replayed arrivals must queue behind it.
            self.port_in._ingress_floor = self.I[n_a1 - 1]
        if n_fwd:
            self.switch.frames_forwarded.add(n_fwd)
            self._apply_peak(max(self.depths[:n_fwd]))
        # Mid-lookup frames: synthetic enqueue at the exact time the
        # forwarding-latency window ends.
        for i in range(n_fwd, n_a1):
            env.call_at(self.I[i] - t, self._synthetic_enqueue, i)
        # Enqueued but not yet sent: back into the real output queue (in
        # order, ahead of any later enqueue), with the egress pacing
        # floor so the drain resumes at the analytic times.
        for i in range(n_out, n_fwd):
            self.port_out.queue.try_put(self._packet(i))
        if n_out:
            self.port_out.frames_out.add(n_out)
            cable2.bytes_on_wire.add(sum(self.wire[:n_out]))
            self.port_out._egress_floor = self.P[n_out - 1]
            cable2._free_at[self.side2] = self.E2c[n_out - 1]
        else:
            cable2._free_at[self.side2] = self.pre_free2
        # In flight on the second hop.
        for i in range(n_arr, n_out):
            env.call_at(self.A[i] - t, cable2._arrive,
                        (self._packet(i), self.dest2))
        cable2.frames_delivered.add(n_arr)

    def _synthetic_enqueue(self, i: int) -> None:
        """The tail of one ingress-loop iteration (lookup done ->
        enqueue), replayed for a frame whose forwarding-latency window
        straddled the unfold."""
        port = self.port_out
        self.switch.frames_forwarded.add()
        depth = len(port.queue)
        if not port.queue.try_put(self._packet(i)):
            port.tail_drops.add()
            self.switch.frames_dropped.add()
            return
        depth += 1
        if depth > port._max_depth:
            port._max_depth = depth
            port.max_depth_gauge.set(depth)

    # ------------------------------------------------------------------
    # Shadow validation
    # ------------------------------------------------------------------
    def _shadow_path(self, arrivals: List[int]) -> List[int]:
        switch, cable2 = self.switch, self.cable2
        fwd = switch.config.forwarding_latency
        bps2 = cable2.bits_per_second
        prop2 = cable2.propagation + cable2.extra_latency \
            + cable2._receiver_delay[self.dest2]
        done = p = 0
        e = self.pre_free2
        rows = []
        for i in range(self.n):
            tt = timebase.transfer_time_ps(self._packet(i).wire_bytes, bps2)
            done = max(arrivals[i], done) + fwd
            d = max(done, p)
            p = d + tt
            e = max(e, d) + tt
            rows.append((done, d, p, e, e + prop2))
        return self._assert_walk(rows, I=self.I, D=self.D, P=self.P,
                                 E2c=self.E2c, A=self.A)


# ----------------------------------------------------------------------
# Fold entry points (called by the NIC with the gates' cheap half done)
# ----------------------------------------------------------------------
def _resolve_path(nic, dest_ip):
    """The clean path from ``nic`` toward ``dest_ip``: ``(recv, leg)``
    where ``leg`` is None for a direct cable or a :class:`_SwitchLeg`
    for a one-switch hop; None to refuse the fold."""
    cable = nic._cable
    if not _cable_clean(cable):
        return None
    dest = "b" if nic._cable_side == "a" else "a"
    recv = _resolve_receiver(cable, dest)
    leg = None
    if recv is None:
        leg = _resolve_switch_leg(nic, cable, dest, dest_ip)
        if leg is None:
            return None
        recv = leg.recv
    if recv is nic or not _receiver_clean(recv):
        return None
    return recv, leg


def _make_flight(leg, *args, **kwargs) -> BurstFlight:
    if leg is None:
        return BurstFlight(*args, **kwargs)
    return SwitchBurstFlight(leg, *args, **kwargs)


def _unfolded_now(env) -> bool:
    """Some flight unfolded at this very picosecond.  Its replay races
    any fold committed now into the shared hops, and the guards would
    meet the race only at a same-picosecond tie (the documented
    approximation) — so the competitor whose post caused the unfold
    sends per-packet, like the replay it races."""
    return getattr(env, "_burst_unfold_at", None) == env.now


def try_fold_write(nic, command, qp, segments, first_psn, fetch,
                   gate) -> bool:
    """Attempt to fold one requester WRITE; True = folded (the caller's
    per-packet loop must not run)."""
    if not active().fold or _unfolded_now(nic.env):
        return False
    if segments is None or len(segments) < FOLD_MIN_PACKETS:
        return False
    from ..nic.dma import FetchPlan
    if not isinstance(fetch, FetchPlan):
        return False
    if not _sender_clean(nic, qp):
        return False
    if qp.requester.unacked or nic.timer.attempts(qp.qpn) \
            or nic.timer.is_armed(qp.qpn):
        return False
    path = _resolve_path(nic, qp.dest_ip)
    if path is None:
        return False
    recv, leg = path
    if qp.dest_qpn not in recv.qps:
        return False
    rqp = recv.qps.get(qp.dest_qpn)
    if (rqp.in_error or rqp.dest_qpn != qp.qpn
            or rqp.dest_ip != nic.ip or qp.dest_ip != recv.ip):
        return False
    responder = rqp.responder
    if responder.expected_psn != first_psn \
            or responder.write_cursor is not None:
        return False
    if not recv._tx_gate.triggered or not recv._resp_gate.triggered:
        return False

    flight = _make_flight(
        leg, "write", nic, recv, qp, rqp, segments, first_psn, fetch,
        gate, base_addr=command.raddr, raddr=command.raddr,
        msg_length=command.length, completion=command.completion,
        ctx=None)
    try:
        flight.compute_schedule()
    except Exception:
        return False  # e.g. unmapped destination page: per-packet path
    # The timer arms at C[-1] with the base timeout; it must not expire
    # while the schedule is still authoritative (before E2).
    if int(flight.C[-1]) + nic.timer.timeout <= int(flight.A[-1]):
        return False
    flight.commit()
    return True


def try_fold_read(nic, qp, packet, segments, fetch, gate) -> bool:
    """Attempt to fold one responder READ-response stream; True =
    folded (the caller's per-packet serve loop must not run)."""
    if not active().fold or _unfolded_now(nic.env):
        return False
    if len(segments) < FOLD_MIN_PACKETS:
        return False
    from ..nic.dma import FetchPlan
    if not isinstance(fetch, FetchPlan):
        return False
    if not _sender_clean(nic, qp):
        return False
    if nic.dma.burst_guard is not None:
        return False
    path = _resolve_path(nic, qp.dest_ip)
    if path is None:
        return False
    recv, leg = path
    if qp.dest_qpn not in recv.qps:
        return False
    rqp = recv.qps.get(qp.dest_qpn)
    if (rqp.in_error or rqp.dest_qpn != qp.qpn
            or rqp.dest_ip != nic.ip or qp.dest_ip != recv.ip):
        return False
    if recv.multiqueue.is_empty(rqp.qpn):
        return False
    ctx = recv.multiqueue.peek(rqp.qpn)
    if (ctx.first_psn != packet.bth.psn or ctx.next_index != 0
            or ctx.bytes_received != 0
            or ctx.packet_count != len(segments)
            or ctx.span is not None):
        return False
    # Conservative: every outstanding requester entry must be a READ so
    # no WRITE tail is waiting on an ACK that would interleave.
    if any(e.kind != "read" for e in rqp.requester.unacked):
        return False
    if recv.timer.attempts(rqp.qpn):
        return False

    flight = _make_flight(
        leg, "read", nic, recv, qp, rqp, segments, packet.bth.psn,
        fetch, gate, base_addr=ctx.laddr, raddr=0,
        msg_length=packet.reth.dma_length, completion=None, ctx=ctx)
    try:
        flight.compute_schedule()
    except Exception:
        return False
    # The requester's retransmission timer (armed when the READ request
    # went out) must not fire while the response schedule is in flight.
    deadline = recv.timer.deadline(rqp.qpn)
    if deadline is None or deadline <= int(flight.wend[-1]):
        return False
    flight.commit()
    return True
