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
a numpy prefix-max scan over per-size constants
(:func:`~repro.sim.resources.fifo_ends`), held relative to ``t0`` in a
:class:`_Schedule` with each column's last entry and the totals.  The
commit, the deadline check and E1–E3 read only those scalars; a column
becomes the flight's (:meth:`BurstFlight._columns`) only for what reads
a per-packet entry — an unfold or a flush (which lists it), a TLB settle
before E2, the validation walk — and one bound from scalars refuses a
schedule that could reach :data:`COLUMN_LIMIT_PS` before any is built.
The destination TLB is charged lazily for the write-back translations
(:attr:`~repro.nic.tlb.Tlb.pending_charge`): by E2 all of them, at an
unfold only the arrived prefix (the replay translates the rest itself).

A message repeated on an idle path costs O(1) Python work apart from
its payload commit: each stage is a FIFO server (below) whose floor,
when it does not bind, drops out of the recurrence, so equal inputs
relative to ``t0`` give equal columns relative to ``t0``.  The
simulator keeps each path's last schedule computed with no floor
binding (:attr:`Simulator.fold_schedules`, one per path); a flight
takes it, with its own ``t0``, when its key matches (flight class and
kind, the segments' shape, destination ``base_addr`` and TLB epoch, the
fetch's start after ``t0``, per-size occupancies and straddle patches,
the TX latency and the cables' arrival delays) and no live floor binds
at the new ``t0`` (the wire and write-back lanes' cursors, and on a
switch leg the ports' ingress and egress floors and the second lane's
cursor).  A reuse still checks the scalar bound and records the lanes'
pre-reservation cursors; it computes no column and shifts none unless
something reads one, and the shared arrays are read-only.

The analytic schedule (integer picoseconds) is composed from the hops'
own timing, the definitions the per-packet path runs.  Each stage is a
FIFO server, ``end[i] = max(end[i-1], start[i]) + dur[i]``, and a
lane's :meth:`~repro.sim.BandwidthLink.ends` is its column form:

- TX charge done:  ``C = fifo_ends(fetch ready, streaming_time(l3),
  t0)``; loop resume ``F = C - streaming_time(l3)``
- first wire:      ``E1c = lane.ends(C + tx latency, frame_time(wire))``
  on the cable's lane; arrival ``A = E1c + arrival_delay``
- write-back slot: ``wend = write_link.ends(A + pcie_write_latency,
  dur)`` (:meth:`~repro.nic.dma.DmaEngine.write_column`)

Packets, retransmit entries and the receiver's state after ``k``
arrivals come from the NICs' own code (``message_packet``,
``response_packet``, ``write_arrived``, ``read_arrived``).

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
boundary is handed back to the lanes.  One documented approximation:
an external trigger landing at *exactly* the same picosecond as a
column entry treats that entry as already-elapsed (``bisect_right`` tie
semantics), where the per-packet interleaving at that instant would
depend on event ids.

Folding is on by default; the gates above choose the per-packet path.
Under ``REPRO_VALIDATE`` (the run-mode table in :mod:`repro.runmode`
and README) every reused schedule is recomputed and compared column by
column, and every committed schedule is re-walked packet by packet
through the hops' per-frame functions and asserted bit-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from typing import List, Optional, Tuple

import numpy as np

from ..config import wire_bytes_for_frame
# nic.nic imports this module, so StromNic is read through the module
# object at call time.
from ..nic import nic as _nic
from ..nic.dma import FetchPlan
from ..runmode import active
from ..sim.resources import COLUMN_LIMIT_PS, fifo_ends
from .packetizer import l3_sizes
from .qp import PsnVerdict, UnackedEntry, psn_add

_EXPECTED = PsnVerdict.EXPECTED

#: Messages shorter than this many packets are not worth folding: the
#: fixed commit cost (column computation + shadow walk) outweighs the
#: saved events.
FOLD_MIN_PACKETS = 4

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


#: A cable's far side.
_OTHER = {"a": "b", "b": "a"}


# ----------------------------------------------------------------------
# Fold gates
# ----------------------------------------------------------------------
def _quiet(nic) -> bool:
    """No slow-path feature on a NIC of the path.  An observer slot
    (trace, gauge sampling or monitors) watches every packet edge, so it
    refuses.  So does a CC plane: its token-bucket pacer debits
    per-packet wire bytes and its DCQCN machines sample per-packet
    arrivals even while a QP is unthrottled, so a fold would skip that
    bookkeeping and diverge the moment any QP on the NIC gets its first
    CNP (enabling CC mid-flight unfolds)."""
    return (nic.powered and nic.cc is None and nic.obs is None
            and not nic.config.per_word_accounting
            and nic.memory.store_guard is None)


def _resolve_path(nic, qp):
    """The clean path from ``nic`` to ``qp``'s peer QP: ``(cable, side,
    recv, rqp, leg)`` where ``leg`` is None for a direct cable, or the
    switch's input and output ports when the cable ends at a switch that
    names a clean route onward over a fault-free cable to a NIC; None
    refuses the fold."""
    StromNic = _nic.StromNic
    cable, side = nic._cable, nic._cable_side
    if cable is None or not cable.fault_free():
        return None
    recv = port_in = cable.endpoint(_OTHER[side])
    leg = None
    if port_in is not None and not isinstance(port_in, StromNic):
        port_out = port_in.switch.clean_route(port_in, nic.ip, qp.dest_ip,
                                              nic.env.now)
        if port_out is None or not port_out.cable.fault_free():
            return None
        leg = port_in, port_out
        recv = port_out.cable.endpoint(_OTHER[port_out.side])
    # The receiver: quiet, its DMA engine unguarded and unwatched.
    if (not isinstance(recv, StromNic) or recv is nic or not _quiet(recv)
            or recv.dma.burst_guard is not None or recv.dma._watches):
        return None
    try:
        rqp = recv.qps.get(qp.dest_qpn)
    except KeyError:
        return None
    if (rqp.in_error or rqp.dest_qpn != qp.qpn
            or rqp.dest_ip != nic.ip or qp.dest_ip != recv.ip):
        return None
    return cable, side, recv, rqp, leg


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
        "wend", "serialize", "serialize_total", "lane", "wlane",
        "pre_free1", "pre_wfree", "fetch", "tx_latency",
        "base_addr", "command", "msn0", "ctx", "state", "e1_done",
        "_packets", "c_unfolds", "path", "sched", "expanded",
    )

    #: The int64 schedule columns, listed once by an unfold or a flush.
    _COLUMNS = ("F", "C", "E1c", "A1", "A", "wend", "wire", "serialize",
                "dur")
    #: What :meth:`compute_schedule` sets, by how a flight that took a
    #: :class:`_Schedule` gets it back when something reads it
    #: (:meth:`_columns`): as it is, or (the time columns) plus ``t0``.
    _SHARED = ("l3", "wire", "total_wire", "serialize", "serialize_total",
               "tx_latency", "pieces", "dur", "dur_total")
    _TIMED = ("F", "C", "E1c", "A1", "A", "wend")

    def __init__(self, src, dst, src_qp, dst_qp, cable, side, segments,
                 first_psn, fetch, gate, command, ctx) -> None:
        self.env = src.env
        self.kind = "read" if command is None else "write"
        self.src = src                   # sending NIC
        self.dst = dst                   # receiving NIC
        self.src_qp = src_qp             # QP at src (names dest_qpn/ip)
        self.dst_qp = dst_qp             # QP at dst (peer state)
        self.cable = cable
        self.side = side
        self.dest = _OTHER[side]
        #: The hops whose slow-path activity unfolds this flight.
        self.path = (src, dst, cable)
        self.segments = segments
        self.first_psn = first_psn
        self.n = len(segments)
        self.last_psn = psn_add(first_psn, self.n - 1)
        self.t0 = self.env.now
        self.gate = gate
        self.command = command           # the WRITE (None for a READ)
        self.ctx = ctx                   # READ: requester _ReadContext
        # Destination vaddr of packet 0.
        self.base_addr = ctx.laddr if command is None else command.raddr
        self.msn0 = dst_qp.responder.msn if command is not None \
            else src_qp.responder.msn
        self.fetch = fetch
        # The first cable's lane and the destination write-back lane
        # (receiver's card->host PCIe).
        self.lane, self.wlane = cable.lane(side), dst.dma.write_link
        self.state = _FOLDED
        self.e1_done = False
        #: Each packet and retransmit entry, once built (a list only
        #: after the first is).
        self._packets: Optional[List[Optional[tuple]]] = None
        self.c_unfolds = None
        # One view of the whole source buffer (zero copy end to end);
        # packet i's payload is its slice, built only when needed.
        self.view = fetch.message_view()
        self.tlb_charged = 0
        self.total = segments.total

    # ------------------------------------------------------------------
    # The schedule (the flight's own state only; raises to refuse)
    # ------------------------------------------------------------------
    def schedule(self) -> bool:
        """Take a schedule (:attr:`sched`): the path's memo when this
        flight's inputs match it and no floor binds at ``t0`` (True), or
        else :meth:`compute_schedule`'s, memoized when no floor bound.

        Every stage is a max-plus recurrence over ``t0``, the fetch's
        ready times and the hops' per-size constants; a floor that does
        not bind drops out of it, so equal inputs relative to ``t0`` give
        the same columns relative to ``t0``."""
        memos = self.env.fold_schedules
        memo = memos.get(self.path)
        floors = self._floors()
        if memo is not None and memo.key == self._key() \
                and memo.fits(floors, self.t0):
            self._check_bound(*memo.bound, floors)
            self.sched, self.expanded = memo, False
            return True
        memo = self.compute_schedule()
        if memo.fits(floors, self.t0):
            memos[self.path] = memo
        return False

    def _columns(self) -> None:
        """Set the attributes :meth:`compute_schedule` sets, on a flight
        that took a memo: its values, the time columns shifted to
        ``t0``.  Only what reads per-packet entries calls this (an
        unfold, a flush, a TLB settle before E2, the oracles); the
        commit and E1–E3 read :attr:`sched`'s scalars."""
        if not self.expanded:
            self.expanded = True
            sched = self.sched
            for name, value in sched.shared.items():
                setattr(self, name, value)
            for name, column in zip(self._TIMED, sched.timed + self.t0):
                setattr(self, name, column)

    def _end(self, name: str) -> int:
        """The last entry of time column ``name``."""
        return self.t0 + self.sched.last[name]

    def _value(self, name: str):
        """The schedule's time-independent value ``name`` (a total, the
        write-back pieces)."""
        return self.sched.shared[name]

    def _key(self) -> tuple:
        """Everything the columns less ``t0`` are a function of, beyond
        the path's fixed rates and latencies and its floors: the flight
        class and kind, the segments, the destination's virtual base and
        TLB epoch (the pieces hold physical addresses), the fetch, the TX
        latency and the cable's arrival delay."""
        return (type(self), self.kind, self.segments.shape(),
                self.base_addr, self.dst.tlb.epoch,
                self.fetch.shape(self.t0), self.src._tx_delay,
                self.cable.arrival_delay(self.dest))

    def _floors(self) -> Tuple[int, ...]:
        """The live floors a schedule starts from, beyond ``t0``: the
        wire lane's and the write-back lane's cursors, recorded (an
        unfold rewinds the lanes to them)."""
        self.pre_free1 = self.lane.free_at
        self.pre_wfree = self.wlane.free_at
        return self.pre_free1, self.pre_wfree

    def _firsts(self) -> Tuple[int, ...]:
        """The first start of each stage :meth:`_floors` floors."""
        return (int(self.C[0]) + self.tx_latency,
                int(self.A[0]) + self.dst.config.pcie_write_latency)

    def compute_schedule(self) -> "_Schedule":
        """Every column, from the hops' per-frame constants evaluated
        once per distinct frame size, and the flight's :attr:`sched`
        from them (returned).  No entry can exceed the latest floor or
        fetch-ready time plus every stage's summed durations and fixed
        latencies: that bound, from scalars (its operands: the last
        fetch-ready time after ``t0`` and the summed spans), refuses a
        schedule that could reach :data:`COLUMN_LIMIT_PS` before any
        column is built."""
        src, cable, dst = self.src, self.cable, self.dst
        self.l3 = l3 = l3_sizes(self.segments,
                                response=self.kind == "read")
        wire = tuple(map(wire_bytes_for_frame, l3))
        self.wire, self.total_wire = self._per_frame(wire)
        charge, charge_total = self._per_frame(
            map(src.config.streaming_time, l3))
        self.serialize, self.serialize_total = self._per_frame(
            map(cable.frame_time, wire))
        arrival = cable.arrival_delay(self.dest)
        self.tx_latency = tx = src._tx_delay
        # Pure lookups: the TLB is charged as the packets arrive
        # (_settle_tlb), where per-packet write_posted translates.
        self.pieces, self.dur = dst.dma.write_column(self.base_addr,
                                                     self.segments)
        self.dur_total = int(self.dur.sum())
        wlat = dst.config.pcie_write_latency
        fetch_ready = self.fetch.ready_column()
        bound = (int(fetch_ready[-1]) - self.t0,
                 charge_total + tx + self.serialize_total + arrival
                 + self._path_span(wire) + wlat + self.dur_total)
        self._check_bound(*bound, self._floors())

        self.C = C = fifo_ends(fetch_ready, charge, self.t0)
        self.F = C - charge
        self.E1c = self.lane.ends(C + tx, self.serialize)
        self.A1 = self.E1c + arrival
        self.A = A = self._path(self.A1)
        # Chained in arrival order.
        self.wend = self.wlane.ends(A + wlat, self.dur)
        self.expanded = True
        self.sched = _Schedule(self, bound)
        return self.sched

    def _check_bound(self, ready: int, span: int, floors) -> None:
        """Refuse a schedule whose bound (from ``floors``) reaches
        :data:`COLUMN_LIMIT_PS`."""
        t0 = self.t0
        if max(t0, t0 + ready, *floors) + span >= COLUMN_LIMIT_PS:
            raise OverflowError("schedule exceeds the int64 column range")

    def check_reuse(self) -> None:
        """The memo's oracle (validation mode): recompute a reused
        schedule and assert it equal to the reused one, value by value
        and column by column; the flight keeps the reused one."""
        memo = self.sched
        fresh = self.compute_schedule()
        names = ("bound",) + self._SHARED + self._TIMED
        for name, value, reused in zip(names, fresh.values(),
                                       memo.values()):
            if isinstance(value, np.ndarray):
                same = np.array_equal(value, reused)
            elif isinstance(value, (int, tuple)):
                same = value == reused
            else:   # the write-back pieces, chunk by chunk
                same = list(value) == list(reused)
            assert same, (self.kind, "reused", name)
        self.sched, self.expanded = memo, False

    def _per_frame(self, values) -> Tuple[np.ndarray, int]:
        """A per-frame constant as an int64 column, from its first,
        middle and last values, and the column's sum."""
        first, middle, last = values
        return (self.segments.column(first, middle, last),
                first + middle * (self.n - 2) + last)

    def _path_span(self, wire) -> int:
        """Summed durations of the hops beyond the first cable, for the
        schedule bound (a direct cable has none)."""
        return 0

    def _path(self, arrivals: np.ndarray) -> np.ndarray:
        """Arrival times at the receiving NIC from those at the first
        cable's far side (direct cable: the same)."""
        return arrivals

    def _list_columns(self) -> None:
        """Lists for the per-packet work of an unfold or a flush."""
        self._columns()
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
        if active().validate:
            self._shadow_check()
        src, dst = self.src, self.dst
        self._reserve()
        env.fold = self
        dst.dma.burst_guard = guard = self._dma_guard
        if self.kind == "read":
            # Served views are stable=False: a responder-local DMA write
            # racing the stream must unfold so commits keep per-packet
            # memory ordering.
            src.dma.burst_guard = guard
        # Raw host stores deref nothing until a commit reads the source
        # (or lands in the destination) — per-packet that happens at
        # each wend[i], so a mid-flight store to either memory must
        # first push the flight back to per-packet commit times.
        src.memory.store_guard = dst.memory.store_guard = guard
        dst.tlb.pending_charge = self._settle_tlb

        if self.kind == "write":
            # The entry points at the flight, never back: a finished
            # flight is freed by reference counting, not the cycle GC.
            self.src_qp.requester.unacked.append(UnackedEntry(
                first_psn=self.first_psn, last_psn=self.last_psn,
                kind="write", packet=None,
                completion=self.command.completion,
                is_message_tail=True, burst=self))

        folds, per_frame, self.c_unfolds = self._counters()
        folds.add()
        for counter in per_frame:
            counter.add(self.n)

        delay, last = self.t0 - env.now, self.sched.last
        env.call_at(delay + last["C"], self._on_e1)
        env.call_at(delay + last["A"], self._on_e2)
        env.call_at(delay + last["wend"], self._on_e3)

    def _reserve(self) -> None:
        """Eager lane reservations: interferers queue behind the whole
        burst (or unfold it first, which hands the suffix back)."""
        self.lane.move_cursor(self._end("E1c"),
                              self._value("serialize_total"))
        self.wlane.move_cursor(self._end("wend"), self._value("dur_total"),
                               self.total)

    @staticmethod
    def _rewind(lane, ends, durations, k: int, floor: int,
                num_bytes: int = 0) -> None:
        """Hand a lane's reserved run back past its first ``k`` jobs (the
        cursor returns to the last kept end, or ``floor``)."""
        lane.move_cursor(ends[k - 1] if k else floor, -sum(durations[k:]),
                         -num_bytes)

    # ------------------------------------------------------------------
    # Packet materialization (unfold/replay/validation only)
    # ------------------------------------------------------------------
    def _view(self, i: int):
        """Packet ``i``'s payload: its slice of the message view."""
        return self.view.slice(self.segments.offset(i),
                               self.segments.length(i))

    def _built(self, i: int) -> tuple:
        """Packet ``i`` and (WRITE) its retransmit entry, built once by
        the sending NIC's own code."""
        packets = self._packets
        if packets is None:
            packets = self._packets = [None] * self.n
        built = packets[i]
        if built is None:
            seg, psn = self.segments[i], psn_add(self.first_psn, i)
            if self.kind == "write":
                built = self.src.message_packet(
                    self.command, self.src_qp, seg, psn, self._view(i))
            else:
                built = (self.src.response_packet(
                    self.src_qp, seg, psn, self.msn0, self._view(i)), None)
            packets[i] = built
        return built

    def _packet(self, i: int):
        return self._built(i)[0]

    # ------------------------------------------------------------------
    # Deferred events
    # ------------------------------------------------------------------
    def _on_e1(self, _arg) -> None:
        if self.state is not _FOLDED or self.e1_done:
            return
        self.src.packets_sent.add(self.n)
        self.cable.bytes_on_wire.add(self._value("total_wire"))
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
        self._deregister(self.n)
        self._path_counters()
        self._arrived(self.n)
        self.state = _DELIVERED

    def _path_counters(self) -> None:
        """Network-path counters for the whole message, batched at E2
        (per-packet timing of counter increments is unobservable: metric
        snapshots are only taken at run end)."""
        self.cable.frames_delivered.add(self.n)

    def _arrived(self, k: int) -> None:
        """The receiver as the per-packet path leaves it after ``k``
        arrivals: its counters, then the NIC's own state step (for a
        WRITE tail the responder's coalesced ACK, at exactly the time
        the per-packet tail arrival would have sent it)."""
        dst = self.dst
        received = self.segments.end(k - 1)
        dst.packets_received.add(k)
        dst.payload_bytes_received.add(received)
        if self.kind == "write":
            dst.write_arrived(self.dst_qp, psn_add(self.first_psn, k - 1),
                              self.base_addr + received, k == self.n)
        else:
            dst.read_arrived(self.dst_qp, self.ctx, k, received)

    def _on_e3(self, _arg) -> None:
        if self.state is not _DELIVERED:
            return
        self.state = _DONE
        self._clear_guards()
        # Every write-back has landed by now and nothing observed the
        # destination in between (a competing write, watch or store
        # flushes first): land the message in one commit per physical
        # run, still counted as one DMA write per packet.
        self._commit(self.base_addr, self._value("pieces").span(), self.view,
                     self.total, self.n)
        self._landed()

    def _commit(self, vaddr, pieces, view, length, count=1) -> None:
        self.dst.dma._commit_write(vaddr, pieces, view, length, None,
                                   count=count)

    def _landed(self) -> None:
        """The last write-back landed: a READ completes."""
        if self.kind == "read":
            self.dst._finish_read(self.dst_qp, self.ctx)

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

    def _settle_tlb(self, k: Optional[int] = None) -> None:
        """Charge the destination TLB for the write-back translations
        the per-packet path has made after ``k`` arrivals — one
        ``split_command`` per packet; by default those arrived by now
        (``bisect_right`` tie semantics, as at every unfold boundary)."""
        if k is None:
            self._columns()
            k = bisect_right(self.A, self.env.now)
        j = self.tlb_charged
        if k <= j:
            return
        self.tlb_charged = k
        start = self.segments.offset(j)
        self.dst.tlb.charge_run(
            self.base_addr + start, self.segments.end(k - 1) - start,
            k - j, self._value("pieces").piece_count(j, k))

    def _deregister(self, arrived: int) -> None:
        # E2 (every packet arrived) or an unfold (the arrived prefix;
        # the replay translates the rest through write_posted).
        self._settle_tlb(arrived)
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
        unacked[index:index + 1] = [self._built(i)[1]
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
        self._list_columns()
        n_tx = bisect_right(self.C, t)
        n_arr = bisect_right(self.A, t)   # arrived at the NIC
        self._deregister(n_arr)
        self._clear_guards()
        self.c_unfolds.add()
        if self.kind == "write":
            self.ensure_entries(bisect_right(self.F, t))
        self._unfold_sender(t, n_tx)
        self._unfold_path(t, n_tx, n_arr)
        if n_arr:
            self._arrived(n_arr)
        self._unfold_wlane(n_arr, t)

    def _unfold_path(self, t: int, n_tx: int, n_arr: int) -> None:
        """Frames sent but not yet across the first cable: in flight on
        it (``n_arr`` of them are across)."""
        self._in_flight(self.cable, self.dest, self.A1, n_arr, n_tx, t)
        self.cable.frames_delivered.add(n_arr)

    def _in_flight(self, cable, dest, arrivals, lo, hi, t) -> None:
        """Frames ``lo..hi-1`` on ``cable``'s wire reach ``dest`` at
        ``arrivals[i]``, as their per-packet sends scheduled them."""
        for i in range(lo, hi):
            self.env.call_at(arrivals[i] - t, cable._arrive,
                             (self._packet(i), dest))

    def _unfold_sender(self, t: int, n_tx: int) -> None:
        """Sender-side unfold: counters for the sent prefix, wire-lane
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
            self._rewind(self.lane, self.E1c, self.serialize, n_tx,
                         self.pre_free1)
            self.env.process(_started(
                self._replay_tx(n_tx, bisect_right(self.F, t))))
        else:
            self._finish_tx()

    def _unfold_wlane(self, n_arr: int, t: int) -> None:
        """Write-back lane unfold: hand back the eager suffix reservation
        (arrivals >= n_arr reserve organically through write_posted)
        and land the arrived prefix's commits at per-packet times."""
        if n_arr < self.n:
            self._rewind(self.wlane, self.wend, self.dur, n_arr,
                         self.pre_wfree, self.total - (
                             self.segments.end(n_arr - 1) if n_arr else 0))
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
        self._commit(self.base_addr + self.segments.offset(i),
                     self.pieces[i], self._view(i), self.segments.length(i))
        if i == self.n - 1:
            self._landed()

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
        qp = self.src_qp if self.kind == "write" else None
        for i in range(start, self.n):
            if qp is not None and i >= appended:
                if self.F[i] > env.now:
                    yield env.timeout(self.F[i] - env.now)
                qp.requester.unacked.append(self._built(i)[1])
            if self.C[i] > env.now:
                yield env.timeout(self.C[i] - env.now)
            self.src._tx_deliver(self._packet(i), qp)
        self._finish_tx()

    # ------------------------------------------------------------------
    # Shadow validation
    # ------------------------------------------------------------------
    def _shadow_check(self) -> None:
        """Re-walk the schedule packet by packet through the hops' own
        per-frame functions — real packets, the TX charge, copies of the
        lanes stepped by ``reserve_after``, the cables' frame time and
        arrival delay — and assert bit-identity with the columns, each
        listed once for the comparison.  Runs before the commit's
        reservations, so the lane copies start at the schedule's
        floors."""
        self._columns()
        arrivals = self._shadow_tx()
        arrivals = self._shadow_path(arrivals)
        self._shadow_wlane(arrivals)
        if self.kind == "write":
            self._shadow_responder()

    def _shadow_tx(self) -> List[int]:
        """The TX pipeline and the first hop, per packet."""
        cable, lane = self.cable, copy(self.lane)
        streaming_time = self.src.config.streaming_time
        arrival = cable.arrival_delay(self.dest)
        c, rows = self.t0, []
        for i, ready in enumerate(self.fetch.ready_column().tolist()):
            packet = self._packet(i)
            c = max(c, ready) + streaming_time(packet.l3_bytes)
            serialize = cable.frame_time(packet.wire_bytes)
            e = lane.reserve_after(c + self.tx_latency, serialize) \
                + serialize
            rows.append((packet.l3_bytes, packet.wire_bytes, c, e,
                         e + arrival))
        return self._assert_walk(rows, l3=self.segments.column(*self.l3),
                                 wire=self.wire, C=self.C, E1c=self.E1c,
                                 A1=self.A1)

    def _shadow_path(self, arrivals: List[int]) -> List[int]:
        """Direct cable: the first-hop arrival is the arrival."""
        return arrivals

    def _shadow_wlane(self, arrivals: List[int]) -> None:
        wlat = self.dst.config.pcie_write_latency
        wlane = copy(self.wlane)
        rows = [(wlane.reserve_after(arrival + wlat, dur) + dur,)
                for arrival, dur in zip(arrivals, self.dur.tolist())]
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
        """Step a clone of the responder's PSN state through the real
        packets: each is in order and lands where the fold commits it."""
        clone = self.dst_qp.responder.clone()
        cursor = None
        for i in range(self.n):
            packet = self._packet(i)
            assert clone.classify(packet.bth.psn) is _EXPECTED, \
                (i, packet.bth.psn)
            clone.expected_psn = psn_add(packet.bth.psn, 1)
            if packet.reth is not None:
                cursor = packet.reth.vaddr
            addr = self.base_addr + self.segments.offset(i)
            assert cursor == addr, (i, cursor, addr)
            cursor += len(packet.payload)
        assert clone.expected_psn == psn_add(self.first_psn, self.n)


# ----------------------------------------------------------------------
# One-switch leg
# ----------------------------------------------------------------------
class SwitchBurstFlight(BurstFlight):
    """A folded message crossing one store-and-forward switch.

    Adds the switch-leg columns, from the switch's own column form
    (:meth:`~repro.cluster.switch.Switch.forward_columns`: ingress done
    ``I``, dequeue ``D``, pacing end ``P`` and the output queue's depth
    at each enqueue — the ``max_queue_depth`` gauge the per-packet path
    would have set) and the second cable's lane: serialization ``E2c =
    lane2.ends(D, frame_time(wire))`` and arrival ``A = E2c +
    arrival_delay``.  The switch and the second cable join the flight's
    path (any real frame picked up by any ingress server unfolds it
    first); an unfold re-injects every stage at its exact per-packet
    time, holding the ports' servers until the replayed pipeline
    clears (:meth:`~repro.cluster.switch.SwitchPort.hold`).
    """

    __slots__ = ("switch", "port_in", "port_out", "cable2", "side2",
                 "dest2", "I", "D", "P", "E2c", "pre_free2", "depths",
                 "peak", "tt", "tt_total", "lane2", "arrival2")

    _COLUMNS = BurstFlight._COLUMNS + ("I", "D", "P", "E2c", "depths",
                                       "tt")
    _SHARED = BurstFlight._SHARED + ("tt", "tt_total", "arrival2",
                                     "depths", "peak")
    _TIMED = BurstFlight._TIMED + ("I", "D", "P", "E2c")

    def __init__(self, leg, *args) -> None:
        super().__init__(*args)
        self.port_in, self.port_out = leg
        self.switch = self.port_in.switch
        self.cable2 = self.port_out.cable
        self.side2 = self.port_out.side
        self.dest2 = _OTHER[self.side2]
        self.lane2 = self.cable2.lane(self.side2)
        self.path += (self.switch, self.cable2)

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        return super()._key() + (self.cable2.arrival_delay(self.dest2),)

    def _floors(self) -> Tuple[int, ...]:
        self.pre_free2 = self.lane2.free_at
        return super()._floors() + self.switch.floors(
            self.port_in, self.port_out) + (self.pre_free2,)

    def _firsts(self) -> Tuple[int, ...]:
        return super()._firsts() + (int(self.A1[0]), int(self.I[0]),
                                    int(self.D[0]))

    def _path_span(self, wire) -> int:
        cable2 = self.cable2
        self.tt, self.tt_total = self._per_frame(map(cable2.frame_time,
                                                     wire))
        self.arrival2 = cable2.arrival_delay(self.dest2)
        fwd = self.switch.config.forwarding_latency
        return self.n * fwd + 2 * self.tt_total + self.arrival2

    def _path(self, arrivals: np.ndarray) -> np.ndarray:
        self.I, self.D, self.P, self.depths = self.switch.forward_columns(
            self.port_in, self.port_out, arrivals, self.tt)
        self.peak = int(self.depths.max())
        self.E2c = self.lane2.ends(self.D, self.tt)
        return self.E2c + self.arrival2

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _reserve(self) -> None:
        super()._reserve()
        self.lane2.move_cursor(self._end("E2c"), self._value("tt_total"))

    def on_cable_send(self, cable, side) -> None:
        if cable is not self.cable2 or side != self.side2:
            super().on_cable_send(cable, side)
        elif self.env.now < self._end("D"):
            # Belt-and-braces: an egress send on the second hop before
            # all our frames are out (the ingress guard normally unfolds
            # first, since any real frame must cross an ingress server).
            self.unfold()

    def _path_counters(self) -> None:
        self.cable.frames_delivered.add(self.n)
        self.port_in.frames_in.add(self.n)
        self.switch.frames_forwarded.add(self.n)
        self.port_out.frames_out.add(self.n)
        self.cable2.bytes_on_wire.add(self._value("total_wire"))
        self.cable2.frames_delivered.add(self.n)
        self.port_out.note_depth(self._value("peak"))

    # ------------------------------------------------------------------
    # Unfold
    # ------------------------------------------------------------------
    def _unfold_path(self, t: int, n_tx: int, n_arr: int) -> None:
        n_a1 = bisect_right(self.A1, t)   # arrived at the switch
        n_fwd = bisect_right(self.I, t)   # through lookup, enqueued
        n_out = bisect_right(self.D, t)   # sent on the second hop
        # In flight on the first hop: organic arrival into the port's rx
        # stream (the real ingress server takes over from there).
        super()._unfold_path(t, n_tx, n_a1)
        if n_a1:
            self.port_in.frames_in.add(n_a1)
            # Ingress is busy until the last picked-up frame's lookup
            # completes; replayed arrivals must queue behind it.
            self.port_in.hold(ingress=self.I[n_a1 - 1])
        if n_fwd:
            self.switch.frames_forwarded.add(n_fwd)
            self.port_out.note_depth(max(self.depths[:n_fwd]))
        # Mid-lookup frames: the tail of their ingress iteration at the
        # exact time the forwarding-latency window ends.
        for i in range(n_fwd, n_a1):
            self.env.call_at(self.I[i] - t, self._forward, i)
        # Enqueued but not yet sent: back into the real output queue (in
        # order, ahead of any later enqueue), with the egress pacing
        # floor so the drain resumes at the analytic times.
        for i in range(n_out, n_fwd):
            self.port_out.queue.try_put(self._packet(i))
        if n_out:
            self.port_out.frames_out.add(n_out)
            self.cable2.bytes_on_wire.add(sum(self.wire[:n_out]))
            self.port_out.hold(egress=self.P[n_out - 1])
        self._rewind(self.lane2, self.E2c, self.tt, n_out, self.pre_free2)
        self._in_flight(self.cable2, self.dest2, self.A, n_arr, n_out, t)
        self.cable2.frames_delivered.add(n_arr)

    def _forward(self, i: int) -> None:
        self.switch.forward(self.port_in, self._packet(i))

    # ------------------------------------------------------------------
    # Shadow validation
    # ------------------------------------------------------------------
    def _shadow_path(self, arrivals: List[int]) -> List[int]:
        """Both switch servers and the second hop, per packet."""
        cable2, lane2 = self.cable2, copy(self.lane2)
        fwd = self.switch.config.forwarding_latency
        done, p = self.switch.floors(self.port_in, self.port_out)
        rows = []
        for i in range(self.n):
            tt = cable2.frame_time(self._packet(i).wire_bytes)
            done = max(arrivals[i], done) + fwd
            d = max(done, p)
            p = d + tt
            e = lane2.reserve_after(d, tt) + tt
            rows.append((done, d, p, e, e + self.arrival2))
        return self._assert_walk(rows, I=self.I, D=self.D, P=self.P,
                                 E2c=self.E2c, A=self.A)


# ----------------------------------------------------------------------
# The per-path schedule memo
# ----------------------------------------------------------------------
def _frozen(value):
    """``value``, made read-only if it is an array: a memoized column is
    shared by every flight that reuses it."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


class _Schedule:
    """A flight's schedule relative to its ``t0``: the flight's
    :meth:`BurstFlight._key`, the bound's operands, each floored stage's
    first start, the time-independent values, the time columns less
    ``t0`` stacked into one array (all arrays read-only) and each time
    column's last entry.  A path's last schedule computed with no floor
    binding is its memo; a flight commits from the last entries alone
    and shifts the columns only if something reads them."""

    __slots__ = ("key", "bound", "firsts", "shared", "timed", "last")

    def __init__(self, flight: BurstFlight, bound: Tuple[int, int]) -> None:
        t0 = flight.t0
        self.key = flight._key()
        self.bound = bound
        self.firsts = tuple(first - t0 for first in flight._firsts())
        self.shared = {name: _frozen(getattr(flight, name))
                       for name in flight._SHARED}
        timed = np.stack([getattr(flight, name) for name in flight._TIMED])
        timed -= t0
        self.timed = _frozen(timed)
        self.last = dict(zip(flight._TIMED, timed[:, -1].tolist()))

    def fits(self, floors: Tuple[int, ...], t0: int) -> bool:
        """No live floor binds at ``t0``: none of ``floors`` exceeds its
        stage's first start."""
        for floor, first in zip(floors, self.firsts):
            if floor > t0 + first:
                return False
        return True

    def values(self) -> tuple:
        """The bound, the shared values and the time columns, in
        :meth:`BurstFlight.check_reuse`'s order."""
        return (self.bound, *self.shared.values(), *self.timed)


# ----------------------------------------------------------------------
# Fold entry points (called by the NIC with the gates' cheap half done)
# ----------------------------------------------------------------------
def _unfolded_now(env) -> bool:
    """Some flight unfolded at this very picosecond.  Its replay races
    any fold committed now into the shared hops, and the guards would
    meet the race only at a same-picosecond tie (the documented
    approximation) — so the competitor whose post caused the unfold
    sends per-packet, like the replay it races."""
    return getattr(env, "_burst_unfold_at", None) == env.now


def _write_ready(nic, qp, recv, rqp, first_psn) -> bool:
    """The sender has nothing unacknowledged and no timer running, the
    responder expects this WRITE next, between messages, and the
    receiving NIC sends nothing."""
    responder = rqp.responder
    return (not qp.requester.unacked and not nic.timer.attempts(qp.qpn)
            and not nic.timer.is_armed(qp.qpn)
            and responder.expected_psn == first_psn
            and responder.write_cursor is None
            and recv._tx_gate.triggered and recv._resp_gate.triggered)


def _read_context(nic, recv, rqp, request, count):
    """The requester's context for this READ, when it is the next one
    and untouched: every outstanding requester entry a READ (no WRITE
    tail waits on an ACK that would interleave) and no retransmission
    attempt yet; the responder's DMA engine is unguarded.  None
    refuses."""
    if nic.dma.burst_guard is not None \
            or recv.multiqueue.is_empty(rqp.qpn):
        return None
    ctx = recv.multiqueue.peek(rqp.qpn)
    if (ctx.first_psn != request.bth.psn or ctx.next_index != 0
            or ctx.bytes_received != 0 or ctx.packet_count != count
            or ctx.span is not None
            or any(e.kind != "read" for e in rqp.requester.unacked)
            or recv.timer.attempts(rqp.qpn)):
        return None
    return ctx


def try_fold(nic, qp, segments, first_psn, fetch, gate, command=None,
             request=None) -> bool:
    """Attempt to fold one requester WRITE (``command``) or responder
    READ-response stream (``request``, the READ); True = folded (the
    caller's per-packet loop must not run).  One sequence for both:
    run-mode and sender gates, path resolve (peer QP included), the
    verb's own gate, the schedule, the retransmission-deadline check and
    the commit."""
    mode = active()
    if (not mode.fold or _unfolded_now(nic.env)
            or len(segments) < FOLD_MIN_PACKETS
            or not isinstance(fetch, FetchPlan)
            or qp.in_error or not _quiet(nic)):
        return False
    path = _resolve_path(nic, qp)
    if path is None:
        return False
    cable, side, recv, rqp, leg = path
    ctx = None
    if command is not None:
        if not _write_ready(nic, qp, recv, rqp, first_psn):
            return False
    else:
        ctx = _read_context(nic, recv, rqp, request, len(segments))
        if ctx is None:
            return False
    args = (nic, recv, qp, rqp, cable, side, segments, first_psn, fetch,
            gate, command, ctx)
    flight = BurstFlight(*args) if leg is None \
        else SwitchBurstFlight(leg, *args)
    try:
        reused = flight.schedule()
    except Exception:
        return False  # e.g. unmapped destination page: per-packet path
    if reused and mode.validate:
        flight.check_reuse()
    if command is not None:
        # The timer arms at C[-1] with the base timeout; it must not
        # expire while the schedule is still authoritative (before E2).
        deadline = flight._end("C") + nic.timer.timeout
        due = flight._end("A")
    else:
        # The requester's retransmission timer (armed when the READ
        # request went out) must not fire while the response schedule
        # is in flight.
        deadline = recv.timer.deadline(rqp.qpn)
        due = flight._end("wend")
    if deadline is None or deadline <= due:
        return False
    flight.commit()
    return True
