"""The burst fast path's column primitive: a FIFO server's end times as
one prefix-max scan (``fifo_ends``) must equal the explicit per-job
max-chain it replaces, bit for bit — and each hop's column form must
equal its per-frame form: a lane's ``ends`` against chained
``reserve_after``, a cable's arrival column against ``Cable.send``, and
the switch's ``forward_columns`` against its live servers."""

from copy import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.switch import Switch, SwitchConfig
from repro.config import NIC_100G
from repro.net.link import Cable
from repro.roce.burst import COLUMN_LIMIT_PS, fifo_ends
from repro.roce.headers import Bth
from repro.roce.opcodes import Opcode
from repro.roce.packet import RocePacket
from repro.sim import NS, BandwidthLink, Simulator


def _loop(start, dur, floor):
    ends = []
    prev = floor
    for s, d in zip(start, dur):
        prev = max(prev, s) + d
        ends.append(prev)
    return ends


def _check(start, dur, floor):
    out = fifo_ends(np.array(start, np.int64), np.array(dur, np.int64),
                    floor)
    assert out.tolist() == _loop(start, dur, floor)


@pytest.mark.parametrize("floor", [0, 99, 100, 101, 10_000])
def test_floor_below_at_and_above_first_start(floor):
    _check([100, 150, 151, 400, 400, 2000], [30, 1, 0, 50, 50, 7], floor)


def test_ties_and_zero_durations():
    _check([5, 5, 5, 5], [0, 0, 0, 0], 5)
    _check([5, 5, 5, 5], [0, 3, 0, 3], 0)
    _check([0, 10, 10, 20, 20], [10, 0, 10, 0, 0], 0)


def test_unsorted_starts():
    _check([500, 10, 900, 20, 901], [5, 5, 5, 5, 5], 0)


@settings(max_examples=200, deadline=None)
@given(jobs=st.lists(st.tuples(st.integers(0, 10 ** 9),
                               st.integers(0, 10 ** 6)),
                     min_size=1, max_size=64),
       floor=st.integers(0, 10 ** 9))
def test_matches_explicit_loop(jobs, floor):
    start, dur = zip(*jobs)
    _check(list(start), list(dur), floor)


@pytest.mark.parametrize("start, dur, floor", [
    ([COLUMN_LIMIT_PS], [1], 0),          # a start at the limit
    ([0], [1], COLUMN_LIMIT_PS),          # a floor at the limit
    ([0, 0], [COLUMN_LIMIT_PS // 2] * 2, 0),  # summed durations
])
def test_refuses_columns_past_the_limit(start, dur, floor):
    with pytest.raises(OverflowError):
        fifo_ends(np.array(start, np.int64), np.array(dur, np.int64),
                  floor)


# ---------------------------------------------------------------------------
# Each hop's column form equals its per-frame form
# ---------------------------------------------------------------------------

def _col(values):
    return np.array(values, np.int64)


#: (start, duration) jobs: starts with ties and zero gaps, durations
#: with zeros.
_JOBS = st.lists(st.tuples(st.integers(0, 4) | st.integers(0, 10 ** 7),
                           st.integers(0, 3) | st.integers(0, 10 ** 6)),
                 min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(jobs=_JOBS, floor=st.integers(0, 10 ** 7),
       above=st.booleans())
def test_lane_ends_equal_chained_reserve_after(jobs, floor, above):
    """``BandwidthLink.ends`` is ``reserve_after`` chained job by job,
    including a cursor above every start."""
    start, dur = map(list, zip(*jobs))
    if above:
        floor = max(start) + 1
    lane = BandwidthLink(Simulator(), 100e9)
    lane.reserve_after(floor, 0)
    column = lane.ends(_col(start), _col(dur)).tolist()
    walked = copy(lane)
    ends = [walked.reserve_after(s, d) + d for s, d in zip(start, dur)]
    assert column == ends
    assert lane.free_at == floor                 # ends() is pure
    lane.move_cursor(column[-1], sum(dur))
    assert (lane.free_at, lane.busy_time) == (walked.free_at,
                                              walked.busy_time)


def _frame(payload_bytes, psn=0, src_ip=1, dst_ip=2):
    return RocePacket(src_ip=src_ip, dst_ip=dst_ip,
                      bth=Bth(opcode=Opcode.WRITE_MIDDLE, dest_qp=1,
                              psn=psn),
                      payload=bytes(payload_bytes))


_FRAMES = st.lists(st.tuples(st.integers(0, 2000) | st.integers(0, 5),
                             st.integers(0, 4096)),
                   min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(frames=_FRAMES, busy_until=st.integers(0, 10 ** 6),
       rx_delay=st.integers(0, 500 * NS), spike=st.integers(0, 300 * NS))
def test_cable_arrival_column_equals_send(frames, busy_until, rx_delay,
                                          spike):
    """The fold's first-hop arrivals — ``lane.ends(ready,
    frame_time(wire)) + arrival_delay`` — are the times ``Cable.send``
    delivers each frame at."""
    env = Simulator()
    cable = Cable(env, NIC_100G.line_rate_bps, propagation=50 * NS)
    arrived = []
    cable.set_receiver("b", lambda packet: arrived.append(env.now),
                       pipeline_delay=rx_delay)
    cable.set_extra_latency(spike)
    lane = cable.lane("a")
    lane.reserve_after(busy_until, 0)
    packets = [_frame(size, psn) for psn, (_, size) in enumerate(frames)]
    ready = [t for t, _ in frames]
    column = (lane.ends(_col(ready), _col([cable.frame_time(p.wire_bytes)
                                           for p in packets]))
              + cable.arrival_delay("b")).tolist()
    for packet, t in zip(packets, ready):
        cable.send("a", packet, ready=t)
    env.run()
    assert arrived == column


def _switch_pair(fwd):
    env = Simulator()
    switch = Switch(env, SwitchConfig(forwarding_latency=fwd,
                                      buffer_frames=10 ** 6))
    cables = [Cable(env, NIC_100G.line_rate_bps, propagation=20 * NS,
                    name=f"c{i}") for i in range(2)]
    for i, cable in enumerate(cables):
        switch.attach(cable, "b")
        switch.announce(i + 1, i)
    return env, switch, cables


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.integers(0, 3) | st.integers(0, 400_000),
                     min_size=1, max_size=24),
       sizes=st.lists(st.integers(0, 4096), min_size=24, max_size=24),
       fwd=st.integers(0, 400 * NS))
def test_switch_columns_equal_stepped_servers(gaps, sizes, fwd):
    """``Switch.forward_columns`` equals the ingress/egress floors
    stepped frame by frame, and the live servers enqueue and send each
    frame at those times."""
    env, switch, (cable_in, cable_out) = _switch_pair(fwd)
    port_in, port_out = switch.ports
    arrivals = list(np.cumsum(gaps))
    packets = [_frame(sizes[i], i) for i in range(len(gaps))]
    tt = [cable_out.frame_time(p.wire_bytes) for p in packets]
    I, D, P, depths = (column.tolist() for column in switch.forward_columns(
        port_in, port_out, _col(arrivals), _col(tt)))
    # Per frame: pickup waits for the ingress floor, dequeue for the
    # enqueue and the egress floor; depth = frames still queued.
    done = p = 0
    for i, (a, t) in enumerate(zip(arrivals, tt)):
        done = max(a, done) + fwd
        d = max(done, p)
        p = d + t
        assert (I[i], D[i], P[i]) == (done, d, p)
        assert depths[i] == sum(1 for j in range(i + 1)
                                if j == i or D[j] > done)
    # The live servers: frames put on the ingress stream at ``arrivals``.
    enqueued, sent = [], []
    put = port_out.queue.try_put

    def hooked(packet):
        enqueued.append(env.now)
        return put(packet)
    port_out.queue.try_put = hooked
    cable_out.set_receiver("a", lambda packet: sent.append(env.now))
    delivered = (cable_out.lane("b").ends(_col(D), _col(tt))
                 + cable_out.arrival_delay("a")).tolist()
    for a, packet in zip(arrivals, packets):
        env.call_at(int(a), port_in.rx.try_put, packet)
    env.run()
    assert enqueued == I
    assert sent == delivered
    assert port_out.max_depth_gauge.value == max(depths)
