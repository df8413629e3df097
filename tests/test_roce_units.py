"""Unit tests for RoCE protocol components: headers, op-codes,
packetization, Multi-Queue, PSN state, and the retransmission timer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.roce import (
    Aeth,
    Bth,
    MultiQueue,
    MultiQueueFullError,
    Opcode,
    PsnVerdict,
    QueuePairTable,
    RESERVED_STROM_OPCODES,
    ResponderState,
    RetransmissionTimer,
    Reth,
    RocePacket,
    STROM_OPCODES,
    Segment,
    carries_aeth,
    carries_reth,
    is_rpc,
    is_write,
    make_ack,
    psn_add,
    psn_distance,
    read_response_packet_count,
    segment_read_response,
    segment_rpc_write,
    segment_write,
)
from repro.roce.packetizer import l3_bytes_for_segments
from repro.sim import US, Simulator


# ---------------------------------------------------------------------------
# Table 1: the StRoM op-codes
# ---------------------------------------------------------------------------

def test_table1_opcode_values():
    assert Opcode.RPC_PARAMS == 0b11000
    assert Opcode.RPC_WRITE_FIRST == 0b11001
    assert Opcode.RPC_WRITE_MIDDLE == 0b11010
    assert Opcode.RPC_WRITE_LAST == 0b11011
    assert Opcode.RPC_WRITE_ONLY == 0b11100


def test_exactly_five_new_opcodes():
    """Section 3.1: StRoM adds exactly five op-codes."""
    assert len(STROM_OPCODES) == 5
    assert RESERVED_STROM_OPCODES == {0b11101, 0b11110, 0b11111}
    assert not (STROM_OPCODES & {Opcode(o) for o in ()})


def test_opcode_predicates():
    assert is_write(Opcode.WRITE_ONLY)
    assert not is_write(Opcode.RPC_WRITE_ONLY)
    assert is_rpc(Opcode.RPC_PARAMS)
    assert carries_reth(Opcode.RPC_PARAMS)
    assert carries_reth(Opcode.READ_REQUEST)
    assert not carries_reth(Opcode.WRITE_MIDDLE)
    assert carries_aeth(Opcode.ACKNOWLEDGE)
    assert carries_aeth(Opcode.READ_RESPONSE_LAST)
    assert not carries_aeth(Opcode.READ_RESPONSE_MIDDLE)


# ---------------------------------------------------------------------------
# Header serialization
# ---------------------------------------------------------------------------

def test_bth_roundtrip():
    bth = Bth(opcode=Opcode.WRITE_ONLY, dest_qp=0x1234, psn=0xABCDE,
              ack_request=True)
    parsed = Bth.from_bytes(bth.to_bytes())
    assert parsed.opcode == Opcode.WRITE_ONLY
    assert parsed.dest_qp == 0x1234
    assert parsed.psn == 0xABCDE
    assert parsed.ack_request


def test_bth_masks_wide_values():
    bth = Bth(opcode=Opcode.WRITE_ONLY, dest_qp=0xFF_FFFFFF,
              psn=0xFF_FFFFFF)
    assert bth.dest_qp == 0xFFFFFF
    assert bth.psn == 0xFFFFFF


def test_reth_roundtrip():
    reth = Reth(vaddr=0x7F0000001234, rkey=0xDEAD, dma_length=4096)
    parsed = Reth.from_bytes(reth.to_bytes())
    assert parsed == reth


def test_aeth_roundtrip_and_flags():
    ack = Aeth(syndrome=0, msn=42)
    parsed = Aeth.from_bytes(ack.to_bytes())
    assert parsed.msn == 42 and parsed.is_ack and not parsed.is_nak
    nak = Aeth(syndrome=0x60, msn=7)
    assert nak.is_nak and not nak.is_ack


def test_packet_full_roundtrip():
    packet = RocePacket(
        src_ip=0x0A000001, dst_ip=0x0A000002,
        bth=Bth(opcode=Opcode.WRITE_ONLY, dest_qp=3, psn=9),
        reth=Reth(vaddr=0x1000, rkey=0, dma_length=100),
        payload=b"z" * 100)
    parsed = RocePacket.from_bytes(packet.to_bytes())
    assert parsed.bth.psn == 9
    assert parsed.reth.vaddr == 0x1000
    assert parsed.payload == packet.payload
    assert parsed.src_ip == packet.src_ip


def test_packet_corruption_detected_on_parse():
    packet = RocePacket(
        src_ip=1, dst_ip=2,
        bth=Bth(opcode=Opcode.WRITE_ONLY, dest_qp=3, psn=9),
        reth=Reth(vaddr=0, rkey=0, dma_length=4),
        payload=b"abcd", corrupted=True)
    with pytest.raises(ValueError, match="ICRC"):
        RocePacket.from_bytes(packet.to_bytes())


def test_packet_requires_matching_headers():
    with pytest.raises(ValueError):
        RocePacket(src_ip=1, dst_ip=2,
                   bth=Bth(opcode=Opcode.WRITE_ONLY, dest_qp=1, psn=0))
    with pytest.raises(ValueError):
        RocePacket(src_ip=1, dst_ip=2,
                   bth=Bth(opcode=Opcode.ACKNOWLEDGE, dest_qp=1, psn=0))


def test_ack_helper():
    ack = make_ack(src_ip=1, dst_ip=2, dest_qp=5, psn=100, msn=10)
    assert ack.aeth.is_ack
    parsed = RocePacket.from_bytes(ack.to_bytes())
    assert parsed.aeth.msn == 10


def test_wire_bytes_includes_framing():
    packet = make_ack(src_ip=1, dst_ip=2, dest_qp=5, psn=0, msn=0)
    # ACK l3: 20 + 8 + 12 + 4 + 4 = 48; +Eth(14)+FCS(4) = 66 > 64 B min;
    # +20 preamble/IFG = 86 on the wire.
    assert packet.l3_bytes == 48
    assert packet.wire_bytes == 86


@settings(max_examples=40)
@given(payload=st.binary(min_size=0, max_size=1024),
       psn=st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_packet_roundtrip_property(payload, psn):
    packet = RocePacket(
        src_ip=0x0A000001, dst_ip=0x0A000002,
        bth=Bth(opcode=Opcode.WRITE_ONLY, dest_qp=1, psn=psn),
        reth=Reth(vaddr=0x2000, rkey=0, dma_length=len(payload)),
        payload=payload)
    parsed = RocePacket.from_bytes(packet.to_bytes())
    assert parsed.payload == payload
    assert parsed.bth.psn == psn


# ---------------------------------------------------------------------------
# Packetization
# ---------------------------------------------------------------------------

def test_segment_write_single_packet():
    segments = segment_write(100)
    assert len(segments) == 1
    assert segments[0].opcode == Opcode.WRITE_ONLY
    assert segments[0].carries_reth


def test_segment_write_multi_packet():
    size = config.MAX_PAYLOAD_WITH_RETH + 2 * config.MAX_PAYLOAD_NO_RETH + 5
    segments = segment_write(size)
    opcodes = [s.opcode for s in segments]
    assert opcodes == [Opcode.WRITE_FIRST, Opcode.WRITE_MIDDLE,
                       Opcode.WRITE_MIDDLE, Opcode.WRITE_LAST]
    assert segments[0].carries_reth
    assert not any(s.carries_reth for s in segments[1:])
    assert sum(s.length for s in segments) == size


def test_segment_write_zero_length():
    segments = segment_write(0)
    assert len(segments) == 1 and segments[0].length == 0


def test_segment_rpc_write_opcodes():
    size = config.MAX_PAYLOAD_WITH_RETH + 10
    segments = segment_rpc_write(size)
    assert segments[0].opcode == Opcode.RPC_WRITE_FIRST
    assert segments[-1].opcode == Opcode.RPC_WRITE_LAST
    single = segment_rpc_write(64)
    assert single[0].opcode == Opcode.RPC_WRITE_ONLY


def test_segment_read_response_no_reth():
    segments = segment_read_response(10_000)
    assert not any(s.carries_reth for s in segments)
    assert segments[0].opcode == Opcode.READ_RESPONSE_FIRST
    assert segments[-1].opcode == Opcode.READ_RESPONSE_LAST
    assert read_response_packet_count(10_000) == len(segments)


_CAP = config.MAX_PAYLOAD_NO_RETH


@pytest.mark.parametrize("length", sorted({
    1, _CAP - 1, _CAP, _CAP + 1,
    *(k * _CAP + d for k in (2, 3, 17, 180) for d in (-1, 1)),
    256 * 1024, 1 << 20}))
def test_read_response_packet_count_closed_form(length):
    # The closed form must agree with the segmenter it replaced.
    assert read_response_packet_count(length) == \
        len(segment_read_response(length))


@pytest.mark.parametrize("length", [0, -1, -_CAP])
def test_read_response_packet_count_rejects_empty(length):
    with pytest.raises(ValueError):
        read_response_packet_count(length)


@settings(max_examples=60)
@given(size=st.integers(min_value=1, max_value=1 << 20))
def test_segmentation_covers_payload_exactly(size):
    segments = segment_write(size)
    assert sum(s.length for s in segments) == size
    offsets = [s.offset for s in segments]
    assert offsets == sorted(offsets)
    # Contiguity: each segment starts where the previous ended.
    cursor = 0
    for s in segments:
        assert s.offset == cursor
        cursor += s.length
    # Every payload fits its packet budget.
    for i, s in enumerate(segments):
        cap = config.MAX_PAYLOAD_WITH_RETH if i == 0 \
            else config.MAX_PAYLOAD_NO_RETH
        assert 0 < s.length <= cap or size == 0


def _reference_segments(length, first_capacity, rest_capacity, opcodes,
                        reth):
    """The list-building segmenter the closed-form Segments replaced."""
    first_op, middle_op, last_op, only_op = opcodes
    if length <= first_capacity:
        return [Segment(only_op, 0, length, reth)]
    segments = [Segment(first_op, 0, first_capacity, reth)]
    last = length - rest_capacity
    segments.extend(Segment(middle_op, offset, rest_capacity, False)
                    for offset in range(first_capacity, last,
                                        rest_capacity))
    offset = segments[-1].offset + segments[-1].length
    segments.append(Segment(last_op, offset, length - offset, False))
    return segments


_WITH, _NO = config.MAX_PAYLOAD_WITH_RETH, config.MAX_PAYLOAD_NO_RETH
_SEGMENTERS = {
    "write": (segment_write, _WITH, _NO,
              (Opcode.WRITE_FIRST, Opcode.WRITE_MIDDLE, Opcode.WRITE_LAST,
               Opcode.WRITE_ONLY), True),
    "read": (segment_read_response, _NO, _NO,
             (Opcode.READ_RESPONSE_FIRST, Opcode.READ_RESPONSE_MIDDLE,
              Opcode.READ_RESPONSE_LAST, Opcode.READ_RESPONSE_ONLY), False),
    "rpc_write": (segment_rpc_write, _WITH, _NO,
                  (Opcode.RPC_WRITE_FIRST, Opcode.RPC_WRITE_MIDDLE,
                   Opcode.RPC_WRITE_LAST, Opcode.RPC_WRITE_ONLY), True),
}
_EDGE_LENGTHS = sorted({
    cap * k + d for cap in (_WITH, _NO) for k in (1, 2, 3, 180)
    for d in (-1, 0, 1)} | {256 * 1024, 1 << 20})


def _check_segments(kind, length, data):
    segmenter, first, rest, opcodes, reth = _SEGMENTERS[kind]
    expected = _reference_segments(length, first, rest, opcodes, reth)
    segments = segmenter(length)
    assert list(segments) == expected
    assert len(segments) == len(expected)
    assert segments.lengths() == [s.length for s in expected]
    assert [segments.offset(i) for i in range(len(expected))] == \
        [s.offset for s in expected]
    index = data.draw(st.integers(-len(expected), len(expected) - 1))
    assert segments[index] == expected[index]
    start = data.draw(st.integers(-len(expected) - 2, len(expected) + 2))
    stop = data.draw(st.integers(-len(expected) - 2, len(expected) + 2))
    step = data.draw(st.sampled_from([1, 2, 3, -1, -2]))
    assert segments[start:stop:step] == expected[start:stop:step]
    with pytest.raises(IndexError):
        segments[len(expected)]


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_SEGMENTERS)),
       length=st.one_of(st.sampled_from(_EDGE_LENGTHS),
                        st.integers(min_value=1, max_value=1 << 20)),
       data=st.data())
def test_closed_form_segments_match_reference(kind, length, data):
    _check_segments(kind, length, data)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_zero_length_write_segments_match_reference(data):
    _check_segments("write", 0, data)


@pytest.mark.parametrize("kind", sorted(_SEGMENTERS))
@pytest.mark.parametrize("packets", [1, 2, 3, 181])
def test_l3_bytes_closed_form_matches_packets(kind, packets):
    segmenter, first, rest, _, _ = _SEGMENTERS[kind]
    length = first + (packets - 1) * rest - 7 if packets > 1 else first
    segments = segmenter(length)
    assert len(segments) == packets
    response = kind == "read"
    sizes = []
    for i, seg in enumerate(segments):
        reth = Reth(vaddr=0x1000, rkey=0, dma_length=length) \
            if seg.carries_reth else None
        aeth = Aeth(syndrome=0, msn=1) if carries_aeth(seg.opcode) \
            else None
        bth = Bth(opcode=seg.opcode, dest_qp=2, psn=i)
        sizes.append(RocePacket(src_ip=1, dst_ip=2, bth=bth, reth=reth,
                                aeth=aeth,
                                payload=bytes(seg.length)).l3_bytes)
    assert l3_bytes_for_segments(segments, response=response) == sizes


# ---------------------------------------------------------------------------
# Multi-Queue (Section 4.1)
# ---------------------------------------------------------------------------

def test_multiqueue_fifo_per_queue():
    mq = MultiQueue(num_queues=4, total_elements=8)
    mq.push(0, "a")
    mq.push(1, "x")
    mq.push(0, "b")
    assert mq.pop(0) == "a"
    assert mq.pop(0) == "b"
    assert mq.pop(1) == "x"


def test_multiqueue_shared_pool_exhaustion():
    mq = MultiQueue(num_queues=2, total_elements=3)
    mq.push(0, 1)
    mq.push(0, 2)
    mq.push(1, 3)
    with pytest.raises(MultiQueueFullError):
        mq.push(1, 4)
    assert mq.free_elements == 0
    mq.pop(0)
    mq.push(1, 4)  # freed element is reusable by any queue
    assert mq.used_elements == 3


def test_multiqueue_variable_lengths():
    """'Each linked list has a variable length defined at runtime, but
    the combined length of all linked lists is fixed.'"""
    mq = MultiQueue(num_queues=3, total_elements=6)
    for i in range(5):
        mq.push(0, i)
    mq.push(2, "z")
    assert mq.length(0) == 5
    assert mq.length(1) == 0
    assert mq.length(2) == 1


def test_multiqueue_empty_pop():
    mq = MultiQueue(num_queues=1, total_elements=1)
    with pytest.raises(LookupError):
        mq.pop(0)
    with pytest.raises(LookupError):
        mq.peek(0)


def test_multiqueue_peek_and_drain():
    mq = MultiQueue(num_queues=2, total_elements=4)
    mq.push(0, "p")
    mq.push(0, "q")
    assert mq.peek(0) == "p"
    assert mq.drain(0) == ["p", "q"]
    assert mq.is_empty(0)


def test_multiqueue_bad_queue_index():
    mq = MultiQueue(num_queues=2, total_elements=2)
    with pytest.raises(IndexError):
        mq.push(5, "v")


@settings(max_examples=30)
@given(ops=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                    max_size=60))
def test_multiqueue_matches_reference_deques(ops):
    from collections import deque
    mq = MultiQueue(num_queues=4, total_elements=16)
    reference = [deque() for _ in range(4)]
    counter = 0
    for queue, is_push in ops:
        if is_push:
            if mq.free_elements == 0:
                continue
            mq.push(queue, counter)
            reference[queue].append(counter)
            counter += 1
        else:
            if not reference[queue]:
                continue
            assert mq.pop(queue) == reference[queue].popleft()
    for q in range(4):
        assert mq.length(q) == len(reference[q])


# ---------------------------------------------------------------------------
# PSN state
# ---------------------------------------------------------------------------

def test_psn_arithmetic_wraps():
    assert psn_add(0xFFFFFF, 1) == 0
    assert psn_distance(0xFFFFFF, 0) == 1
    assert psn_distance(5, 5) == 0


def test_responder_psn_classification():
    responder = ResponderState(expected_psn=100)
    assert responder.classify(100) is PsnVerdict.EXPECTED
    assert responder.classify(99) is PsnVerdict.DUPLICATE
    assert responder.classify(101) is PsnVerdict.OUT_OF_ORDER


def test_responder_psn_classification_wraparound():
    responder = ResponderState(expected_psn=0)
    assert responder.classify(0xFFFFFF) is PsnVerdict.DUPLICATE
    assert responder.classify(1) is PsnVerdict.OUT_OF_ORDER


def test_qp_table_capacity():
    table = QueuePairTable(capacity=2)
    table.create(1, 10, 0xA)
    table.create(2, 20, 0xB)
    with pytest.raises(ValueError):
        table.create(3, 30, 0xC)
    with pytest.raises(ValueError):
        table.create(1, 10, 0xA)
    assert len(table) == 2
    assert 1 in table and 3 not in table
    with pytest.raises(KeyError):
        table.get(99)


def test_requester_psn_allocation():
    table = QueuePairTable(capacity=1)
    qp = table.create(1, 2, 0xA)
    first = qp.requester.allocate_psns(3)
    second = qp.requester.allocate_psns(1)
    assert first == 0
    assert second == 3
    with pytest.raises(ValueError):
        qp.requester.allocate_psns(0)


# ---------------------------------------------------------------------------
# Retransmission timer
# ---------------------------------------------------------------------------

def test_timer_fires_after_timeout():
    env = Simulator()
    fired = []
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda qpn: fired.append(
                                    (qpn, env.now)))
    timer.arm(1)
    env.run()
    assert fired == [(1, 10 * US)]
    assert int(timer.expirations) == 1


def test_timer_disarm_prevents_firing():
    env = Simulator()
    fired = []
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda qpn: fired.append(qpn))
    timer.arm(1)

    def disarmer():
        yield env.timeout(5 * US)
        timer.disarm(1)

    env.process(disarmer())
    env.run()
    assert fired == []


def test_timer_rearm_extends_deadline():
    env = Simulator()
    fired = []
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda qpn: fired.append(env.now))
    timer.arm(1)

    def rearm():
        yield env.timeout(8 * US)
        timer.arm(1)

    env.process(rearm())
    env.run()
    assert fired == [18 * US]


def test_timer_per_qp_independence():
    env = Simulator()
    fired = []
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda qpn: fired.append(qpn))
    timer.arm(1)
    timer.arm(2)
    timer.disarm(1)
    env.run()
    assert fired == [2]


def test_timer_validation():
    env = Simulator()
    with pytest.raises(ValueError):
        RetransmissionTimer(env, timeout=0, callback=lambda q: None)


# Timer edge cases.  Each run pins the expiry times *and* the number of
# entries the simulator scheduled (``events_created``): the countdown's
# bootstrap, re-arm poke, termination and stale-wakeup entries are part
# of the event stream every same-picosecond tie depends on.

def test_timer_same_tick_arm_disarm_arm():
    env = Simulator()
    fired = []
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda q: fired.append(env.now))

    def churn():
        yield env.timeout(1 * US)
        timer.arm(1)
        timer.disarm(1)
        timer.arm(1)
        yield env.timeout(4 * US)
        timer.arm(1)
        timer.disarm(1)
        timer.arm(1)

    env.process(churn())
    env.run()
    assert fired == [15 * US]
    assert int(timer.expirations) == 1
    assert env.events_created == 15


def test_timer_rearm_inside_expiry_callback():
    """A re-arm from the expiry callback must not cancel the countdown
    that is running it (the new countdown starts after it)."""
    env = Simulator()
    fired = []

    def on_expiry(qpn):
        fired.append(env.now)
        if len(fired) < 3:
            timer.arm(qpn)
            timer.arm(qpn + 1)

    timer = RetransmissionTimer(env, timeout=10 * US, callback=on_expiry)
    timer.arm(1)
    env.run()
    # qpn 1 at 10 and 30 (doubled), qpn 2 at 20 and 40, qpn 3 at 30.
    assert fired == [10 * US, 20 * US, 30 * US, 30 * US, 40 * US]
    assert env.events_created == 15


def test_timer_generator_callback_runs_as_process():
    env = Simulator()
    log = []

    def on_expiry(qpn):
        log.append(("expired", env.now))
        yield env.timeout(3 * US)
        log.append(("recovered", env.now))
        timer.arm(qpn)
        timer.disarm(qpn)

    timer = RetransmissionTimer(env, timeout=10 * US, callback=on_expiry)
    timer.arm(4)
    env.run()
    assert log == [("expired", 10 * US), ("recovered", 13 * US)]
    assert env.events_created == 8


def test_timer_exhaustion_handler_times():
    env = Simulator()
    log = []

    def on_expiry(qpn):
        log.append(("retry", env.now))
        timer.arm(qpn)

    timer = RetransmissionTimer(
        env, timeout=10 * US, callback=on_expiry, max_retries=3,
        on_exhausted=lambda qpn: log.append(("exhausted", env.now)))
    timer.arm(2)
    env.run()
    assert log == [("retry", 10 * US), ("retry", 30 * US),
                   ("retry", 70 * US), ("exhausted", 150 * US)]
    assert env.events_created == 12


def test_timer_jittered_backoff_times():
    env = Simulator()
    fired = []

    def on_expiry(qpn):
        fired.append(env.now)
        if len(fired) < 5:
            timer.arm(qpn)

    timer = RetransmissionTimer(env, timeout=10 * US, callback=on_expiry,
                                backoff_cap=80 * US, jitter=7 * US,
                                name="jittered")
    timer.arm(3)
    env.run()
    assert fired == [10_000_000, 33_041_988, 74_828_243, 157_241_975,
                     243_197_749]
    assert env.events_created == 15
