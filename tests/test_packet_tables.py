"""Constant-cost packets: the lookup tables and memos on the per-packet
path give exactly what the computations they replace gave.

- every op-code predicate, over every :class:`Opcode` member, against
  an explicit expected set;
- the slotted headers and packet: computed sizes set at construction,
  recomputed by ``dataclasses.replace``, ignored by equality, and equal
  to the length of the byte codec's wire image;
- ``PhysicalMemory.read_view``'s single-page fast path against the
  page-straddling and never-written cases (bytes, segments, payload
  accounting, validate-mode snapshot);
- the per-size memos of ``Cable.frame_time``,
  ``BandwidthLink.occupancy_ps`` and ``Tlb.pieces``.
"""

import dataclasses

import pytest

from repro.config import NIC_10G
from repro.core.payload import PAYLOAD_STATS, PayloadRef
from repro.memory.physical import PhysicalMemory
from repro.net.arp import mac_for_ip
from repro.net.link import Cable
from repro.nic.tlb import Tlb
from repro.roce import opcodes
from repro.roce.headers import Aeth, Bth, Reth
from repro.roce.opcodes import Opcode
from repro.roce.packet import RocePacket, make_ack, make_cnp
from repro.runmode import override
from repro.sim import BandwidthLink, Simulator
from repro.sim.timebase import transfer_time_ps

O = Opcode

EXPECTED = {
    "carries_reth": {O.WRITE_FIRST, O.WRITE_ONLY, O.READ_REQUEST,
                     O.RPC_PARAMS, O.RPC_WRITE_FIRST, O.RPC_WRITE_ONLY},
    "carries_aeth": {O.ACKNOWLEDGE, O.READ_RESPONSE_FIRST,
                     O.READ_RESPONSE_LAST, O.READ_RESPONSE_ONLY},
    "is_first": {O.WRITE_FIRST, O.READ_RESPONSE_FIRST, O.RPC_WRITE_FIRST},
    "is_middle": {O.WRITE_MIDDLE, O.READ_RESPONSE_MIDDLE,
                  O.RPC_WRITE_MIDDLE},
    "is_last": {O.WRITE_LAST, O.READ_RESPONSE_LAST, O.RPC_WRITE_LAST},
    "is_only": {O.WRITE_ONLY, O.READ_RESPONSE_ONLY, O.RPC_WRITE_ONLY,
                O.RPC_PARAMS},
    "is_write": {O.WRITE_FIRST, O.WRITE_MIDDLE, O.WRITE_LAST,
                 O.WRITE_ONLY},
    "is_rpc": {O.RPC_PARAMS, O.RPC_WRITE_FIRST, O.RPC_WRITE_MIDDLE,
               O.RPC_WRITE_LAST, O.RPC_WRITE_ONLY},
    "is_rpc_write": {O.RPC_WRITE_FIRST, O.RPC_WRITE_MIDDLE,
                     O.RPC_WRITE_LAST, O.RPC_WRITE_ONLY},
    "is_read_response": {O.READ_RESPONSE_FIRST, O.READ_RESPONSE_MIDDLE,
                         O.READ_RESPONSE_LAST, O.READ_RESPONSE_ONLY},
    "expects_ack": {O.WRITE_FIRST, O.WRITE_MIDDLE, O.WRITE_LAST,
                    O.WRITE_ONLY, O.READ_REQUEST, O.RPC_PARAMS,
                    O.RPC_WRITE_FIRST, O.RPC_WRITE_MIDDLE,
                    O.RPC_WRITE_LAST, O.RPC_WRITE_ONLY},
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_opcode_predicate_over_every_member(name):
    predicate = getattr(opcodes, name)
    for opcode in Opcode:
        assert predicate(opcode) is (opcode in EXPECTED[name]), \
            (name, opcode)
        # The raw BTH byte classifies like its member.
        assert predicate(int(opcode)) is (opcode in EXPECTED[name])


def test_opcode_tables_match_predicates():
    assert opcodes.RETH_OPCODES == EXPECTED["carries_reth"]
    assert opcodes.AETH_OPCODES == EXPECTED["carries_aeth"]
    assert opcodes.TAIL_OPCODES == EXPECTED["is_last"] | EXPECTED["is_only"]


def _write_packet(payload=b"x" * 100, **kw):
    return RocePacket(src_ip=1, dst_ip=2,
                      bth=Bth(opcode=O.WRITE_ONLY, dest_qp=3, psn=4),
                      reth=Reth(vaddr=0x1000, rkey=0,
                                dma_length=len(payload)),
                      payload=payload, **kw)


def test_replace_recomputes_sizes_and_leaves_original():
    packet = _write_packet()
    marked = dataclasses.replace(packet, ecn_ce=True)
    assert marked.ecn_ce and not packet.ecn_ce
    assert marked.bth is packet.bth and marked.payload is packet.payload
    assert (marked.transport_bytes, marked.l3_bytes, marked.wire_bytes) \
        == (packet.transport_bytes, packet.l3_bytes, packet.wire_bytes)
    # replace() runs __post_init__ again: a new payload resizes the copy.
    bigger = dataclasses.replace(packet, payload=b"y" * 1000)
    assert bigger.l3_bytes == packet.l3_bytes + 900
    assert bigger.wire_bytes == packet.wire_bytes + 900
    assert packet.l3_bytes == 20 + 8 + 12 + 16 + 100 + 4
    assert packet.payload == b"x" * 100


def test_computed_sizes_are_not_init_arguments():
    with pytest.raises(TypeError):
        _write_packet(l3_bytes=1)
    with pytest.raises(ValueError):
        dataclasses.replace(_write_packet(), wire_bytes=1)


def test_equality_ignores_computed_fields():
    a, b = _write_packet(), _write_packet()
    assert a == b
    b.wire_bytes += 1
    b.l3_bytes += 1
    b.transport_bytes += 1
    assert a == b
    assert a != _write_packet(ecn_ce=True)
    assert make_ack(1, 2, 3, 4, 5) == make_ack(1, 2, 3, 4, 5)
    assert make_ack(1, 2, 3, 4, 5) != make_ack(1, 2, 3, 4, 6)
    assert repr(a) == "<RocePacket WRITE_ONLY qp=3 psn=4 payload=100B>"


@pytest.mark.parametrize("header", [
    Bth(opcode=O.CNP, dest_qp=1, psn=0),
    Reth(vaddr=0, rkey=0, dma_length=0),
    Aeth(syndrome=0, msn=0),
    make_cnp(1, 2, 3),
])
def test_slotted_headers_reject_unknown_attributes(header):
    assert not hasattr(header, "__dict__")
    with pytest.raises(AttributeError):
        header.not_a_field = 1


def test_missing_extension_header_still_raises():
    with pytest.raises(ValueError, match="WRITE_ONLY requires a RETH"):
        RocePacket(src_ip=1, dst_ip=2,
                   bth=Bth(opcode=O.WRITE_ONLY, dest_qp=3, psn=4))
    with pytest.raises(ValueError, match="ACKNOWLEDGE requires an AETH"):
        RocePacket(src_ip=1, dst_ip=2,
                   bth=Bth(opcode=O.ACKNOWLEDGE, dest_qp=3, psn=4))


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
@pytest.mark.parametrize("length", [0, 1, 64, 1024, 4096])
def test_byte_codec_checks_the_computed_sizes(opcode, length):
    """The byte codec is the oracle of the table-computed sizes: every
    op-code, at every payload length, serializes to exactly ``l3_bytes``
    bytes and parses back to an equal packet."""
    packet = RocePacket(
        src_ip=0x0A000001, dst_ip=0x0A000002,
        bth=Bth(opcode=opcode, dest_qp=3, psn=17),
        reth=(Reth(vaddr=0x1000, rkey=7, dma_length=length)
              if opcode in opcodes.RETH_OPCODES else None),
        aeth=(Aeth(syndrome=0, msn=5)
              if opcode in opcodes.AETH_OPCODES else None),
        payload=bytes(i & 0xFF for i in range(length)))
    wire = packet.to_bytes()
    assert len(wire) == packet.l3_bytes
    assert RocePacket.from_bytes(wire) == packet


# ---------------------------------------------------------------------------
# read_view: single page, page-straddling, never written
# ---------------------------------------------------------------------------

PAGE = 4096


def _memory():
    memory = PhysicalMemory(page_bytes=PAGE, size_bytes=16 * PAGE)
    memory.write(0, bytes(range(256)) * (2 * PAGE // 256))  # pages 0, 1
    return memory


@pytest.mark.parametrize("address, length, segments", [
    (100, 1024, 1),              # inside page 0
    (PAGE - 512, 1024, 2),       # straddles pages 0 and 1
    (5 * PAGE + 8, 1024, 1),     # never written: shared zero view
    (2 * PAGE - 100, 300, 2),    # written page into a never-written one
    (PAGE, PAGE, 1),             # exactly one whole page
    (100, 0, 0),                 # empty
])
@pytest.mark.parametrize("validate", [False, True])
def test_read_view_cases(address, length, segments, validate):
    memory = _memory()
    expected = memory.read(address, length)
    with override(validate=validate):
        before = PAYLOAD_STATS.snapshot()
        ref = memory.read_view(address, length, stable=True)
        after = PAYLOAD_STATS.snapshot()
        assert isinstance(ref, PayloadRef)
        assert len(ref) == length
        assert len(ref._segments) == segments
        assert ref._stable
        assert after == {
            **before,
            "ref_events": before["ref_events"] + 1,
            "bytes_referenced": before["bytes_referenced"] + length,
        }
        if validate:
            assert ref._snapshot == expected
        else:
            assert ref._snapshot is None
        assert b"".join(bytes(s) for s in ref.segments()) == expected
        # Same ref the generic constructor builds from the same views.
        generic = PayloadRef(ref._segments, stable=True)
        assert generic._length == ref._length
        assert generic._snapshot == ref._snapshot


def test_read_view_aliases_live_page():
    memory = _memory()
    ref = memory.read_view(100, 16)
    memory.write(100, b"z" * 16)
    assert ref == b"z" * 16


# ---------------------------------------------------------------------------
# Per-size memos
# ---------------------------------------------------------------------------

SIZES = list(range(64, 9 * 1024 + 1, 97)) + [64, 1500, 9 * 1024]


@pytest.mark.parametrize("rate", [10e9, 25e9, 100e9])
def test_memoized_frame_time_matches_transfer_time(rate):
    cable = Cable(Simulator(), bits_per_second=rate, propagation=0)
    for size in SIZES + SIZES:   # the second pass hits the memo
        assert cable.frame_time(size) == transfer_time_ps(size, rate)
    with pytest.raises(ValueError):
        cable.frame_time(-1)


@pytest.mark.parametrize("rate, overhead", [(10e9, 0), (64e9, 24)])
def test_memoized_occupancy_matches_transfer_time(rate, overhead):
    link = BandwidthLink(Simulator(), rate,
                         per_transfer_overhead_bytes=overhead)
    for size in SIZES + SIZES:
        assert link.occupancy_ps(size) \
            == transfer_time_ps(size + overhead, rate)


def test_mac_for_ip_is_cached_and_stable():
    assert mac_for_ip(0x0A000001) == bytes([2, 0, 10, 0, 0, 1])
    assert mac_for_ip(0x0A000001) is mac_for_ip(0x0A000001)


@pytest.mark.parametrize("vaddr, length", [
    (64, 4096), (0, NIC_10G.page_bytes), (NIC_10G.page_bytes - 100, 300),
    (NIC_10G.page_bytes - 1, 1), (5, 2 * NIC_10G.page_bytes + 9),
])
def test_tlb_pieces_match_split_command(vaddr, length):
    page = NIC_10G.page_bytes
    tlbs = []
    for _ in range(2):
        tlb = Tlb(NIC_10G)
        for vpn, base in {0: 7 * page, 1: 2 * page, 2: 9 * page}.items():
            tlb.populate(vpn, base)
        tlbs.append(tlb)
    expected = list(tlbs[0].split_command(vaddr, length))
    assert tlbs[1].pieces(vaddr, length) == expected
    assert (tlbs[1].lookups, tlbs[1].cache_hits, tlbs[1].splits,
            tlbs[1]._last_vpn) == (tlbs[0].lookups, tlbs[0].cache_hits,
                                   tlbs[0].splits, tlbs[0]._last_vpn)
    with pytest.raises(ValueError):
        tlbs[1].pieces(vaddr, 0)
