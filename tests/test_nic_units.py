"""Unit tests for TLB, DMA engine, MMIO path, and the net substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NIC_10G, scaled_config
from repro.memory import PhysicalMemory
from repro.net import (
    Cable,
    EthernetHeader,
    Ipv4Header,
    LinkFaults,
    UdpHeader,
    ip_str,
    ipv4_checksum,
    parse_ip,
)
from repro.nic import DmaCommand, DmaEngine, MmioPath, Tlb, TlbMissError
from repro.roce import Bth, Opcode, Reth, RocePacket
from repro.sim import MS, NS, US, SimulationError, Simulator, timebase

PAGE = 2 * 1024 * 1024


# ---------------------------------------------------------------------------
# Net headers
# ---------------------------------------------------------------------------

def test_ethernet_header_roundtrip():
    header = EthernetHeader(dst_mac=bytes(range(6)),
                            src_mac=bytes(range(6, 12)))
    parsed = EthernetHeader.from_bytes(header.to_bytes())
    assert parsed.dst_mac == header.dst_mac
    assert parsed.ethertype == 0x0800


def test_ethernet_header_validation():
    with pytest.raises(ValueError):
        EthernetHeader(dst_mac=b"xx", src_mac=b"yyyyyy").to_bytes()
    with pytest.raises(ValueError):
        EthernetHeader.from_bytes(b"short")


def test_ipv4_header_checksum_roundtrip():
    header = Ipv4Header(src_ip=parse_ip("10.0.0.1"),
                        dst_ip=parse_ip("10.0.0.2"), total_length=100)
    blob = header.to_bytes()
    assert ipv4_checksum(blob) == 0  # valid checksum folds to zero
    parsed = Ipv4Header.from_bytes(blob)
    assert ip_str(parsed.src_ip) == "10.0.0.1"
    assert parsed.total_length == 100


def test_ipv4_header_rejects_corruption():
    blob = bytearray(Ipv4Header(src_ip=1, dst_ip=2).to_bytes())
    blob[8] ^= 0xFF
    with pytest.raises(ValueError):
        Ipv4Header.from_bytes(bytes(blob))


def test_udp_header_roundtrip():
    header = UdpHeader(src_port=4791, dst_port=4791, length=52)
    parsed = UdpHeader.from_bytes(header.to_bytes())
    assert parsed == header


def test_parse_ip_validation():
    assert parse_ip("255.255.255.255") == 0xFFFFFFFF
    with pytest.raises(ValueError):
        parse_ip("300.1.1.1")
    with pytest.raises(ValueError):
        parse_ip("1.2.3")


# ---------------------------------------------------------------------------
# Cable
# ---------------------------------------------------------------------------

def _packet(psn=0, payload=b""):
    return RocePacket(
        src_ip=1, dst_ip=2,
        bth=Bth(opcode=Opcode.WRITE_ONLY, dest_qp=1, psn=psn),
        reth=Reth(vaddr=0, rkey=0, dma_length=len(payload)),
        payload=payload)


def test_cable_delivers_in_order():
    env = Simulator()
    cable = Cable(env, bits_per_second=10e9, propagation=100 * NS)
    received = []

    def sender():
        for i in range(5):
            yield cable.a_tx.put(_packet(psn=i))

    def receiver():
        for _ in range(5):
            packet = yield cable.b_rx.get()
            received.append(packet.bth.psn)

    env.process(sender())
    env.process(receiver())
    env.run()
    assert received == [0, 1, 2, 3, 4]
    assert int(cable.frames_delivered) == 5


def test_cable_serialization_paces_line_rate():
    env = Simulator()
    cable = Cable(env, bits_per_second=10e9, propagation=0)
    times = []

    def sender():
        for i in range(3):
            yield cable.a_tx.put(_packet(psn=i, payload=b"x" * 1000))

    def receiver():
        for _ in range(3):
            yield cable.b_rx.get()
            times.append(env.now)

    env.process(sender())
    env.process(receiver())
    env.run()
    wire = _packet(payload=b"x" * 1000).wire_bytes
    expected_gap = timebase.transfer_time_ps(wire, 10e9)
    assert times[1] - times[0] == expected_gap
    assert times[2] - times[1] == expected_gap


def test_cable_drop_injection_deterministic():
    env = Simulator()
    cable = Cable(env, bits_per_second=10e9, propagation=0,
                  faults=LinkFaults(drop_probability=0.5, seed=42))

    def sender():
        for i in range(100):
            yield cable.a_tx.put(_packet(psn=i))

    env.process(sender())
    env.run()
    dropped = int(cable.frames_dropped)
    assert 25 < dropped < 75
    assert dropped + int(cable.frames_delivered) == 100


def test_link_faults_validation():
    with pytest.raises(ValueError):
        LinkFaults(drop_probability=1.5)


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------

def make_tlb(entries=16):
    return Tlb(scaled_config(NIC_10G, tlb_entries=entries))


def test_tlb_translate():
    tlb = make_tlb()
    tlb.populate(vpn=10, physical_base=5 * PAGE)
    assert tlb.translate(10 * PAGE + 123) == 5 * PAGE + 123
    assert tlb.lookups == 1


def test_tlb_miss_raises():
    tlb = make_tlb()
    with pytest.raises(TlbMissError):
        tlb.translate(123)


def test_tlb_capacity_enforced():
    tlb = make_tlb(entries=2)
    tlb.populate(0, 0)
    tlb.populate(1, PAGE)
    with pytest.raises(ValueError):
        tlb.populate(2, 2 * PAGE)
    # Re-populating an existing vpn is allowed (driver reload).
    tlb.populate(1, 3 * PAGE)
    assert tlb.translate(PAGE) == 3 * PAGE


def test_tlb_entry_validation():
    tlb = make_tlb()
    with pytest.raises(ValueError):
        tlb.populate(0, 123)  # not page aligned
    with pytest.raises(ValueError):
        tlb.populate(0, 1 << 50)  # beyond 48-bit


def test_tlb_split_at_page_boundaries():
    tlb = make_tlb()
    tlb.populate(0, 7 * PAGE)
    tlb.populate(1, 3 * PAGE)  # physically discontiguous
    pieces = list(tlb.split_command(PAGE - 100, 300))
    assert pieces == [(7 * PAGE + PAGE - 100, 100), (3 * PAGE, 200)]
    assert tlb.splits == 1


def test_tlb_addressable_bytes():
    tlb = make_tlb()
    tlb.populate(0, 0)
    tlb.populate(1, PAGE)
    assert tlb.addressable_bytes == 2 * PAGE


def test_tlb_paper_capacity():
    """Section 4.2: 16,384 entries x 2 MB = 32 GB addressable."""
    tlb = Tlb(NIC_10G)
    assert tlb.capacity * tlb.page_bytes == 32 * 1024 ** 3


# ---------------------------------------------------------------------------
# DMA engine
# ---------------------------------------------------------------------------

def make_dma(env):
    memory = PhysicalMemory(page_bytes=PAGE, size_bytes=64 * PAGE)
    tlb = Tlb(NIC_10G)
    for vpn in range(8):
        tlb.populate(vpn, (vpn * 3 % 8) * PAGE)  # scattered mapping
    return DmaEngine(env, NIC_10G, memory, tlb), memory, tlb


@pytest.mark.parametrize("vaddr, length", [
    (0, 1000),                 # one chunk
    (PAGE - 40, 1000),         # one chunk straddling a page
    (0, 256 * 1024),           # inside one page
    (PAGE - 3000, 256 * 1024),  # a straddling chunk mid-message
])
@pytest.mark.parametrize("listed", [False, True])
def test_chunk_durations_forms_agree(vaddr, length, listed):
    """The closed-form chunk durations a fetch reserves (``total``), a
    per-packet consumer lists and the burst fold takes as an int64
    column are the per-chunk burst durations, over a message's
    Segments and over the same sizes as a plain list."""
    from repro.roce import segment_read_response

    env = Simulator()
    dma, _memory, tlb = make_dma(env)
    segments = segment_read_response(length)
    run = tlb.chunk_run(vaddr, segments.lengths() if listed else segments,
                        charge=False)
    link = dma.read_link
    durations = dma._chunk_durations(link, run, True)
    expected = [dma._burst_duration(link, [n for _, n in pieces], True)
                for pieces in run]
    assert durations.listed() == expected
    assert durations.column().tolist() == expected
    assert durations.total() == sum(expected)


def test_dma_write_then_read_roundtrip():
    env = Simulator()
    dma, _memory, _tlb = make_dma(env)

    def proc():
        yield from dma.write(1000, b"dma-payload")
        data = yield from dma.read(1000, 11)
        return data

    assert env.run_until_complete(env.process(proc())) == b"dma-payload"
    assert int(dma.reads) == 1 and int(dma.writes) == 1


def test_dma_read_latency_is_pcie_round_trip():
    env = Simulator()
    dma, _memory, _tlb = make_dma(env)

    def proc():
        start = env.now
        yield from dma.read(0, 64)
        return env.now - start

    latency = env.run_until_complete(env.process(proc()))
    assert latency >= NIC_10G.pcie_read_latency
    assert latency < NIC_10G.pcie_read_latency + 1 * US


def test_dma_write_crossing_page_boundary():
    env = Simulator()
    dma, _memory, _tlb = make_dma(env)
    data = bytes(range(256)) * 2

    def proc():
        yield from dma.write(PAGE - 100, data)
        out = yield from dma.read(PAGE - 100, len(data))
        return out

    assert env.run_until_complete(env.process(proc())) == data


def test_dma_random_access_is_slower():
    env = Simulator()
    dma, _memory, _tlb = make_dma(env)

    def proc(sequential):
        start = env.now
        yield from dma.write(0, b"z" * 4096, sequential=sequential)
        return env.now - start

    fast = env.run_until_complete(env.process(proc(True)))
    slow = env.run_until_complete(env.process(proc(False)))
    assert slow > fast


def test_dma_watch_fires_on_overlap():
    env = Simulator()
    dma, _memory, _tlb = make_dma(env)
    watch = dma.watch(100, 50)
    miss = dma.watch(5000, 10)

    def proc():
        yield from dma.write(120, b"hit")

    env.run_until_complete(env.process(proc()))
    assert watch.triggered
    assert not miss.triggered


def test_dma_command_validation():
    with pytest.raises(ValueError):
        DmaCommand(vaddr=0, length=0)
    with pytest.raises(ValueError):
        DmaCommand(vaddr=-1, length=8)


# ---------------------------------------------------------------------------
# MMIO path
# ---------------------------------------------------------------------------

def test_mmio_serializes_commands():
    env = Simulator()
    delivered = []
    mmio = MmioPath(env, issue_cost=100 * NS, crossing_latency=300 * NS,
                    deliver=delivered.append)

    def proc():
        for i in range(10):
            yield from mmio.post(i)

    env.run_until_complete(env.process(proc()))
    env.run()
    assert delivered == list(range(10))
    assert int(mmio.commands_issued) == 10
    # Ten serialized stores take at least 10 x issue_cost.
    assert env.now >= 10 * 100 * NS


def test_mmio_delivery_failure_ends_the_run_in_simulation_error():
    """A command the NIC rejects by raising fails the crossing the way a
    crashed process does: the run ends in SimulationError chained from
    the exception, and the batch's later commands are not delivered."""
    env = Simulator()
    delivered = []

    def deliver(command):
        if command == "bad":
            raise ValueError("unknown command kind 'bad'")
        delivered.append(command)

    mmio = MmioPath(env, issue_cost=100 * NS, crossing_latency=300 * NS,
                    deliver=deliver)
    env.process(mmio.post_batch(["ok", "bad", "late"]))
    with pytest.raises(SimulationError) as info:
        env.run()
    assert isinstance(info.value.__cause__, ValueError)
    assert delivered == ["ok"]
    assert (env.events_created, env.now) == (6, 425 * NS)


def test_dma_read_bursts_served_in_issue_order():
    """Concurrent streaming reads must not interleave: the PCIe
    host->card lanes serve bursts FIFO, so the first-issued burst's
    chunks all arrive before the second's."""
    from repro.sim import Stream

    env = Simulator()
    dma, memory, tlb = make_dma(env)
    memory.write(tlb.translate(0), b"A" * 4096)
    memory.write(tlb.translate(8192), b"B" * 4096)
    first, second = Stream(env), Stream(env)
    arrivals = []

    def collect(tag, stream, chunks):
        for _ in range(chunks):
            yield stream.get()
            arrivals.append(tag)

    env.process(dma.read_stream(0, [1024] * 4, first))
    env.process(dma.read_stream(8192, [1024] * 4, second))
    env.process(collect("A", first, 4))
    env.process(collect("B", second, 4))
    env.run()
    assert arrivals == ["A", "A", "A", "A", "B", "B", "B", "B"]


def test_dma_read_latencies_overlap_between_bursts():
    """Outstanding reads pipeline: two back-to-back streaming reads cost
    one latency plus two occupancies, not two latencies."""
    from repro.sim import Stream

    env = Simulator()
    dma, _memory, _tlb = make_dma(env)
    done = []

    def burst(tag, vaddr):
        out = Stream(env)
        env.process(dma.read_stream(vaddr, [4096], out))
        yield out.get()
        done.append((tag, env.now))

    env.process(burst("first", 0))
    env.process(burst("second", 8192))
    env.run()
    assert [tag for tag, _ in done] == ["first", "second"]
    first_t = done[0][1]
    second_t = done[1][1]
    # The second burst finishes one occupancy later, not one full
    # latency+occupancy later.
    occupancy = dma.read_link.occupancy_ps(4096)
    assert second_t - first_t == occupancy


def test_dma_reads_and_writes_do_not_share_bandwidth():
    """PCIe is full duplex: a concurrent read must not slow a write."""
    env = Simulator()
    dma, _memory, _tlb = make_dma(env)
    times = {}

    def writer():
        start = env.now
        yield from dma.write(0, b"w" * 65536)
        times["write"] = env.now - start

    def reader():
        start = env.now
        yield from dma.read(8192, 65536)
        times["read"] = env.now - start

    env.process(writer())
    env.process(reader())
    env.run()
    solo_env = Simulator()
    solo_dma, _m, _t = make_dma(solo_env)

    def solo_writer():
        start = solo_env.now
        yield from solo_dma.write(0, b"w" * 65536)
        times["solo_write"] = solo_env.now - start

    solo_env.process(solo_writer())
    solo_env.run()
    assert times["write"] == times["solo_write"]
