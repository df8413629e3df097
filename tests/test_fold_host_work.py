"""Host work of a folded message scales with pages, not packets.

The burst fast path (``repro.roce.burst``) folds a clean 256 KiB
transfer into three scheduler events; its host-side payload work must
shrink the same way: one source view and one destination write-back per
physical page run, however many packets the message spans.  Each test
counts the calls into :class:`~repro.memory.PhysicalMemory`'s zero-copy
entry points during one folded WRITE or READ, and checks that the DMA
engine still reports one write per packet (``REG_DMA_WRITES``).

Nor does a folded message build per-packet Python objects: its segments
are closed form (no :class:`~repro.roce.packetizer.Segment` until
something asks for packet ``i``), its TLB runs hold explicit piece
lists only for chunks that cross a page, and a finished flight is freed
without waiting for the cycle collector.
"""

import gc

import pytest

from repro.cluster.topology import build_pair, build_star
from repro.config import NIC_100G
from repro.memory import PhysicalMemory
from repro.nic.tlb import ChunkRun
from repro.obs import registry_for
from repro.roce import packetizer, read_response_packet_count, segment_write
from repro.roce.burst import BurstFlight
from repro.runmode import active, override
from repro.sim import MS, Simulator

pytestmark = pytest.mark.skipif(
    active().check, reason="monitors disable burst folding by design")

BIG = 256 * 1024
#: read_view / write_views calls allowed per page the transfer touches.
CALLS_PER_PAGE = 2


def _count_calls(monkeypatch):
    calls = {"read_view": 0, "write_views": 0}
    for name in calls:
        original = getattr(PhysicalMemory, name)

        def counted(self, *args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(self, *args, **kw)
        monkeypatch.setattr(PhysicalMemory, name, counted)
    return calls


def _pages(vaddr, length, page):
    return (vaddr + length - 1) // page - vaddr // page + 1


def _flat_sum(sim, suffix):
    return sum(v for k, v in
               registry_for(sim).snapshot().as_flat_dict().items()
               if k.endswith(suffix))


def _count_objects(monkeypatch):
    """Count Segment constructions, and per-chunk piece lists handed out
    by multi-chunk TLB runs (a run over one whole message is a single
    chunk and not counted); collect every multi-chunk run built."""
    counts = {"segments": 0, "chunk_lists": 0, "runs": []}
    segment = packetizer.Segment

    def counted_segment(*args):
        counts["segments"] += 1
        return segment(*args)
    monkeypatch.setattr(packetizer, "Segment", counted_segment)
    init, getitem = ChunkRun.__init__, ChunkRun.__getitem__

    def counted_init(self, *args):
        init(self, *args)
        if len(self) > 1:
            counts["runs"].append(self)

    def counted_getitem(self, i):
        if len(self) > 1:
            counts["chunk_lists"] += 1
        return getitem(self, i)
    monkeypatch.setattr(ChunkRun, "__init__", counted_init)
    monkeypatch.setattr(ChunkRun, "__getitem__", counted_getitem)
    return counts


def _transfer(topology, verb, straddle):
    """One 256 KiB WRITE or READ between two fresh hosts; returns the
    simulator, the run closure, and the transfer's facts."""
    sim = Simulator()
    if topology == "pair":
        cluster = build_pair(sim, nic_config=NIC_100G)
        client, server = cluster.hosts
        qpn = 1
    else:
        cluster = build_star(sim, 2, nic_config=NIC_100G)
        client, server = cluster.hosts
        qpn, _ = cluster.connect(client, server)
    page = client.space.page_bytes
    # Straddling: both buffers cross a huge-page boundary, at different
    # offsets, so packets split and the write-back spans two runs.
    src_off = page - BIG // 2 - 3 if straddle else 0
    dst_off = page - BIG // 3 - 1 if straddle else 0
    local = client.alloc(page + BIG, "local").vaddr
    remote = server.alloc(page + BIG, "remote").vaddr
    if verb == "write":
        src, dst = local + src_off, remote + dst_off
        src_host, dst_host = client, server
        packets = len(segment_write(BIG))
    else:
        src, dst = remote + src_off, local + dst_off
        src_host, dst_host = server, client
        packets = read_response_packet_count(BIG)
    payload = bytes(i % 251 for i in range(BIG))
    src_host.space.write(src, payload)
    pages = _pages(src, BIG, page) + _pages(dst, BIG, page)

    def run():
        def driver():
            if verb == "write":
                yield from client.write_sync(qpn, src, dst, BIG)
            else:
                yield from client.read_sync(qpn, dst, src, BIG)
        main = sim.process(driver())
        sim.run_until_complete(main, limit=100 * MS)
        sim.run()
        assert dst_host.space.read(dst, BIG) == payload

    return sim, run, dst_host, packets, pages


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("verb", ["write", "read"])
@pytest.mark.parametrize("straddle", [False, True])
def test_folded_transfer_costs_per_page(monkeypatch, topology, verb,
                                        straddle):
    sim, run, dst_host, packets, pages = _transfer(topology, verb,
                                                   straddle)
    writes_before = int(dst_host.nic.dma.writes)
    calls = _count_calls(monkeypatch)
    run()
    monkeypatch.undo()

    assert _flat_sum(sim, ".burst.folds") == 1
    assert _flat_sum(sim, ".burst.unfolds") == 0
    assert int(dst_host.nic.dma.writes) - writes_before == packets
    assert 0 < calls["read_view"] <= CALLS_PER_PAGE * pages, calls
    assert 0 < calls["write_views"] <= CALLS_PER_PAGE * pages, calls


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("verb", ["write", "read"])
@pytest.mark.parametrize("straddle", [False, True])
def test_folded_transfer_builds_no_per_packet_objects(
        monkeypatch, topology, verb, straddle):
    sim, run, _, _, pages = _transfer(topology, verb, straddle)
    counts = _count_objects(monkeypatch)
    run()
    monkeypatch.undo()

    assert _flat_sum(sim, ".burst.folds") == 1
    if not active().validate:
        # (The validation walk re-derives every packet by design.)
        assert counts["segments"] == 0
    assert counts["chunk_lists"] == 0
    # Explicit piece lists: only chunks that cross a page, at most one
    # per page boundary of the source (fetch) and destination (write
    # lane) buffers.
    explicit = [pieces for r in counts["runs"]
                for pieces in r.straddles.values()]
    assert all(len(pieces) > 1 for pieces in explicit)
    assert len(explicit) <= pages - 2
    assert bool(explicit) == straddle


@pytest.mark.parametrize("verb", ["write", "read"])
def test_per_packet_path_builds_one_segment_per_packet(monkeypatch, verb):
    with override(fold=False):
        sim, run, _, packets, _ = _transfer("pair", verb, False)
        counts = _count_objects(monkeypatch)
        run()
        monkeypatch.undo()
    assert _flat_sum(sim, ".burst.folds") == 0
    assert counts["segments"] == packets


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("verb", ["write", "read"])
def test_finished_flight_is_freed_without_the_cycle_collector(topology,
                                                              verb):
    """A folded message's columns are freed when it completes, not when
    a later cycle collection finds them: the flight sits in no
    reference cycle (its retransmit entry points at it, not back)."""
    sim, run, _, _, _ = _transfer(topology, verb, False)
    gc.collect()
    gc.disable()
    try:
        run()
        assert _flat_sum(sim, ".burst.folds") == 1
        assert not any(isinstance(o, BurstFlight) for o in gc.get_objects())
    finally:
        gc.enable()
