"""Host work of a folded message scales with pages, not packets.

The burst fast path (``repro.roce.burst``) folds a clean 256 KiB
transfer into three scheduler events; its host-side payload work must
shrink the same way: one source view and one destination write-back per
physical page run, however many packets the message spans.  Each test
counts the calls into :class:`~repro.memory.PhysicalMemory`'s zero-copy
entry points during one folded WRITE or READ, and checks that the DMA
engine still reports one write per packet (``REG_DMA_WRITES``).
"""

import pytest

from repro.cluster.topology import build_pair, build_star
from repro.config import NIC_100G
from repro.memory import PhysicalMemory
from repro.obs import registry_for
from repro.roce import read_response_packet_count, segment_write
from repro.runmode import active
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


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("verb", ["write", "read"])
@pytest.mark.parametrize("straddle", [False, True])
def test_folded_transfer_costs_per_page(monkeypatch, topology, verb,
                                        straddle):
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
    writes_before = int(dst_host.nic.dma.writes)
    calls = _count_calls(monkeypatch)

    def driver():
        if verb == "write":
            yield from client.write_sync(qpn, src, dst, BIG)
        else:
            yield from client.read_sync(qpn, dst, src, BIG)

    main = sim.process(driver())
    sim.run_until_complete(main, limit=100 * MS)
    sim.run()
    monkeypatch.undo()

    assert _flat_sum(sim, ".burst.folds") == 1
    assert _flat_sum(sim, ".burst.unfolds") == 0
    assert dst_host.space.read(dst, BIG) == payload
    assert int(dst_host.nic.dma.writes) - writes_before == packets
    assert 0 < calls["read_view"] <= CALLS_PER_PAGE * pages, calls
    assert 0 < calls["write_views"] <= CALLS_PER_PAGE * pages, calls
