"""Zero-copy payload plane: PayloadRef, scatter-gather memory access,
aliasing semantics, and the view-path == copy-path equivalence.

The plane's correctness argument has three legs, each tested here:

1. **Handle semantics** — :class:`PayloadRef` behaves like bytes for
   length/equality/slicing while never copying until ``tobytes()``.
2. **Aliasing contract** — views alias live memory; mutating a *stable*
   source (a send buffer) mid-flight changes what lands remotely, and
   copy-validation mode turns that bug into a loud
   :class:`PayloadAliasingError` instead of silent corruption.
3. **Equivalence** — for random segment layouts the view path delivers
   byte-identical wire traffic and destination memory to the eager
   copy-every-hop path (``REPRO_VALIDATE=1``).
"""

import random

import pytest

from repro.config import NIC_100G
from repro.core.payload import (PAYLOAD_STATS, PayloadAliasingError,
                                PayloadRef, as_bytes)
from repro.host import build_fabric
from repro.memory.physical import PhysicalMemory
from repro.runmode import override
from repro.sim import MS, US, Simulator

PAGE = 4096


# ---------------------------------------------------------------------------
# PayloadRef handle semantics
# ---------------------------------------------------------------------------

class TestPayloadRef:
    def test_wrap_behaves_like_bytes(self):
        ref = PayloadRef.wrap(b"hello world")
        assert len(ref) == 11
        assert ref
        assert ref == b"hello world"
        assert ref != b"hello_world"
        assert not PayloadRef.wrap(b"")

    def test_eq_against_other_refs_and_views(self):
        data = bytearray(b"abcdef")
        ref = PayloadRef.wrap(memoryview(data))
        assert ref == PayloadRef((b"abc", b"def"))
        assert ref == memoryview(b"abcdef")

    def test_concat_preserves_order_without_copy(self):
        a = bytearray(b"aaaa")
        b = bytearray(b"bbbb")
        ref = PayloadRef.concat([PayloadRef.wrap(a), PayloadRef.wrap(b)])
        assert ref == b"aaaabbbb"
        # Still aliased: mutating a source buffer shows through.
        a[0] = ord("z")
        assert ref == b"zaaabbbb"

    def test_concat_stable_only_when_all_inputs_stable(self):
        stable = PayloadRef.wrap(b"s", stable=True)
        racy = PayloadRef.wrap(b"r", stable=False)
        assert PayloadRef.concat([stable, stable])._stable
        assert not PayloadRef.concat([stable, racy])._stable

    def test_slice_across_segments(self):
        ref = PayloadRef((b"0123", b"4567", b"89"))
        assert ref.slice(2, 5) == b"23456"
        assert ref.slice(0, 10) is ref
        assert ref.slice(4, 0) == b""
        with pytest.raises(ValueError):
            ref.slice(5, 6)
        with pytest.raises(ValueError):
            ref.slice(-1, 2)

    def test_tobytes_counts_copy_only_when_joining(self):
        with override(validate=False):
            PAYLOAD_STATS.reset()
            single = PayloadRef.wrap(b"already-bytes")
            assert single.tobytes() == b"already-bytes"
            assert PAYLOAD_STATS.copy_events == 0
            assert PAYLOAD_STATS.ref_events == 1
            multi = PayloadRef((b"two", b"segs"))
            assert multi.tobytes() == b"twosegs"
            assert PAYLOAD_STATS.copy_events == 1
            assert PAYLOAD_STATS.bytes_copied == 7

    def test_as_bytes_materializes_any_representation(self):
        assert as_bytes(b"raw") == b"raw"
        assert as_bytes(bytearray(b"ba")) == b"ba"
        assert as_bytes(memoryview(b"mv")) == b"mv"
        assert as_bytes(PayloadRef.wrap(b"ref")) == b"ref"


# ---------------------------------------------------------------------------
# Scatter-gather memory access
# ---------------------------------------------------------------------------

def _mem() -> PhysicalMemory:
    return PhysicalMemory(page_bytes=PAGE, size_bytes=64 * PAGE)


class TestPhysicalMemoryViews:
    def test_read_single_page_fast_path_matches_spanning_read(self):
        mem = _mem()
        data = bytes(range(256)) * 32  # 8 KiB, spans 2 pages at offset
        mem.write(PAGE - 100, data)
        assert mem.read(PAGE - 100, len(data)) == data       # spanning
        assert mem.read(PAGE, 200) == data[100:300]          # one page
        assert mem.read(3 * PAGE, 64) == bytes(64)           # untouched

    def test_read_view_aliases_live_pages(self):
        mem = _mem()
        mem.write(0, b"\x11" * 64)
        ref = mem.read_view(0, 64)
        mem.write(0, b"\x22" * 64)
        assert ref == b"\x22" * 64

    def test_read_view_spans_pages_as_multiple_segments(self):
        mem = _mem()
        data = bytes((i * 7) % 256 for i in range(3 * PAGE))
        mem.write(100, data)
        with override(validate=False):
            ref = mem.read_view(100, len(data))
            assert len(ref.segments()) == 4
        assert ref == data

    def test_read_view_of_unmaterialized_page_is_zeros(self):
        mem = _mem()
        ref = mem.read_view(5 * PAGE, 128)
        assert ref == bytes(128)

    def test_readinto_fills_buffer(self):
        mem = _mem()
        mem.write(PAGE - 8, b"ABCDEFGHIJKLMNOP")
        out = bytearray(16)
        assert mem.readinto(PAGE - 8, out) == 16
        assert out == b"ABCDEFGHIJKLMNOP"
        with pytest.raises(TypeError):
            mem.readinto(0, memoryview(b"readonly"))

    def test_write_views_scatter_equals_contiguous_write(self):
        mem_a, mem_b = _mem(), _mem()
        parts = [b"x" * 10, memoryview(bytearray(b"y" * (PAGE + 3))),
                 b"", b"z" * 5]
        joined = b"".join(bytes(p) for p in parts)
        base = PAGE - 7
        assert mem_a.write_views(base, parts) == len(joined)
        mem_b.write(base, joined)
        assert mem_a.read(base, len(joined)) == mem_b.read(base, len(joined))

    def test_bounds_checks(self):
        mem = _mem()
        with pytest.raises(IndexError):
            mem.read(64 * PAGE - 4, 8)
        with pytest.raises(ValueError):
            mem.read_view(-1, 4)


# ---------------------------------------------------------------------------
# Copy-validation mode and the aliasing contract
# ---------------------------------------------------------------------------

class TestCopyValidation:
    def test_stable_ref_mutation_raises(self):
        buf = bytearray(b"\xAA" * 32)
        with override(validate=True):
            ref = PayloadRef.wrap(buf, stable=True)
            buf[3] = 0xBB
            with pytest.raises(PayloadAliasingError):
                ref.tobytes()

    def test_racy_ref_delivers_fetch_time_snapshot_silently(self):
        buf = bytearray(b"\xAA" * 32)
        with override(validate=True):
            ref = PayloadRef.wrap(buf, stable=False)
            buf[3] = 0xBB
            # A READ-vs-local-write race is legal: hardware pins the
            # content at DMA-fetch time, which is what the snapshot is.
            assert ref.tobytes() == b"\xAA" * 32

    def test_untouched_stable_ref_passes(self):
        with override(validate=True):
            ref = PayloadRef.wrap(bytearray(b"ok"), stable=True)
            assert ref.tobytes() == b"ok"
            assert ref.segments() == (b"ok",)


# ---------------------------------------------------------------------------
# End-to-end aliasing regression: mutate the send buffer mid-flight
# ---------------------------------------------------------------------------

SIZE_64K = 64 * 1024


def _mutating_write(env, mutate_at_ps):
    """A 64 KiB WRITE whose source buffer is overwritten mid-flight."""
    fabric = build_fabric(env, nic_config=NIC_100G)
    src = fabric.client.alloc(SIZE_64K, "src")
    dst = fabric.server.alloc(SIZE_64K, "dst")
    fabric.client.space.write(src.vaddr, b"\xAA" * SIZE_64K)

    def mutator():
        yield env.timeout(mutate_at_ps)
        fabric.client.space.write(src.vaddr, b"\xBB" * SIZE_64K)

    def writer():
        yield from fabric.client.write_sync(
            fabric.client_qpn, src.vaddr, dst.vaddr, SIZE_64K)

    env.process(mutator())
    proc = env.process(writer())
    return fabric, dst, proc


class TestMidFlightMutation:
    def test_view_path_delivers_live_bytes(self):
        # On the normal path the aliased (current) content wins for the
        # packets still in flight — exactly like hardware DMA-ing from a
        # buffer the application reused too early.
        env = Simulator()
        with override(validate=False):
            fabric, dst, proc = _mutating_write(env, 4 * US)
            env.run_until_complete(proc, limit=10 * MS)
            env.run()  # drain posted DMA commits past the ACK
        landed = fabric.server.space.read(dst.vaddr, SIZE_64K)
        assert landed.count(0xBB) > 0, "mutation missed the flight window"
        assert landed.count(0xAA) > 0, "mutation preceded every commit"

    def test_copy_validation_catches_the_mutation(self):
        env = Simulator()
        fabric, dst, proc = _mutating_write(env, 4 * US)
        with override(validate=True):
            with pytest.raises(PayloadAliasingError):
                env.run_until_complete(proc, limit=10 * MS)
                env.run()

    def test_read_vs_local_write_race_stays_legal(self):
        # Responder-side memory served to a one-sided READ may race
        # local writes (Pilaf-style stores rely on it): validation mode
        # must deliver the fetch-time snapshot without raising.
        env = Simulator()
        fabric = build_fabric(env, nic_config=NIC_100G)
        dst = fabric.client.alloc(SIZE_64K, "dst")
        src = fabric.server.alloc(SIZE_64K, "src")
        fabric.server.space.write(src.vaddr, b"\xCC" * SIZE_64K)

        def local_writer():
            yield env.timeout(3 * US)
            fabric.server.space.write(src.vaddr, b"\xDD" * SIZE_64K)

        def reader():
            yield from fabric.client.read_sync(
                fabric.client_qpn, dst.vaddr, src.vaddr, SIZE_64K)

        env.process(local_writer())
        proc = env.process(reader())
        with override(validate=True):
            env.run_until_complete(proc, limit=10 * MS)
        landed = fabric.client.space.read(dst.vaddr, SIZE_64K)
        assert set(landed) <= {0xCC, 0xDD}


# ---------------------------------------------------------------------------
# View path == copy path (property test over random segment layouts)
# ---------------------------------------------------------------------------

def _capture_wire(cable):
    """Record (opcode, psn, payload bytes) for every delivered frame."""
    captured = []
    for side in ("a", "b"):
        receiver = cable._receivers[side]
        if receiver is None:
            continue

        def hooked(packet, _receiver=receiver):
            captured.append((packet.bth.opcode.name, packet.bth.psn,
                             as_bytes(packet.payload)))
            _receiver(packet)

        cable._receivers[side] = hooked
    return captured


def _random_transfer_run(seed, validate):
    """Random page-straddling WRITEs + READs; returns (wire, memories).
    Runs per-packet: folded frames bypass the cable receivers the wire
    capture taps."""
    rng = random.Random(seed)
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_100G)
    page = fabric.client.space.page_bytes
    span = 4 * page
    src = fabric.client.alloc(span, "src")
    dst = fabric.server.alloc(span, "dst")
    rdst = fabric.client.alloc(span, "rdst")
    fabric.client.space.write(src.vaddr, rng.randbytes(span))
    fabric.server.space.write(dst.vaddr, rng.randbytes(span))
    layouts = []
    for _ in range(6):
        length = rng.randint(1, 2 * page)
        offset = rng.randint(0, span - length)
        layouts.append((offset, length))
    wire = _capture_wire(fabric.cable)

    def driver():
        for offset, length in layouts:
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr + offset,
                dst.vaddr + offset, length)
            yield from fabric.client.read_sync(
                fabric.client_qpn, rdst.vaddr + offset,
                dst.vaddr + offset, length)

    with override(fold=False, validate=validate):
        env.run_until_complete(env.process(driver()), limit=100 * MS)
    return wire, (fabric.server.space.read(dst.vaddr, span),
                  fabric.client.space.read(rdst.vaddr, span))


@pytest.mark.parametrize("seed", [7, 21, 1918])
def test_view_path_matches_copy_path_wire_traffic(seed):
    view_wire, view_mem = _random_transfer_run(seed, validate=False)
    copy_wire, copy_mem = _random_transfer_run(seed, validate=True)
    assert view_wire == copy_wire
    assert view_mem == copy_mem


# ---------------------------------------------------------------------------
# Zero per-hop copies on the clean large-message path
# ---------------------------------------------------------------------------

def test_clean_path_performs_zero_payload_copies():
    size = 256 * 1024
    env = Simulator()
    fabric = build_fabric(env, nic_config=NIC_100G)
    src = fabric.client.alloc(size, "src")
    dst = fabric.server.alloc(size, "dst")
    rdst = fabric.client.alloc(size, "rdst")
    pattern = bytes(i % 251 for i in range(size))
    fabric.client.space.write(src.vaddr, pattern)

    def driver():
        yield from fabric.client.write_sync(
            fabric.client_qpn, src.vaddr, dst.vaddr, size)
        yield from fabric.client.read_sync(
            fabric.client_qpn, rdst.vaddr, dst.vaddr, size)

    proc = env.process(driver())
    PAYLOAD_STATS.reset()
    with override(validate=False):
        env.run_until_complete(proc, limit=100 * MS)
    stats = PAYLOAD_STATS.snapshot()
    assert stats["copy_events"] == 0, stats
    assert stats["bytes_copied"] == 0, stats
    assert stats["bytes_referenced"] >= 2 * size
    assert fabric.server.space.read(dst.vaddr, size) == pattern
    assert fabric.client.space.read(rdst.vaddr, size) == pattern
