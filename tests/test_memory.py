"""Unit and property tests for the memory substrate."""

import array
import gc
import mmap
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressSpace, PhysicalMemory

PAGE = 2 * 1024 * 1024
SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_space(pages=64, stride=7):
    phys = PhysicalMemory(page_bytes=PAGE, size_bytes=pages * PAGE)
    return AddressSpace(phys, scatter_stride=stride)


# ---------------------------------------------------------------------------
# PhysicalMemory
# ---------------------------------------------------------------------------

def test_physical_memory_zero_filled():
    mem = PhysicalMemory(size_bytes=4 * PAGE)
    assert mem.read(123, 16) == b"\x00" * 16


def test_physical_memory_roundtrip():
    mem = PhysicalMemory(size_bytes=4 * PAGE)
    mem.write(1000, b"hello world")
    assert mem.read(1000, 11) == b"hello world"


def test_physical_memory_cross_page_write():
    mem = PhysicalMemory(size_bytes=4 * PAGE)
    data = bytes(range(200)) * 10
    start = PAGE - 100
    mem.write(start, data)
    assert mem.read(start, len(data)) == data
    assert mem.num_materialized_pages == 2


def test_physical_memory_bounds():
    mem = PhysicalMemory(size_bytes=2 * PAGE)
    with pytest.raises(IndexError):
        mem.read(2 * PAGE - 4, 8)
    with pytest.raises(ValueError):
        mem.read(-1, 4)


def test_physical_memory_validation():
    with pytest.raises(ValueError):
        PhysicalMemory(page_bytes=3000)
    with pytest.raises(ValueError):
        PhysicalMemory(page_bytes=PAGE, size_bytes=PAGE + 1)


def test_physical_memory_fill():
    mem = PhysicalMemory(size_bytes=2 * PAGE)
    mem.fill(10, 5, 0xAB)
    assert mem.read(10, 5) == b"\xab" * 5
    with pytest.raises(ValueError):
        mem.fill(0, 1, 300)


@settings(max_examples=50)
@given(offset=st.integers(min_value=0, max_value=3 * PAGE),
       data=st.binary(min_size=1, max_size=4096))
def test_physical_memory_write_read_property(offset, data):
    mem = PhysicalMemory(size_bytes=4 * PAGE)
    mem.write(offset, data)
    assert mem.read(offset, len(data)) == data


# Pins 64 one-page regions and writes 128 B into each; prints how far the
# peak resident set grew, in KiB (ru_maxrss is in KiB on Linux).
_SPARSE_PAGES_SCRIPT = """
import resource
from repro.memory import AddressSpace, PhysicalMemory
PAGE = 2 * 1024 * 1024
space = AddressSpace(PhysicalMemory(page_bytes=PAGE, size_bytes=128 * PAGE))
regions = [space.allocate(PAGE, f"slot{i}") for i in range(64)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for region in regions:
    space.write(region.vaddr, bytes(range(128)))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert space.physical.num_materialized_pages == 64
print(after - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss units are KiB on Linux only")
def test_small_writes_cost_only_touched_bytes():
    """A 128 B write into a fresh 2 MB page commits a 4 KiB frame, not
    the page: 64 such pages stay far below 64 x 2 MiB resident."""
    done = subprocess.run([sys.executable, "-c", _SPARSE_PAGES_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    grown_kib = int(done.stdout)
    assert grown_kib < 16 * 1024, f"peak RSS grew {grown_kib} KiB"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_stay_private():
    """Pages are private: a forked child's stores never reach the
    parent's copy of an already-materialized page."""
    mem = PhysicalMemory(size_bytes=2 * PAGE)
    mem.write(4096, b"p")            # materialize the page before fork
    pid = os.fork()
    if pid == 0:
        try:
            mem.write(4096, b"child")
            os._exit(0 if mem.read(4096, 5) == b"child" else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert mem.read(4096, 5) == b"p\x00\x00\x00\x00"


def test_read_view_outlives_its_memory():
    """An exported view keeps its page mapping alive: a ref still reads
    the live bytes after the PhysicalMemory is gone."""
    mem = PhysicalMemory(size_bytes=2 * PAGE)
    mem.write(PAGE - 3, b"abcdef")
    ref = mem.read_view(PAGE - 3, 6)
    mem.write(PAGE - 3, b"ABCDEF")   # aliased, not copied
    del mem
    gc.collect()
    assert ref == b"ABCDEF"


def _loop_write(mem, address, data):
    """The page-chunking loop every store took before the single-page
    fast path: the reference for its bytes and its pages (cut in
    bytes, whatever the view's item size)."""
    view = memoryview(data).cast("B")
    mem._check_range(address, view.nbytes)
    cursor = address
    while view.nbytes:
        page_index, offset = divmod(cursor, mem.page_bytes)
        chunk = min(view.nbytes, mem.page_bytes - offset)
        page = mem._pages.get(page_index)
        if page is None:
            page = mem._pages[page_index] = mmap.mmap(
                -1, mem.page_bytes, flags=mmap.MAP_PRIVATE)
        page[offset:offset + chunk] = view[:chunk]
        cursor += chunk
        view = view[chunk:]


def _write_both(address, data, before=()):
    """Store ``data`` through ``write`` and through the reference loop
    into two memories that took the same ``before`` stores; returns
    both memories."""
    fast = PhysicalMemory(size_bytes=4 * PAGE)
    loop = PhysicalMemory(size_bytes=4 * PAGE)
    for earlier_address, earlier in before:
        fast.write(earlier_address, earlier)
        loop.write(earlier_address, earlier)
    fast.write(address, data)
    _loop_write(loop, address, data)
    return fast, loop


def _same_image(fast, loop, address, length):
    assert sorted(fast._pages) == sorted(loop._pages)
    lo, hi = max(0, address - 64), address + length + 64
    assert fast.read(lo, hi - lo) == loop.read(lo, hi - lo)


@pytest.mark.parametrize("address, data, before", [
    # single page, into a materialized page
    (PAGE + 100, bytes(range(256)) * 4, [(PAGE, b"x")]),
    # page straddle
    (PAGE - 300, bytes(range(200)) * 3, []),
    # first touch of a page
    (3 * PAGE + 5, b"first touch", []),
    # up to the last byte of a page
    (2 * PAGE - 4, b"tail", []),
], ids=["single_page", "straddle", "first_touch", "page_end"])
def test_write_matches_chunking_loop(address, data, before):
    fast, loop = _write_both(address, data, before)
    _same_image(fast, loop, address, len(data))
    assert fast.read(address, len(data)) == data


def test_empty_write_touches_no_page():
    fast, loop = _write_both(PAGE + 7, b"")
    assert fast._pages == {} == loop._pages
    fast.write(PAGE + 7, memoryview(b""))
    assert fast.num_materialized_pages == 0


def test_non_byte_memoryview_write_matches_chunking_loop():
    """A view whose items are wider than a byte is measured and cut in
    bytes: inside one page, and 8 KiB straddling a page boundary (a cut
    in items would assign the wrong size to the first page)."""
    for address, items in ((PAGE + 32, 64), (PAGE - 8, 2048),
                           (PAGE - 4104, 2048)):
        words = memoryview(array.array("I", range(items)))
        assert words.itemsize == 4
        fast, loop = _write_both(address, words)
        _same_image(fast, loop, address, words.nbytes)
        assert fast.read(address, words.nbytes) == words.tobytes()
    with pytest.raises(IndexError):
        PhysicalMemory(size_bytes=PAGE).write(
            PAGE - 8, memoryview(array.array("I", range(4))))


@pytest.mark.parametrize("address", [PAGE + 100, PAGE - 2])
def test_write_calls_the_store_guard_first(address):
    mem = PhysicalMemory(size_bytes=4 * PAGE)
    seen = []

    def guard():
        seen.append(mem.read(address, 4))
    mem.store_guard = guard
    mem.write(address, b"abcd")
    assert seen == [b"\x00" * 4]
    assert mem.read(address, 4) == b"abcd"


def test_single_page_write_checks_the_range():
    mem = PhysicalMemory(size_bytes=2 * PAGE)
    with pytest.raises(IndexError):
        mem.write(2 * PAGE - 2, b"abc")
    with pytest.raises(ValueError):
        mem.write(-1, b"a")
    assert mem.num_materialized_pages == 0


# ---------------------------------------------------------------------------
# AddressSpace
# ---------------------------------------------------------------------------

def test_allocate_and_roundtrip():
    space = make_space()
    region = space.allocate(10_000, "buf")
    space.write(region.vaddr, b"abc" * 100)
    assert space.read(region.vaddr, 300) == b"abc" * 100


def test_virtually_contiguous_physically_scattered():
    space = make_space()
    region = space.allocate(3 * PAGE, "big")
    pa0 = space.translate(region.vaddr)
    pa1 = space.translate(region.vaddr + PAGE)
    # The scatter policy must produce discontiguous frames for the
    # page-splitting machinery to be exercised at all.
    assert pa1 != pa0 + PAGE


def test_cross_page_virtual_access():
    space = make_space()
    region = space.allocate(2 * PAGE, "span")
    start = region.vaddr + PAGE - 64
    payload = bytes(range(128))
    space.write(start, payload)
    assert space.read(start, 128) == payload


def test_split_at_page_boundaries():
    space = make_space()
    region = space.allocate(2 * PAGE, "span")
    pieces = list(space.split_at_page_boundaries(
        region.vaddr + PAGE - 100, 300))
    assert [length for _, length in pieces] == [100, 200]
    # No piece may cross a physical page boundary.
    for paddr, length in pieces:
        assert paddr // PAGE == (paddr + length - 1) // PAGE


def test_translate_unmapped_raises():
    space = make_space()
    with pytest.raises(KeyError):
        space.translate(0x1234)


def test_unmapped_access_raises():
    space = make_space()
    with pytest.raises(KeyError):
        space.read(0x1234, 8)
    with pytest.raises(KeyError):
        space.write(0x1234, b"x")
    region = space.allocate(PAGE, "last")
    # Mapped start, unmapped tail: the page after the region.
    with pytest.raises(KeyError):
        space.read(region.vaddr + PAGE - 4, 8)
    with pytest.raises(KeyError):
        space.write(region.vaddr + PAGE - 4, b"12345678")


@pytest.mark.parametrize("length", [0, -1])
def test_read_non_positive_length_raises(length):
    space = make_space()
    region = space.allocate(64, "r")
    with pytest.raises(ValueError):
        space.read(region.vaddr, length)


def test_out_of_pages():
    space = make_space(pages=2)
    with pytest.raises(MemoryError):
        space.allocate(3 * PAGE)


def test_regions_listed():
    space = make_space()
    a = space.allocate(100, "a")
    b = space.allocate(100, "b")
    assert space.regions == [a, b]
    assert a.contains(a.vaddr, 100)
    assert not a.contains(b.vaddr)


def test_region_end():
    space = make_space()
    region = space.allocate(128, "r")
    assert region.end == region.vaddr + 128


@settings(max_examples=30)
@given(offset=st.integers(min_value=0, max_value=2 * PAGE - 1),
       data=st.binary(min_size=1, max_size=8192))
def test_address_space_roundtrip_property(offset, data):
    space = make_space(pages=8)
    region = space.allocate(4 * PAGE, "prop")
    space.write(region.vaddr + offset, data)
    assert space.read(region.vaddr + offset, len(data)) == data


@settings(max_examples=30)
@given(offset=st.integers(min_value=0, max_value=2 * PAGE),
       length=st.integers(min_value=1, max_value=3 * PAGE))
def test_split_pieces_cover_exactly(offset, length):
    space = make_space(pages=16)
    region = space.allocate(6 * PAGE, "prop")
    pieces = list(space.split_at_page_boundaries(
        region.vaddr + offset, length))
    assert sum(piece_len for _, piece_len in pieces) == length
    for paddr, piece_len in pieces:
        assert piece_len > 0
        assert paddr // PAGE == (paddr + piece_len - 1) // PAGE
