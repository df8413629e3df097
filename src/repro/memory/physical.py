"""Sparse, byte-addressable physical memory.

This is the DRAM image both the host CPU and the NIC's DMA engine operate
on.  A page materializes on its first write as a private anonymous
mapping of the full page size, which the kernel commits and zero-fills
4 KiB at a time as bytes are first touched.  So multi-gigabyte address
spaces cost only what is actually written: a 128 B write into a fresh
2 MB page makes one 4 KiB frame resident, not 2 MB.

The zero-copy payload plane (see :mod:`repro.core.payload`) enters memory
here: :meth:`PhysicalMemory.read_view` hands out a :class:`PayloadRef` of
memoryviews over the page mappings instead of a joined copy, and
:meth:`PhysicalMemory.write_views` scatter-writes such views directly
into the destination pages.  Pages never resize, and an exported view
keeps its mapping alive, so views stay valid even after the memory
itself is dropped.
"""

from __future__ import annotations

import mmap
from typing import Dict, Iterable, Optional

from ..core.payload import PAYLOAD_STATS, Buffer, PayloadRef


class PhysicalMemory:
    """Byte-addressable memory with lazily materialized pages.

    Reads of never-written memory return zero bytes, like freshly
    zero-filled pages from the OS.  A written page is an anonymous
    ``MAP_PRIVATE`` mapping: committed 4 KiB at a time on first touch,
    and, like the process's other private memory, copy-on-write across
    ``fork`` (a child's stores never reach the parent's pages).
    """

    def __init__(self, page_bytes: int = 2 * 1024 * 1024,
                 size_bytes: int = 32 * 1024 * 1024 * 1024) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a positive power of two")
        if size_bytes <= 0 or size_bytes % page_bytes:
            raise ValueError("memory size must be a multiple of the page size")
        self.page_bytes = page_bytes
        self.size_bytes = size_bytes
        self._pages: Dict[int, mmap.mmap] = {}
        # Shared zero page backing views of never-materialized memory.
        self._zeros: Optional[bytes] = None
        #: While a burst flight is folded over views of this memory, any
        #: store must call the guard first: per-packet commits deref the
        #: live source at each packet's landing time, so a mid-flight
        #: mutation forces the flight back to per-packet commit times
        #: (see repro.roce.burst).  None outside a fold — one truthiness
        #: check per store.
        self.store_guard = None

    @property
    def num_materialized_pages(self) -> int:
        return len(self._pages)

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0:
            raise ValueError("negative address or length")
        if address + length > self.size_bytes:
            raise IndexError(
                f"access [{address:#x}, {address + length:#x}) beyond "
                f"memory end {self.size_bytes:#x}")

    def _zero_view(self, length: int) -> memoryview:
        """A view of ``length`` zero bytes (shared, immutable backing)."""
        zeros = self._zeros
        if zeros is None or len(zeros) < length:
            zeros = self._zeros = bytes(max(length, self.page_bytes))
        return memoryview(zeros)[:length]

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical ``address``.

        Materializes a fresh copy (counted by the payload plane); use
        :meth:`read_view` on data paths that only forward the bytes.
        """
        self._check_range(address, length)
        stats = PAYLOAD_STATS
        stats.copy_events += 1
        stats.bytes_copied += length
        page_index, offset = divmod(address, self.page_bytes)
        if offset + length <= self.page_bytes:
            # Single-page fast path: one slice, no assembly loop.
            page = self._pages.get(page_index)
            if page is None:
                return bytes(length)
            return bytes(memoryview(page)[offset:offset + length])
        out = bytearray()
        remaining = length
        cursor = address
        while remaining > 0:
            page_index, offset = divmod(cursor, self.page_bytes)
            chunk = min(remaining, self.page_bytes - offset)
            page = self._pages.get(page_index)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[offset:offset + chunk])
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def read_view(self, address: int, length: int,
                  stable: bool = False) -> PayloadRef:
        """The bytes at [address, address+length) as a :class:`PayloadRef`
        of views over the live pages — no copy.

        The ref aliases memory: later writes to the range are visible
        through it (see the aliasing contract in
        :mod:`repro.core.payload`; ``stable=True`` marks a send buffer
        the application has promised not to touch until completion).
        Never-materialized pages are backed by a shared zero buffer,
        which a later first-touch write does *not* update — matching
        what a copy at fetch time would return.
        """
        self._check_range(address, length)
        stats = PAYLOAD_STATS
        stats.ref_events += 1
        stats.bytes_referenced += length
        page_index, offset = divmod(address, self.page_bytes)
        if length and offset + length <= self.page_bytes:
            # Single-page fast path: one view, one segment.
            page = self._pages.get(page_index)
            if page is None:
                return PayloadRef.one(self._zero_view(length), stable)
            return PayloadRef.one(memoryview(page)[offset:offset + length],
                                  stable)
        segments = []
        remaining = length
        cursor = address
        while remaining > 0:
            page_index, offset = divmod(cursor, self.page_bytes)
            chunk = min(remaining, self.page_bytes - offset)
            page = self._pages.get(page_index)
            if page is None:
                segments.append(self._zero_view(chunk))
            else:
                segments.append(memoryview(page)[offset:offset + chunk])
            cursor += chunk
            remaining -= chunk
        return PayloadRef(segments, stable=stable)

    def write(self, address: int, data) -> None:
        """Write ``data`` (bytes-like, views included) at ``address``.

        Slice-assigns straight into the pages: passing a memoryview
        stages no intermediate copy.
        """
        if self.store_guard is not None:
            self.store_guard()
        # Measured and cut in bytes: a view's len() and slices count its
        # items, which may be wider than a byte.
        view = memoryview(data).cast("B")
        length = view.nbytes
        self._check_range(address, length)
        page_index, offset = divmod(address, self.page_bytes)
        if length and offset + length <= self.page_bytes:
            # Single-page fast path: one slice assignment, no chunking
            # loop.
            page = self._pages.get(page_index)
            if page is None:
                page = mmap.mmap(-1, self.page_bytes, flags=mmap.MAP_PRIVATE)
                self._pages[page_index] = page
            page[offset:offset + length] = view
            return
        cursor = address
        while view.nbytes:
            page_index, offset = divmod(cursor, self.page_bytes)
            chunk = min(view.nbytes, self.page_bytes - offset)
            page = self._pages.get(page_index)
            if page is None:
                page = mmap.mmap(-1, self.page_bytes, flags=mmap.MAP_PRIVATE)
                self._pages[page_index] = page
            page[offset:offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    def write_views(self, address: int, segments: Iterable[Buffer]) -> int:
        """Scatter-gather write: lay ``segments`` down contiguously at
        ``address``, each slice-assigned directly into the pages (the
        DMA write-back path of the zero-copy plane).  Returns the total
        byte count (a segment of wider items counts its bytes)."""
        cursor = address
        total = 0
        for segment in segments:
            n = memoryview(segment).nbytes
            if n == 0:
                continue
            self.write(cursor, segment)
            cursor += n
            total += n
        stats = PAYLOAD_STATS
        stats.ref_events += 1
        stats.bytes_referenced += total
        return total

    def fill(self, address: int, length: int, value: int = 0) -> None:
        """Fill ``length`` bytes at ``address`` with ``value``."""
        if not 0 <= value <= 255:
            raise ValueError("fill value must be a byte")
        self.write(address, bytes([value]) * length)

