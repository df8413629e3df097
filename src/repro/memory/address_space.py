"""Virtual address space with 2 MB huge pages and pinned regions.

The paper's driver pins 2 MB huge pages and hands their physical addresses
to the NIC's TLB (Section 4.2).  Crucially, pages that are *virtually*
contiguous "physically might not be contiguous", forcing the TLB to split
DMA commands at page boundaries — we reproduce that by deliberately
scattering physical page frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .physical import PhysicalMemory


@dataclass(frozen=True)
class Region:
    """A pinned, virtually contiguous buffer."""

    name: str
    vaddr: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.vaddr + self.nbytes

    def contains(self, vaddr: int, length: int = 1) -> bool:
        return self.vaddr <= vaddr and vaddr + length <= self.end


class AddressSpace:
    """Maps virtual huge pages to (scattered) physical page frames.

    Acts as the process view of memory: reads and writes take virtual
    addresses, are split at huge-page boundaries and forwarded to the
    backing :class:`PhysicalMemory`.
    """

    #: Virtual addresses start here, like a mmap'd hugetlbfs region.
    VBASE = 0x7F00_0000_0000

    def __init__(self, physical: PhysicalMemory,
                 scatter_stride: int = 7) -> None:
        self.physical = physical
        self.page_bytes = physical.page_bytes
        self._page_table: Dict[int, int] = {}   # vpn -> physical base address
        self._regions: List[Region] = []
        self._next_vpn = self.VBASE // self.page_bytes
        self._free_frames = list(range(physical.size_bytes
                                       // physical.page_bytes))
        # Deterministically scatter physical frames so virtually adjacent
        # pages are physically discontiguous (exercises TLB splitting).
        if scatter_stride > 1:
            self._free_frames = (self._free_frames[::scatter_stride]
                                 + [f for i, f in enumerate(self._free_frames)
                                    if i % scatter_stride])
            seen = set()
            unique = []
            for frame in self._free_frames:
                if frame not in seen:
                    seen.add(frame)
                    unique.append(frame)
            self._free_frames = unique

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, name: str = "buf") -> Region:
        """Pin a virtually contiguous region of ``nbytes`` (rounded up to
        whole huge pages) and return it."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        num_pages = -(-nbytes // self.page_bytes)
        if num_pages > len(self._free_frames):
            raise MemoryError(
                f"out of physical pages: need {num_pages}, "
                f"have {len(self._free_frames)}")
        vaddr = self._next_vpn * self.page_bytes
        for _ in range(num_pages):
            frame = self._free_frames.pop(0)
            self._page_table[self._next_vpn] = frame * self.page_bytes
            self._next_vpn += 1
        region = Region(name=name, vaddr=vaddr, nbytes=nbytes)
        self._regions.append(region)
        return region

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    @property
    def mapped_pages(self) -> Dict[int, int]:
        """vpn -> physical base address, the driver's view handed to the TLB."""
        return dict(self._page_table)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> int:
        """Virtual to physical translation of a single address."""
        vpn, offset = divmod(vaddr, self.page_bytes)
        base = self._page_table.get(vpn)
        if base is None:
            raise KeyError(f"virtual address {vaddr:#x} is not mapped")
        return base + offset

    def split_at_page_boundaries(self, vaddr: int, length: int):
        """Yield (physical_address, chunk_length) pieces of a virtually
        contiguous access, none of which crosses a huge-page boundary —
        exactly what the NIC TLB does to DMA commands (Section 4.2)."""
        if length <= 0:
            raise ValueError("length must be positive")
        cursor = vaddr
        remaining = length
        while remaining > 0:
            offset = cursor % self.page_bytes
            chunk = min(remaining, self.page_bytes - offset)
            yield self.translate(cursor), chunk
            cursor += chunk
            remaining -= chunk

    # ------------------------------------------------------------------
    # Access through the process view
    # ------------------------------------------------------------------
    def read(self, vaddr: int, length: int) -> bytes:
        vpn, offset = divmod(vaddr, self.page_bytes)
        base = self._page_table.get(vpn)
        if base is not None and 0 < length <= self.page_bytes - offset:
            # Single-page fast path: one translation, no split.
            return self.physical.read(base + offset, length)
        parts = [self.physical.read(paddr, chunk)
                 for paddr, chunk in self.split_at_page_boundaries(
                     vaddr, length)]
        return b"".join(parts)

    def write(self, vaddr: int, data: bytes) -> None:
        if not data:
            return
        vpn, offset = divmod(vaddr, self.page_bytes)
        base = self._page_table.get(vpn)
        if base is not None and len(data) <= self.page_bytes - offset:
            self.physical.write(base + offset, data)
            return
        # Page-sized sub-views go straight down; PhysicalMemory
        # slice-assigns them without a staging copy.
        view = memoryview(data)
        for paddr, chunk in self.split_at_page_boundaries(vaddr, len(data)):
            self.physical.write(paddr, view[:chunk])
            view = view[chunk:]

