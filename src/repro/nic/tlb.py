"""The NIC's Translation Lookaside Buffer (Section 4.2).

Each entry maps one 2 MB huge page to a 48-bit physical address; 16,384
entries cover 32 GB of pinned host memory.  The TLB is populated once by
the driver and never misses at run time — a miss is a configuration error.
DMA commands that cross a huge-page boundary are split into multiple
commands, none of which crosses a boundary.

A streaming transfer splits a whole run of back-to-back chunks at once
(:meth:`Tlb.chunk_run`): one table probe per page touched, with the
counters advanced in closed form by exactly what the per-chunk
:meth:`Tlb.split_command` calls would have added — the host reads them
as controller registers (``REG_TLB_LOOKUPS``, ``REG_TLB_SPLITS``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..config import NicConfig
from ..roce.packetizer import Segments


class TlbMissError(Exception):
    """Access to a virtual page the driver never pinned."""


class Tlb:
    """Fixed-capacity virtual-page -> physical-address table."""

    def __init__(self, config: NicConfig) -> None:
        self.page_bytes = config.page_bytes
        self.capacity = config.tlb_entries
        self._entries: Dict[int, int] = {}
        self.lookups = 0
        self.splits = 0
        # One-entry last-translation cache: sequential DMA (and the burst
        # fast path's chunk loop) re-translates the same huge page for
        # ~32k consecutive MTUs, so the repeat hit skips the table probe.
        self._last_vpn: int = -1
        self._last_base: int = 0
        self.cache_hits = 0
        #: A folded burst charges its destination write-backs lazily (see
        #: repro.roce.burst); any other charged translation first settles
        #: the ones the per-packet path would have made by now, so the
        #: counters and the cache see per-packet order.  None otherwise.
        self.pending_charge: Optional[Callable[[], None]] = None
        #: Bumped by every :meth:`populate`: a result derived from the
        #: entries (the burst fold's memoized write-back pieces) is
        #: valid while the epoch it was derived at is current.
        self.epoch = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def addressable_bytes(self) -> int:
        """Host memory reachable through the current entries."""
        return len(self._entries) * self.page_bytes

    def populate(self, vpn: int, physical_base: int) -> None:
        """Install one entry (driver path via the Controller)."""
        if len(self._entries) >= self.capacity and vpn not in self._entries:
            raise ValueError(f"TLB full ({self.capacity} entries)")
        if physical_base % self.page_bytes:
            raise ValueError("physical base must be huge-page aligned")
        if physical_base >= (1 << 48):
            raise ValueError("physical address exceeds 48 bits")
        self._entries[vpn] = physical_base
        # The driver may remap a pinned page: never serve a stale base.
        self._last_vpn = -1
        self.epoch += 1

    def translate(self, vaddr: int) -> int:
        """Translate one virtual address; raises :class:`TlbMissError`."""
        if self.pending_charge is not None:
            self.pending_charge()
        self.lookups += 1
        vpn, offset = divmod(vaddr, self.page_bytes)
        if vpn == self._last_vpn:
            self.cache_hits += 1
            return self._last_base + offset
        base = self._entries.get(vpn)
        if base is None:
            raise TlbMissError(f"no TLB entry for vaddr {vaddr:#x}")
        self._last_vpn = vpn
        self._last_base = base
        return base + offset

    def split_command(self, vaddr: int,
                      length: int) -> Iterator[Tuple[int, int]]:
        """Split a DMA command into (physical, length) pieces, none
        crossing a 2 MB page boundary (Section 4.2)."""
        if length <= 0:
            raise ValueError("DMA length must be positive")
        cursor = vaddr
        remaining = length
        first = True
        while remaining > 0:
            offset = cursor % self.page_bytes
            chunk = min(remaining, self.page_bytes - offset)
            if not first:
                self.splits += 1
            yield self.translate(cursor), chunk
            cursor += chunk
            remaining -= chunk
            first = False

    def pieces(self, vaddr: int, length: int) -> List[Tuple[int, int]]:
        """:meth:`split_command` as a list; a command inside one page
        (every DMA write of at most one MTU that does not straddle) is
        one translation, with no generator."""
        if length > 0 and vaddr % self.page_bytes + length <= self.page_bytes:
            return [(self.translate(vaddr), length)]
        return list(self.split_command(vaddr, length))

    def _base(self, vpn: int) -> int:
        base = self._entries.get(vpn)
        if base is None:
            raise TlbMissError(
                f"no TLB entry for vaddr {vpn * self.page_bytes:#x}")
        return base

    def chunk_run(self, vaddr: int, lengths,
                  charge: bool = True) -> "ChunkRun":
        """:meth:`split_command` for chunks of ``lengths`` bytes laid out
        back to back from ``vaddr``, as a :class:`ChunkRun`: each touched
        page is probed once (a miss raises before anything is charged),
        and only chunks that cross a page get an explicit piece list.

        With ``charge`` the counters and the last-translation cache
        advance exactly as the per-chunk ``split_command`` calls would
        have; ``charge=False`` is a pure lookup that leaves them to a
        later :meth:`charge_run`."""
        if charge and self.pending_charge is not None:
            self.pending_charge()
        run = ChunkRun(self, vaddr, lengths)
        if charge and run.total:
            self.charge_run(vaddr, run.total, len(lengths), run.pieces)
        return run

    def charge_run(self, vaddr: int, length: int, chunks: int,
                   pieces: int) -> None:
        """Advance the counters and the cache as ``chunks`` back-to-back
        :meth:`split_command` calls covering [vaddr, vaddr+length) in
        ``pieces`` pieces would have: one lookup per piece, one split per
        piece beyond the first of its chunk, and a cache hit for every
        piece except each page's first — which hits only if it is the
        page the cache already holds."""
        page = self.page_bytes
        first = vaddr // page
        last = (vaddr + length - 1) // page
        hits = pieces - (last - first + 1)
        if first == self._last_vpn:
            hits += 1
        self.lookups += pieces
        self.cache_hits += hits
        self.splits += pieces - chunks
        self._last_vpn = last
        self._last_base = self._base(last)


class ChunkRun(Sequence):
    """The (physical, length) pieces of back-to-back chunks, none
    crossing a page (:meth:`Tlb.chunk_run`).  ``run[i]`` is chunk
    ``i``'s piece list: explicit for the few chunks that straddle a page
    boundary, computed on demand (one piece) for every other, so a run
    of N chunks over P pages costs O(P) Python work, not O(N).

    ``lengths`` is any sequence of chunk sizes.  A message's closed-form
    :class:`~repro.roce.packetizer.Segments` gives its chunk offsets and
    the chunk at each page boundary by arithmetic, so a run over one
    builds no per-chunk list until a per-packet consumer asks for
    ``run[i]`` (a fold never does), and a small message (one chunk
    inside one page) costs one table probe and nothing else."""

    __slots__ = ("lengths", "total", "pieces", "straddles", "_n", "_page",
                 "_lead", "_bases", "_starts", "_split_at", "_span")

    def __init__(self, tlb: Tlb, vaddr: int, lengths) -> None:
        page = self._page = tlb.page_bytes
        self.lengths = lengths
        n = self._n = len(lengths)
        #: Offset of ``vaddr`` in its page: chunk ``i`` starts in the
        #: ``(lead + offset(i)) // page``-th page of the run.
        lead = self._lead = vaddr % page
        if isinstance(lengths, Segments):
            total = lengths.total
            if total <= 0:
                raise ValueError("DMA length must be positive")
            starts = [0, total] if n == 1 else None
        else:
            if lengths and min(lengths) <= 0:
                raise ValueError("DMA length must be positive")
            starts = list(accumulate(lengths, initial=0))
            total = starts[-1]
        #: Chunk start offsets from ``vaddr``, plus the run's end; for a
        #: multi-chunk ``Segments`` run, listed at the first ``run[i]``.
        self._starts = starts
        self.total = total
        self._span = None
        first = vaddr // page
        if total and lead + total <= page:
            # Inside one page: no boundary, no straddling chunk.
            self._bases = [tlb._base(first)]
            self._split_at = []
            self.straddles = {}
            self.pieces = n
            return
        if isinstance(lengths, Segments):
            offset, length = lengths.offset, lengths.length
            locate = lengths.index_at
        else:
            offset = starts.__getitem__
            length = lengths.__getitem__

            def locate(boundary):
                return bisect_right(starts, boundary) - 1
        last = (vaddr + total - 1) // page
        #: Physical base of each page the run touches, from the first.
        self._bases = [tlb._base(vpn) for vpn in range(first, last + 1)] \
            if total else []
        #: Chunk index of every page boundary strictly inside a chunk
        #: (each adds one piece), ascending.
        self._split_at = split_at = []
        for vpn in range(first + 1, last + 1):
            boundary = vpn * page - vaddr
            i = locate(boundary)
            if offset(i) != boundary:
                split_at.append(i)
        #: Explicit piece lists of the chunks that cross a page.
        self.straddles: Dict[int, List[Tuple[int, int]]] = {
            i: self._split(offset(i), length(i)) for i in split_at}
        #: Pieces of the whole run.
        self.pieces = self._n + len(split_at)

    def _split(self, start: int, length: int) -> List[Tuple[int, int]]:
        """The pieces of ``length`` bytes at offset ``start``."""
        page, bases = self._page, self._bases
        cursor = self._lead + start
        pieces = []
        while length:
            k, offset = divmod(cursor, page)
            take = min(length, page - offset)
            pieces.append((bases[k] + offset, take))
            cursor += take
            length -= take
        return pieces

    def span(self) -> List[Tuple[int, int]]:
        """The whole run's pieces as if it were one chunk (one per page
        touched; built once, shared by every caller)."""
        span = self._span
        if span is None:
            bases = self._bases
            span = self._span = [(bases[0] + self._lead, self.total)] \
                if len(bases) == 1 else self._split(0, self.total)
        return span

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> List[Tuple[int, int]]:
        n = self._n
        if not -n <= i < n:
            raise IndexError("chunk index out of range")
        if i < 0:
            i += n
        pieces = self.straddles.get(i)
        if pieces is not None:
            return pieces
        starts = self._starts
        if starts is None:
            starts = self._starts = list(
                accumulate(self.lengths.lengths(), initial=0))
        start = starts[i]
        k, offset = divmod(self._lead + start, self._page)
        return [(self._bases[k] + offset, starts[i + 1] - start)]

    def __iter__(self) -> Iterator[List[Tuple[int, int]]]:
        return map(self.__getitem__, range(self._n))

    def piece_count(self, j: int, k: int) -> int:
        """Total pieces of chunks ``[j, k)``."""
        split_at = self._split_at
        return k - j + bisect_left(split_at, k) - bisect_left(split_at, j)
