"""DMA engine: the NIC's path to host memory over PCIe (Section 4.3).

Models the XDMA core with descriptor bypass: the NIC issues read/write
commands without CPU synchronization.  Each command is translated and
split by the TLB, then moves bytes over a shared, FIFO-ordered PCIe
bandwidth link.  Reads cost a round trip (~1.5 us, paper footnote 7);
writes are posted.  Completion *watches* let simulated host software poll
for data arrival without busy-looping simulation events.

Zero-copy payload plane (see :mod:`repro.core.payload`): streaming reads
hand out :class:`~repro.core.payload.PayloadRef` views over the physical
pages instead of joined copies, and writes scatter such views directly
into the destination pages.  PCIe FIFO ordering is enforced
arithmetically (:meth:`repro.sim.BandwidthLink.reserve_after`): the fixed
pre-transfer latency is folded into the reservation's floor, so a whole
burst — latency included — costs at most one timeout.  The
:class:`FetchPlan` fast path goes further: the burst is reserved
*synchronously* at issue and the consumer computes each chunk's ready
time from the slot, so a TX-path fetch costs zero scheduler events per
packet in steady state.  Since every competing transfer on a lane pays
the same latency, folding it into the floor yields timestamps identical
to sleeping the latency first (call order == wake order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..config import NicConfig
from ..core.payload import PayloadRef
from ..memory import PhysicalMemory
from ..obs.runtime import observers_for, registry_for
from ..roce.packetizer import Segments
from ..sim import (BandwidthLink, Event, Simulator, process_step,
                   terminated)
from .tlb import ChunkRun, Tlb

#: Fixed per-TLP overhead on the PCIe link (headers + DLLP traffic).
PCIE_TLP_OVERHEAD_BYTES = 24


@dataclass
class DmaCommand:
    """One kernel- or stack-issued DMA command (the 12 B command bus of
    Figure 4: virtual address + length + direction)."""

    vaddr: int
    length: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("DMA length must be positive")
        if self.vaddr < 0:
            raise ValueError("negative DMA address")


class ChunkDurations:
    """The PCIe occupancy of each chunk of a :class:`ChunkRun`
    (:meth:`DmaEngine._burst_duration` per chunk) in closed form: one
    occupancy per distinct chunk length, plus the few page-straddling
    chunks' durations patched piece by piece.  Each consumer takes its
    own representation: a per-packet consumer a list, the burst fast
    path an int64 column, the reservation only the total."""

    __slots__ = ("run", "memo", "patches")

    def __init__(self, run: ChunkRun, memo, patches) -> None:
        self.run = run
        self.memo = memo          # chunk length -> occupancy (ps)
        self.patches = patches    # straddling chunk index -> duration

    def total(self) -> int:
        """Sum over the chunks (closed form over a message's
        :class:`Segments`)."""
        memo, lengths = self.memo, self.run.lengths
        if isinstance(lengths, Segments):
            first, middle, last = map(memo.__getitem__, lengths.sizes())
            n = len(lengths)
            total = first if n == 1 else first + middle * (n - 2) + last
            length = lengths.length
        else:
            total = sum(map(memo.__getitem__, lengths))
            length = lengths.__getitem__
        return total + sum(duration - memo[length(i)]
                           for i, duration in self.patches.items())

    def listed(self) -> List[int]:
        """Each chunk's duration, as a list."""
        lengths = self.run.lengths
        if isinstance(lengths, Segments):
            lengths = lengths.lengths()
        durations = list(map(self.memo.__getitem__, lengths))
        for i, duration in self.patches.items():
            durations[i] = duration
        return durations

    def column(self) -> np.ndarray:
        """Each chunk's duration, as an int64 column (no per-chunk
        Python work over a message's :class:`Segments`)."""
        memo, lengths = self.memo, self.run.lengths
        if isinstance(lengths, Segments):
            durations = lengths.column(*map(memo.__getitem__,
                                            lengths.sizes()))
        else:
            durations = np.fromiter(map(memo.__getitem__, lengths),
                                    np.int64, len(lengths))
        for i, duration in self.patches.items():
            durations[i] = duration
        return durations


class FetchPlan:
    """Chunk source for the zero-copy TX path.

    One PCIe burst is reserved synchronously at issue; each chunk's
    completion time is then pure arithmetic (``start + cumulative
    occupancy``), so the consumer waits only when it outruns PCIe — at
    line-rate streaming charges it never does, and a fetched packet costs
    *zero* scheduler events.  Chunks come out as :class:`PayloadRef`
    views.

    The consumer takes chunks strictly in order: it waits until
    :meth:`due` (if that is still ahead), then calls :meth:`take` — an
    inline ``yield env.timeout(...)`` at most, no sub-generator.  The
    cumulative ends stay in closed form (:class:`ChunkDurations`) until
    a consumer asks: a per-packet consumer's first :meth:`due` lists
    them, and the burst fast path takes them as an int64 column
    (:meth:`ready_column`) — each without the other's work, and a fold
    that reuses its path's schedule (keyed by :meth:`shape`) not at
    all.
    """

    __slots__ = ("_dma", "_run", "_durations", "_ends", "_start",
                 "_index", "_stable")

    def __init__(self, dma: "DmaEngine", durations: ChunkDurations,
                 start: int, stable: bool = False) -> None:
        self._dma = dma
        self._run = durations.run
        self._durations = durations
        self._ends = None
        self._start = start
        self._index = 0
        self._stable = stable

    def due(self) -> int:
        """Absolute time the next chunk has crossed PCIe."""
        ends = self._ends
        if ends is None:
            ends = self._ends = list(accumulate(self._durations.listed()))
        return self._start + ends[self._index]

    def ready_column(self) -> np.ndarray:
        """Every chunk's :meth:`due` time as an int64 column: the burst
        fast path's fetch column."""
        ready = self._durations.column().cumsum()
        ready += self._start
        return ready

    def shape(self, origin: int) -> tuple:
        """What :meth:`ready_column` less ``origin`` is a function of,
        for given chunk lengths: the burst's start after ``origin``, each
        distinct length's occupancy and the straddling chunks'
        patches."""
        durations = self._durations
        return (self._start - origin, tuple(durations.memo.items()),
                tuple(durations.patches.items()))

    def take(self):
        """The next chunk (call once :meth:`due` has passed)."""
        index = self._index
        self._index = index + 1
        return self._dma._view_of(self._run[index], self._stable)

    def message_view(self) -> PayloadRef:
        """The whole fetch as one view (the burst fast path's payload;
        each chunk's view is the matching slice of it)."""
        return self._dma._view_of(self._run.span(), self._stable)


class StreamChunks:
    """Adapter giving a fetch Stream the FetchPlan consumer protocol
    (used by the per-word validation mode, which keeps the explicit
    chunk-by-chunk delivery process)."""

    __slots__ = ("_queue",)

    def __init__(self, queue) -> None:
        self._queue = queue

    def next_chunk(self):
        chunk = yield self._queue.get()
        return chunk


class DmaEngine:
    """Executes DMA commands against the host's physical memory."""

    def __init__(self, env: Simulator, config: NicConfig,
                 memory: PhysicalMemory, tlb: Tlb,
                 name: str = "dma") -> None:
        self.env = env
        self.config = config
        self.memory = memory
        self.tlb = tlb
        # PCIe is full duplex: host->card (read completions) and
        # card->host (posted writes) travel on independent lanes and do
        # not share bandwidth.  Each direction serves DMA *bursts* in
        # FIFO order; read/write latency overlaps between outstanding
        # bursts (descriptor bypass allows many in flight).
        self.read_link = BandwidthLink(
            env, config.pcie_bandwidth_bps,
            per_transfer_overhead_bytes=PCIE_TLP_OVERHEAD_BYTES,
            name=f"{name}.pcie_h2c")
        self.write_link = BandwidthLink(
            env, config.pcie_bandwidth_bps,
            per_transfer_overhead_bytes=PCIE_TLP_OVERHEAD_BYTES,
            name=f"{name}.pcie_c2h")
        self.name = name
        metrics = registry_for(env)
        self.metrics = metrics
        self.obs = observers_for(env)
        self.reads = metrics.counter(f"{name}.reads")
        self.writes = metrics.counter(f"{name}.writes")
        self.bytes_read = metrics.counter(f"{name}.bytes_read")
        self.bytes_written = metrics.counter(f"{name}.bytes_written")
        #: Payload bytes that crossed this engine by reference (views)
        #: vs. as materialized copies — the zero-copy plane's obs view.
        self.payload_ref_bytes = metrics.counter(
            f"{name}.payload_ref_bytes")
        self.payload_copy_bytes = metrics.counter(
            f"{name}.payload_copy_bytes")
        self._watches: List[Tuple[int, int, Event]] = []
        #: While a burst flight has this engine's write lane eagerly
        #: reserved, any competing write/watch must call the guard first
        #: so the flight unfolds (or flushes) before the newcomer
        #: observes lane or memory state (see repro.roce.burst).
        self.burst_guard: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Link accounting helpers
    # ------------------------------------------------------------------
    def _effective(self, num_bytes: int, sequential: bool) -> int:
        if sequential:
            return num_bytes
        # Random access wastes bandwidth on partial bursts (Section 7):
        # model as inflated occupancy.
        return int(num_bytes / self.config.pcie_random_access_factor)

    def _view_of(self, pieces, stable: bool = False) -> PayloadRef:
        """One PayloadRef spanning a chunk's TLB pieces (no copy).

        ``stable`` marks a send buffer the application must not touch
        until completion (the aliasing contract validation mode checks);
        responder-served READ sources stay ``False`` — they may legally
        race local writes."""
        memory = self.memory
        if len(pieces) == 1:
            paddr, n = pieces[0]
            return memory.read_view(paddr, n, stable=stable)
        return PayloadRef.concat(
            memory.read_view(paddr, n, stable=stable)
            for paddr, n in pieces)

    def _burst_duration(self, link: BandwidthLink, piece_lengths,
                        sequential: bool) -> int:
        occupancy = link.occupancy_ps
        total = 0
        for n in piece_lengths:
            total += occupancy(self._effective(n, sequential))
        return total

    def _chunk_durations(self, link: BandwidthLink, run: ChunkRun,
                         sequential: bool) -> ChunkDurations:
        """:meth:`_burst_duration` of each chunk of ``run``, in closed
        form: the occupancy of each distinct chunk length (first, middle
        and last of a message's segments), with the few page-straddling
        chunks patched piece by piece."""
        occupancy = link.occupancy_ps
        lengths = run.lengths
        distinct = lengths.sizes() if isinstance(lengths, Segments) \
            else set(lengths)
        memo = {n: occupancy(self._effective(n, sequential))
                for n in distinct}
        patches = {i: self._burst_duration(link, [n for _, n in pieces],
                                           sequential)
                   for i, pieces in run.straddles.items()}
        return ChunkDurations(run, memo, patches)

    def write_column(self, vaddr: int, lengths) -> Tuple[ChunkRun,
                                                         np.ndarray]:
        """The TLB pieces of ``lengths`` (a message's :class:`Segments`)
        written from ``vaddr`` on, looked up without charging the TLB, and
        each chunk's card->host occupancy as an int64 column: what
        :meth:`write_posted` reserves per chunk (the burst fold's
        write-back schedule)."""
        run = self.tlb.chunk_run(vaddr, lengths, charge=False)
        return run, self._chunk_durations(self.write_link, run,
                                          True).column()

    def _reserve_burst(self, link: BandwidthLink, latency: int,
                       piece_lengths, length: int, sequential: bool) -> int:
        """Reserve one FIFO burst of ``piece_lengths`` (``length`` bytes
        in all) on ``link``, the fixed ``latency`` folded into the slot's
        floor; returns the delay until the burst ends."""
        total = self._burst_duration(link, piece_lengths, sequential)
        now = self.env.now
        start = link.reserve_after(now + latency, total)
        link.bytes_transferred += length
        return start + total - now

    def _burst_perword(self, link: BandwidthLink, latency: int,
                       piece_lengths, sequential: bool):
        """Per-word validation mode: sleep the latency, reserve the burst
        and replay the per-word charges from the slot's start — ending at
        the same picosecond as the batched single timeout."""
        env = self.env
        yield env.timeout(latency)
        start = link.reserve(self._burst_duration(link, piece_lengths,
                                                  sequential))
        link.bytes_transferred += sum(piece_lengths)
        if start > env.now:
            yield env.timeout(start - env.now)
        yield from self._word_charges(link, piece_lengths, sequential)

    def _word_charges(self, link: BandwidthLink, piece_lengths,
                      sequential: bool):
        """Per-word validation mode: one timeout per data-path word;
        divmod spreads each piece's duration so the per-word charges sum
        to it exactly."""
        env = self.env
        for n in piece_lengths:
            duration = link.occupancy_ps(self._effective(n, sequential))
            words = self.config.words(n)
            base, extra = divmod(duration, words)
            for i in range(words):
                yield env.timeout(base + 1 if i < extra else base)

    # ------------------------------------------------------------------
    # Observer spans
    # ------------------------------------------------------------------
    def _begin_span(self, name: str, vaddr: int, length: int):
        """Open a transfer span (None when the run keeps no trace)."""
        if self.obs is None:
            return None
        return self.obs.begin_span(self.name, name, vaddr=vaddr,
                                   length=length)

    def _end_span(self, span, **details) -> None:
        if self.obs is not None:
            self.obs.end_span(span, **details)

    # ------------------------------------------------------------------
    # Transfers (process helpers: use with ``yield from``)
    # ------------------------------------------------------------------
    def read(self, vaddr: int, length: int, sequential: bool = True):
        """Fetch ``length`` bytes at virtual ``vaddr`` from host memory.

        Returns the bytes (a materialization point: kernels inspect what
        they read).  Costs one PCIe round-trip latency (which overlaps
        between outstanding reads) plus one FIFO burst on the host->card
        lanes; random access patterns pay the reduced effective
        bandwidth of Section 7.
        """
        span = self._begin_span("dma_read", vaddr, length)
        pieces = self.tlb.pieces(vaddr, length)
        lengths = [n for _, n in pieces]
        latency = self.config.pcie_read_latency
        if self.config.per_word_accounting:
            yield from self._burst_perword(self.read_link, latency, lengths,
                                           sequential)
        else:
            yield self.env.timeout(self._reserve_burst(
                self.read_link, latency, lengths, length, sequential))
        return self._read_data(pieces, length, span)

    def read_posted(self, vaddr: int, length: int, sequential: bool,
                    on_done: Callable[[bytes], None]) -> None:
        """Callback :meth:`read`: reserve the host->card burst now and
        hand the bytes to ``on_done(data)`` from one callback entry at
        the burst's end, the time a ``yield from read(...)`` caller
        would have resumed.  Per-word validation mode runs :meth:`read`
        as a process (as :meth:`write_posted` does)."""
        if self.config.per_word_accounting:
            self.env.process(
                self._read_then(vaddr, length, sequential, on_done))
            return
        span = self._begin_span("dma_read", vaddr, length)
        pieces = self.tlb.pieces(vaddr, length)
        delay = self._reserve_burst(self.read_link,
                                    self.config.pcie_read_latency,
                                    [n for _, n in pieces], length,
                                    sequential)
        self.env.call_at(delay, self._complete_read,
                         (pieces, length, span, on_done))

    def _complete_read(self, read) -> None:
        pieces, length, span, on_done = read
        on_done(self._read_data(pieces, length, span))

    def _read_then(self, vaddr: int, length: int, sequential: bool,
                   on_done: Callable[[bytes], None]):
        on_done((yield from self.read(vaddr, length, sequential)))

    def _read_data(self, pieces, length: int, span) -> bytes:
        """Materialize a finished read's bytes (burst completion)."""
        self.reads.add()
        self.bytes_read.add(length)
        self.payload_copy_bytes.add(length)
        data = b"".join(self.memory.read(paddr, n) for paddr, n in pieces) \
            if len(pieces) > 1 else self.memory.read(*pieces[0])
        self._end_span(span)
        return data

    def read_plan(self, vaddr: int, chunk_lengths,
                  stable: bool = False) -> FetchPlan:
        """Streaming fetch, zero-copy fast path: synchronously reserve
        one PCIe burst (latency folded into the slot's floor) for all of
        ``chunk_lengths`` (a message's :class:`Segments`, or any sizes)
        and return a :class:`FetchPlan` whose consumer receives each
        chunk (as a view) at exactly the time the old chunk-delivery
        process would have put it — without any per-chunk or even
        per-message events."""
        run = self.tlb.chunk_run(vaddr, chunk_lengths)
        total_bytes = run.total
        link = self.read_link
        durations = self._chunk_durations(link, run, True)
        cum = durations.total()
        start = link.reserve_after(
            self.env.now + self.config.pcie_read_latency, cum)
        link.bytes_transferred += total_bytes
        self.reads.add()
        self.bytes_read.add(total_bytes)
        self.payload_ref_bytes.add(total_bytes)
        if self.obs is not None:
            # The span closes when the burst ends (a trace entry of its
            # own, scheduled only while tracing).
            self.obs.end_span_at(
                self.obs.begin_span(self.name, "dma_stream_read",
                                    vaddr=vaddr),
                start + cum - self.env.now, length=total_bytes)
        return FetchPlan(self, durations, start, stable=stable)

    def read_stream(self, vaddr: int, chunk_lengths, out_stream,
                    stable: bool = False):
        """Streaming fetch: deliver consecutive chunks of
        ``chunk_lengths`` bytes into ``out_stream`` as they cross PCIe.

        Models the XDMA stream interface with descriptor bypass: one
        initial read latency (overlapping between outstanding bursts),
        then the burst holds the host->card lanes and delivers chunks
        cut-through — so a consumer (the TX path, a kernel) overlaps
        fetching with its own processing, and concurrent bursts are
        served strictly in issue order (no head-of-line interleaving).
        Chunks are delivered as :class:`PayloadRef` views.
        """
        span = None if self.obs is None else self.obs.begin_span(
            self.name, "dma_stream_read", vaddr=vaddr)
        run = self.tlb.chunk_run(vaddr, chunk_lengths)
        total_bytes = run.total
        env = self.env
        link = self.read_link
        durations = self._chunk_durations(link, run, True).listed()
        per_word = self.config.per_word_accounting
        if per_word:
            yield env.timeout(self.config.pcie_read_latency)
            start = link.reserve(sum(durations))
            link.bytes_transferred += total_bytes
            if start > env.now:
                yield env.timeout(start - env.now)
        else:
            start = link.reserve_after(
                env.now + self.config.pcie_read_latency, sum(durations))
            link.bytes_transferred += total_bytes
        due = start
        for pieces, duration in zip(run, durations):
            due += duration
            if per_word:
                yield from self._word_charges(
                    link, [n for _, n in pieces], True)
            elif due > env.now:
                yield env.timeout(due - env.now)
            yield out_stream.put(self._view_of(pieces, stable))
        self.reads.add()
        self.bytes_read.add(total_bytes)
        self.payload_ref_bytes.add(total_bytes)
        self._end_span(span, length=total_bytes)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _commit_write(self, vaddr: int, pieces, data, length: int,
                      span, count: int = 1) -> None:
        """Land ``data`` in the destination pages (burst completion).

        ``count`` is the number of per-packet writes the call stands
        for: the burst fast path lands a whole folded message, one view
        per physical piece, and still advances ``writes`` per packet."""
        obs = self.obs
        if obs is not None:
            # The span closes at the commit, before the data lands: the
            # same picosecond, and the monitors see the pieces first.
            obs.on_dma_commit(self, vaddr, pieces, length)
            obs.end_span(span)
        memory = self.memory
        if isinstance(data, PayloadRef):
            self.payload_ref_bytes.add(length)
            if len(pieces) == 1:
                memory.write_views(pieces[0][0], data.segments())
            else:
                offset = 0
                for paddr, n in pieces:
                    memory.write_views(paddr,
                                       data.slice(offset, n).segments())
                    offset += n
        else:
            self.payload_copy_bytes.add(length)
            view = memoryview(data)
            offset = 0
            for paddr, n in pieces:
                memory.write(paddr, view[offset:offset + n])
                offset += n
        self.writes.add(count)
        self.bytes_written.add(length)
        self._fire_watches(vaddr, length)

    def write(self, vaddr: int, data, sequential: bool = True):
        """Post ``data`` (bytes or a :class:`PayloadRef`) to virtual
        ``vaddr`` in host memory.

        Completes (in simulation) when the data is globally visible to
        the host: posted-write latency (overlapping between writes) plus
        one FIFO burst on the card->host lanes.  View payloads land in
        the destination pages by scatter-gather slice assignment — no
        staging copy anywhere on the path.
        """
        if self.burst_guard is not None:
            self.burst_guard()
        length = len(data)
        if not length:
            return
        span = self._begin_span("dma_write", vaddr, length)
        pieces = self.tlb.pieces(vaddr, length)
        lengths = [n for _, n in pieces]
        latency = self.config.pcie_write_latency
        if self.config.per_word_accounting:
            yield from self._burst_perword(self.write_link, latency, lengths,
                                           sequential)
        else:
            yield self.env.timeout(self._reserve_burst(
                self.write_link, latency, lengths, length, sequential))
        self._commit_write(vaddr, pieces, data, length, span)

    def write_posted(self, vaddr: int, data, sequential: bool = True,
                     on_done: Optional[Callable[[], None]] = None) -> None:
        """Fire-and-forget :meth:`write`: reserve the card->host burst
        synchronously and commit the data from a callback entry at the
        burst's end — the RX hot path's write costs one entry and no
        process.  ``on_done`` (if given) runs right after the data lands,
        at the exact time a ``yield from write(...)`` caller would have
        resumed."""
        if self.burst_guard is not None:
            self.burst_guard()
        length = len(data)
        if not length:
            if on_done is not None:
                on_done()
            return
        if self.config.per_word_accounting:
            if on_done is None:
                self.env.process(self.write(vaddr, data, sequential))
            else:
                self.env.process(
                    self._write_then(vaddr, data, sequential, on_done))
            return
        span = self._begin_span("dma_write", vaddr, length)
        pieces = self.tlb.pieces(vaddr, length)
        delay = self._reserve_burst(self.write_link,
                                    self.config.pcie_write_latency,
                                    [n for _, n in pieces], length,
                                    sequential)
        self.env.call_at(delay, self._complete_posted,
                         (vaddr, pieces, data, length, span, on_done))

    def _complete_posted(self, write) -> None:
        vaddr, pieces, data, length, span, on_done = write
        self._commit_write(vaddr, pieces, data, length, span)
        if on_done is not None:
            on_done()

    def _write_then(self, vaddr: int, data, sequential: bool,
                    on_done: Callable[[], None]):
        yield from self.write(vaddr, data, sequential)
        on_done()

    # ------------------------------------------------------------------
    # Completion watches (host polling support)
    # ------------------------------------------------------------------
    def watch(self, vaddr: int, length: int) -> Event:
        """An event that succeeds when a DMA write touches
        [vaddr, vaddr+length); its value is the completion timestamp."""
        if length <= 0:
            raise ValueError("watch length must be positive")
        if self.burst_guard is not None:
            # Pending folded write-backs must land (in per-packet order,
            # at per-packet times) before a new watch is installed.
            self.burst_guard()
        event = Event(self.env)
        self._watches.append((vaddr, length, event))
        return event

    def _fire_watches(self, vaddr: int, length: int) -> None:
        if not self._watches:
            return
        end = vaddr + length
        remaining = []
        for wstart, wlen, event in self._watches:
            if wstart < end and vaddr < wstart + wlen:
                event.succeed(self.env.now)
            else:
                remaining.append((wstart, wlen, event))
        self._watches = remaining


class MmioPath:
    """Host -> NIC command path (Section 4.3 driver + Controller).

    The host issues one command per memory-mapped AVX2 store; stores are
    serialized on the CPU (bounding the message rate, Section 7.1) and
    become visible to the NIC a posted-write latency later.
    """

    def __init__(self, env: Simulator, issue_cost: int,
                 crossing_latency: int, deliver: Callable[[object], None],
                 jitter_seed: int = 0, name: str = "mmio") -> None:
        self.env = env
        self.issue_cost = issue_cost
        self.crossing_latency = crossing_latency
        self.deliver = deliver
        self.name = name
        self.commands_issued = registry_for(env).counter(
            f"{name}.commands")
        self._rng = random.Random(jitter_seed)
        from ..sim import Resource
        self._cpu_port = Resource(env, capacity=1)

    def post(self, command: object):
        """Process helper: issue one command from the host CPU."""
        yield self._cpu_port.acquire()
        try:
            # Rare TLB-shootdown / cache-miss hiccups give the latency
            # distribution its p99 tail.
            cost = self.issue_cost
            if self._rng.random() < 0.02:
                cost += self.issue_cost * 3
            yield self.env.timeout(cost)
        finally:
            self._cpu_port.release()
        self.commands_issued.add()
        self.env.call_soon(self._cross, [command])

    def post_batch(self, commands):
        """Doorbell batching: several commands written to a command ring
        and announced with a *single* MMIO store — the fix Section 7.1
        anticipates for the host-bound message rate at 100 G.  The batch
        costs one store plus a small per-entry ring-write cost."""
        commands = list(commands)
        if not commands:
            return
        yield self._cpu_port.acquire()
        try:
            # Ring entries are plain (cacheable) stores: ~8x cheaper than
            # an uncached MMIO store each.
            cost = self.issue_cost + (len(commands) - 1) * \
                max(1, self.issue_cost // 8)
            yield self.env.timeout(cost)
        finally:
            self._cpu_port.release()
        self.commands_issued.add(len(commands))
        self.env.call_soon(self._cross, commands)

    # The crossing is a callback chain with the entries of the process
    # it replaces: start, the latency, delivery, termination.
    def _cross(self, commands) -> None:
        self.env.call_at(self.crossing_latency, self._arrive, commands)

    @process_step
    def _arrive(self, commands) -> None:
        for command in commands:
            self.deliver(command)
        self.env.call_soon(terminated)
