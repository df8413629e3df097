"""The StRoM kernel framework: Listing 1's hardware interface in Python.

A kernel is deployed on the data path between the RoCE stack and the DMA
engine and communicates exclusively over eight streams::

    void strom_kernel(stream<ap_uint<24>>&  qpnIn,
                      stream<ap_uint<256>>& paramIn,
                      stream<net_axis<512>>& roceDataIn,
                      stream<memCmd>&        dmaCmdOut,
                      stream<net_axis<512>>& dmaDataOut,
                      stream<net_axis<512>>& dmaDataIn,
                      stream<roceMeta>&      roceMetaOut,
                      stream<net_axis<512>>& roceDataOut);

The Python mirror keeps the same eight channels with the same directions.
Timing: a kernel charges its own pipeline costs through
:meth:`StromKernel.charge_cycles` / :meth:`StromKernel.charge_streaming`;
a kernel achieving initiation interval II=1 consumes one data-path word
per clock, i.e. line rate (Section 3.4, footnote 3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Generator, Optional

from ..config import NicConfig
from ..obs.runtime import observers_for
from ..sim import Simulator, Stream
from .guard import ABORT_SENTINEL, KernelAbort, KernelGuard
from .rpc import (RPC_ERROR_BAD_PARAMS, RPC_ERROR_QUARANTINED,
                  RPC_ERROR_TIMEOUT, RpcPreamble, rpc_error_bytes)


@dataclass(frozen=True)
class MemCmd:
    """A DMA command issued by a kernel (12 B command bus of Figure 4)."""

    vaddr: int
    length: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("DMA length must be positive")
        if self.vaddr < 0:
            raise ValueError("negative address")


@dataclass(frozen=True)
class RoceMeta:
    """TX metadata a kernel emits to send an RDMA WRITE over the network
    (20 B bus of Figure 4: QPN + target virtual address + length)."""

    qpn: int
    target_vaddr: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")


@dataclass(frozen=True)
class RpcInvocation:
    """What arrives on the qpnIn/paramIn streams for one RPC."""

    qpn: int
    params: bytes


class KernelStreams:
    """The eight FIFOs of the fixed kernel interface."""

    def __init__(self, env: Simulator) -> None:
        depth = 64  # the four output FIFOs' depth
        self.qpn_in = Stream(env, name="qpnIn")
        self.param_in = Stream(env, name="paramIn")
        self.roce_data_in = Stream(env, name="roceDataIn")
        self.dma_cmd_out = Stream(env, capacity=depth, name="dmaCmdOut")
        self.dma_data_out = Stream(env, capacity=depth, name="dmaDataOut")
        self.dma_data_in = Stream(env, name="dmaDataIn")
        self.roce_meta_out = Stream(env, capacity=depth, name="roceMetaOut")
        self.roce_data_out = Stream(env, capacity=depth, name="roceDataOut")

    def drain_inputs(self) -> int:
        """Discard queued input data after an aborted invocation.

        Clears ``dmaDataIn`` (stale read completions, wake-up
        sentinels) and ``roceDataIn`` (stale RPC WRITE payload).  The
        kernel process is the sole consumer of both, so no blocked
        getter can be mid-transfer.  Output streams are left alone:
        commands already queued passed validation (posted writes cannot
        be recalled, as on real hardware) and the TX adapter may be
        mid-pair on meta/data."""
        return self.dma_data_in.clear() + self.roce_data_in.clear()

    def discard_sentinels(self) -> int:
        """Drop stale watchdog sentinels after a clean completion."""
        return (self.dma_data_in.discard(ABORT_SENTINEL)
                + self.roce_data_in.discard(ABORT_SENTINEL))


class StromKernel:
    """Base class for StRoM kernels.

    Subclasses implement :meth:`parse_params` (raises on a malformed
    parameter block) and :meth:`serve` (a generator handling one
    invocation); the base :meth:`run` loop turns parse failures into
    ``RPC_ERROR_BAD_PARAMS`` completions and — for kernels deployed
    with a :class:`~repro.core.guard.KernelGuard` — enforces protection
    domains, watchdog budgets and the quarantine latch.  The NIC wires
    the streams to the RoCE stack and the DMA engine and starts the
    kernel when it is deployed.
    """

    #: Human-readable kernel name (diagnostics only).
    name = "strom-kernel"

    def __init__(self, env: Simulator, config: NicConfig) -> None:
        self.env = env
        self.config = config
        self.streams = KernelStreams(env)
        self.invocations = 0
        #: Hardening state; None unless deployed with protection/budget.
        self.guard: Optional[KernelGuard] = None
        #: Invocations answered with RPC_ERROR_BAD_PARAMS.
        self.params_rejected = 0
        #: Invocations aborted by the guard (any error code).
        self.aborts = 0
        #: Queued invocations refused because the kernel is quarantined.
        self.invocations_refused = 0
        #: Fault-injection hook: a positive sim-time makes the kernel
        #: stall (a stuck pipeline stage) until that instant.
        self.stall_until = 0
        #: Observer slot (invocation spans, guard monitors); None
        #: unless the run is observed.
        self.obs = observers_for(env)
        #: Span source label; the NIC overrides this at deploy time with
        #: a NIC-qualified name (e.g. ``nic0.kernel.strom-kv``).
        self.trace_source = f"kernel.{self.name}"
        self._invocation_span = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the kernel's process(es)."""
        self.env.process(self.run())

    def parse_params(self, raw: bytes):
        """Decode the invocation's parameter block.

        ``ValueError`` / ``struct.error`` / ``KeyError`` raised here
        answer the requester with ``RPC_ERROR_BAD_PARAMS`` instead of
        crashing the kernel process."""
        return raw

    def serve(self, invocation: RpcInvocation, params) -> Generator:
        """Handle one invocation; must be overridden."""
        raise NotImplementedError
        yield  # pragma: no cover

    def run(self) -> Generator:
        """The shared main loop: parse, guard, serve, complete."""
        while True:
            invocation = yield from self.next_invocation()
            guard = self.guard
            try:
                params = self.parse_params(invocation.params)
            except (ValueError, KeyError, struct.error):
                self.params_rejected += 1
                yield from self._complete_error(
                    invocation, RPC_ERROR_BAD_PARAMS)
                continue
            if guard is not None:
                if guard.quarantined:
                    # Dispatched before the quarantine latched; answer
                    # without serving (the NIC refuses newer RPCs).
                    self.invocations_refused += 1
                    yield from self._complete_error(
                        invocation, RPC_ERROR_QUARANTINED)
                    continue
                if self.obs is not None:
                    self.obs.on_kernel_serve(self)
                guard.begin(self.env.now)
                if guard.budget is not None \
                        and guard.budget.deadline_ps is not None:
                    self.env.process(self._watchdog(guard, guard.epoch))
            try:
                yield from self.serve(invocation, params)
            except KernelAbort as abort:
                self.aborts += 1
                self.streams.drain_inputs()
                if guard is not None:
                    guard.note_abort(abort.code)
                yield from self._complete_error(invocation, abort.code)
            except ValueError:
                # Malformed parameters only discovered mid-serve (e.g.
                # a value position beyond the element size).
                self.params_rejected += 1
                self.streams.drain_inputs()
                if guard is not None and guard.active:
                    guard.abandon()
                yield from self._complete_error(
                    invocation, RPC_ERROR_BAD_PARAMS)
            else:
                if guard is not None:
                    if guard.pending_abort is not None:
                        # Watchdog fired after the response was already
                        # emitted: completed, but clean up its wake-ups.
                        self.streams.discard_sentinels()
                    guard.finish()
                    if self.obs is not None:
                        self.obs.on_kernel_finish(self)

    def _complete_error(self, invocation: RpcInvocation, code: int):
        """Write an 8-byte error completion to the response buffer."""
        try:
            preamble = RpcPreamble.unpack(invocation.params)
        except ValueError:
            return  # not even a preamble: nowhere to respond
        yield from self.send_to_network(
            invocation.qpn, preamble.response_vaddr, rpc_error_bytes(code))

    def _watchdog(self, guard: KernelGuard, epoch: int) -> Generator:
        """Deadline watchdog for one invocation (spawned only when a
        deadline budget is set — zero events otherwise)."""
        yield self.env.timeout(guard.budget.deadline_ps)
        if guard.epoch != epoch or not guard.active:
            return  # invocation already over
        guard.expire(RPC_ERROR_TIMEOUT, "invocation deadline exceeded")
        # Wake the kernel if it is blocked waiting for input.
        self.streams.dma_data_in.try_put(ABORT_SENTINEL)
        self.streams.roce_data_in.try_put(ABORT_SENTINEL)

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    def charge_cycles(self, cycles: int):
        """Event: ``cycles`` of the RoCE clock (fixed pipeline latency)."""
        return self.env.timeout(self.config.cycles(cycles))

    def charge_streaming(self, num_bytes: int):
        """Event: stream ``num_bytes`` through an II=1 pipeline stage.

        In :attr:`NicConfig.per_word_accounting` mode the charge runs as
        a process of one timeout per data-path word; it completes at the
        same picosecond as the batched timeout.
        """
        config = self.config
        if config.per_word_accounting:
            return self.env.process(
                config.streaming_charge(self.env, num_bytes))
        return self.env.timeout(config.streaming_time(num_bytes))

    # ------------------------------------------------------------------
    # Stream conveniences (process helpers, use with ``yield from``)
    # ------------------------------------------------------------------
    # A put yields only when it blocked: a completed put's event is
    # already processed, so yielding it would resume inline anyway, at
    # the cost of a round trip through every delegating frame.
    def next_invocation(self):
        """Wait for the next RPC: reads qpnIn and paramIn together, the
        way every published kernel's first stage does (Listing 3)."""
        obs = self.obs
        if obs is not None:
            # The previous invocation ends where the kernel loops back
            # for the next one (kernels block forever on qpnIn).
            obs.end_span(self._invocation_span)
            self._invocation_span = None
        qpn = yield self.streams.qpn_in.get()
        params = yield self.streams.param_in.get()
        self.invocations += 1
        if obs is not None:
            self._invocation_span = obs.begin_span(
                self.trace_source, "invocation", qpn=qpn)
        return RpcInvocation(qpn=qpn, params=params)

    def dma_read(self, vaddr: int, length: int):
        """Issue a DMA read command and wait for the data.

        With a guard attached the access is validated against the
        protection domain and charged against the DMA quota *before*
        the command is enqueued; a violation raises
        :class:`~repro.core.guard.KernelAbort`."""
        guard = self.guard
        if guard is not None and guard.active:
            guard.charge_dma(vaddr, length, False, self.env.now)
        put = self.streams.dma_cmd_out.put(
            MemCmd(vaddr=vaddr, length=length, is_write=False))
        if not put.processed:
            yield put
        data = yield self.streams.dma_data_in.get()
        if data is ABORT_SENTINEL:
            raise guard.take_abort()
        if self.stall_until:
            yield from self._stall()
        return data

    def dma_write(self, vaddr: int, data: bytes):
        """Issue a DMA write command followed by its data."""
        guard = self.guard
        if guard is not None and guard.active:
            guard.charge_dma(vaddr, len(data), True, self.env.now)
        put = self.streams.dma_cmd_out.put(
            MemCmd(vaddr=vaddr, length=len(data), is_write=True))
        if not put.processed:
            yield put
        put = self.streams.dma_data_out.put(data)
        if not put.processed:
            yield put

    def send_to_network(self, qpn: int, target_vaddr: int, data: bytes):
        """Emit an RDMA WRITE of ``data`` to the requester's memory."""
        guard = self.guard
        if guard is not None and guard.active:
            guard.check_live(self.env.now)
        put = self.streams.roce_meta_out.put(
            RoceMeta(qpn=qpn, target_vaddr=target_vaddr, length=len(data)))
        if not put.processed:
            yield put
        put = self.streams.roce_data_out.put(data)
        if not put.processed:
            yield put

    def receive_payload(self):
        """Wait for one RPC WRITE payload chunk on roceDataIn."""
        guard = self.guard
        if guard is not None and guard.active:
            guard.check_live(self.env.now)
        chunk = yield self.streams.roce_data_in.get()
        if chunk is ABORT_SENTINEL:
            raise guard.take_abort()
        if self.stall_until:
            yield from self._stall()
        return chunk

    def _stall(self):
        """Serve an injected stuck-pipeline fault, then re-check the
        watchdog so a stalled invocation aborts promptly."""
        now = self.env.now
        if self.stall_until > now:
            yield self.env.timeout(self.stall_until - now)
        guard = self.guard
        if guard is not None and guard.active:
            guard.check_live(self.env.now)
