"""The Controller: the NIC's MMIO register file (Section 4.3).

The driver maps the PCIe BAR into user space (``/dev/roce`` + mmap);
register *writes* become commands to the RoCE stack, the kernels, or the
TLB (handled by :class:`MmioPath` + :meth:`StromNic.submit`), and
register *reads* return status and performance metrics.  This module
implements the read side: a stable register map over the NIC's counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover
    from .nic import StromNic


class UnknownRegisterError(KeyError):
    """Read of an unmapped BAR offset."""


#: Register offsets (8-byte registers, BAR0).
REG_PACKETS_SENT = 0x00
REG_PACKETS_RECEIVED = 0x08
REG_PAYLOAD_BYTES_SENT = 0x10
REG_PAYLOAD_BYTES_RECEIVED = 0x18
REG_ACKS_SENT = 0x20
REG_NAKS_SENT = 0x28
REG_RETRANSMITS = 0x30
REG_PACKETS_DROPPED = 0x38
REG_DUPLICATES = 0x40
REG_DMA_READS = 0x48
REG_DMA_WRITES = 0x50
REG_DMA_BYTES_READ = 0x58
REG_DMA_BYTES_WRITTEN = 0x60
REG_TLB_LOOKUPS = 0x68
REG_TLB_SPLITS = 0x70
REG_TLB_ENTRIES = 0x78
REG_QP_COUNT = 0x80
REG_KERNEL_COUNT = 0x88
REG_RPC_MATCHES = 0x90
REG_RPC_MISSES = 0x98
REG_TIMER_EXPIRATIONS = 0xA0
REG_TIMER_RECOVERIES = 0xA8
REG_TIMER_EXHAUSTIONS = 0xB0
REG_QP_ERRORS = 0xB8
REG_CMDS_REJECTED = 0xC0
REG_CRASH_DROPS = 0xC8
REG_RPC_QUARANTINED = 0xD0

#: Human-readable names, in register order (the driver's debugfs view).
REGISTER_NAMES = {
    REG_PACKETS_SENT: "packets_sent",
    REG_PACKETS_RECEIVED: "packets_received",
    REG_PAYLOAD_BYTES_SENT: "payload_bytes_sent",
    REG_PAYLOAD_BYTES_RECEIVED: "payload_bytes_received",
    REG_ACKS_SENT: "acks_sent",
    REG_NAKS_SENT: "naks_sent",
    REG_RETRANSMITS: "retransmits",
    REG_PACKETS_DROPPED: "packets_dropped",
    REG_DUPLICATES: "duplicates",
    REG_DMA_READS: "dma_reads",
    REG_DMA_WRITES: "dma_writes",
    REG_DMA_BYTES_READ: "dma_bytes_read",
    REG_DMA_BYTES_WRITTEN: "dma_bytes_written",
    REG_TLB_LOOKUPS: "tlb_lookups",
    REG_TLB_SPLITS: "tlb_splits",
    REG_TLB_ENTRIES: "tlb_entries",
    REG_QP_COUNT: "qp_count",
    REG_KERNEL_COUNT: "kernel_count",
    REG_RPC_MATCHES: "rpc_matches",
    REG_RPC_MISSES: "rpc_misses",
    REG_TIMER_EXPIRATIONS: "timer_expirations",
    REG_TIMER_RECOVERIES: "timer_recoveries",
    REG_TIMER_EXHAUSTIONS: "timer_exhaustions",
    REG_QP_ERRORS: "qp_errors",
    REG_CMDS_REJECTED: "cmds_rejected",
    REG_CRASH_DROPS: "crash_drops",
    REG_RPC_QUARANTINED: "rpc_quarantined",
}


class Controller:
    """Read-side register file over a :class:`StromNic`'s counters."""

    def __init__(self, nic: "StromNic") -> None:
        self.nic = nic
        self._readers: Dict[int, Callable[[], int]] = {
            REG_PACKETS_SENT: lambda: int(nic.packets_sent),
            REG_PACKETS_RECEIVED: lambda: int(nic.packets_received),
            REG_PAYLOAD_BYTES_SENT: lambda: int(nic.payload_bytes_sent),
            REG_PAYLOAD_BYTES_RECEIVED:
                lambda: int(nic.payload_bytes_received),
            REG_ACKS_SENT: lambda: int(nic.acks_sent),
            REG_NAKS_SENT: lambda: int(nic.naks_sent),
            REG_RETRANSMITS: lambda: int(nic.retransmitted),
            REG_PACKETS_DROPPED: lambda: int(nic.packets_dropped),
            REG_DUPLICATES: lambda: int(nic.duplicates),
            REG_DMA_READS: lambda: int(nic.dma.reads),
            REG_DMA_WRITES: lambda: int(nic.dma.writes),
            REG_DMA_BYTES_READ: lambda: int(nic.dma.bytes_read),
            REG_DMA_BYTES_WRITTEN: lambda: int(nic.dma.bytes_written),
            REG_TLB_LOOKUPS: lambda: nic.tlb.lookups,
            REG_TLB_SPLITS: lambda: nic.tlb.splits,
            REG_TLB_ENTRIES: lambda: len(nic.tlb),
            REG_QP_COUNT: lambda: len(nic.qps),
            REG_KERNEL_COUNT: lambda: len(nic.registry.deployed_opcodes),
            REG_RPC_MATCHES: lambda: int(nic.registry.matches),
            REG_RPC_MISSES: lambda: int(nic.registry.misses),
            REG_TIMER_EXPIRATIONS: lambda: int(nic.timer.expirations),
            REG_TIMER_RECOVERIES: lambda: int(nic.timer.recoveries),
            REG_TIMER_EXHAUSTIONS: lambda: int(nic.timer.exhaustions),
            REG_QP_ERRORS: lambda: int(nic.qp_errors),
            REG_CMDS_REJECTED: lambda: int(nic.commands_rejected),
            REG_CRASH_DROPS: lambda: int(nic.crash_drops),
            REG_RPC_QUARANTINED: lambda: int(nic.registry.quarantined),
        }

    def read_register(self, offset: int) -> int:
        """Immediate register read (the MMIO latency is charged by the
        host-side helper)."""
        reader = self._readers.get(offset)
        if reader is None:
            raise UnknownRegisterError(f"no register at BAR offset "
                                       f"{offset:#x}")
        return reader()

    def snapshot(self) -> Dict[str, int]:
        """All registers by name (debugfs-style dump)."""
        return {REGISTER_NAMES[offset]: self.read_register(offset)
                for offset in sorted(self._readers)}
