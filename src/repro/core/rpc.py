"""RPC op-codes and parameter marshalling (Section 5.1).

The RDMA RPC verb re-uses the RETH address field as an *RPC op-code* that
is matched against the kernels deployed on the remote NIC, a mechanism the
paper likens to Portals matching.  Parameters travel as the packet payload
(at most one MTU).

Every kernel's parameter block starts with a common 16-byte preamble::

    u64 response_vaddr   where the kernel RDMA-WRITEs its response
    u64 reserved

so that the NIC can report *unmatched* RPC op-codes by writing an error
code back to the requesting node, as Section 5.1 specifies, without
knowing the kernel-specific layout that follows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum


class RpcOpcode(IntEnum):
    """Well-known RPC op-codes of the kernels shipped with StRoM."""

    GET = 0x01           # Listing 2 example kernel
    TRAVERSAL = 0x02     # Section 6.2
    CONSISTENCY = 0x03   # Section 6.3
    SHUFFLE = 0x04       # Section 6.4
    HLL = 0x05           # Section 7.2


#: Error codes written to ``response_vaddr`` on failure.
RPC_ERROR_NO_KERNEL = 0xDEAD_0001
RPC_ERROR_BAD_PARAMS = 0xDEAD_0002
#: A kernel-issued DMA command fell outside its protection domain.
RPC_ERROR_PROTECTION = 0xDEAD_0003
#: The invocation exhausted its sim-time deadline or hop budget.
RPC_ERROR_TIMEOUT = 0xDEAD_0004
#: The invocation was aborted (DMA quota, pointer cycle, ...).
RPC_ERROR_ABORTED = 0xDEAD_0005
#: The target kernel is quarantined after repeated aborts.
RPC_ERROR_QUARANTINED = 0xDEAD_0006

#: Every code a requester may find in its response buffer.
RPC_ERROR_CODES = frozenset({
    RPC_ERROR_NO_KERNEL,
    RPC_ERROR_BAD_PARAMS,
    RPC_ERROR_PROTECTION,
    RPC_ERROR_TIMEOUT,
    RPC_ERROR_ABORTED,
    RPC_ERROR_QUARANTINED,
})


def is_rpc_error(value: int) -> bool:
    """Whether a response-buffer head word is an RPC error completion."""
    return value in RPC_ERROR_CODES


def rpc_error_bytes(code: int) -> bytes:
    """The 8-byte completion written back to ``response_vaddr``."""
    return code.to_bytes(8, "little")

_PREAMBLE = struct.Struct("<QQ")
PREAMBLE_SIZE = _PREAMBLE.size

#: Maximum parameter payload: one MTU worth of RPC Params payload.
MAX_PARAM_BYTES = 1024


@dataclass(frozen=True)
class RpcPreamble:
    """The common head of every parameter block."""

    response_vaddr: int
    reserved: int = 0

    def pack(self) -> bytes:
        return _PREAMBLE.pack(self.response_vaddr, self.reserved)

    @classmethod
    def unpack(cls, params: bytes) -> "RpcPreamble":
        if len(params) < PREAMBLE_SIZE:
            raise ValueError("parameter block shorter than the preamble")
        response_vaddr, reserved = _PREAMBLE.unpack_from(params)
        return cls(response_vaddr=response_vaddr, reserved=reserved)


def pack_params(preamble: RpcPreamble, body: bytes = b"") -> bytes:
    """Assemble a full parameter block."""
    blob = preamble.pack() + body
    if len(blob) > MAX_PARAM_BYTES:
        raise ValueError(
            f"parameter block {len(blob)} B exceeds {MAX_PARAM_BYTES} B")
    return blob
