"""The StRoM kernel framework — the paper's primary contribution.

- :class:`StromKernel` and :class:`KernelStreams`: the fixed hardware
  interface of Listing 1.
- :class:`KernelRegistry`: Portals-style RPC op-code matching with CPU
  fallback (Section 5.1).
- :mod:`repro.core.rpc`: RPC op-codes, parameter marshalling, error codes.
- :mod:`repro.core.guard`: kernel protection domains, watchdog budgets
  and the quarantine latch (:class:`ProtectionDomain`,
  :class:`InvocationBudget`, :class:`KernelGuard`).
- :mod:`repro.core.payload`: the zero-copy payload plane
  (:class:`PayloadRef`, copy-validation mode, copy/ref accounting).
"""

from .guard import (
    ABORT_SENTINEL,
    InvocationBudget,
    KernelAbort,
    KernelGuard,
    ProtectionDomain,
)
from .kernel import (
    KernelStreams,
    MemCmd,
    RoceMeta,
    RpcInvocation,
    StromKernel,
)
from .payload import (
    PAYLOAD_STATS,
    PayloadAliasingError,
    PayloadRef,
    as_bytes,
)
from .registry import KernelRegistry
from .rpc import (
    MAX_PARAM_BYTES,
    PREAMBLE_SIZE,
    RPC_ERROR_ABORTED,
    RPC_ERROR_BAD_PARAMS,
    RPC_ERROR_CODES,
    RPC_ERROR_NO_KERNEL,
    RPC_ERROR_PROTECTION,
    RPC_ERROR_QUARANTINED,
    RPC_ERROR_TIMEOUT,
    RpcOpcode,
    RpcPreamble,
    is_rpc_error,
    pack_params,
    rpc_error_bytes,
)

__all__ = [
    "ABORT_SENTINEL",
    "InvocationBudget",
    "KernelAbort",
    "KernelGuard",
    "KernelRegistry",
    "KernelStreams",
    "MAX_PARAM_BYTES",
    "MemCmd",
    "PAYLOAD_STATS",
    "PREAMBLE_SIZE",
    "PayloadAliasingError",
    "PayloadRef",
    "ProtectionDomain",
    "RPC_ERROR_ABORTED",
    "RPC_ERROR_BAD_PARAMS",
    "RPC_ERROR_CODES",
    "RPC_ERROR_NO_KERNEL",
    "RPC_ERROR_PROTECTION",
    "RPC_ERROR_QUARANTINED",
    "RPC_ERROR_TIMEOUT",
    "RoceMeta",
    "RpcInvocation",
    "RpcOpcode",
    "RpcPreamble",
    "StromKernel",
    "as_bytes",
    "is_rpc_error",
    "pack_params",
    "rpc_error_bytes",
]
