"""RPC op-code -> kernel matching (Section 5.1).

"the address field encodes an RPC op-code that is used to match the
request against the deployed StRoM kernels on the remote NIC ...
If the RPC op-code does not match any of the deployed kernels, either a
fallback implementation on the remote CPU is triggered (if configured a
priori by the remote CPU) or an error code is written back to the
requesting node."
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..obs.metrics import Counter
from .kernel import StromKernel


class KernelRegistry:
    """Kernels deployed on one NIC, keyed by RPC op-code."""

    def __init__(self) -> None:
        self._kernels: Dict[int, StromKernel] = {}
        self._fallback: Optional[Callable] = None
        self.matches = Counter("rpc.matches")
        self.misses = Counter("rpc.misses")
        self.fallbacks = Counter("rpc.fallbacks")
        self.quarantined = Counter("rpc.quarantined")

    def deploy(self, rpc_opcode: int, kernel: StromKernel) -> None:
        """Deploy (and start) a kernel under ``rpc_opcode``.

        Re-deploying an op-code replaces the previous kernel — the
        run-time interchangeability enabled by the fixed interface and
        partial reconfiguration (Section 3.3).
        """
        self._kernels[rpc_opcode] = kernel
        kernel.start()

    def set_fallback(self, handler: Callable) -> None:
        """Configure the remote-CPU fallback: ``handler(qpn, opcode,
        params)`` is a generator run as a host process on a miss."""
        self._fallback = handler

    def resolve(self, rpc_opcode: int) \
            -> Tuple[Optional[StromKernel], str]:
        """Match one RPC against the deployed kernels.

        Returns ``(kernel, status)`` with status ``"match"``,
        ``"miss"`` or ``"quarantined"`` — a quarantined kernel (its
        guard latched after repeated aborts) is returned alongside the
        status so callers can answer ``RPC_ERROR_QUARANTINED`` without
        feeding it.  Exactly one of the three counters increments.
        """
        kernel = self._kernels.get(rpc_opcode)
        if kernel is None:
            self.misses.add()
            return None, "miss"
        if kernel.guard is not None and kernel.guard.quarantined:
            self.quarantined.add()
            return kernel, "quarantined"
        self.matches.add()
        return kernel, "match"

    def match(self, rpc_opcode: int) -> Optional[StromKernel]:
        kernel, status = self.resolve(rpc_opcode)
        return kernel if status == "match" else None

    @property
    def fallback(self) -> Optional[Callable]:
        return self._fallback

    @property
    def deployed_opcodes(self):
        return sorted(self._kernels)
