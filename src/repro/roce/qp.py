"""Queue-pair state: the State Table and MSN Table contents (Section 4.1).

The stack stores, per queue pair, the packet-sequence-number window needed
to classify arriving PSNs as valid / duplicate / invalid (State Table) and
the message sequence number plus current DMA address for multi-packet
writes (MSN Table).  Both tables live in on-chip memory in hardware; here
they are dataclasses indexed by QPN, with the 5-cycle access cost charged
by the pipelines that use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from .headers import PSN_MASK
from .packet import RocePacket


def psn_add(psn: int, delta: int) -> int:
    """PSN arithmetic modulo 2^24."""
    return (psn + delta) & PSN_MASK


def psn_distance(from_psn: int, to_psn: int) -> int:
    """Forward distance from ``from_psn`` to ``to_psn`` modulo 2^24."""
    return (to_psn - from_psn) & PSN_MASK


class QpError(Exception):
    """A work request completed with error status because its queue pair
    transitioned to the error state (retry budget exhausted)."""

    def __init__(self, qpn: int, reason: str = "retry budget exhausted"):
        super().__init__(f"QP {qpn} in error state: {reason}")
        self.qpn = qpn
        self.reason = reason


class PsnVerdict(Enum):
    """Classification of an arriving request PSN against the expected PSN,
    mirroring the valid / duplicate / invalid regions of the State Table."""

    EXPECTED = "expected"
    DUPLICATE = "duplicate"
    OUT_OF_ORDER = "out_of_order"


#: PSNs up to half the space behind ePSN count as duplicates.
_DUPLICATE_WINDOW = 1 << 23
# Module-level aliases: every received request is classified, and an
# Enum class-attribute read costs several times a global load.
_EXPECTED = PsnVerdict.EXPECTED
_DUPLICATE = PsnVerdict.DUPLICATE
_OUT_OF_ORDER = PsnVerdict.OUT_OF_ORDER


@dataclass
class ResponderState:
    """Per-QP state used when the NIC acts as responder."""

    expected_psn: int = 0
    #: Message sequence number returned in AETHs (MSN Table).
    msn: int = 0
    #: Current DMA virtual address for an in-flight multi-packet write;
    #: the address arrives only in the FIRST packet (MSN Table).
    write_cursor: Optional[int] = None

    def classify(self, psn: int) -> PsnVerdict:
        expected = self.expected_psn
        if psn == expected:
            return _EXPECTED
        if (expected - psn) & PSN_MASK <= _DUPLICATE_WINDOW:
            return _DUPLICATE
        return _OUT_OF_ORDER

    def clone(self) -> "ResponderState":
        """Independent copy (burst shadow validation steps a clone
        through the per-packet verdicts without touching live state)."""
        return ResponderState(expected_psn=self.expected_psn,
                              msn=self.msn,
                              write_cursor=self.write_cursor)


@dataclass
class _Unacked:
    """One requester packet awaiting acknowledgement (retransmit buffer)."""

    packet: RocePacket
    message_id: int


@dataclass
class RequesterState:
    """Per-QP state used when the NIC acts as requester."""

    next_psn: int = 0
    oldest_unacked_psn: int = 0
    #: Retransmit buffer of sent-but-unacked packets, PSN order.
    unacked: List[_Unacked] = field(default_factory=list)
    #: Monotonic id generator for requester messages.
    next_message_id: int = 0

    def allocate_psns(self, count: int) -> int:
        """Reserve ``count`` consecutive PSNs; returns the first one.

        READ requests reserve one PSN per *expected response packet*, the
        standard IB RC rule, so response PSNs interleave correctly with
        later requests.
        """
        if count < 1:
            raise ValueError("must allocate at least one PSN")
        first = self.next_psn
        self.next_psn = psn_add(self.next_psn, count)
        return first

    @property
    def outstanding_packets(self) -> int:
        return len(self.unacked)


@dataclass
class QueuePairState:
    """Everything the NIC keeps for one queue pair."""

    qpn: int
    dest_qpn: int
    dest_ip: int
    responder: ResponderState = field(default_factory=ResponderState)
    requester: RequesterState = field(default_factory=RequesterState)
    #: True once the retry budget is exhausted: no further work is accepted
    #: and outstanding WRs have been completed with error status.  Cleared
    #: by :meth:`recover` (e.g. after the peer restarts).
    in_error: bool = False
    error_reason: str = ""

    def fail(self, reason: str) -> None:
        self.in_error = True
        self.error_reason = reason

    def recover(self) -> None:
        self.in_error = False
        self.error_reason = ""


class QueuePairTable:
    """QPN-indexed table of :class:`QueuePairState` with a fixed capacity
    (the compile-time QP count of Section 4.1).

    When given a :class:`~repro.obs.metrics.MetricsRegistry` the table
    publishes ``<prefix>.created`` (counter) and ``<prefix>.active``
    (gauge) so snapshots show how much of the compile-time QP budget a
    run consumed.
    """

    def __init__(self, capacity: int, registry=None,
                 prefix: str = "qps") -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, QueuePairState] = {}
        self._created = None
        self._active = None
        if registry is not None:
            self._created = registry.counter(f"{prefix}.created")
            self._active = registry.gauge(f"{prefix}.active")

    def create(self, qpn: int, dest_qpn: int, dest_ip: int) -> QueuePairState:
        if qpn in self._entries:
            raise ValueError(f"QP {qpn} already exists")
        if len(self._entries) >= self.capacity:
            raise ValueError(f"QP table full ({self.capacity} entries)")
        state = QueuePairState(qpn=qpn, dest_qpn=dest_qpn, dest_ip=dest_ip)
        self._entries[qpn] = state
        if self._created is not None:
            self._created.add()
            self._active.set(len(self._entries))
        return state

    def get(self, qpn: int) -> QueuePairState:
        state = self._entries.get(qpn)
        if state is None:
            raise KeyError(f"unknown QP {qpn}")
        return state

    def __contains__(self, qpn: int) -> bool:
        return qpn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())
