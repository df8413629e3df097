"""Base Transport Header op-codes.

The standard RC (Reliable Connection) op-codes used by the stack, plus the
five StRoM op-codes of **Table 1** exactly as published:

=======  ==========================
op-code  description
=======  ==========================
11000    RDMA RPC Params
11001    RDMA RPC WRITE First
11010    RDMA RPC WRITE Middle
11011    RDMA RPC WRITE Last
11100    RDMA RPC WRITE Only
11101..  reserved
=======  ==========================
"""

from __future__ import annotations

from enum import IntEnum


class Opcode(IntEnum):
    """BTH op-codes understood by the StRoM RoCE stack."""

    # --- standard RC one-sided op-codes -------------------------------
    WRITE_FIRST = 0x06
    WRITE_MIDDLE = 0x07
    WRITE_LAST = 0x08
    WRITE_ONLY = 0x0A
    READ_REQUEST = 0x0C
    READ_RESPONSE_FIRST = 0x0D
    READ_RESPONSE_MIDDLE = 0x0E
    READ_RESPONSE_LAST = 0x0F
    READ_RESPONSE_ONLY = 0x10
    ACKNOWLEDGE = 0x11

    # --- StRoM extension op-codes (Table 1) ----------------------------
    RPC_PARAMS = 0b11000          # 0x18
    RPC_WRITE_FIRST = 0b11001     # 0x19
    RPC_WRITE_MIDDLE = 0b11010    # 0x1A
    RPC_WRITE_LAST = 0b11011      # 0x1B
    RPC_WRITE_ONLY = 0b11100      # 0x1C

    # --- congestion management -----------------------------------------
    #: RoCE v2 Congestion Notification Packet (IB Annex A17 assigns
    #: op-code 0b10000001).  BTH only — no RETH/AETH/payload, carries no
    #: PSN meaning, never acknowledged, exempt from the PSN window.
    CNP = 0x81


#: The five new op-codes StRoM adds (Section 3.1: "only two new IB verbs
#: and five new op-codes").
STROM_OPCODES = frozenset({
    Opcode.RPC_PARAMS,
    Opcode.RPC_WRITE_FIRST,
    Opcode.RPC_WRITE_MIDDLE,
    Opcode.RPC_WRITE_LAST,
    Opcode.RPC_WRITE_ONLY,
})

#: Reserved StRoM op-code space (11101-11111).
RESERVED_STROM_OPCODES = frozenset({0b11101, 0b11110, 0b11111})

# Module-level frozensets: a predicate is one hash probe, never a set
# built (and its members looked up on the Enum class) per call.
_WRITE_LIKE = frozenset({
    Opcode.WRITE_FIRST, Opcode.WRITE_MIDDLE, Opcode.WRITE_LAST,
    Opcode.WRITE_ONLY,
})
_RPC_WRITE_LIKE = frozenset({
    Opcode.RPC_WRITE_FIRST, Opcode.RPC_WRITE_MIDDLE, Opcode.RPC_WRITE_LAST,
    Opcode.RPC_WRITE_ONLY,
})
_READ_RESPONSE = frozenset({
    Opcode.READ_RESPONSE_FIRST, Opcode.READ_RESPONSE_MIDDLE,
    Opcode.READ_RESPONSE_LAST, Opcode.READ_RESPONSE_ONLY,
})
_FIRST = frozenset({Opcode.WRITE_FIRST, Opcode.READ_RESPONSE_FIRST,
                    Opcode.RPC_WRITE_FIRST})
_ONLY = frozenset({Opcode.WRITE_ONLY, Opcode.READ_RESPONSE_ONLY,
                   Opcode.RPC_WRITE_ONLY, Opcode.RPC_PARAMS})
_LAST = frozenset({Opcode.WRITE_LAST, Opcode.READ_RESPONSE_LAST,
                   Opcode.RPC_WRITE_LAST})
_MIDDLE = frozenset({Opcode.WRITE_MIDDLE, Opcode.READ_RESPONSE_MIDDLE,
                     Opcode.RPC_WRITE_MIDDLE})
#: Op-codes whose packet ends its message (LAST or ONLY).
TAIL_OPCODES = _LAST | _ONLY
#: Op-codes whose BTH is followed by a RETH (:func:`carries_reth`).
RETH_OPCODES = frozenset({
    Opcode.WRITE_FIRST, Opcode.WRITE_ONLY, Opcode.READ_REQUEST,
    Opcode.RPC_PARAMS, Opcode.RPC_WRITE_FIRST, Opcode.RPC_WRITE_ONLY,
})
#: Op-codes whose BTH is followed by an AETH (:func:`carries_aeth`).
AETH_OPCODES = frozenset({
    Opcode.ACKNOWLEDGE, Opcode.READ_RESPONSE_FIRST,
    Opcode.READ_RESPONSE_LAST, Opcode.READ_RESPONSE_ONLY,
})
_EXPECTS_ACK = _WRITE_LIKE | STROM_OPCODES | {Opcode.READ_REQUEST}


def is_write(opcode: Opcode) -> bool:
    """Plain RDMA WRITE family."""
    return opcode in _WRITE_LIKE


def is_rpc(opcode: Opcode) -> bool:
    """Any of the five StRoM op-codes."""
    return opcode in STROM_OPCODES


def is_rpc_write(opcode: Opcode) -> bool:
    """RPC WRITE family (payload forwarded to the kernel, Section 5.1)."""
    return opcode in _RPC_WRITE_LIKE


def is_read_response(opcode: Opcode) -> bool:
    return opcode in _READ_RESPONSE


def is_first(opcode: Opcode) -> bool:
    return opcode in _FIRST


def is_middle(opcode: Opcode) -> bool:
    return opcode in _MIDDLE


def is_last(opcode: Opcode) -> bool:
    return opcode in _LAST


def is_only(opcode: Opcode) -> bool:
    return opcode in _ONLY


def carries_reth(opcode: Opcode) -> bool:
    """Packets whose BTH is followed by a RETH: the first/only packet of a
    write-like message and READ requests.  StRoM *re-uses* the RETH of its
    RPC packets to carry the RPC op-code in the address field (§5.1)."""
    return opcode in RETH_OPCODES


def carries_aeth(opcode: Opcode) -> bool:
    """Packets carrying an AETH (ACKs and read responses)."""
    return opcode in AETH_OPCODES


def expects_ack(opcode: Opcode) -> bool:
    """Requester packets the responder must acknowledge (go-back-N)."""
    return opcode in _EXPECTS_ACK
