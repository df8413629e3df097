"""Zero-copy payload plane: view-based payload handles (PayloadRef).

StRoM's FPGA datapath processes RDMA payloads at line rate because bytes
never stage through intermediate buffers — they stream from DMA to wire
and back.  The python model used to materialize a fresh ``bytes`` copy of
every payload at every hop; a :class:`PayloadRef` instead carries
*memoryviews* over the source buffer (the sender's physical-memory pages)
and materializes real bytes only at true inspection points: kernel
invocation, RPC parameter parsing, ICRC serialization, test assertions.
Forwarding hops (TX pipeline, cable, switch, RX parse) account packet
*sizes* without touching payload bytes, and the receive-side DMA writes
the views straight into the destination pages.

Aliasing contract
-----------------
A view aliases live memory: the payload observed at a materialization
point is the source buffer's content *at that simulated time*, not at
fetch time.  Two source classes exist:

- **Stable sources** (``stable=True``): requester-side send buffers.
  RDMA forbids reusing a send buffer until the operation completes (the
  ACK covers delivery, and go-back-N only re-sends not-yet-acknowledged
  PSNs), so views and copies are observationally identical on the
  contract-respecting path.  Mutating such a buffer mid-flight is the
  bug validation mode exists to catch.
- **Racy sources** (``stable=False``, the default): responder-side
  memory served to one-sided READs.  A remote READ legitimately races
  local writes (Pilaf-style stores handle this with self-verifying
  structures); hardware pins the content at DMA-fetch time, which is
  exactly when the validation snapshot is taken.

Copy-validation mode
--------------------
Under ``REPRO_VALIDATE`` (the run-mode table in :mod:`repro.runmode`
and README; scoped in code with :func:`repro.runmode.override`) the
copy-every-hop behaviour comes back: every :class:`PayloadRef`
snapshots its bytes eagerly at creation (the old fetch-time copy) and
delivers the snapshot at materialization points.  For *stable* sources
it additionally asserts that the live view still equals the snapshot —
a mismatch raises :class:`PayloadAliasingError` naming the divergence
instead of silently corrupting results.  Racy sources deliver the
snapshot without asserting (a mid-flight local write is a legal race,
not an aliasing bug).

Accounting
----------
:data:`PAYLOAD_STATS` counts payload bytes materialized as fresh copies
vs. handed across the memory boundary by reference; benchmarks print the
per-scenario delta and tests assert the clean datapath performs zero
per-hop copies.  This module imports only the stdlib and the equally
stdlib-only :mod:`repro.runmode`, so every layer (memory, nic, roce,
net) can import it without cycles.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

from ..runmode import active

Buffer = Union[bytes, bytearray, memoryview]


class PayloadAliasingError(RuntimeError):
    """A *stable* source buffer was mutated between fetch and
    materialization (a send buffer reused before completion).

    Raised only in copy-validation mode, where every ref snapshots its
    content eagerly; on the normal path the aliased (current) bytes win,
    exactly like hardware DMA-ing from a buffer the application reused
    too early.
    """


class PayloadPlaneStats:
    """Process-wide tally of payload bytes copied vs. passed by view."""

    __slots__ = ("bytes_copied", "copy_events",
                 "bytes_referenced", "ref_events")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.bytes_copied = 0
        self.copy_events = 0
        self.bytes_referenced = 0
        self.ref_events = 0

    def snapshot(self) -> dict:
        return {
            "bytes_copied": self.bytes_copied,
            "copy_events": self.copy_events,
            "bytes_referenced": self.bytes_referenced,
            "ref_events": self.ref_events,
        }


#: The global payload-plane accounting instance.
PAYLOAD_STATS = PayloadPlaneStats()

class PayloadRef:
    """A payload as an ordered sequence of buffer views.

    The segments are memoryviews (or bytes) over the *source* buffer —
    typically physical-memory pages, so a page-spanning payload is a
    scatter-gather list rather than a joined copy.  ``len()`` and
    equality work like bytes; :meth:`tobytes` is the only operation that
    materializes (and counts) a copy.
    """

    __slots__ = ("_segments", "_length", "_snapshot", "_stable")

    def __init__(self, segments: Iterable[Buffer],
                 snapshot: bytes = None, stable: bool = False) -> None:
        segs: Tuple[Buffer, ...] = tuple(
            s if isinstance(s, memoryview) or isinstance(s, bytes)
            else memoryview(s)
            for s in segments)
        self._segments = segs
        self._length = sum(len(s) for s in segs)
        self._stable = stable
        if snapshot is None and active().validate:
            # Eager fetch-time copy: the old per-hop behaviour, kept as
            # the reference the view path is checked against.
            snapshot = self._join()
        self._snapshot = snapshot

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def one(cls, segment: Buffer, stable: bool = False) -> "PayloadRef":
        """A ref over one ``memoryview`` or ``bytes`` segment (no copy):
        what the constructor builds from a one-element list, without its
        generic passes over the segments."""
        ref = cls.__new__(cls)
        ref._segments = (segment,)
        ref._length = len(segment)
        ref._stable = stable
        # The constructor's validate-mode snapshot, for one segment.
        ref._snapshot = bytes(segment) if active().validate else None
        return ref

    @classmethod
    def concat(cls, refs: Iterable["PayloadRef"]) -> "PayloadRef":
        """One ref spanning several refs' segments, in order (no copy)."""
        refs = list(refs)
        segments: List[Buffer] = []
        for ref in refs:
            segments.extend(ref._segments)
        snapshot = None
        if active().validate:
            snapshot = b"".join(
                r._snapshot if r._snapshot is not None else r._join()
                for r in refs)
        stable = bool(refs) and all(r._stable for r in refs)
        return cls(segments, snapshot=snapshot, stable=stable)

    # ------------------------------------------------------------------
    # Bytes-like surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __eq__(self, other) -> bool:
        """Content equality against bytes-likes and other refs.

        Comparison reads the *live* views (uncounted): tests comparing
        wire payloads against expected bytes must see what a receiver
        would see now.
        """
        if isinstance(other, PayloadRef):
            other = other._join()
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self._join() == bytes(other)
        return NotImplemented

    __hash__ = None  # content-mutable handle; never used as a dict key

    def __repr__(self) -> str:
        return (f"<PayloadRef {self._length}B in "
                f"{len(self._segments)} segment(s)>")

    # ------------------------------------------------------------------
    # Materialization and scatter-gather access
    # ------------------------------------------------------------------
    def _join(self) -> bytes:
        segs = self._segments
        if len(segs) == 1:
            seg = segs[0]
            return seg if isinstance(seg, bytes) else bytes(seg)
        return b"".join(segs)

    def _validate(self) -> bytes:
        """Deliver the fetch-time snapshot; for stable sources, first
        assert the live views still match it (the aliasing contract).
        Racy sources skip the check: hardware pins READ-served content
        at DMA-fetch time, so the snapshot is the accurate outcome even
        when a legal local write has since changed the memory."""
        if self._stable:
            current = self._join()
            if current != self._snapshot:
                raise PayloadAliasingError(
                    f"send buffer mutated between fetch and "
                    f"materialization: {len(self._snapshot)}B snapshot "
                    f"!= current view "
                    f"({sum(a != b for a, b in zip(self._snapshot, current))} "
                    f"byte(s) differ)")
        return self._snapshot

    def tobytes(self) -> bytes:
        """Materialize the payload as real bytes (the only copy point).

        In copy-validation mode this returns the fetch-time snapshot
        after asserting the live views still match it.
        """
        if self._snapshot is not None and active().validate:
            return self._validate()
        segs = self._segments
        if len(segs) == 1 and isinstance(segs[0], bytes):
            # Already real bytes: nothing to copy.
            PAYLOAD_STATS.ref_events += 1
            PAYLOAD_STATS.bytes_referenced += self._length
            return segs[0]
        PAYLOAD_STATS.copy_events += 1
        PAYLOAD_STATS.bytes_copied += self._length
        return self._join()

    def segments(self) -> Tuple[Buffer, ...]:
        """The underlying views, for scatter-gather consumption
        (:meth:`repro.memory.PhysicalMemory.write_views`).  Validated
        (and replaced by the snapshot) in copy-validation mode."""
        if self._snapshot is not None and active().validate:
            return (self._validate(),)
        return self._segments

    def slice(self, offset: int, length: int) -> "PayloadRef":
        """A sub-range as a new ref over sub-views (no copy)."""
        if offset < 0 or length < 0 or offset + length > self._length:
            raise ValueError(
                f"slice [{offset}, {offset + length}) outside payload "
                f"of {self._length}B")
        if offset == 0 and length == self._length:
            return self
        snapshot = None
        if self._snapshot is not None and active().validate:
            snapshot = self._snapshot[offset:offset + length]
        stable = self._stable
        parts: List[Buffer] = []
        skip = offset
        remaining = length
        for seg in self._segments:
            seg_len = len(seg)
            if skip >= seg_len:
                skip -= seg_len
                continue
            take = min(seg_len - skip, remaining)
            parts.append(seg[skip:skip + take])
            remaining -= take
            skip = 0
            if remaining == 0:
                break
        return PayloadRef(parts, snapshot=snapshot, stable=stable)


def as_bytes(payload: Union[bytes, bytearray, memoryview,
                            PayloadRef]) -> bytes:
    """Materialize any payload representation as bytes.

    The single helper every true materialization point calls: kernel
    stream delivery, RPC parameter parsing, packet serialization.
    """
    if isinstance(payload, PayloadRef):
        return payload.tobytes()
    if isinstance(payload, bytes):
        return payload
    return bytes(payload)
