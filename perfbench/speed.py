"""Host speed probe.

On a shared host the CPU time of the same work drifts by up to 2x within
minutes (clock frequency and contention from other tenants), far more
than the changes the benchmark has to catch.  The benchmark therefore
runs this fixed pure-Python probe next to each measurement — a
miniature discrete-event loop of generators, a heap and small tuples
and dicts, a table-driven checksum and a page-by-page buffer copy, the
kinds of work the simulator does — and scales the measured host
time to a *reference host* on which one probe takes ``REFERENCE_S``
seconds of CPU time.  The probe is benchmark code: a change to the
simulator changes the measured time and leaves the probe alone, so the
scaled time moves by the same ratio as the raw time would on a steady
host.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: CPU seconds one probe takes on the reference host (about what it
#: takes on the host the bounds were measured on).
REFERENCE_S = 0.002
#: Simulated processes in the event-loop part, 20 resumes each.
PROCESSES = 60
#: A table-driven checksum over this many bytes (the CRC64 kind of work).
CHECKSUM_BYTES = 3584
#: Bytes slice-copied page by page (the payload plane kind of work).
COPY_BYTES = 1024 * 1024

_TABLE = [(i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF for i in range(256)]
_DATA = bytes(range(256)) * (CHECKSUM_BYTES // 256)
_SOURCE = bytes(COPY_BYTES)
#: Allocated once: a fresh buffer per probe would time page faults.
_TARGET = bytearray(COPY_BYTES)


def _process(pid):
    state = {}
    now = 0
    for step in range(20):
        state[step & 7] = (pid, step, now)
        now = yield (pid * 7 + step) % 13 + 1


def _event_loop():
    heap = []
    seq = 0
    for pid in range(PROCESSES):
        gen = _process(pid)
        heapq.heappush(heap, (next(gen), seq, gen))
        seq += 1
    while heap:
        now, _, gen = heapq.heappop(heap)
        try:
            delay = gen.send(now)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, gen))


def _checksum():
    table = _TABLE
    crc = 0
    for byte in _DATA:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


def _copy():
    target = _TARGET
    view = memoryview(_SOURCE)
    for offset in range(0, COPY_BYTES, 4096):
        target[offset:offset + 4096] = view[offset:offset + 4096]


def probe(clock=time.process_time):
    """Run the probe once; returns the CPU seconds it took.  The garbage
    collector is off meanwhile: a collection the probe's allocations set
    off would time the simulator's heap, not the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _event_loop()
        _checksum()
        _copy()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def scale(probes):
    """Factor from host seconds to reference-host seconds, from probes
    taken next to the measurement."""
    return REFERENCE_S / statistics.median(probes)
