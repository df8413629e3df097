"""Time units for the simulation engine.

The engine keeps time as an integer number of **picoseconds**.  Integers keep
the event heap deterministic (no floating-point drift when summing many small
delays) and a picosecond granularity is fine enough to represent one cycle of
every clock in the system exactly (156.25 MHz -> 6400 ps, 250 MHz -> 4000 ps,
322 MHz -> 3105 ps rounded, 3.6 GHz -> 278 ps rounded).
"""

from __future__ import annotations

#: One picosecond (the base unit).
PS = 1
#: One nanosecond in picoseconds.
NS = 1_000
#: One microsecond in picoseconds.
US = 1_000_000
#: One millisecond in picoseconds.
MS = 1_000_000_000
#: One second in picoseconds.
SEC = 1_000_000_000_000


def from_seconds(seconds: float) -> int:
    """Convert a duration in seconds to integer picoseconds."""
    return int(round(seconds * SEC))


def to_seconds(picoseconds: int) -> float:
    """Convert integer picoseconds to (float) seconds."""
    return picoseconds / SEC


def to_micros(picoseconds: int) -> float:
    """Convert integer picoseconds to (float) microseconds."""
    return picoseconds / US


def cycles_to_ps(cycles: int, frequency_hz: float) -> int:
    """Duration of ``cycles`` clock cycles at ``frequency_hz``, in ps.

    The per-cycle period is rounded to an integer picosecond first so that
    ``cycles_to_ps(a + b, f) == cycles_to_ps(a, f) + cycles_to_ps(b, f)``
    holds, which keeps pipelined latency accounting associative.
    """
    if cycles < 0:
        raise ValueError("cycle count must be non-negative")
    period = clock_period_ps(frequency_hz)
    return cycles * period


def clock_period_ps(frequency_hz: float) -> int:
    """Integer-picosecond period of a clock running at ``frequency_hz``."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return max(1, int(round(SEC / frequency_hz)))


def transfer_time_ps(num_bytes: int, bits_per_second: float) -> int:
    """Serialization delay of ``num_bytes`` on a link of ``bits_per_second``.

    This is the pure store-and-forward wire time; propagation delay is
    accounted for separately by the link models.
    """
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    if bits_per_second <= 0:
        raise ValueError("bandwidth must be positive")
    return int(round(num_bytes * 8 * SEC / bits_per_second))
