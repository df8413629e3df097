"""Invariant monitors and the randomized conformance harness.

``repro.check`` is the always-available, off-by-default verification
plane: :mod:`~repro.check.monitors` attaches protocol-invariant
assertions to the existing datapath hook points (NIC TX/RX, QP state
transitions, switch enqueue/dequeue, DMA commit, the DCQCN pacer), and
:mod:`~repro.check.harness` drives the whole stack with seeded random
workloads whose end state is checked against ground truth.

Enable monitors one of two ways:

- ``REPRO_CHECK=1`` in the environment (the run-mode table in
  :mod:`repro.runmode` and README): every :class:`~repro.sim.Simulator`
  built afterwards gets a checker (the CI flaky-guard runs the whole
  tier-1 suite this way);
- :func:`install_monitors` on a specific simulator before building the
  topology (what the conformance harness does, so violations carry the
  run's seed and a replay command line).

With neither, ``checker_for`` returns ``None`` and every hook is a
single ``if self.check is not None`` test — disabled runs schedule
bit-identically to a build without this package.
"""

from .monitors import (
    InvariantChecker,
    InvariantViolation,
    checker_for,
    install_monitors,
)

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "checker_for",
    "install_monitors",
]
