"""Invariant monitors and the randomized conformance harness.

``repro.check`` is the always-available, off-by-default verification
plane: :mod:`~repro.check.monitors` fills in the monitor hooks of a
simulator's observer slot (NIC TX/RX, QP state transitions, switch
enqueue/dequeue, DMA commit, the DCQCN pacer), and
:mod:`~repro.check.harness` drives the whole stack with seeded random
workloads whose end state is checked against ground truth.

Enable monitors one of two ways:

- ``REPRO_CHECK=1`` in the environment (the run-mode table in
  :mod:`repro.runmode` and README): every :class:`~repro.sim.Simulator`
  built afterwards gets a checker as its slot (the CI flaky-guard runs
  the whole tier-1 suite this way);
- :func:`install_monitors` on a specific simulator before building the
  topology (what the conformance harness does, so violations carry the
  run's seed and a replay command line).

With neither (and no :func:`repro.obs.observe` session), the slot is
``None`` and each hook site costs one test — disabled runs schedule
bit-identically to a build without this package.
"""

from .monitors import InvariantChecker, InvariantViolation, install_monitors

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "install_monitors",
]
