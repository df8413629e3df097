"""Run mode: every process-wide switch, parsed from the environment here.

This is the only module that reads ``REPRO_*`` variables.  They are
parsed once, on first use, into a frozen :class:`RunMode`:

====================  =====================  ================================
Variable              Accepted values        Effect
====================  =====================  ================================
``REPRO_VALIDATE``    ``1 true yes on`` /    Both shadow oracles: every burst
                      ``0 false no off`` /   fold re-walks its schedule
                      unset or empty         per-packet and asserts
                                             bit-identity (a reused schedule
                                             is first recomputed and
                                             compared), and every payload
                                             ref snapshots eagerly and
                                             asserts send buffers are not
                                             mutated in flight.
``REPRO_CHECK``       same as above          Every new simulator gets the
                                             invariant monitors
                                             (:mod:`repro.check`).
====================  =====================  ================================

Values are case-insensitive and stripped; anything else raises
:class:`RunModeError` naming the variable.  Other ``REPRO_*`` names
(including the retired fold, validation and fault-seed switches) are
ignored.  The burst fold (:mod:`repro.roce.burst`) is always on; its gates pick the
per-packet path whenever CC, faults, monitors or tracing need it.  :attr:`RunMode.fold` has no variable: it exists so dual-run
oracles can select the per-packet reference with :func:`override`.

Stdlib-only, so every layer (``core.payload`` included) can import it
without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

VALIDATE_ENV = "REPRO_VALIDATE"
CHECK_ENV = "REPRO_CHECK"

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"", "0", "false", "no", "off"})


class RunModeError(ValueError):
    """A ``REPRO_*`` variable holds a value outside its accepted set."""

    def __init__(self, variable: str, value: str, expected: str) -> None:
        self.variable = variable
        self.value = value
        super().__init__(f"{variable}={value!r} is not {expected}")


@dataclass(frozen=True)
class RunMode:
    """The switches a run is executed under (see the module table)."""

    #: Fold clean multi-packet messages; off only for dual-run oracles.
    fold: bool = True
    #: Burst shadow re-walk plus payload snapshot validation.
    validate: bool = False
    #: Invariant monitors on every new simulator.
    check: bool = False

    @classmethod
    def from_environ(cls, environ: Mapping[str, str] = os.environ
                     ) -> "RunMode":
        """Parse the ``REPRO_*`` variables of ``environ``."""
        return cls(validate=_flag(environ, VALIDATE_ENV),
                   check=_flag(environ, CHECK_ENV))


def _flag(environ: Mapping[str, str], name: str) -> bool:
    value = environ.get(name, "")
    word = value.strip().lower()
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise RunModeError(name, value, "one of 1/true/yes/on or "
                                    "0/false/no/off")


_active: Optional[RunMode] = None


def active() -> RunMode:
    """The run mode in force: the innermost :func:`override`, else the
    environment (parsed on first call)."""
    global _active
    if _active is None:
        _active = RunMode.from_environ()
    return _active


@contextmanager
def override(**changes) -> Iterator[RunMode]:
    """Scope a run-mode change, e.g. ``with override(fold=False):``."""
    global _active
    previous = active()
    _active = replace(previous, **changes)
    try:
        yield _active
    finally:
        _active = previous
