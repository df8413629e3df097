"""Scheduled fault timelines: deterministic chaos for the simulation.

A :class:`FaultSchedule` is a list of timed fault events against live
components — cables flap, latency spikes come and go, switch ports black
out, shard servers crash and restart — applied by one driver process in
time order.  Every injected fault is recorded as a trace instant (source
``faults``, visible in the Chrome trace export) and counted in the
metrics registry (``faults.injected`` plus one counter per fault kind).

Determinism: the schedule itself is explicit (caller-provided times), and
the optional :attr:`FaultSchedule.rng` — for building *randomized*
timelines (e.g. crash times drawn per run) — is seeded through
:func:`repro.net.link.effective_fault_seed`, so ``REPRO_FAULT_SEED``
pins randomized schedules the same way it pins per-link loss draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..net.link import Cable, effective_fault_seed
from ..obs.runtime import observers_for, registry_for
from ..sim import Simulator


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: apply ``action`` at simulated time ``at``."""

    at: int
    seq: int
    kind: str
    target: str
    action: Callable[[], None]
    meta: Dict[str, Any] = field(default_factory=dict)


class FaultSchedule:
    """A deterministic timeline of fault injections.

    Build the timeline with the typed helpers (:meth:`link_flap`,
    :meth:`latency_spike`, :meth:`crash_shard`, ...) or the generic
    :meth:`at`, then call :meth:`start` once the topology is up.
    Events at equal times apply in insertion order.
    """

    def __init__(self, env: Simulator, seed: int = 0,
                 name: str = "faults") -> None:
        self.env = env
        self.name = name
        self.seed = effective_fault_seed(seed)
        #: For randomized timeline construction; unused by the driver.
        self.rng = random.Random(self.seed)
        self._events: List[FaultEvent] = []
        self._started = False
        metrics = registry_for(env)
        self.metrics = metrics
        self.obs = observers_for(env)
        self.injected = metrics.counter(f"{name}.injected")

    # ------------------------------------------------------------------
    # Timeline construction
    # ------------------------------------------------------------------
    def at(self, at: int, action: Callable[[], None], kind: str = "custom",
           target: str = "", **meta) -> "FaultSchedule":
        """Schedule an arbitrary fault action; returns self for chaining."""
        if at < 0:
            raise ValueError("fault times must be non-negative")
        if self._started:
            raise RuntimeError("schedule already started")
        self._events.append(FaultEvent(at=at, seq=len(self._events),
                                       kind=kind, target=target,
                                       action=action, meta=dict(meta)))
        return self

    def link_down(self, at: int, cable: Cable) -> "FaultSchedule":
        return self.at(at, lambda: cable.set_up(False), kind="link_down",
                       target=cable.name)

    def link_up(self, at: int, cable: Cable) -> "FaultSchedule":
        return self.at(at, lambda: cable.set_up(True), kind="link_up",
                       target=cable.name)

    def link_flap(self, at: int, cable: Cable,
                  down_for: int) -> "FaultSchedule":
        """Cut the carrier at ``at`` and restore it ``down_for`` later."""
        if down_for <= 0:
            raise ValueError("flap duration must be positive")
        self.link_down(at, cable)
        return self.link_up(at + down_for, cable)

    def latency_spike(self, at: int, cable: Cable, extra_ps: int,
                      duration: int) -> "FaultSchedule":
        """Add ``extra_ps`` one-way delay for ``duration``."""
        if duration <= 0:
            raise ValueError("spike duration must be positive")
        self.at(at, lambda: cable.set_extra_latency(extra_ps),
                kind="latency_spike", target=cable.name, extra_ps=extra_ps)
        return self.at(at + duration, lambda: cable.set_extra_latency(0),
                       kind="latency_clear", target=cable.name)

    def crash_shard(self, at: int, service, shard_index: int,
                    restart_after: Optional[int] = None) -> "FaultSchedule":
        """Crash one KV shard server (whole-node), optionally scheduling
        its restart ``restart_after`` later."""
        self.at(at, lambda: service.crash_shard(shard_index),
                kind="shard_crash", target=f"shard{shard_index}")
        if restart_after is not None:
            if restart_after <= 0:
                raise ValueError("restart delay must be positive")
            self.restart_shard(at + restart_after, service, shard_index)
        return self

    def restart_shard(self, at: int, service,
                      shard_index: int) -> "FaultSchedule":
        return self.at(at, lambda: service.restart_shard(shard_index),
                       kind="shard_restart", target=f"shard{shard_index}")

    # ------------------------------------------------------------------
    # Kernel-plane faults (see DESIGN.md, "Kernel protection & watchdog")
    # ------------------------------------------------------------------
    def corrupt_pointer(self, at: int, node, vaddr: int,
                        pointer: int) -> "FaultSchedule":
        """Overwrite the 8-byte pointer at ``node``'s ``vaddr`` —
        e.g. redirect a linked-list next pointer at itself (a cycle)
        or at unmapped memory (a wild pointer)."""
        def apply() -> None:
            node.space.write(vaddr, pointer.to_bytes(8, "little"))
        return self.at(at, apply, kind="pointer_corruption",
                       target=node.name, vaddr=vaddr, pointer=pointer)

    def stall_kernel(self, at: int, kernel,
                     duration: int) -> "FaultSchedule":
        """Wedge a kernel's pipeline (a stuck stream) until
        ``at + duration``: invocations touching the kernel during the
        window make no progress, so a deadline-budgeted deployment
        aborts them with RPC_ERROR_TIMEOUT."""
        if duration <= 0:
            raise ValueError("stall duration must be positive")

        def apply() -> None:
            kernel.stall_until = max(kernel.stall_until, at + duration)
        return self.at(at, apply, kind="kernel_stall",
                       target=kernel.name, duration=duration)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the driver process applying the timeline in order."""
        if self._started:
            raise RuntimeError("schedule already started")
        self._started = True
        if self._events:
            self.env.process(self._drive())

    def _drive(self):
        for event in sorted(self._events, key=lambda e: (e.at, e.seq)):
            delay = event.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            event.action()
            self.injected.add()
            self.metrics.counter(f"{self.name}.{event.kind}").add()
            if self.obs is not None:
                self.obs.record(self.name, event.kind,
                                target=event.target, **event.meta)
