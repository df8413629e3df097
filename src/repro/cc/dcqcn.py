"""The DCQCN per-QP rate machine (Zhu et al., SIGCOMM'15 shape).

One :class:`DcqcnRateMachine` governs the sending rate of one queue
pair.  State: the current rate ``Rc``, the target rate ``Rt`` and the
congestion-severity EWMA ``alpha``.

- **On CNP** (multiplicative decrease): ``Rt = Rc``,
  ``alpha = (1-g)*alpha + g``, ``Rc = max(Rmin, Rc * (1 - alpha/2))``;
  the increase clock restarts in fast recovery.
- **Alpha timer**: every ``alpha_timer`` without a CNP,
  ``alpha = (1-g)*alpha`` — the congestion estimate cools off.
- **Increase timer**: every ``increase_timer`` the machine runs one
  increase round: the first ``fast_recovery_rounds`` rounds keep
  ``Rt`` fixed (fast recovery halves the gap: ``Rc = (Rt+Rc)/2``),
  the next ``hyper_after`` rounds add ``rai_bps`` to ``Rt``
  (additive increase), and beyond that ``rhai_bps`` (hyper increase).

The published byte-counter trigger is omitted: at the simulator's
millisecond experiment scale the 10 MB byte counter would never fire,
so increase events are purely timer-driven (noted in
``docs/ARCHITECTURE.md``).

The timer processes are spawned lazily on the first CNP and retire
themselves once the rate is back at line rate with a cold alpha, so an
uncongested queue pair costs zero scheduled events.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.runtime import observers_for
from ..sim.timebase import US


@dataclass(frozen=True)
class DcqcnConfig:
    """Rate-machine knobs (defaults scaled for millisecond windows on
    a 10 G fabric: convergence in tens of microseconds, full recovery
    from a deep cut in well under a millisecond)."""

    #: EWMA gain for alpha (the paper's g is 1/16; the default here is
    #: hotter so a few CNP intervals of persistent congestion already
    #: produce deep cuts — without PFC, shedding load *before* the
    #: 64-frame buffer overflows is what keeps go-back-N out of play).
    g: float = 0.25
    #: Alpha cools one EWMA step per period without a CNP.
    alpha_timer: int = 55 * US
    #: One rate-increase round per period.
    increase_timer: int = 50 * US
    #: Increase rounds that only close the gap to the target (F).
    fast_recovery_rounds: int = 5
    #: Additive increase rounds before switching to hyper increase.
    hyper_after: int = 8
    #: Additive increase step (added to the target rate per round).
    rai_bps: float = 50e6
    #: Hyper increase step.  Conservative for the 10 G parts: at 8:1
    #: incast all eight senders add their hyper step per round, so the
    #: aggregate overshoot per round is 8x this value.
    rhai_bps: float = 250e6
    #: Rate floor: a QP is never throttled below this.  Kept high
    #: enough that the pacer's inter-packet gap at the floor (a full
    #: frame at 500 Mb/s is ~25 us) stays well inside the NIC's 100 us
    #: retransmission timeout.
    min_rate_bps: float = 500e6
    #: Minimum gap between CNPs generated for one QP (the receiver-side
    #: CNP rate limiter; DCQCN's "CNP interval").
    cnp_interval: int = 25 * US

    def __post_init__(self) -> None:
        if not 0.0 < self.g < 1.0:
            raise ValueError("g must be within (0, 1)")
        if self.alpha_timer <= 0 or self.increase_timer <= 0:
            raise ValueError("timers must be positive")
        if self.fast_recovery_rounds < 1 or self.hyper_after < 1:
            raise ValueError("stage thresholds must be positive")
        if self.rai_bps <= 0 or self.rhai_bps <= 0:
            raise ValueError("increase steps must be positive")
        if self.min_rate_bps <= 0:
            raise ValueError("rate floor must be positive")
        if self.cnp_interval <= 0:
            raise ValueError("CNP interval must be positive")


#: Alpha below which a fully recovered machine is considered cold and
#: its timers allowed to retire.
_ALPHA_COLD = 1e-3


class DcqcnRateMachine:
    """Per-QP DCQCN state plus its (lazily started) timer processes."""

    def __init__(self, env, config: DcqcnConfig, line_rate_bps: float,
                 name: str, registry=None) -> None:
        if line_rate_bps <= 0:
            raise ValueError("line rate must be positive")
        self.env = env
        self.config = config
        self.line_rate_bps = line_rate_bps
        self.name = name
        self.rate_bps = line_rate_bps
        self.target_bps = line_rate_bps
        self.alpha = 0.0
        self._increase_rounds = 0
        self._last_cnp = -1
        self._active = False
        #: Samples the rate gauge (a machine without a registry has none).
        self.obs = None if registry is None else observers_for(env)
        self.rate_cuts = None
        self._rate_gauge = None
        if registry is not None:
            self.rate_cuts = registry.counter(f"{name}.rate_cuts")
            #: Sampled only while observing: a Chrome-trace counter
            #: track of the allowed rate over time.
            self._rate_gauge = registry.gauge(f"{name}.rate_gbps")

    @property
    def throttled(self) -> bool:
        """True while the machine restricts the QP below line rate."""
        return self.rate_bps < self.line_rate_bps

    def _sample_rate(self) -> None:
        if self.obs is not None:
            self.obs.sample(self._rate_gauge, self.rate_bps / 1e9)

    # ------------------------------------------------------------------
    # Congestion notification (multiplicative decrease)
    # ------------------------------------------------------------------
    def on_cnp(self) -> None:
        """One CNP arrived for this QP: cut the rate, heat alpha up,
        and restart the recovery clock in fast recovery."""
        config = self.config
        self.target_bps = self.rate_bps
        self.alpha = (1.0 - config.g) * self.alpha + config.g
        self.rate_bps = max(config.min_rate_bps,
                            self.rate_bps * (1.0 - self.alpha / 2.0))
        self._increase_rounds = 0
        self._last_cnp = self.env.now
        if self.rate_cuts is not None:
            self.rate_cuts.add()
        self._sample_rate()
        if not self._active:
            self._active = True
            self.env.process(self._alpha_loop())
            self.env.process(self._increase_loop())

    # ------------------------------------------------------------------
    # Timer-driven recovery
    # ------------------------------------------------------------------
    def _retire_if_cold(self) -> None:
        if self.rate_bps >= self.line_rate_bps \
                and self.alpha < _ALPHA_COLD:
            self._active = False

    def _alpha_loop(self):
        config = self.config
        while self._active:
            yield self.env.timeout(config.alpha_timer)
            if not self._active:
                return
            if self.env.now - self._last_cnp >= config.alpha_timer:
                self.alpha = (1.0 - config.g) * self.alpha
            self._retire_if_cold()

    def _increase_loop(self):
        config = self.config
        while self._active:
            yield self.env.timeout(config.increase_timer)
            if not self._active:
                return
            self._increase_rounds += 1
            rounds_past_fast = self._increase_rounds \
                - config.fast_recovery_rounds
            if rounds_past_fast > config.hyper_after:
                self.target_bps = min(self.line_rate_bps,
                                      self.target_bps + config.rhai_bps)
            elif rounds_past_fast > 0:
                self.target_bps = min(self.line_rate_bps,
                                      self.target_bps + config.rai_bps)
            self.rate_bps = min(self.line_rate_bps,
                                (self.rate_bps + self.target_bps) / 2.0)
            # (Rc+Rt)/2 converges on the line rate asymptotically:
            # snap the last fraction of a percent so the machine can
            # declare itself recovered and retire its timers.
            if self.rate_bps >= self.line_rate_bps * (1.0 - 1e-3):
                self.rate_bps = self.line_rate_bps
            self._sample_rate()
            self._retire_if_cold()
