"""Fault-injection primitives: Gilbert-Elliott bursty loss, link flaps,
latency spikes, adaptive retransmission (backoff / budget / error state),
switch port blackouts, and the fault schedule driver."""

from dataclasses import replace

import pytest

from repro.config import NIC_10G
from repro.faults import FaultSchedule
from repro.host import build_fabric
from repro.net import Cable, GilbertElliott, LinkFaults
from repro.obs import observe, registry_for
from repro.roce import QpError, RetransmissionTimer
from repro.sim import MS, US, Simulator


# ---------------------------------------------------------------------------
# Gilbert-Elliott channel
# ---------------------------------------------------------------------------

def test_gilbert_elliott_from_mean_loss_analytics():
    ge = GilbertElliott.from_mean_loss(0.05, burst_frames=10.0)
    assert abs(ge.mean_loss - 0.05) < 1e-12
    # mean bad-burst length is 1 / p_bad_to_good
    assert abs(1.0 / ge.p_bad_to_good - 10.0) < 1e-12
    assert ge.loss_good == 0.0


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliott(p_good_to_bad=0.1, p_bad_to_good=0.0)
    with pytest.raises(ValueError):
        GilbertElliott(p_good_to_bad=1.5, p_bad_to_good=0.5)
    with pytest.raises(ValueError):
        GilbertElliott.from_mean_loss(0.6, loss_bad=0.5)
    with pytest.raises(ValueError):
        GilbertElliott.from_mean_loss(0.01, burst_frames=0.5)


def test_gilbert_elliott_drops_arrive_in_bursts():
    """At matched mean loss, the GE channel produces fewer, longer loss
    episodes than the uniform channel — the property that makes it the
    harder regime for go-back-N."""
    def episodes(faults, frames=20_000):
        env = Simulator()
        cable = Cable(env, bits_per_second=10e9, propagation=0,
                      faults=faults, name="c")
        drops = [cable._drops_frame("dir") for _ in range(frames)]
        count = sum(drops)
        runs = sum(1 for i, d in enumerate(drops)
                   if d and (i == 0 or not drops[i - 1]))
        return count, runs

    uniform_count, uniform_runs = episodes(
        LinkFaults(drop_probability=0.05, seed=9))
    burst_count, burst_runs = episodes(LinkFaults(
        burst=GilbertElliott.from_mean_loss(0.05, burst_frames=8.0),
        seed=9))
    # Comparable long-run loss...
    assert 0.5 < burst_count / uniform_count < 2.0
    # ...but clumped into far fewer distinct episodes.
    assert burst_runs < uniform_runs * 0.6


def test_bursty_loss_end_to_end_recovery():
    """A write workload over a GE-lossy cable converges, and the drops
    are attributed to the burst counter."""
    env = Simulator()
    fabric = build_fabric(env, faults=LinkFaults(
        burst=GilbertElliott.from_mean_loss(0.08, burst_frames=6.0),
        seed=11))
    size = 96 * 1024
    src = fabric.client.alloc(size, "src")
    dst = fabric.server.alloc(size, "dst")
    fabric.client.space.write(src.vaddr, b"x" * size)

    def workload():
        yield from fabric.client.write_sync(
            fabric.client_qpn, src.vaddr, dst.vaddr, size)

    env.run_until_complete(env.process(workload()), limit=500 * MS)
    assert fabric.server.space.read(dst.vaddr, size) == b"x" * size
    snap = registry_for(env).snapshot()
    assert snap["cable.burst_drops"] > 0
    assert snap["cable.dropped"] >= snap["cable.burst_drops"]
    assert int(fabric.client.nic.retransmitted) > 0


# ---------------------------------------------------------------------------
# Link flaps and latency spikes
# ---------------------------------------------------------------------------

def test_link_flap_recovery():
    """A transfer started while the carrier drops completes after the
    link comes back (retransmission covers the outage)."""
    env = Simulator()
    fabric = build_fabric(env)
    size = 32 * 1024
    src = fabric.client.alloc(size, "src")
    dst = fabric.server.alloc(size, "dst")
    fabric.client.space.write(src.vaddr, b"f" * size)

    FaultSchedule(env).link_flap(5 * US, fabric.cable,
                                 down_for=300 * US).start()

    def workload():
        yield from fabric.client.write_sync(
            fabric.client_qpn, src.vaddr, dst.vaddr, size)
        return env.now

    done_at = env.run_until_complete(env.process(workload()),
                                     limit=100 * MS)
    assert fabric.server.space.read(dst.vaddr, size) == b"f" * size
    assert done_at > 305 * US  # could not finish during the outage
    snap = registry_for(env).snapshot()
    assert snap["cable.link_down_drops"] > 0
    assert snap["cable.link_flaps"] == 2  # down + up
    assert snap["faults.injected"] == 2


def test_latency_spike_inflates_and_clears():
    def one_write(extra_ps):
        env = Simulator()
        fabric = build_fabric(env)
        src = fabric.client.alloc(64, "src")
        dst = fabric.server.alloc(64, "dst")
        if extra_ps:
            fabric.cable.set_extra_latency(extra_ps)

        def workload():
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, 64)
            return env.now

        return env.run_until_complete(env.process(workload()),
                                      limit=100 * MS)

    base = one_write(0)
    spiked = one_write(10 * US)
    # request + ACK each cross the cable once: two one-way delays
    assert spiked == base + 2 * 10 * US
    with pytest.raises(ValueError):
        Cable(Simulator(), 10e9, 0).set_extra_latency(-1)


# ---------------------------------------------------------------------------
# Adaptive retransmission timer
# ---------------------------------------------------------------------------

def test_timer_backoff_doubles_and_caps():
    env = Simulator()
    fired = []

    def rearm(qpn):
        fired.append(env.now)
        timer.arm(qpn)

    timer = RetransmissionTimer(env, timeout=10 * US, callback=rearm,
                                max_retries=5, backoff_cap=40 * US)
    timer.arm(1)
    env.run()
    # Deadlines: 10, 20, 40, 40(cap), 40(cap); then exhaustion (silent:
    # no on_exhausted handler).
    deltas = [b - a for a, b in zip([0] + fired, fired)]
    assert deltas == [10 * US, 20 * US, 40 * US, 40 * US, 40 * US]
    assert int(timer.exhaustions) == 1
    assert int(timer.expirations) == 6


def test_timer_first_round_is_exact_despite_jitter():
    """Jitter only applies to backoff rounds, so a QP that recovers
    before its first expiry keeps the paper's fixed timing."""
    env = Simulator()
    fired = []
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda q: fired.append(env.now),
                                jitter=5 * US)
    timer.arm(1)
    env.run()
    assert fired == [10 * US]
    # the *second* round would be jittered on top of the doubled base
    assert timer.attempts(1) == 1
    assert 20 * US <= timer.next_delay(1) <= 25 * US


def test_timer_jitter_is_deterministic_per_name():
    def delays(name):
        env = Simulator()
        timer = RetransmissionTimer(env, timeout=10 * US,
                                    callback=lambda q: None,
                                    name=name, jitter=8 * US)
        timer._attempts[1] = 2
        return [timer.next_delay(1) for _ in range(5)]

    assert delays("t") == delays("t")
    assert delays("t") != delays("other")


def test_timer_exhaustion_invokes_handler():
    env = Simulator()
    exhausted = []
    timer = RetransmissionTimer(
        env, timeout=10 * US,
        callback=lambda qpn: timer.arm(qpn),
        max_retries=2, on_exhausted=lambda qpn: exhausted.append(qpn))
    timer.arm(7)
    env.run()
    assert exhausted == [7]
    assert int(timer.exhaustions) == 1
    assert timer.attempts(7) == 0  # budget reset for post-recovery reuse


def test_timer_recovery_counter_on_progress():
    env = Simulator()
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda qpn: timer.arm(qpn))

    def driver():
        timer.arm(1)
        yield env.timeout(35 * US)  # two expirations happen
        timer.note_progress(1)
        timer.disarm(1)

    env.run_until_complete(env.process(driver()))
    assert int(timer.recoveries) == 1
    assert timer.attempts(1) == 0
    # progress without prior expirations is not a recovery
    timer.note_progress(1)
    assert int(timer.recoveries) == 1


def test_timer_rearm_churn_leaves_no_pending_wakeups():
    """Satellite fix: every disarm/re-arm cancels the pending countdown,
    so a hot QP re-armed thousands of times does not accumulate dead
    wakeup events (and none of the stale countdowns ever fires)."""
    env = Simulator()
    fired = []
    timer = RetransmissionTimer(env, timeout=10 * US,
                                callback=lambda q: fired.append(env.now))

    def churn():
        for _ in range(500):
            timer.arm(1)
            yield env.timeout(1 * US)
        timer.disarm(1)

    env.run_until_complete(env.process(churn()))
    queued_after = len(env._queue)
    env.run()
    assert fired == []
    assert int(timer.expirations) == 0
    # Cancelled wakeups cannot outlive the timeout horizon: only events
    # scheduled within the last `timeout` (10 re-arms) may still sit in
    # the heap awaiting expiry.  Without cancellation all 500 stale
    # countdowns would remain queued here.
    assert queued_after <= 15


def test_timer_not_rearmed_after_error_mid_burst():
    """Regression: a go-back-N retransmit burst that is still draining
    when the QP enters the error state must NOT re-arm the timer at the
    end of the burst.  Before the fix, the unconditional ``arm()`` at
    the tail of ``_retransmit_entries`` resurrected the dead QP's timer,
    which then expired forever against an empty retransmit buffer."""
    from repro.roce import make_ack
    from repro.roce.qp import UnackedEntry

    env = Simulator()
    fabric = build_fabric(env)
    nic = fabric.client.nic
    qp = nic.qps.get(1)

    # Stage a burst of unacked packets; the content is irrelevant to
    # the timer logic under test, so use frames addressed to a QP the
    # peer does not have — dropped on arrival, provoking no responses.
    for psn in range(4):
        packet = make_ack(src_ip=nic.ip, dst_ip=qp.dest_ip,
                          dest_qp=99, psn=psn, msn=psn)
        qp.requester.unacked.append(UnackedEntry(
            first_psn=psn, last_psn=psn, kind="write", packet=packet))
    burst = env.process(nic._retransmit_from(qp, 0))

    def failer():
        # Fail the QP mid-burst: after at least one retransmission went
        # out, but (with three more queued) before the burst finishes.
        while int(nic.retransmitted) < 1:
            yield env.timeout(1)
        nic._fail_queue_pair(1, "retry budget exhausted (injected)")
        assert qp.in_error

    env.process(failer())
    env.run_until_complete(burst)
    assert qp.in_error
    assert int(nic.retransmitted) >= 1
    # The moment the burst ends, the tail arm must have been suppressed
    # (a post-drain check would miss the bug: a resurrected timer
    # expires against the empty retransmit buffer and disarms itself).
    assert not nic.timer.is_armed(1)
    env.run()
    assert int(nic.timer.expirations) == 0


# ---------------------------------------------------------------------------
# Retry exhaustion -> QP error state (the blackholed-link scenario)
# ---------------------------------------------------------------------------

def _blackholed_fabric(env):
    """Fabric whose cable permanently dies at 50us, with a small retry
    budget so exhaustion is quick."""
    nic_config = replace(NIC_10G, retransmit_max_retries=2,
                         retransmit_backoff_cap=400 * US)
    fabric = build_fabric(env, nic_config=nic_config)
    FaultSchedule(env).link_down(50 * US, fabric.cable).start()
    return fabric


def test_blackholed_read_completes_with_qp_error():
    """A READ in flight when the link blackholes must not hang: the
    retry budget runs out, the QP enters the error state, and the
    outstanding WR completes with error status (QpError raised)."""
    env = Simulator()
    fabric = _blackholed_fabric(env)
    src = fabric.server.alloc(8192, "src")
    dst = fabric.client.alloc(8192, "dst")
    outcomes = []

    def reader():
        try:
            yield from fabric.client.read_sync(
                fabric.client_qpn, dst.vaddr, src.vaddr, 8192)
            outcomes.append("ok")
        except QpError as exc:
            outcomes.append(exc)

    def starter():
        yield env.timeout(40 * US)  # in flight when the link dies
        yield from reader()

    env.run_until_complete(env.process(starter()), limit=100 * MS)
    (outcome,) = outcomes
    assert isinstance(outcome, QpError)
    assert outcome.qpn == fabric.client_qpn
    nic = fabric.client.nic
    assert nic.qps.get(fabric.client_qpn).in_error
    assert int(nic.qp_errors) == 1
    assert int(nic.timer.exhaustions) == 1


def test_all_outstanding_wrs_complete_with_error():
    """Two concurrent READs outstanding at exhaustion: both complete
    with error status, and later submissions are rejected immediately."""
    env = Simulator()
    fabric = _blackholed_fabric(env)
    size = 64 * 1024  # ~52us of serialization: in flight at the 50us cut
    src = fabric.server.alloc(2 * size, "src")
    dst = fabric.client.alloc(2 * size, "dst")
    errors = []

    def reader(offset):
        try:
            yield from fabric.client.read_sync(
                fabric.client_qpn, dst.vaddr + offset,
                src.vaddr + offset, size)
        except QpError as exc:
            errors.append(exc)

    def driver():
        yield env.timeout(40 * US)
        first = env.process(reader(0))
        second = env.process(reader(size))
        yield env.all_of([first, second])
        # the QP is dead now: a fresh submission fails fast
        try:
            yield from fabric.client.write_sync(
                fabric.client_qpn, dst.vaddr, src.vaddr, 64)
        except QpError as exc:
            errors.append(exc)

    env.run_until_complete(env.process(driver()), limit=100 * MS)
    assert len(errors) == 3
    assert all(e.qpn == fabric.client_qpn for e in errors)
    assert int(fabric.client.nic.qp_errors) == 1  # one transition
    assert int(fabric.client.nic.commands_rejected) == 1


# ---------------------------------------------------------------------------
# Fault schedule driver
# ---------------------------------------------------------------------------

def test_fault_schedule_orders_and_counts():
    env = Simulator()
    applied = []
    schedule = FaultSchedule(env, seed=3)
    schedule.at(20 * US, lambda: applied.append("late"), kind="late")
    schedule.at(5 * US, lambda: applied.append("early"), kind="early")
    schedule.at(5 * US, lambda: applied.append("tie"), kind="tie")
    schedule.start()
    env.run()
    # time order, insertion order breaking ties
    assert applied == ["early", "tie", "late"]
    snap = registry_for(env).snapshot()
    assert snap["faults.injected"] == 3
    assert snap["faults.early"] == 1
    with pytest.raises(RuntimeError):
        schedule.start()
    with pytest.raises(RuntimeError):
        schedule.at(0, lambda: None)


def test_fault_schedule_validation():
    env = Simulator()
    schedule = FaultSchedule(env)
    cable = Cable(env, 10e9, 0)
    with pytest.raises(ValueError):
        schedule.at(-1, lambda: None)
    with pytest.raises(ValueError):
        schedule.link_flap(0, cable, down_for=0)
    with pytest.raises(ValueError):
        schedule.latency_spike(0, cable, 10, duration=0)


# ---------------------------------------------------------------------------
# Utilization gauge: sliding window, not cumulative
# ---------------------------------------------------------------------------

def test_utilization_gauge_uses_sliding_window():
    """A long idle warmup must not depress later utilization samples:
    each sample covers only the window since the previous one."""
    with observe():
        env = Simulator()
        fabric = build_fabric(env)
        size = 64 * 1024
        src = fabric.client.alloc(size, "src")
        dst = fabric.server.alloc(size, "dst")
        fabric.client.space.write(src.vaddr, b"u" * size)

        def workload():
            yield env.timeout(20 * MS)  # idle warmup
            yield from fabric.client.write_sync(
                fabric.client_qpn, src.vaddr, dst.vaddr, size)

        env.run_until_complete(env.process(workload()), limit=100 * MS)
        series = registry_for(env).gauge("cable.utilization").series
    assert series
    # The first sample spans the idle warmup and is necessarily tiny; a
    # cumulative gauge would stay tiny forever.  The sliding window
    # recovers to near-saturation during the bulk transfer.
    assert series[0][1] < 0.01
    assert max(value for _, value in series) > 0.5
