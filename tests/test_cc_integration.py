"""Congestion control end to end: switch marking feeding NIC CNP
generation and DCQCN pacing on a star fabric, CC-off bit-identity, and
the deterministic incast sweep."""

from repro.cc import CcConfig, DcqcnConfig, EcnConfig
from repro.cluster import build_star
from repro.experiments.incast_sweep import (
    incast_sweep_experiment,
    run_incast_point,
)
from repro.obs import registry_for
from repro.sim import Simulator


def _flat(env):
    return registry_for(env).snapshot().as_flat_dict()


# ---------------------------------------------------------------------------
# The full loop on a real fabric
# ---------------------------------------------------------------------------

def test_incast_marks_cnps_and_throttles():
    """4:1 incast with aggressive marking: frames get CE-marked at the
    switch, the receiver answers with CNPs, and every sender's rate
    machine ends up cutting below line rate at least once."""
    row = run_incast_point(senders=4, cc=True, seed=3, messages=10,
                           window=4)
    assert row["completed"] == 40
    assert row["errors"] == 0 and row["qp_errors"] == 0
    assert row["ce_marks"] > 0
    assert row["cnps"] > 0
    assert row["rate_cuts"] > 0


def test_max_queue_depth_gauge_tracks_high_water_mark():
    """The per-port high-water mark is maintained without an observe()
    session (plain gauge set), so drops are diagnosable after the run."""
    env = Simulator()
    cluster = build_star(env, num_hosts=5, seed=3)
    receiver = cluster.hosts[0]
    qpns = {host.name: cluster.connect(host, receiver)[0]
            for host in cluster.hosts[1:]}
    depth_keys = [k for k in _flat(env) if k.endswith("max_queue_depth")]
    assert depth_keys, "per-port max_queue_depth gauges must register"

    def blast(host, qpn):
        local = host.alloc(8192).vaddr
        remote = receiver.alloc(8192).vaddr
        for _ in range(5):
            completion = yield from host.write(qpn, local, remote, 8192)
            yield completion

    for host in cluster.hosts[1:]:
        env.process(blast(host, qpns[host.name]))
    env.run()
    flat = _flat(env)
    assert max(flat[key] for key in depth_keys) > 0


def test_switch_ecn_off_means_no_marks():
    row = run_incast_point(senders=4, cc=False, seed=3, messages=10)
    assert row["ce_marks"] == 0
    assert row["cnps"] == 0
    assert row["rate_cuts"] == 0


def test_cc_off_schedule_is_bit_identical():
    """With the plane disabled, two runs (and any pre-CC build) must
    produce identical rows: same completion times, same drop counts."""
    a = run_incast_point(senders=4, cc=False, seed=11, messages=15)
    b = run_incast_point(senders=4, cc=False, seed=11, messages=15)
    assert a == b


def test_cc_on_is_deterministic_too():
    a = run_incast_point(senders=4, cc=True, seed=11, messages=15)
    b = run_incast_point(senders=4, cc=True, seed=11, messages=15)
    assert a == b


def test_incast_sweep_experiment_deterministic_rows():
    """The satellite requirement behind the CI smoke: same seed, same
    sweep, byte-identical rows (the CLI writes these rows as JSON)."""
    kwargs = dict(sender_counts=(2, 4), seed=5, messages=8)
    rows_a = incast_sweep_experiment(**kwargs).rows
    rows_b = incast_sweep_experiment(**kwargs).rows
    assert rows_a == rows_b
    assert {row["senders"] for row in rows_a} == {2, 4}
    assert {row["cc"] for row in rows_a} == {0, 1}


def test_custom_cc_config_reaches_the_machines():
    config = CcConfig(
        dcqcn=DcqcnConfig(min_rate_bps=2e9),
        ecn=EcnConfig(kmin_frames=1, kmax_frames=4, pmax=1.0))
    row = run_incast_point(senders=4, cc=True, seed=3, messages=10,
                           cc_config=config)
    assert row["ce_marks"] > 0          # hair-trigger marking fired


def test_enable_congestion_control_covers_all_ends():
    env = Simulator()
    cluster = build_star(env, num_hosts=3, seed=1)
    assert all(s.ecn_marker is None for s in cluster.switches)
    assert all(h.nic.cc is None for h in cluster.hosts)
    cluster.enable_congestion_control()
    assert all(s.ecn_marker is not None for s in cluster.switches)
    assert all(h.nic.cc is not None for h in cluster.hosts)
