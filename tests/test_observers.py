"""The observer slot, and observing without changing what is observed.

Invariant monitors only read the datapath: a seeded switched run with a
link fault schedules the same entries, ends at the same picosecond and
returns the same results and metrics whether or not a checker is
attached (CI's ``REPRO_CHECK=1`` leg relies on this).
"""

import pytest

from repro.check import InvariantChecker, install_monitors
from repro.cluster import (ShardedKvClient, ShardedKvService,
                           WorkloadConfig, build_star, populate,
                           run_open_loop)
from repro.faults import FaultSchedule
from repro.host import build_fabric
from repro.obs import Observers, observe, observers_for, registry_for
from repro.runmode import override
from repro.sim import MS, US, Simulator


def _switched_run(monitors: bool, get_path: str):
    env = Simulator()
    if monitors:
        checker = install_monitors(env, seed=5)
    cluster = build_star(env, num_hosts=4, seed=5)
    service = ShardedKvService(cluster, cluster.hosts[:2], replicas=2)
    populate(service, num_keys=64, value_bytes=128)
    clients = [ShardedKvClient(cluster, service, node, seed=5 + i)
               for i, node in enumerate(cluster.hosts[2:])]
    FaultSchedule(env, seed=5).link_flap(
        200 * US, cluster.access_cables["h1"], 150 * US).start()
    config = WorkloadConfig(offered_ops_per_s=100_000.0,
                            window_ps=MS, num_keys=64, read_fraction=0.8,
                            value_bytes=128, get_path=get_path, seed=5)
    report = run_open_loop(env, clients, config)
    if monitors:
        checker.finish()
        assert checker.assertions.value > 0
    results = (report.issued, report.completed, report.failed,
               [sample.summary() for sample in report.per_client],
               registry_for(env).snapshot().as_flat_dict())
    return env.events_created, env.now, results


@pytest.mark.parametrize("get_path", ["strom", "reads"])
def test_monitors_leave_the_switched_run_unchanged(get_path):
    with override(check=False):
        plain = _switched_run(False, get_path)
        checked = _switched_run(True, get_path)
    assert plain[2][1] > 0
    assert checked == plain


def test_one_slot_per_simulator():
    with override(check=False):
        assert observers_for(Simulator()) is None
        with observe() as session:
            env = Simulator()
            fabric = build_fabric(env)
        slot = observers_for(env)
        assert type(slot) is Observers and slot.sampling_enabled
        assert session.traces == [slot.trace]
        nic = fabric.client.nic
        assert nic.obs is slot and nic.dma.obs is slot
        assert fabric.cable.obs is slot and nic.timer.obs is slot
        with override(check=True):
            assert isinstance(observers_for(Simulator()), InvariantChecker)
        checked = Simulator()
        checker = install_monitors(checked, seed=3)
        assert observers_for(checked) is checker and checker.seed == 3
        assert not checker.sampling_enabled
        with pytest.raises(RuntimeError):
            install_monitors(env)
