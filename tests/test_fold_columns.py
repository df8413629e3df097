"""A folded message's schedule is int64 columns from the PCIe fetch to
the commit (``repro.roce.burst``); none of that numpy type may leak into
simulator state, and a schedule that could reach the columns' range is
refused before any column is built.

The type checks run folded WRITEs and READs over a direct cable and
through a switch, one of them unfolded mid-flight, and the same
transfers per packet (a one- and a multi-chunk ``FetchPlan.due()``),
then require plain Python numbers everywhere the schedule writes: the
clock, the wire and PCIe cursors, the TLB counters, the switch port
floors and every metric (``json.dumps`` of the snapshot fails on a
numpy scalar).  The overflow checks post a 256 KiB transfer whose
schedule would cross ``COLUMN_LIMIT_PS`` — from a late start or a
write-back lane reserved almost that far ahead — and require the
per-packet path to deliver the right bytes instead.
"""

import json

import pytest

from repro.cluster.topology import build_pair, build_star
from repro.config import NIC_100G
from repro.obs import registry_for
from repro.obs.metrics import Counter
from repro.roce.burst import COLUMN_LIMIT_PS
from repro.runmode import active, override
from repro.sim import MS, US, Simulator

pytestmark = pytest.mark.skipif(
    active().check, reason="monitors disable burst folding by design")

BIG = 256 * 1024


def _cluster(topology, start=0):
    sim = Simulator(start_time=start)
    if topology == "pair":
        cluster = build_pair(sim, nic_config=NIC_100G)
        return sim, cluster, 1
    cluster = build_star(sim, 2, nic_config=NIC_100G)
    qpn, _ = cluster.connect(*cluster.hosts)
    return sim, cluster, qpn


def _counter_sum(sim, suffix):
    return sum(v for k, v in
               registry_for(sim).snapshot().as_flat_dict().items()
               if k.endswith(suffix))


def _run(sim, cluster, qpn, verbs, interfere_at=None, probe=None):
    """Each ``(verb, size)`` in turn from host 0 to host 1, calling
    ``probe`` as each completes (before later traffic overwrites what
    it left); with ``interfere_at``, host 1 posts a small reverse WRITE
    that long after the first verb, unfolding it mid-flight.  Returns
    whether every transfer landed the right bytes."""
    client, server = cluster.hosts
    back = server.alloc(4096, "back").vaddr
    landed = client.alloc(4096, "landed").vaddr
    transfers = []
    for n, (verb, size) in enumerate(verbs):
        local = client.alloc(size, f"local{n}").vaddr
        remote = server.alloc(size, f"remote{n}").vaddr
        payload = bytes((i + n) % 251 for i in range(size))
        if verb == "write":
            client.space.write(local, payload)
            transfers.append((client.write_sync, local, remote,
                              server.space, remote, payload))
        else:
            server.space.write(remote, payload)
            transfers.append((client.read_sync, local, remote,
                              client.space, local, payload))

    def driver():
        for sync, local, remote, _, _, payload in transfers:
            yield from sync(qpn, local, remote, len(payload))
            if probe is not None:
                probe()

    def interferer():
        yield sim.timeout(interfere_at)
        yield from server.write_sync(qpn, back, landed, 4096)

    if interfere_at is not None:
        sim.process(interferer())
    main = sim.process(driver())
    sim.run_until_complete(main, limit=COLUMN_LIMIT_PS + 100 * MS)
    sim.run()
    return all(space.read(at, len(payload)) == payload
               for _, _, _, space, at, payload in transfers)


def _assert_plain_numbers(sim, cluster):
    assert type(sim.now) is int
    lanes = [cable.lane(side) for cable in cluster.cables.values()
             for side in ("a", "b")]
    for host in cluster.hosts:
        lanes += [host.nic.dma.read_link, host.nic.dma.write_link]
    for link in lanes:
        for value in (link.free_at, link.busy_time,
                      link.bytes_transferred):
            assert type(value) is int, (link.name, value)
        tlb = host.nic.tlb
        for value in (tlb.lookups, tlb.cache_hits, tlb.splits,
                      tlb._last_vpn, tlb._last_base):
            assert type(value) is int, (host.name, value)
    for switch in cluster.switches:
        for port in switch.ports:
            for value in (port._ingress_floor, port._egress_floor,
                          port._max_depth):
                assert type(value) is int, (port, value)
    registry = registry_for(sim)
    for instrument in registry:
        if isinstance(instrument, Counter):
            assert type(instrument.value) is int, instrument
    # Gauges such as link utilization are floats by design; what must
    # never appear is a numpy scalar, which json cannot encode.
    snapshot = registry.snapshot().as_flat_dict()
    assert all(type(v) in (int, float) for v in snapshot.values())
    json.dumps(snapshot)


_VERBS = [("write", BIG), ("read", BIG), ("write", 3000),
          ("read", 1000)]


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("fold", [True, False])
def test_schedule_leaves_only_python_ints(topology, fold):
    with override(fold=fold):
        sim, cluster, qpn = _cluster(topology)
        assert _run(sim, cluster, qpn, _VERBS,
                    probe=lambda: _assert_plain_numbers(sim, cluster))
    assert (_counter_sum(sim, ".burst.folds") == 2) == fold
    _assert_plain_numbers(sim, cluster)


@pytest.mark.parametrize("topology", ["pair", "star"])
def test_unfolded_schedule_leaves_only_python_ints(topology):
    sim, cluster, qpn = _cluster(topology)
    assert _run(sim, cluster, qpn, _VERBS, interfere_at=5 * US,
                probe=lambda: _assert_plain_numbers(sim, cluster))
    assert _counter_sum(sim, ".burst.unfolds") == 1
    _assert_plain_numbers(sim, cluster)


def _reserve_write_lane(cluster, verb, until):
    """Reserve the receiving NIC's write-back lane up to ``until``."""
    receiver = cluster.hosts[1 if verb == "write" else 0]
    receiver.nic.dma.write_link.reserve_after(until, 0)


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("verb", ["write", "read"])
@pytest.mark.parametrize("near", ["t0", "write_lane"])
def test_schedule_past_the_limit_runs_per_packet(topology, verb, near):
    start = COLUMN_LIMIT_PS - 5 * US if near == "t0" else 0
    sim, cluster, qpn = _cluster(topology, start)
    if near == "write_lane":
        _reserve_write_lane(cluster, verb, COLUMN_LIMIT_PS - 5 * US)
    assert _run(sim, cluster, qpn, [(verb, BIG)])
    assert _counter_sum(sim, ".burst.folds") == 0
    assert sim.now > COLUMN_LIMIT_PS


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("verb", ["write", "read"])
def test_schedule_short_of_the_limit_folds(topology, verb):
    """The bound refuses only what could reach the limit: the same
    transfer starting 10 ms earlier folds."""
    sim, cluster, qpn = _cluster(topology, COLUMN_LIMIT_PS - 10 * MS)
    assert _run(sim, cluster, qpn, [(verb, BIG)])
    assert _counter_sum(sim, ".burst.folds") == 1
