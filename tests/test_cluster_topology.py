"""Topology builders and per-link fault-seed derivation."""

import pytest

from repro.cluster import BASE_IP, build_pair, build_star
from repro.host import build_fabric
from repro.net.link import LinkFaults, link_seed
from repro.sim import MS, Simulator


def _run(env, gen, limit=2_000 * MS):
    return env.run_until_complete(env.process(gen), limit=limit)


def _write_between(env, cluster, src, dst, payload):
    qpn, _ = cluster.connect(src, dst)
    s = src.alloc(len(payload))
    d = dst.alloc(len(payload))
    src.space.write(s.vaddr, payload)

    def go():
        yield from src.write_sync(qpn, s.vaddr, d.vaddr, len(payload))

    _run(env, go())
    return dst.space.read(d.vaddr, len(payload))


# ---------------------------------------------------------------------------
# Per-link fault seeds (regression: adding a link must not perturb others)
# ---------------------------------------------------------------------------

def test_link_seed_is_stable_and_per_link():
    # Deterministic across calls (would fail with builtin hash(): its
    # per-process salting is the reason fnv1a is used).
    assert link_seed(7, "star.link.h0") == link_seed(7, "star.link.h0")
    # Distinct links decorrelate.
    assert link_seed(7, "star.link.h0") != link_seed(7, "star.link.h1")
    # The base seed still matters.
    assert link_seed(7, "star.link.h0") != link_seed(8, "star.link.h0")


def test_faults_for_link_derivation():
    faults = LinkFaults(drop_probability=0.25, seed=42)
    derived = faults.for_link("rack0.link.h3")
    assert derived.seed == link_seed(42, "rack0.link.h3")
    assert derived.drop_probability == 0.25
    # The original is untouched (it is the template for every link).
    assert faults.seed == 42


def test_growing_topology_keeps_existing_link_seeds():
    """The drop schedule of h0's access link is identical whether the
    star has 2 hosts or 8: link seeds depend only on the link's name."""
    faults = LinkFaults(drop_probability=0.1, seed=9)
    seeds = {}
    for num_hosts in (2, 8):
        env = Simulator()
        cluster = build_star(env, num_hosts=num_hosts, faults=faults,
                             seed=1)
        cable = cluster.access_cables[cluster.hosts[0].name]
        seeds[num_hosts] = cable.faults.seed
    assert seeds[2] == seeds[8]


def test_star_links_have_distinct_fault_seeds():
    env = Simulator()
    faults = LinkFaults(drop_probability=0.1, seed=9)
    cluster = build_star(env, num_hosts=4, faults=faults)
    link_seeds = [cable.faults.seed for cable in cluster.cables.values()]
    assert len(set(link_seeds)) == len(link_seeds)


def test_build_pair_keeps_caller_seed_verbatim():
    """Two-node fault tests depend on the exact schedule: build_pair
    must not derive a per-link seed."""
    env = Simulator()
    faults = LinkFaults(drop_probability=0.05, seed=1234)
    cluster = build_pair(env, faults=faults)
    cable = cluster.access_cables[cluster.hosts[0].name]
    assert cable.faults.seed == 1234


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_build_fabric_still_two_nodes_direct():
    env = Simulator()
    fabric = build_fabric(env)
    assert fabric.client.name == "client"
    assert fabric.server.name == "server"
    assert fabric.client.nic.ip == BASE_IP
    assert fabric.server.nic.ip == BASE_IP + 1
    assert fabric.client_qpn == 1 and fabric.server_qpn == 1


def test_build_star_wiring():
    env = Simulator()
    cluster = build_star(env, num_hosts=5)
    assert len(cluster.hosts) == 5
    assert len(cluster.switches) == 1
    assert len(cluster.switches[0].ports) == 5
    assert len(cluster.cables) == 5
    names = [h.name for h in cluster.hosts]
    assert names == ["h0", "h1", "h2", "h3", "h4"]
    payload = b"\x3C" * 200
    assert _write_between(env, cluster, cluster.hosts[0],
                          cluster.hosts[4], payload) == payload


def test_connect_allocates_fresh_qpns():
    env = Simulator()
    cluster = build_star(env, num_hosts=3)
    h0, h1, h2 = cluster.hosts
    first = cluster.connect(h0, h1)
    second = cluster.connect(h0, h2)
    # h0's side advances; QPN 0 stays reserved for local delivery.
    assert first[0] == 1 and second[0] == 2
    assert 0 not in (first + second)


def test_build_star_validation():
    env = Simulator()
    with pytest.raises(ValueError):
        build_star(env, num_hosts=0)
    with pytest.raises(ValueError):
        build_star(env, num_hosts=3, names=["a", "b"])
