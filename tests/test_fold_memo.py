"""The burst fold's per-path schedule memo.

A folded message's columns are max-plus recurrences over its start time
``t0``, the fetch's ready times and the hops' per-size constants, with
each lane's or port's cursor as a floor.  When no floor binds, equal
inputs relative to ``t0`` give equal columns relative to ``t0``, so a
flight whose inputs match the last schedule computed on its path takes
that schedule shifted to its own ``t0`` (``repro.roce.burst``).  These
tests pin when it does (repeated messages), when it must not (a binding
floor, another shape, another destination or fetch, a TLB remap), that
the shared columns are read-only, and that a reused flight that unfolds
(a WRITE or a READ) or is flushed after delivery — the first readers of
its columns, built then — is still the per-packet run.
"""

import numpy as np
import pytest

from repro.cluster.topology import build_pair, build_star
from repro.config import NIC_100G
from repro.obs import registry_for
from repro.roce import burst
from repro.roce.burst import BurstFlight
from repro.runmode import active, override
from repro.sim import MS, US, Simulator

pytestmark = pytest.mark.skipif(
    active().check, reason="monitors disable burst folding by design")

BIG = 256 * 1024
#: When a server->client WRITE posted this long after a READ catches its
#: response stream in flight.
READ_UNFOLD_US = [4, 8, 15]
PAYLOAD = bytes(i % 251 for i in range(BIG))
OTHER = bytes(i % 241 for i in range(BIG))


def _count_schedules(monkeypatch):
    """Record ``(path, reused)`` for every schedule a flight takes."""
    taken = []
    original = BurstFlight.schedule

    def counted(self):
        reused = original(self)
        taken.append((self.path, reused))
        return reused
    monkeypatch.setattr(BurstFlight, "schedule", counted)
    return taken


def _always_compute(patch):
    """Take every schedule from ``compute_schedule``: the memo unused."""
    patch.setattr(BurstFlight, "schedule",
                  lambda self: self.compute_schedule() and False)


def _per_path(taken):
    """path -> [computed, reused]."""
    counts = {}
    for path, reused in taken:
        counts.setdefault(path, [0, 0])[reused] += 1
    return counts


def _folds(sim):
    return sum(v for k, v in
               registry_for(sim).snapshot().as_flat_dict().items()
               if k.endswith(".burst.folds"))


def _unfolds(sim):
    return sum(v for k, v in
               registry_for(sim).snapshot().as_flat_dict().items()
               if k.endswith(".burst.unfolds"))


class _Setup:
    """Two hosts on ``topology`` with a source, a destination and a
    spare buffer on each, one huge page apart, and the source filled."""

    def __init__(self, topology):
        self.sim = sim = Simulator()
        if topology == "pair":
            self.cluster = build_pair(sim, nic_config=NIC_100G)
            self.client, self.server = self.cluster.hosts
            self.qpn = 1
        else:
            self.cluster = build_star(sim, 2, nic_config=NIC_100G)
            self.client, self.server = self.cluster.hosts
            self.qpn, _ = self.cluster.connect(self.client, self.server)
        self.page = self.client.space.page_bytes
        self.local = self.client.alloc(2 * self.page, "local").vaddr
        self.remote = self.server.alloc(2 * self.page, "remote").vaddr
        self.client.space.write(self.local, PAYLOAD)
        self.server.space.write(self.remote, OTHER)

    def run(self, ops):
        """Run ``ops`` (``(verb, local, remote, length)``: WRITE
        client->server, READ server->client) one at a time; returns each
        op's completion time."""
        sim, client, qpn = self.sim, self.client, self.qpn
        rows = []

        def driver():
            for verb, local, remote, length in ops:
                if verb == "write":
                    yield from client.write_sync(qpn, local, remote, length)
                else:
                    yield from client.read_sync(qpn, local, remote, length)
                rows.append(sim.now)
        main = sim.process(driver())
        sim.run_until_complete(main, limit=1000 * MS)
        sim.run()
        return rows


# ---------------------------------------------------------------------------
# Reuse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", ["pair", "star"])
def test_repeated_messages_compute_once_per_path(monkeypatch, topology):
    setup = _Setup(topology)
    taken = _count_schedules(monkeypatch)
    n = 5
    ops = [("write", setup.local, setup.remote, BIG)] * n \
        + [("read", setup.local + setup.page, setup.remote, BIG)] * n
    setup.run(ops)

    assert _folds(setup.sim) == 2 * n
    assert _unfolds(setup.sim) == 0
    counts = _per_path(taken)
    # One path each way: WRITE client->server, READ responses back.
    assert len(counts) == 2
    assert sorted(counts.values()) == [[1, n - 1], [1, n - 1]]
    # The memo holds one schedule per path.
    assert set(setup.sim.fold_schedules) == set(counts)
    assert setup.server.space.read(setup.remote, BIG) == PAYLOAD
    assert setup.client.space.read(setup.local + setup.page, BIG) == PAYLOAD


@pytest.mark.parametrize("topology", ["pair", "star"])
def test_reused_schedule_equals_computed_one(monkeypatch, topology):
    """Reusing changes nothing observable: every completion time, the
    event stream's length and the final clock equal a run that computes
    every schedule."""
    def rows_of(force_compute):
        with monkeypatch.context() as patch:
            if force_compute:
                _always_compute(patch)
            setup = _Setup(topology)
            rows = setup.run(
                [("write", setup.local, setup.remote, BIG),
                 ("read", setup.local + setup.page, setup.remote, BIG)] * 3)
        return (rows, setup.sim.events_created, setup.sim.now,
                setup.server.nic.tlb.lookups, setup.client.nic.tlb.lookups)

    assert rows_of(False) == rows_of(True)


# ---------------------------------------------------------------------------
# What forces a recompute
# ---------------------------------------------------------------------------

def _busy_lane(setup):
    cable = setup.cluster.access_cables[setup.client.name]
    cable.lane(setup.client.nic._cable_side).reserve_after(
        setup.sim.now + 1 * US, 40 * US)


def _busy_write_lane(setup):
    setup.server.nic.dma.write_link.reserve_after(setup.sim.now, 60 * US)


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("occupy", [_busy_lane, _busy_write_lane])
def test_binding_floor_forces_recompute(monkeypatch, topology, occupy):
    """A lane still busy when the message's first frame reaches it:
    the schedule is computed (and not memoized); the next idle message
    reuses the schedule memoized before."""
    setup = _Setup(topology)
    taken = _count_schedules(monkeypatch)
    write = ("write", setup.local, setup.remote, BIG)
    setup.run([write])
    (memo,) = setup.sim.fold_schedules.values()
    occupy(setup)
    setup.run([write])
    assert list(setup.sim.fold_schedules.values()) == [memo]
    setup.run([write])

    assert _folds(setup.sim) == 3
    assert [reused for _, reused in taken] == [False, False, True]
    assert setup.server.space.read(setup.remote, BIG) == PAYLOAD


def test_held_port_forces_recompute(monkeypatch):
    """A switch port held past the message's first arrival there (held
    after the route check): the schedule is computed with the hold."""
    setup = _Setup("star")
    taken = _count_schedules(monkeypatch)
    write = ("write", setup.local, setup.remote, BIG)
    setup.run([write])
    resolve = burst._resolve_path
    held = []

    def resolve_then_hold(nic, qp):
        path = resolve(nic, qp)
        if path is not None and not held:
            port_in, _ = path[4]
            held.append(nic.env.now + 30 * US)
            port_in.hold(ingress=held[0])
        return path
    monkeypatch.setattr(burst, "_resolve_path", resolve_then_hold)
    setup.run([write])
    monkeypatch.setattr(burst, "_resolve_path", resolve)
    setup.run([write])

    assert held
    assert [reused for _, reused in taken] == [False, False, True]
    assert setup.server.space.read(setup.remote, BIG) == PAYLOAD


@pytest.mark.parametrize("topology", ["pair", "star"])
def test_other_shape_destination_or_fetch_forces_recompute(monkeypatch,
                                                            topology):
    setup = _Setup(topology)
    taken = _count_schedules(monkeypatch)
    local, remote, page = setup.local, setup.remote, setup.page
    # The source moved so that the fetch straddles a huge page: one
    # chunk's PCIe occupancy is patched piece by piece.
    straddling = local + page - BIG // 4 - 3
    setup.client.space.write(straddling, PAYLOAD)
    setup.run([("write", local, remote, BIG),
               ("write", local, remote, BIG // 2),      # size
               ("write", local, remote, BIG // 2),
               ("write", local, remote + 4096, BIG // 2),   # base_addr
               ("write", local, remote + 4096, BIG // 2),
               ("write", straddling, remote + 4096, BIG // 2),  # fetch
               ("write", straddling, remote + 4096, BIG // 2)])

    assert _folds(setup.sim) == 7
    assert [reused for _, reused in taken] == [
        False, False, True, False, True, False, True]
    assert setup.server.space.read(remote + 4096, BIG // 2) == \
        PAYLOAD[:BIG // 2]


def test_source_offset_within_a_page_reuses(monkeypatch):
    """Columns do not depend on where in a page the source starts,
    only on the fetch's chunk durations: a move that straddles no page
    keeps the schedule."""
    setup = _Setup("pair")
    taken = _count_schedules(monkeypatch)
    setup.client.space.write(setup.local + 4096, PAYLOAD)
    setup.run([("write", setup.local, setup.remote, BIG),
               ("write", setup.local + 4096, setup.remote, BIG)])
    assert [reused for _, reused in taken] == [False, True]
    assert setup.server.space.read(setup.remote, BIG) == PAYLOAD


@pytest.mark.parametrize("topology", ["pair", "star"])
def test_tlb_remap_invalidates(monkeypatch, topology):
    """The driver remaps the destination's huge page to another frame:
    the memoized pieces hold the old physical address, so the next
    message computes its schedule and lands in the new frame."""
    setup = _Setup(topology)
    taken = _count_schedules(monkeypatch)
    server, page = setup.server, setup.page
    write = ("write", setup.local, setup.remote, BIG)
    setup.run([write])
    spare = server.alloc(page, "spare").vaddr
    vpn = setup.remote // page
    tlb = server.nic.tlb
    tlb.populate(vpn, server.space.mapped_pages[spare // page])
    setup.client.space.write(setup.local, OTHER)
    setup.run([write])

    assert [reused for _, reused in taken] == [False, False]
    assert server.space.read(spare, BIG) == OTHER
    assert server.space.read(setup.remote, BIG) == PAYLOAD


# ---------------------------------------------------------------------------
# Shared columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", ["pair", "star"])
def test_memoized_arrays_are_read_only(topology):
    setup = _Setup(topology)
    setup.run([("write", setup.local, setup.remote, BIG)] * 2)
    (memo,) = setup.sim.fold_schedules.values()
    arrays = [memo.timed] + [value for value in memo.shared.values()
                             if isinstance(value, np.ndarray)]
    # wire, serialize and dur (plus tt and depths on a switch leg).
    assert len(arrays) == (4 if topology == "pair" else 6)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


# ---------------------------------------------------------------------------
# Unfolding and flushing a reused flight
# ---------------------------------------------------------------------------
# A reused flight commits from its schedule's last entries; these are the
# paths that read its per-packet columns, built then from the memo.

def _interfered(monkeypatch, topology, verb, interfere, fold,
                force_compute=False):
    """Two 256 KiB ``verb`` transfers (WRITE client->server into
    ``remote``, READ server->client into ``local``); ``interfere(setup,
    rows)`` starts as a process with the second.  Returns the completion
    rows, the destination's and the interferer's bytes, the simulator
    and each flight's ``(path, reused)``."""
    with monkeypatch.context() as patch, override(fold=fold):
        taken = _count_schedules(patch)
        if force_compute:
            _always_compute(patch)
        setup = _Setup(topology)
        sim, client, server = setup.sim, setup.client, setup.server
        qpn, local, remote, page = (setup.qpn, setup.local, setup.remote,
                                    setup.page)
        rows = []

        def driver():
            for i in range(2):
                if i:
                    sim.process(interfere(setup, rows))
                if verb == "write":
                    yield from client.write_sync(qpn, local, remote, BIG)
                else:
                    yield from client.read_sync(qpn, local, remote, BIG)
                rows.append((verb, sim.now))
        sim.run_until_complete(sim.process(driver()), limit=1000 * MS)
        sim.run()
        memory = (server.space.read(remote, BIG) if verb == "write"
                  else client.space.read(local, BIG),
                  client.space.read(local + page, 4096),
                  server.space.read(remote + page, 4096))
    return rows, memory, sim, taken


def _assert_matches_per_packet(monkeypatch, topology, verb, interfere):
    """The interfered run equals the per-packet run and, event for
    event, a run that computes every schedule; returns the folded run's
    simulator and schedules taken."""
    rows_off, memory_off, _, _ = _interfered(monkeypatch, topology, verb,
                                             interfere, False)
    rows_on, memory_on, sim_on, taken = _interfered(
        monkeypatch, topology, verb, interfere, True)
    rows_fresh, memory_fresh, sim_fresh, _ = _interfered(
        monkeypatch, topology, verb, interfere, True, force_compute=True)

    assert [reused for _, reused in taken][:2] == [False, True]
    assert rows_on == rows_off
    assert memory_on == memory_off
    # Same event stream as computing the schedule afresh.
    assert (rows_on, memory_on) == (rows_fresh, memory_fresh)
    assert (sim_on.events_created, sim_on.now) == \
        (sim_fresh.events_created, sim_fresh.now)
    return sim_on, taken


def _reverse_write_after(offset_us):
    """A server->client WRITE ``offset_us`` after the second transfer is
    posted: its post unfolds the pending flight."""
    def interfere(setup, rows):
        yield setup.sim.timeout(offset_us * US)
        yield from setup.server.write_sync(setup.qpn,
                                           setup.remote + setup.page,
                                           setup.local + setup.page, 4096)
        rows.append(("interfered", setup.sim.now))
    return interfere


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("offset_us", [2, 8, 15])
def test_reused_flight_that_unfolds_matches_per_packet(monkeypatch,
                                                       topology, offset_us):
    """Two WRITEs; ``offset_us`` into the second, which reuses the
    first's schedule, a server->client WRITE unfolds it."""
    sim_on, _ = _assert_matches_per_packet(
        monkeypatch, topology, "write", _reverse_write_after(offset_us))
    assert _unfolds(sim_on) == 1


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("offset_us", READ_UNFOLD_US)
def test_reused_read_that_unfolds_matches_per_packet(monkeypatch, topology,
                                                     offset_us):
    """Two READs; ``offset_us`` into the second, whose response stream
    reuses the first's schedule, a server->client WRITE from the
    responder unfolds it."""
    sim_on, _ = _assert_matches_per_packet(
        monkeypatch, topology, "read", _reverse_write_after(offset_us))
    assert _unfolds(sim_on) == 1


def _last_arrival_and_landing(monkeypatch, topology, verb):
    """E2's and E3's times of each flight in an undisturbed run."""
    times = []
    on_e3 = BurstFlight._on_e3

    def timed_e3(self, arg):
        times.append((self._end("A"), self.env.now))
        on_e3(self, arg)
    with monkeypatch.context() as patch:
        patch.setattr(BurstFlight, "_on_e3", timed_e3)
        _interfered(monkeypatch, topology, verb, _idle, True)
    return times


def _idle(setup, rows):
    return
    yield


@pytest.mark.parametrize("topology", ["pair", "star"])
@pytest.mark.parametrize("verb", ["write", "read"])
def test_reused_flight_flushed_after_delivery_matches_per_packet(
        monkeypatch, topology, verb):
    """Between the second flight's last arrival (E2) and its last
    write-back (E3) a DMA write on the destination's engine flushes the
    delivered flight, which reused the first's schedule, into
    per-packet commits."""
    (_, _), (arrived, landed) = _last_arrival_and_landing(monkeypatch,
                                                           topology, verb)
    assert arrived < landed

    def dma_write(setup, rows):
        dest = setup.server if verb == "write" else setup.client
        spare = (setup.remote if verb == "write" else setup.local) \
            + setup.page
        yield setup.sim.timeout((arrived + landed) // 2 - setup.sim.now)
        dest.nic.dma.write_posted(
            spare, b"\x77" * 4096,
            on_done=lambda: rows.append(("interfered", setup.sim.now)))

    flushed = []
    flush = BurstFlight._flush_delivered

    def recorded_flush(self):
        # Whether the flight had its columns before the flush read them.
        flushed.append(self.expanded)
        flush(self)
    monkeypatch.setattr(BurstFlight, "_flush_delivered", recorded_flush)
    sim_on, _ = _assert_matches_per_packet(monkeypatch, topology, verb,
                                           dma_write)
    assert _unfolds(sim_on) == 0
    assert _folds(sim_on) == 2
    # The reusing run's flight built them for the flush (under
    # validation, the commit's shadow walk had); the computing run's had
    # them.
    assert flushed == [active().validate, True]
