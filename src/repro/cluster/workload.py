"""Open-loop load generation: Poisson arrivals, Zipf keys, latency tails.

Closed-loop ping-pong (the paper's methodology) measures unloaded
latency; a *service* is judged under open-loop load, where requests
arrive on a clock that does not wait for completions and queueing shows
up as tail latency (Storm and Tiara both evaluate this way).  This
module drives C :class:`~repro.cluster.sharded_kv.ShardedKvClient`\\ s
concurrently:

- **Poisson arrivals** — exponential inter-arrival gaps at a configured
  aggregate rate, split evenly across clients;
- **Zipf-skewed keys** — the YCSB/Gray et al. generator, with ranks
  scattered over the keyspace by a fixed odd-multiplier bijection so hot
  keys spread across shards;
- **read/write mix** — GETs on a configurable path, PUTs through the
  server CPU;
- **per-request latency** into one :class:`~repro.sim.LatencySample` per
  client, merged for cluster-wide percentiles.

Every RNG is seeded from ``config.seed`` and the client index, so runs
are exactly reproducible and adding a client never perturbs another
client's arrival schedule (same discipline as per-link fault seeds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..sim import LatencySample, Simulator, timebase
from ..sim.timebase import MS, SEC
from .sharded_kv import KvUnavailable, ShardedKvClient, ShardedKvService

#: Knuth's multiplicative-hash constant (odd, prime): rank -> key
#: scattering bijection for any keyspace smaller than it.
_SCATTER = 0x9E3779B1

#: Default percentile list for reports (p50/p95/p99 of the figures).
DEFAULT_PERCENTILES = (0.50, 0.95, 0.99)


def key_for_rank(rank: int, num_keys: int) -> int:
    """Map Zipf rank (0 = hottest) to a key in [1, num_keys]: a bijection
    so the hot ranks land on unrelated slots/shards."""
    return 1 + (rank * _SCATTER) % num_keys


def value_for_key(key: int, value_bytes: int) -> bytes:
    """Deterministic value payload: lets any reader verify bytes."""
    stamp = f"v{key:012d}." .encode()
    repeats = -(-value_bytes // len(stamp))
    return (stamp * repeats)[:value_bytes]


def populate(service: ShardedKvService, num_keys: int,
             value_bytes: int) -> None:
    """Insert keys 1..num_keys with deterministic values (host-side)."""
    for key in range(1, num_keys + 1):
        service.insert(key, value_for_key(key, value_bytes))


class ZipfGenerator:
    """Zipf-distributed ranks in [0, n) (Gray et al., as used by YCSB).

    ``theta`` in [0, 1): 0 is uniform, 0.99 is YCSB's default hot-spot
    skew.  Setup is O(n); each draw is O(1).
    """

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        if n < 1:
            raise ValueError("need at least one item")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be within [0, 1)")
        self.n = n
        self.theta = theta
        self._rng = rng
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta2 = sum(1.0 / (i ** theta) for i in range(1, min(n, 2) + 1))
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) \
            / (1.0 - zeta2 / self._zetan) if n > 1 else 1.0

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if self.n > 1 and uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self._eta * u - self._eta + 1.0)
                             ** self._alpha))


@dataclass(frozen=True)
class WorkloadConfig:
    """One open-loop operating point."""

    #: Aggregate arrival rate across all clients (operations/second).
    offered_ops_per_s: float
    #: Arrival window in picoseconds; issued requests drain afterwards.
    window_ps: int = 2 * MS
    num_keys: int = 512
    zipf_theta: float = 0.99
    #: Fraction of operations that are GETs (rest are PUTs).
    read_fraction: float = 1.0
    value_bytes: int = 128
    get_path: str = "strom"
    seed: int = 1
    percentiles: Sequence[float] = DEFAULT_PERCENTILES

    def __post_init__(self) -> None:
        if self.offered_ops_per_s <= 0:
            raise ValueError("offered load must be positive")
        if self.window_ps <= 0:
            raise ValueError("window must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read fraction must be within [0, 1]")


@dataclass
class WorkloadReport:
    """Offered vs achieved throughput plus latency percentiles."""

    config: WorkloadConfig
    issued: int
    completed: int
    completed_in_window: int
    drain_ps: int
    per_client: List[LatencySample] = field(default_factory=list)
    #: Operations that exhausted the client retry budget
    #: (:class:`~repro.cluster.sharded_kv.KvUnavailable`); they count as
    #: *completed* for drain purposes but never as goodput.
    failed: int = 0

    @property
    def merged(self) -> LatencySample:
        return LatencySample.merge(self.per_client, name="all-clients")

    @property
    def offered_ops_per_s(self) -> float:
        return self.config.offered_ops_per_s

    @property
    def achieved_ops_per_s(self) -> float:
        """Completions inside the arrival window over that window —
        what the cluster actually sustained at the offered rate."""
        return self.completed_in_window \
            / timebase.to_seconds(self.config.window_ps)

    def latency_percentiles_us(self) -> Dict[float, float]:
        return self.merged.percentiles(self.config.percentiles)


def run_open_loop(env: Simulator, clients: List[ShardedKvClient],
                  config: WorkloadConfig) -> WorkloadReport:
    """Drive ``clients`` open-loop for one arrival window and drain.

    The simulator is advanced until every issued request has completed
    (2 s of simulated time bound runaway runs).  Returns the report with
    per-client samples and merged percentiles.
    """
    if not clients:
        raise ValueError("need at least one client")
    samples = [LatencySample(f"client{i}") for i in range(len(clients))]
    state = {"issued": 0, "completed": 0, "in_window": 0, "failed": 0,
             "generating": len(clients)}
    done = env.event()
    window_end = env.now + config.window_ps
    rate_per_client = config.offered_ops_per_s / len(clients)
    #: Mean exponential gap in ps (float; drawn per arrival).
    lambd = rate_per_client / SEC

    def one_op(client_index: int, key: int, is_read: bool):
        start = env.now
        client = clients[client_index]
        failed = False
        try:
            if is_read:
                yield from client.get(key, path=config.get_path,
                                      value_size=config.value_bytes)
            else:
                yield from client.put(
                    key, value_for_key(key, config.value_bytes))
        except KvUnavailable:
            # Retry budget exhausted: degraded goodput, not a hang.
            failed = True
        state["completed"] += 1
        if failed:
            state["failed"] += 1
        else:
            samples[client_index].record(env.now - start)
            if env.now <= window_end:
                state["in_window"] += 1
        if state["generating"] == 0 \
                and state["completed"] == state["issued"] \
                and not done.triggered:
            done.succeed()

    def client_loop(client_index: int):
        rng = random.Random(config.seed ^ (0xC11E * (client_index + 1)))
        zipf = ZipfGenerator(config.num_keys, config.zipf_theta, rng)
        while True:
            gap = max(1, round(rng.expovariate(lambd)))
            if env.now + gap > window_end:
                break
            yield env.timeout(gap)
            key = key_for_rank(zipf.next(), config.num_keys)
            is_read = rng.random() < config.read_fraction
            state["issued"] += 1
            env.process(one_op(client_index, key, is_read))
        state["generating"] -= 1
        if state["generating"] == 0 \
                and state["completed"] == state["issued"] \
                and not done.triggered:
            done.succeed()

    def master():
        for index in range(len(clients)):
            env.process(client_loop(index))
        yield done

    start = env.now
    env.run_until_complete(env.process(master()),
                           limit=start + 2_000 * MS)
    return WorkloadReport(config=config, issued=state["issued"],
                          completed=state["completed"],
                          completed_in_window=state["in_window"],
                          drain_ps=env.now - start,
                          per_client=samples,
                          failed=state["failed"])
