"""Shared experiment infrastructure: result tables and the detailed
measurement procedures used by the latency figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import HOST_DEFAULT, NIC_10G, HostConfig, NicConfig
from ..host import build_fabric
from ..sim import MS, LatencySample, LatencySummary, Simulator, timebase


def _fmt(value: object) -> str:
    """A table cell: floats to two decimals."""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@dataclass
class ExperimentResult:
    """One reproduced table/figure: labelled rows, ready to print."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def format_table(self) -> str:
        widths = {c: len(c) for c in self.columns}
        for row in self.rows:
            for c in self.columns:
                widths[c] = max(widths[c], len(_fmt(row.get(c, ""))))
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        rule = "-" * len(header)
        lines = [f"== {self.experiment_id}: {self.title} ==", header, rule]
        for row in self.rows:
            lines.append("  ".join(
                _fmt(row.get(c, "")).rjust(widths[c]) for c in self.columns))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def format_markdown(self) -> str:
        """GitHub-flavoured markdown rendering of the result table."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(
                _fmt(row.get(c, "")) for c in self.columns) + " |")
        if self.notes:
            lines.append("")
            lines.append(f"*{self.notes}*")
        return "\n".join(lines)


def run_proc(env: Simulator, gen, limit: Optional[int] = None):
    return env.run_until_complete(env.process(gen), limit=limit)


# ---------------------------------------------------------------------------
# Detailed latency measurements (Figures 5a, 12a)
# ---------------------------------------------------------------------------

def measure_write_latency(nic_config: NicConfig = NIC_10G,
                          host_config: HostConfig = HOST_DEFAULT,
                          payload_bytes: int = 64,
                          iterations: int = 50,
                          seed: int = 1) -> LatencySummary:
    """The paper's write-latency methodology (Section 6.1): a polling
    ping-pong between two machines; reported latency is RTT/2."""
    env = Simulator()
    fabric = build_fabric(env, nic_config=nic_config,
                          host_config=host_config, seed=seed)
    client, server = fabric.client, fabric.server
    c_buf = client.alloc(max(payload_bytes, 64) * 2, "pingpong_c")
    s_buf = server.alloc(max(payload_bytes, 64) * 2, "pingpong_s")
    client.space.write(c_buf.vaddr, b"\x5A" * payload_bytes)
    sample = LatencySample(f"write-{payload_bytes}B")

    def server_loop():
        for _ in range(iterations):
            yield from server.wait_for_data(s_buf.vaddr, payload_bytes)
            yield from server.write(fabric.server_qpn, s_buf.vaddr,
                                    c_buf.vaddr, payload_bytes,
                                    signalled=False)

    def client_loop():
        env.process(server_loop())
        for _ in range(iterations):
            start = env.now
            yield from client.write(fabric.client_qpn, c_buf.vaddr,
                                    s_buf.vaddr, payload_bytes,
                                    signalled=False)
            yield from client.wait_for_data(c_buf.vaddr, payload_bytes)
            sample.record((env.now - start) // 2)

    run_proc(env, client_loop(), limit=iterations * 10 * MS)
    return sample.summary()


def measure_read_latency(nic_config: NicConfig = NIC_10G,
                         host_config: HostConfig = HOST_DEFAULT,
                         payload_bytes: int = 64,
                         iterations: int = 50,
                         seed: int = 2) -> LatencySummary:
    """READ latency: post one READ, wait for the data to land locally."""
    env = Simulator()
    fabric = build_fabric(env, nic_config=nic_config,
                          host_config=host_config, seed=seed)
    client, server = fabric.client, fabric.server
    local = client.alloc(max(payload_bytes, 64) * 2, "read_dst")
    remote = server.alloc(max(payload_bytes, 64) * 2, "read_src")
    server.space.write(remote.vaddr, b"\xA5" * payload_bytes)
    sample = LatencySample(f"read-{payload_bytes}B")

    def client_loop():
        for _ in range(iterations):
            start = env.now
            # The application detects completion by polling on the last
            # bytes of the destination buffer (same methodology as the
            # write ping-pong): register the watch, post, poll.
            watch = client.nic.dma.watch(local.vaddr, payload_bytes)
            yield from client.read(fabric.client_qpn, local.vaddr,
                                   remote.vaddr, payload_bytes)
            yield watch
            jitter = client._rng.randrange(
                client.host_config.poll_interval + 1)
            yield env.timeout(jitter + client.host_config.dram_latency)
            sample.record(env.now - start)

    run_proc(env, client_loop(), limit=iterations * 10 * MS)
    return sample.summary()


# ---------------------------------------------------------------------------
# Detailed throughput / message-rate spot checks (validate the flow model)
# ---------------------------------------------------------------------------

def measure_write_throughput(nic_config: NicConfig = NIC_10G,
                             host_config: HostConfig = HOST_DEFAULT,
                             payload_bytes: int = 4096,
                             messages: int = 64,
                             seed: int = 3) -> float:
    """Goodput (Gbit/s) of ``messages`` pipelined writes (detailed sim)."""
    env = Simulator()
    fabric = build_fabric(env, nic_config=nic_config,
                          host_config=host_config, seed=seed)
    client = fabric.client
    src = client.alloc(payload_bytes, "tp_src")
    dst = fabric.server.alloc(payload_bytes, "tp_dst")
    client.space.write(src.vaddr, b"\xEE" * payload_bytes)

    def client_loop():
        start = env.now
        last = None
        for _ in range(messages):
            last = yield from client.write(fabric.client_qpn, src.vaddr,
                                           dst.vaddr, payload_bytes)
        yield last
        elapsed = env.now - start
        return messages * payload_bytes * 8 / timebase.to_seconds(elapsed)

    bits_per_second = run_proc(env, client_loop(),
                               limit=messages * 100 * MS)
    return bits_per_second / 1e9
