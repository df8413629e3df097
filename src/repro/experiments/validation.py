"""Cross-validation experiments: the model checking itself.

- :func:`flow_vs_detailed_experiment` compares the analytic flow model
  against the packet-level simulation on overlapping operating points —
  the evidence that the fast projections used for the bulk-throughput
  figures are projections of the simulator, not independent guesses.
- :func:`stack_budget_experiment` evaluates Section 4.1's cycle-budget
  argument (the 5-cycle State Table access vs the packet arrival rate)
  for both builds.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import HOST_DEFAULT, NIC_10G, NIC_100G, NicConfig
from ..roce.stack_model import line_rate_verdict
from . import flowmodel
from .common import ExperimentResult, measure_write_throughput

#: (config, payload, messages) operating points for the agreement check.
DEFAULT_POINTS: List[Tuple[NicConfig, int, int]] = [
    (NIC_10G, 1024, 64),
    (NIC_10G, 4096, 48),
    (NIC_10G, 65536, 12),
    (NIC_100G, 4096, 64),
    (NIC_100G, 65536, 24),
]


def flow_vs_detailed_experiment() -> ExperimentResult:
    """Write-goodput agreement between the two fidelity modes."""
    result = ExperimentResult(
        experiment_id="validation-flow",
        title="Flow model vs detailed packet simulation (write goodput)",
        columns=["build", "payload_B", "detailed_gbps", "flow_gbps",
                 "gap_pct"],
        notes="finite-run pipeline-fill effects explain the residual gap")
    for config, payload, messages in DEFAULT_POINTS:
        detailed = measure_write_throughput(config, HOST_DEFAULT,
                                            payload_bytes=payload,
                                            messages=messages)
        flow = flowmodel.write_throughput(config, HOST_DEFAULT, payload)
        gap = 100.0 * abs(detailed - flow.goodput_gbps) / flow.goodput_gbps
        result.add_row(build=config.name, payload_B=payload,
                       detailed_gbps=detailed,
                       flow_gbps=flow.goodput_gbps, gap_pct=gap)
    return result


def stack_budget_experiment() -> ExperimentResult:
    """Section 4.1's line-rate argument for both builds."""
    result = ExperimentResult(
        experiment_id="validation-stack-budget",
        title="Pipeline cycle budget vs packet arrival (Section 4.1)",
        columns=["build", "payload_B", "arrival_cycles", "stage_cycles",
                 "sustains", "effective_limit"],
        notes="the 5-cycle State Table access is oversubscribed for "
              "small packets at 100 G but masked by the host message "
              "rate (Section 4.1/7.1)")
    for config in (NIC_10G, NIC_100G):
        for payload in (1, 64, 1440):
            verdict = line_rate_verdict(config, HOST_DEFAULT, payload)
            result.add_row(build=config.name, payload_B=payload,
                           arrival_cycles=verdict.arrival_cycles,
                           stage_cycles=verdict.worst_stage_cycles,
                           sustains=verdict.pipeline_sustains,
                           effective_limit=verdict.effectively_limited_by)
    return result
