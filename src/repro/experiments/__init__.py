"""Experiment harnesses: one module per published table/figure, plus the
analytic flow model and the detailed measurement procedures.

See DESIGN.md for the experiment index and EXPERIMENTS.md for
paper-vs-measured records.
"""

from . import flowmodel
from .ablations import (
    datapath_width_ablation,
    doorbell_batching_ablation,
    interconnect_latency_ablation,
    outstanding_reads_ablation,
)
from .common import (
    ExperimentResult,
    measure_read_latency,
    measure_write_latency,
    measure_write_throughput,
)
from .fig05_microbench import (
    latency_experiment,
    message_rate_experiment,
    throughput_experiment,
)
from .fig07_linked_list import linked_list_experiment
from .fig08_hash_table import hash_table_experiment
from .fig09_consistency import (
    consistency_latency_experiment,
    failure_rate_experiment,
)
from .fig11_shuffle import shuffle_detailed_run, shuffle_experiment
from .fig13_hll import hll_cpu_experiment, hll_kernel_experiment
from .runner import run_experiments
from .table3_resources import table3_experiment, virtex7_experiment
from .validation import flow_vs_detailed_experiment, stack_budget_experiment

__all__ = [
    "ExperimentResult",
    "consistency_latency_experiment",
    "datapath_width_ablation",
    "doorbell_batching_ablation",
    "interconnect_latency_ablation",
    "outstanding_reads_ablation",
    "failure_rate_experiment",
    "flow_vs_detailed_experiment",
    "flowmodel",
    "stack_budget_experiment",
    "hash_table_experiment",
    "hll_cpu_experiment",
    "hll_kernel_experiment",
    "latency_experiment",
    "linked_list_experiment",
    "measure_read_latency",
    "measure_write_latency",
    "measure_write_throughput",
    "message_rate_experiment",
    "run_experiments",
    "shuffle_detailed_run",
    "shuffle_experiment",
    "table3_experiment",
    "throughput_experiment",
    "virtex7_experiment",
]
