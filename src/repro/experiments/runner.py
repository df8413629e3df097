"""Run every reproduced table and figure and print the results.

Usage::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner fig7 fig8  # a selection
    python -m repro.experiments.runner --fast     # reduced iteration counts

    # capture observability artifacts for any run:
    python -m repro cluster-scaling --fast \
        --trace-out run.json --metrics-out metrics.json
    python -m repro report metrics.json           # pretty-print a snapshot

``--trace-out`` writes a Chrome trace-event file (load it at
https://ui.perfetto.dev); ``--metrics-out`` writes the merged metrics
snapshot of every simulation the run built (see :mod:`repro.obs`).
A malformed ``REPRO_*`` variable (:mod:`repro.runmode`) ends the run
with a one-line error naming it; Ctrl-C ends it with ``interrupted
during <experiment id>`` and exit status 130.

The EXPERIMENTS.md paper-vs-measured records were produced by this
runner.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List

from ..obs import observe

from ..config import NIC_10G, NIC_100G
from ..runmode import RunModeError, active
from ..sim import MS
from .ablations import (
    datapath_width_ablation,
    doorbell_batching_ablation,
    interconnect_latency_ablation,
    outstanding_reads_ablation,
)
from .cluster_scaling import cluster_scaling_experiment
from .common import ExperimentResult
from .fault_sweep import fault_sweep_experiment
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
from .fig11_shuffle import shuffle_experiment
from .incast_sweep import incast_sweep_experiment
from .kernel_fault_sweep import kernel_fault_sweep_experiment
from .fig13_hll import hll_cpu_experiment, hll_kernel_experiment
from .table3_resources import table3_experiment, virtex7_experiment
from .validation import flow_vs_detailed_experiment, stack_budget_experiment


def _registry(fast: bool,
              seed: int = 7) -> Dict[str, Callable[[], ExperimentResult]]:
    # Flow-model sweep points (repro.experiments.flowmodel) are memoized
    # per (config, payload) with lru_cache, so operating points shared
    # between figure families are computed once per run.
    lat_iters = 15 if fast else 50
    sweep_iters = 8 if fast else 30
    return {
        "fig5a": lambda: latency_experiment(NIC_10G, iterations=lat_iters),
        "fig5b": lambda: throughput_experiment(NIC_10G),
        "fig5c": lambda: message_rate_experiment(NIC_10G),
        "fig7": lambda: linked_list_experiment(iterations=sweep_iters),
        "fig8": lambda: hash_table_experiment(iterations=sweep_iters),
        "fig9": lambda: consistency_latency_experiment(
            iterations=sweep_iters),
        "fig10": lambda: failure_rate_experiment(
            iterations=max(sweep_iters, 20)),
        "fig11": lambda: shuffle_experiment(),
        "fig12a": lambda: latency_experiment(
            NIC_100G, iterations=lat_iters, experiment_id="fig12a"),
        "fig12b": lambda: throughput_experiment(
            NIC_100G, experiment_id="fig12b"),
        "fig12c": lambda: message_rate_experiment(
            NIC_100G, payloads=[64, 256, 1024, 2048, 4096],
            experiment_id="fig12c"),
        "fig13a": lambda: hll_cpu_experiment(),
        "fig13b": lambda: hll_kernel_experiment(),
        "table3": table3_experiment,
        "sec6.1": virtex7_experiment,
        "ablation-interconnect": lambda: interconnect_latency_ablation(
            iterations=max(sweep_iters, 8)),
        "ablation-datapath": datapath_width_ablation,
        "ablation-outstanding-reads": outstanding_reads_ablation,
        "ablation-batching": doorbell_batching_ablation,
        "validation-flow": flow_vs_detailed_experiment,
        "validation-stack-budget": stack_budget_experiment,
        "cluster-scaling": lambda: cluster_scaling_experiment(
            shard_counts=(1, 2) if fast else (1, 2, 3, 4),
            offered_per_shard=60_000.0 if fast else 120_000.0,
            window_ps=MS if fast else 2 * MS),
        "fault-sweep": lambda: fault_sweep_experiment(
            loss_levels=(0.0, 0.03) if fast else (0.0, 0.01, 0.03, 0.10),
            crash_modes=(True,) if fast else (False, True),
            seed=seed,
            offered_per_shard=40_000.0 if fast else 60_000.0,
            window_ps=MS if fast else 2 * MS),
        "kernel-fault-sweep": lambda: kernel_fault_sweep_experiment(
            fault_levels=(0, 6) if fast else (0, 2, 4, 8),
            seed=seed,
            offered_per_shard=30_000.0 if fast else 40_000.0,
            window_ps=MS if fast else 2 * MS),
        "incast-sweep": lambda: incast_sweep_experiment(
            sender_counts=(2, 8) if fast else (2, 4, 8, 16),
            seed=seed,
            messages=40 if fast else 100),
    }


def run_experiments(names: List[str] = None, fast: bool = False,
                    stream=None, seed: int = 7) -> List[ExperimentResult]:
    stream = stream or sys.stdout
    registry = _registry(fast, seed=seed)
    selected = names or list(registry)
    unknown = [n for n in selected if n not in registry]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}; "
                         f"available: {sorted(registry)}")
    results = []
    for name in selected:
        started = time.time()
        try:
            result = registry[name]()
        except KeyboardInterrupt:
            # Ctrl-C mid-sweep: one line naming the experiment, no
            # traceback, and the shell's exit status for SIGINT.
            print(f"interrupted during {name}", file=sys.stderr)
            raise SystemExit(130) from None
        elapsed = time.time() - started
        results.append(result)
        print(result.format_table(), file=stream)
        print(f"({elapsed:.1f}s wall)\n", file=stream)
    return results


def write_markdown_report(results: List[ExperimentResult],
                          path: str) -> None:
    """Write all result tables as one markdown document."""
    with open(path, "w") as handle:
        handle.write("# StRoM reproduction — measured results\n\n")
        for result in results:
            handle.write(result.format_markdown())
            handle.write("\n\n")


def print_metrics_report(path: str, stream=None) -> None:
    """Pretty-print a ``--metrics-out`` snapshot grouped by component.
    Raises :class:`OSError` for an unreadable file and
    :class:`ValueError` for one that is not a snapshot."""
    stream = stream or sys.stdout
    with open(path) as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict):
        raise ValueError("not a metrics snapshot (expected a JSON object "
                         "of metric name -> value)")
    print(f"metrics snapshot: {path} ({len(snapshot)} series)",
          file=stream)
    previous_root = None
    for name in sorted(snapshot):
        root = name.split(".", 1)[0]
        if root != previous_root:
            print(f"\n[{root}]", file=stream)
            previous_root = root
        value = snapshot[name]
        formatted = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<48} {formatted}", file=stream)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        active()
    except RunModeError as error:
        raise SystemExit(f"error: {error}") from None
    if argv and argv[0] == "conformance":
        # The conformance harness owns its own flags (--runs,
        # --first-run, ...) which the experiment parser doesn't know.
        from ..check.harness import conformance_main
        return conformance_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Reproduce the StRoM evaluation tables and figures")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all), or "
                             "'report FILE' to pretty-print a metrics "
                             "snapshot")
    parser.add_argument("--fast", action="store_true",
                        help="reduced iteration counts")
    parser.add_argument("--markdown", metavar="FILE",
                        help="also write the tables to FILE as markdown")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write a Chrome trace-event JSON of the run "
                             "(open with https://ui.perfetto.dev)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the run's merged metrics snapshot "
                             "as JSON")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed for seeded experiments "
                             "(fault-sweep); same seed, same JSON")
    parser.add_argument("--json", metavar="FILE", dest="json_out",
                        help="write result rows as deterministic JSON "
                             "(sorted keys, no timing noise)")
    args = parser.parse_args(argv)

    if args.experiments and args.experiments[0] == "report":
        if len(args.experiments) != 2:
            parser.error("report takes exactly one metrics JSON file")
        try:
            print_metrics_report(args.experiments[1])
        except BrokenPipeError:
            # `... report m.json | head` closes stdout early; not an error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError) as error:
            # Missing/unreadable file, malformed JSON, or not a snapshot.
            raise SystemExit(
                f"error: report {args.experiments[1]}: {error}") from None
        return 0

    observing = args.trace_out or args.metrics_out
    if observing:
        with observe(tracing=bool(args.trace_out)) as session:
            results = run_experiments(args.experiments or None,
                                      fast=args.fast, seed=args.seed)
        if args.trace_out:
            session.write_trace(args.trace_out)
            print(f"chrome trace written to {args.trace_out}")
        if args.metrics_out:
            session.write_metrics(args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out}")
    else:
        results = run_experiments(args.experiments or None, fast=args.fast,
                                  seed=args.seed)
    if args.markdown:
        write_markdown_report(results, args.markdown)
        print(f"markdown report written to {args.markdown}")
    if args.json_out:
        payload = {r.experiment_id: r.rows for r in results}
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"result rows written to {args.json_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
