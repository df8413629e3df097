"""Untraced host cost of named functions per op of a perfbench workload.

Builds the workload from ``perfbench/workloads.py`` and runs it through
``perfbench/run.py``'s ``Driver`` for a fixed number of ops (no speed
probe, no tracer), each named function wrapped in ``time.perf_counter``.
Prints each one's calls per op and inclusive raw host microseconds per
call and per op (callers include their callees), and the run's CPU
microseconds per op; not scaled to a reference host.  A function is
named ``module:Owner.attr`` (module under ``repro``; one that does not
resolve prints as missing).  Stdlib only::

    python tools/stage_cost.py bulk_256k [--seed 1] [--ops 4000]
    python tools/stage_cost.py kv_get --stage nic.dma:DmaEngine.read_plan
"""

import argparse
import importlib
import os
import sys
import time
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The burst fold's stages (the default list).
FOLD_STAGES = (
    "roce.burst:try_fold", "roce.burst:_resolve_path",
    "roce.burst:BurstFlight.schedule", "roce.burst:BurstFlight.commit",
    "nic.dma:DmaEngine.read_plan", "nic.tlb:Tlb.chunk_run",
    "nic.dma:DmaEngine._chunk_durations", "roce.burst:BurstFlight._on_e1",
    "roce.burst:BurstFlight._on_e2", "roce.burst:BurstFlight._settle_tlb",
    "roce.burst:BurstFlight._arrived", "roce.burst:BurstFlight._on_e3",
    "nic.dma:DmaEngine._commit_write",
    "memory.physical:PhysicalMemory.write_views")


def wrap(spec, totals):
    """Replace the function ``spec`` names with a timed wrapper; False
    when it does not resolve."""
    module, _, path = spec.partition(":")
    *owners, attr = path.split(".")
    try:
        owner = reduce(getattr, owners,
                       importlib.import_module("repro." + module))
        original = getattr(owner, attr)
    except AttributeError:
        return False
    clock, cell = time.perf_counter, totals.setdefault(spec, [0, 0.0])

    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            cell[0] += 1
            cell[1] += clock() - start
    setattr(owner, attr, timed)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=4000)
    parser.add_argument("--stage", action="append", default=[])
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    import workloads
    for name in run.PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    os.environ.update(workload.switches)
    instance = workload.build()
    totals = {}
    resolved = {spec: wrap(spec, totals)
                for spec in args.stage or FOLD_STAGES}
    driver = run.Driver(instance, workload, 0.0, args.ops)
    start = time.process_time()
    driver.run()
    ops = len(driver.stamps)
    print(f"{args.workload} seed={args.seed}: {ops} ops, "
          f"{(time.process_time() - start) / ops * 1e6:.1f} us/op "
          f"untraced, {driver.failed} failed")
    print(f"  {'stage':<46} {'calls/op':>8} {'us/call':>8} {'us/op':>8}")
    for spec, ok in resolved.items():
        calls, seconds = totals.get(spec, (0, 0.0))
        per_call = seconds / calls * 1e6 if calls else 0.0
        print(f"  {spec:<46} " + (f"{calls / ops:8.2f} {per_call:8.2f} "
                                  f"{seconds / ops * 1e6:8.2f}" if ok
                                  else f"{'missing':>8}"))
    return 1 if driver.failed else 0


if __name__ == "__main__":
    sys.exit(main())
