"""Call census: which functions in ``src/repro`` only the tests reach.

Runs every product entry point (the CI's perfbench runs included) and
every tier-1 leg as a child process under a ``sys.setprofile`` /
``threading.setprofile`` hook that records the ``(file,
co_firstlineno)`` of each ``src/repro`` code object called, then diffs
those records against the module- and class-level ``def``s that
:mod:`ast` finds (nested defs are not counted).  Each def lands in one
of three classes:

* ``product``: some product entry point calls it;
* ``test-only``: a tier-1 leg calls it, but no product entry point does;
* ``unreached``: nothing calls it.

Prints the test-only and unreached defs per file, then one JSON line
with the counts.  Stdlib only; takes no arguments; run from anywhere::

    python tools/census.py

It takes about 15 minutes on 2 CPUs (the three tier-1 legs dominate).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("kv_get", "bulk_256k", "incast_cc", "offload_kernels")
EXAMPLES = ("quickstart", "key_value_store", "consistent_objects",
            "distributed_shuffle", "stream_analytics",
            "remote_object_store", "distributed_join",
            "sharded_kv_cluster")

# Loaded by every child interpreter (it sits first on PYTHONPATH).  It
# keeps the code objects called and writes their (file, first line) at
# exit: filtering per call would cost more than the set insert.
_HOOK = '''\
import atexit, json, os, sys, threading

_seen = set()


def _hook(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    records = sorted({(os.path.normpath(os.path.abspath(c.co_filename)),
                       c.co_firstlineno) for c in _seen})
    with open(os.path.join(OUT_DIR, f"{os.getpid()}.json"), "w") as f:
        json.dump(records, f)


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def product_commands(scratch: Path) -> list[tuple[list[str], dict]]:
    """Every product entry point, as an argv run from the repo root and
    the ``REPRO_*`` variables it runs under: the CI runs of perfbench
    (a traced run, and bulk_256k under validation) included, plus a
    traced offload_kernels run, whose layer report alone reads the
    kernel registry (:meth:`KernelRegistry.match`)."""
    py = sys.executable
    metrics = str(scratch / "metrics.json")
    commands = [
        [py, "-m", "repro", "--seed", "7"],
        [py, "-m", "repro", "--fast", "--seed", "7",
         "--trace-out", str(scratch / "trace.json"),
         "--metrics-out", metrics,
         "--markdown", str(scratch / "report.md")],
        [py, "-m", "repro", "report", metrics],
        [py, "-m", "repro", "conformance", "--runs", "25"],
    ]
    commands += [[py, "perfbench/run.py", "--workload", w,
                  "--seconds", "1", "--trace", "0"] for w in WORKLOADS]
    commands += [[py, f"examples/{name}.py"] for name in EXAMPLES]
    commands = [(argv, {}) for argv in commands]
    commands += [
        ([py, "perfbench/run.py", "--workload", "incast_cc",
          "--seconds", "1", "--trace", "1"], {}),
        ([py, "perfbench/run.py", "--workload", "offload_kernels",
          "--seconds", "1", "--trace", "1"], {}),
        ([py, "perfbench/run.py", "--workload", "bulk_256k",
          "--seconds", "1"], {"REPRO_VALIDATE": "1"}),
    ]
    return commands


TIER1_LEGS = ({}, {"REPRO_VALIDATE": "1"}, {"REPRO_CHECK": "1"})


def run_hooked(argv: list[str], extra_env: dict, scratch: Path) -> set:
    """Run ``argv`` (and any Python children that keep PYTHONPATH) under
    the hook; return every ``(file, first line)`` record they wrote."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        hook_dir = Path(tmp, "hook")
        out_dir = Path(tmp, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            _HOOK.replace("OUT_DIR", repr(str(out_dir))))
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(extra_env)
        env["PYTHONPATH"] = os.pathsep.join((str(hook_dir), str(SRC)))
        done = subprocess.run(argv, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(f"census: {' '.join(argv)} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")
        records = set()
        for dump in out_dir.iterdir():
            records.update(map(tuple, json.loads(dump.read_text())))
        return records


def defs_in(src: Path) -> dict:
    """``{(relative path, first line): (qualified name, lines)}`` for each
    def at module or class level under ``src``.  A decorated def's first
    line is its first decorator's, which is what ``co_firstlineno`` holds."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        stack = [(tree.body, "")]
        while stack:
            body, prefix = stack.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    stack.append((node.body, f"{prefix}{node.name}."))
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in
                                                 node.decorator_list])
                    found[rel, first] = (f"{prefix}{node.name}",
                                         node.end_lineno - first + 1)
    return found


def reached(records, src: Path) -> set:
    """The ``(relative path, first line)`` keys of the records under
    ``src``.  Paths are normalized first: a script that puts
    ``benchmarks/../src`` on ``sys.path`` records files under that
    spelling."""
    root = os.path.normpath(os.path.abspath(src)) + os.sep
    keys = set()
    for filename, line in records:
        filename = os.path.normpath(os.path.abspath(filename))
        if filename.startswith(root):
            keys.add((Path(filename[len(root):]).as_posix(), line))
    return keys


def classify(defs: dict, product: set, tier1: set) -> dict:
    """Split the keys of ``defs`` into product, test-only and unreached."""
    classes = {"product": [], "test-only": [], "unreached": []}
    for key in sorted(defs):
        kind = ("product" if key in product else
                "test-only" if key in tier1 else "unreached")
        classes[kind].append(key)
    return classes


def summary(defs: dict, classes: dict, src_lines: int) -> dict:
    counts = {}
    for kind, keys in classes.items():
        name = kind.replace("-", "_")
        counts[f"{name}_defs"] = len(keys)
        counts[f"{name}_lines"] = sum(defs[k][1] for k in keys)
    counts["src_lines"] = src_lines
    return counts


def main() -> int:
    product, tier1 = set(), set()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        scratch = Path(tmp)
        for argv, extra in product_commands(scratch):
            print("census: product", *argv[1:], extra or "",
                  file=sys.stderr)
            product |= reached(run_hooked(argv, extra, scratch), SRC)
        for extra in TIER1_LEGS:
            print("census: tier-1", extra or "plain", file=sys.stderr)
            tier1 |= reached(run_hooked(
                [sys.executable, "-m", "pytest", "-x", "-q"], extra,
                scratch), SRC)
    defs = defs_in(SRC)
    classes = classify(defs, product, tier1)
    for kind in ("test-only", "unreached"):
        print(f"== {kind}")
        by_file = {}
        for rel, line in classes[kind]:
            by_file.setdefault(rel, []).append((line, *defs[rel, line]))
        for rel, rows in by_file.items():
            print(f"{rel}: {sum(n for _, _, n in rows)} lines")
            for line, name, n in rows:
                print(f"  {line:5d} {name} ({n})")
    src_lines = sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))
    print(json.dumps(summary(defs, classes, src_lines)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
